#include "util/spill_store.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "obs/flight.hpp"
#include "obs/memledger.hpp"
#include "util/iofault.hpp"

namespace tsb::util::spill {

std::size_t page_size() {
  static const std::size_t sz =
      static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  return sz;
}

bool BackingFile::open(const std::string& dir) {
  close();
  const std::string path =
      dir + "/tsb-spill-" + std::to_string(::getpid()) + "-" +
      std::to_string(reinterpret_cast<std::uintptr_t>(this) & 0xffffffu) +
      ".bin";
  const int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_EXCL, 0600);
  if (fd < 0) return false;
  ::unlink(path.c_str());
  fd_ = fd;
  end_ = 0;
  return true;
}

bool BackingFile::append(const std::uint8_t* data, std::size_t len,
                         Block& out) {
  const std::uint64_t off = end_;
  if (!iofault::pwrite_full(fd_, data, len, static_cast<off_t>(off))) {
    return false;
  }
  const std::size_t map_len = round_up(len, page_size());
  void* map = MAP_FAILED;
  do {
    map = ::mmap(nullptr, map_len, PROT_READ, MAP_SHARED, fd_,
                 static_cast<off_t>(off));
  } while (map == MAP_FAILED && errno == EINTR);
  if (map == MAP_FAILED) return false;
  end_ = off + map_len;
  out.map = static_cast<std::uint8_t*>(map);
  out.map_len = map_len;
  out.bytes = len;
  out.file_off = off;
  return true;
}

void BackingFile::release(Block& b) {
  if (b.map == nullptr) return;
  ::munmap(b.map, b.map_len);
#ifdef FALLOC_FL_PUNCH_HOLE
  if (fd_ >= 0) {
    // Best effort: a superseded block's space goes back to the filesystem.
    // Filesystems without hole punching just keep the (unlinked) space
    // until close; the resident budget is unaffected either way.
    ::fallocate(fd_, FALLOC_FL_PUNCH_HOLE | FALLOC_FL_KEEP_SIZE,
                static_cast<off_t>(b.file_off),
                static_cast<off_t>(b.map_len));
  }
#endif
  b = Block{};
}

void BackingFile::truncate() {
  if (fd_ >= 0) ::ftruncate(fd_, 0);
  end_ = 0;
}

void BackingFile::close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
  end_ = 0;
}

void throw_spill_failure(const std::string& name, int err,
                         std::size_t resident_bytes,
                         std::size_t resident_target) {
  // Disk trouble (ENOSPC, a dying device). Continuing in RAM would
  // silently abandon the operator's memory plan mid-campaign, so this is a
  // budget failure, not a shrug: flight event, ledger attribution, clean
  // exit 4 upstream.
  obs::flight::record(obs::flight::Ev::kBudgetTrip,
                      static_cast<std::int64_t>(resident_bytes),
                      -static_cast<std::int64_t>(err));
  throw BudgetExhausted(
      name + " spill write failed (" + std::string(std::strerror(err)) +
      ") with " + obs::format_bytes(resident_bytes) + " resident over a " +
      obs::format_bytes(resident_target) +
      " spill target; exploration cannot keep its memory plan; ledger: " +
      obs::MemLedger::global().attribution(3));
}

void throw_unusable_dir(const std::string& dir, int err) {
  throw UsageError("spill directory '" + dir + "' is unusable (" +
                   std::string(std::strerror(err)) +
                   "); the out-of-core memory plan cannot be kept");
}

void require_usable_dir(const std::string& dir) {
  BackingFile probe;
  if (!probe.open(dir)) throw_unusable_dir(dir, errno);
}

}  // namespace tsb::util::spill
