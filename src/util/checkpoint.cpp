#include "util/checkpoint.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>

#include "obs/flight.hpp"
#include "obs/jsonl_sink.hpp"
#include "obs/memledger.hpp"
#include "obs/timeseries.hpp"
#include "util/iofault.hpp"
#include "util/require.hpp"

namespace tsb::util::ckpt {

namespace {

/// Telemetry watchdog probe (checkpoint-stall rule): seconds since the
/// service's last successful write.
std::int64_t ckpt_age_probe() {
  return CheckpointService::global().seconds_since_last_write();
}

constexpr char kMagic[8] = {'T', 'S', 'B', 'C', 'K', 'P', 'T', '\n'};
constexpr std::size_t kMaxSectionName = 256;

std::string errno_detail() { return std::strerror(errno); }

void le32(std::uint8_t* out, std::uint32_t v) {
  out[0] = static_cast<std::uint8_t>(v);
  out[1] = static_cast<std::uint8_t>(v >> 8);
  out[2] = static_cast<std::uint8_t>(v >> 16);
  out[3] = static_cast<std::uint8_t>(v >> 24);
}

void le64(std::uint8_t* out, std::uint64_t v) {
  le32(out, static_cast<std::uint32_t>(v));
  le32(out + 4, static_cast<std::uint32_t>(v >> 32));
}

std::uint32_t rd32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

std::uint64_t rd64(const std::uint8_t* p) {
  return static_cast<std::uint64_t>(rd32(p)) |
         (static_cast<std::uint64_t>(rd32(p + 4)) << 32);
}

/// Best-effort directory fsync so the rename itself is durable; failure is
/// ignored (some filesystems refuse O_RDONLY dir fsync).
void fsync_dir_of(const std::string& path) {
  std::string dir = ".";
  if (const std::size_t slash = path.rfind('/'); slash != std::string::npos) {
    dir = slash == 0 ? "/" : path.substr(0, slash);
  }
  const int fd = ::open(dir.c_str(), O_RDONLY);
  if (fd >= 0) {
    (void)iofault::fsync(fd);
    ::close(fd);
  }
}

}  // namespace

std::uint32_t crc32(const void* data, std::size_t len, std::uint32_t seed) {
  static const std::uint32_t* table = [] {
    static std::uint32_t t[256];
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  const std::uint8_t* p = static_cast<const std::uint8_t*>(data);
  for (std::size_t i = 0; i < len; ++i) {
    c = table[(c ^ p[i]) & 0xFF] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

// --- SectionWriter ---------------------------------------------------------

SectionWriter::SectionWriter(const std::string& path)
    : path_(path), tmp_(path + ".tmp") {
  fd_ = ::open(tmp_.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd_ < 0) fail("open " + tmp_);
  std::uint8_t hdr[sizeof(kMagic) + 4];
  std::memcpy(hdr, kMagic, sizeof(kMagic));
  le32(hdr + sizeof(kMagic), kFormatVersion);
  try {
    raw(hdr, sizeof(hdr));
  } catch (...) {
    // A throwing constructor never runs the destructor: close and unlink
    // here or a full-disk failure leaks the fd and a stray tmp file.
    ::close(fd_);
    ::unlink(tmp_.c_str());
    fd_ = -1;
    throw;
  }
}

SectionWriter::~SectionWriter() {
  if (fd_ >= 0) {
    ::close(fd_);
    ::unlink(tmp_.c_str());  // never leave a half-written tmp behind
  }
}

void SectionWriter::fail(const std::string& what) {
  // Write-path failures are resource exhaustion (full disk, dead device),
  // not corruption: surface them on the BudgetExhausted path so the CLI
  // degrades to exit 4, matching the spill writer's contract.
  throw BudgetExhausted("checkpoint write failed: " + what + ": " +
                        errno_detail());
}

void SectionWriter::raw(const void* data, std::size_t len) {
  if (!iofault::write_full(fd_, data, len)) fail("write " + tmp_);
  total_ += len;
}

void SectionWriter::begin(const std::string& name) {
  TSB_REQUIRE(!in_section_ && !finished_, "checkpoint section misnesting");
  TSB_REQUIRE(!name.empty() && name.size() < kMaxSectionName,
              "checkpoint section name");
  std::uint8_t len4[4];
  le32(len4, static_cast<std::uint32_t>(name.size()));
  raw(len4, 4);
  raw(name.data(), name.size());
  sec_header_ = total_;
  std::uint8_t placeholder[12] = {};
  raw(placeholder, sizeof(placeholder));
  sec_len_ = 0;
  sec_crc_ = 0;
  in_section_ = true;
}

void SectionWriter::put_bytes(const void* data, std::size_t len) {
  TSB_REQUIRE(in_section_, "checkpoint put outside a section");
  raw(data, len);
  sec_crc_ = crc32(data, len, sec_crc_);
  sec_len_ += len;
}

void SectionWriter::put_u32(std::uint32_t v) {
  std::uint8_t b[4];
  le32(b, v);
  put_bytes(b, 4);
}

void SectionWriter::put_u64(std::uint64_t v) {
  std::uint8_t b[8];
  le64(b, v);
  put_bytes(b, 8);
}

void SectionWriter::put_str(const std::string& s) {
  put_u32(static_cast<std::uint32_t>(s.size()));
  put_bytes(s.data(), s.size());
}

void SectionWriter::end() {
  TSB_REQUIRE(in_section_, "checkpoint end without begin");
  std::uint8_t hdr[12];
  le64(hdr, sec_len_);
  le32(hdr + 8, sec_crc_);
  if (!iofault::pwrite_full(fd_, hdr, sizeof(hdr),
                            static_cast<off_t>(sec_header_))) {
    fail("backpatch " + tmp_);
  }
  in_section_ = false;
}

void SectionWriter::finish() {
  TSB_REQUIRE(!in_section_ && !finished_, "checkpoint finish misnesting");
  // END sentinel: zero-length name, zero-length payload, zero CRC. Its
  // presence is what lets a reader distinguish "complete file" from "file
  // truncated exactly at a section boundary".
  std::uint8_t sentinel[4 + 12] = {};
  raw(sentinel, sizeof(sentinel));
  if (iofault::fsync(fd_) != 0) fail("fsync " + tmp_);
  if (::close(fd_) != 0) {
    // fd_ is dead either way, so the destructor won't run the unlink:
    // remove the tmp file here (preserving the close errno for fail) or
    // a close failure leaves .tmp debris the error contract forbids.
    const int err = errno;
    fd_ = -1;
    ::unlink(tmp_.c_str());
    errno = err;
    fail("close " + tmp_);
  }
  fd_ = -1;
  if (iofault::rename(tmp_.c_str(), path_.c_str()) != 0) {
    const int err = errno;
    ::unlink(tmp_.c_str());
    errno = err;
    fail("rename " + tmp_);
  }
  fsync_dir_of(path_);
  finished_ = true;
}

// --- SectionReader ---------------------------------------------------------

SectionReader::SectionReader(const std::string& path) : path_(path) {
  fd_ = ::open(path_.c_str(), O_RDONLY);
  if (fd_ < 0) {
    throw CheckpointInvalid("checkpoint state file missing or unreadable: " +
                            path_ + ": " + errno_detail());
  }
  std::uint8_t hdr[sizeof(kMagic) + 4];
  if (!iofault::read_full(fd_, hdr, sizeof(hdr))) fail("truncated header");
  if (std::memcmp(hdr, kMagic, sizeof(kMagic)) != 0) {
    fail("bad magic (not a checkpoint state file)");
  }
  const std::uint32_t version = rd32(hdr + sizeof(kMagic));
  if (version != kFormatVersion) {
    fail("unsupported format version " + std::to_string(version) +
         " (this build reads version " + std::to_string(kFormatVersion) + ")");
  }
}

SectionReader::~SectionReader() {
  if (fd_ >= 0) ::close(fd_);
}

void SectionReader::fail(const std::string& what) {
  throw CheckpointInvalid("checkpoint invalid: " + path_ +
                          (sec_name_.empty() ? "" : " section " + sec_name_) +
                          ": " + what);
}

std::string SectionReader::next() {
  std::uint8_t len4[4];
  if (!iofault::read_full(fd_, len4, 4)) fail("truncated at section header");
  const std::uint32_t name_len = rd32(len4);
  if (name_len >= kMaxSectionName) fail("implausible section name length");
  std::string name(name_len, '\0');
  if (name_len > 0 && !iofault::read_full(fd_, name.data(), name_len)) {
    fail("truncated section name");
  }
  sec_name_ = name_len > 0 ? name : "<end>";
  std::uint8_t hdr[12];
  if (!iofault::read_full(fd_, hdr, sizeof(hdr))) {
    fail("truncated section length/CRC");
  }
  const std::uint64_t len = rd64(hdr);
  const std::uint32_t want_crc = rd32(hdr + 8);
  if (name_len == 0 && len != 0) fail("END sentinel carries a payload");
  payload_.resize(len);
  if (len > 0 && !iofault::read_full(fd_, payload_.data(), len)) {
    fail("truncated section payload (" + std::to_string(len) + " bytes)");
  }
  const std::uint32_t got_crc =
      len > 0 ? crc32(payload_.data(), payload_.size()) : 0;
  if (got_crc != want_crc) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "CRC mismatch (stored %08x, computed %08x)",
                  want_crc, got_crc);
    fail(buf);
  }
  pos_ = 0;
  return name_len > 0 ? name : std::string();
}

void SectionReader::expect(const std::string& name) {
  const std::string got = next();
  if (got != name) {
    fail("expected section '" + name + "', found '" +
         (got.empty() ? "<end>" : got) + "'");
  }
}

void SectionReader::expect_end() {
  const std::string got = next();
  if (!got.empty()) fail("expected END sentinel, found '" + got + "'");
}

const std::uint8_t* SectionReader::get_bytes(std::size_t len) {
  if (remaining() < len) fail("section payload shorter than its schema");
  const std::uint8_t* p = payload_.data() + pos_;
  pos_ += len;
  return p;
}

std::uint8_t SectionReader::get_u8() { return *get_bytes(1); }
std::uint32_t SectionReader::get_u32() { return rd32(get_bytes(4)); }
std::uint64_t SectionReader::get_u64() { return rd64(get_bytes(8)); }

std::string SectionReader::get_str() {
  const std::uint32_t len = get_u32();
  if (remaining() < len) fail("string runs past its section");
  const std::uint8_t* p = get_bytes(len);
  return std::string(reinterpret_cast<const char*>(p), len);
}

void SectionReader::done() {
  if (remaining() != 0) {
    fail("section payload longer than its schema (" +
         std::to_string(remaining()) + " trailing bytes)");
  }
}

// --- Manifest --------------------------------------------------------------

void Manifest::set_u64(const std::string& k, std::uint64_t v) {
  kv[k] = std::to_string(v);
}

const std::string& Manifest::get(const std::string& k) const {
  const auto it = kv.find(k);
  if (it == kv.end()) {
    throw CheckpointInvalid("checkpoint manifest missing key '" + k + "'");
  }
  return it->second;
}

std::uint64_t Manifest::get_u64(const std::string& k) const {
  return std::strtoull(get(k).c_str(), nullptr, 10);
}

void Manifest::save(const std::string& path) const {
  std::string body;
  for (const auto& [k, v] : kv) {
    body += k;
    body += '=';
    body += v;
    body += '\n';
  }
  char crc_line[32];
  std::snprintf(crc_line, sizeof(crc_line), "crc=%08x\n",
                crc32(body.data(), body.size()));
  body += crc_line;

  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    throw BudgetExhausted("checkpoint manifest write failed: open " + tmp +
                          ": " + errno_detail());
  }
  const bool ok =
      iofault::write_full(fd, body.data(), body.size()) &&
      iofault::fsync(fd) == 0;
  const int saved_errno = errno;
  ::close(fd);
  if (!ok) {
    ::unlink(tmp.c_str());
    errno = saved_errno;
    throw BudgetExhausted("checkpoint manifest write failed: " + tmp + ": " +
                          errno_detail());
  }
  // The commit point of the whole checkpoint: before this rename the
  // previous manifest (if any) still names the previous complete state
  // file; after it, the new one. Crash anywhere: one of the two, whole.
  if (iofault::rename(tmp.c_str(), path.c_str()) != 0) {
    ::unlink(tmp.c_str());
    throw BudgetExhausted("checkpoint manifest rename failed: " + path + ": " +
                          errno_detail());
  }
  fsync_dir_of(path);
}

Manifest Manifest::load(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    throw CheckpointInvalid("checkpoint manifest missing or unreadable: " +
                            path + ": " + errno_detail());
  }
  std::string body;
  char buf[4096];
  for (;;) {
    const ssize_t r = iofault::read(fd, buf, sizeof(buf));
    if (r < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      throw CheckpointInvalid("checkpoint manifest read failed: " + path +
                              ": " + errno_detail());
    }
    if (r == 0) break;
    body.append(buf, static_cast<std::size_t>(r));
  }
  ::close(fd);

  // The trailing line must be the self-CRC; anything else means the write
  // was torn mid-file and the manifest cannot be trusted.
  if (body.empty() || body.back() != '\n') {
    throw CheckpointInvalid("checkpoint manifest torn (no trailing newline): " +
                            path);
  }
  const std::size_t last_nl = body.rfind('\n', body.size() - 2);
  const std::size_t crc_at = last_nl == std::string::npos ? 0 : last_nl + 1;
  const std::string crc_line = body.substr(crc_at, body.size() - crc_at - 1);
  if (crc_line.rfind("crc=", 0) != 0) {
    throw CheckpointInvalid(
        "checkpoint manifest torn (self-CRC line missing): " + path);
  }
  const std::uint32_t want =
      static_cast<std::uint32_t>(std::strtoul(crc_line.c_str() + 4, nullptr, 16));
  const std::uint32_t got = crc32(body.data(), crc_at);
  if (want != got) {
    char detail[64];
    std::snprintf(detail, sizeof(detail), " (stored %08x, computed %08x)",
                  want, got);
    throw CheckpointInvalid("checkpoint manifest checksum mismatch" +
                            std::string(detail) + ": " + path);
  }

  Manifest m;
  std::size_t at = 0;
  while (at < crc_at) {
    const std::size_t nl = body.find('\n', at);
    const std::string line = body.substr(at, nl - at);
    at = nl + 1;
    const std::size_t eq = line.find('=');
    if (eq == std::string::npos || eq == 0) {
      throw CheckpointInvalid("checkpoint manifest malformed line '" + line +
                              "': " + path);
    }
    m.kv[line.substr(0, eq)] = line.substr(eq + 1);
  }
  return m;
}

std::string manifest_path(const std::string& dir) {
  return dir + "/" + kManifestName;
}

std::string state_path(const std::string& dir, std::uint64_t gen) {
  return dir + "/state-" + std::to_string(gen) + ".bin";
}

// --- CheckpointService -----------------------------------------------------

CheckpointService& CheckpointService::global() {
  // Leaked, like the other process-wide observability singletons: signal
  // handlers and teardown paths may touch it at arbitrary lifetimes.
  static CheckpointService* s = new CheckpointService;
  return *s;
}

void CheckpointService::configure(const std::string& dir,
                                  std::uint64_t interval_ms,
                                  std::uint64_t every_work,
                                  const std::string& fingerprint) {
  // Registered outside mu_: the telemetry tick holds its own lock while
  // calling the probe (which takes mu_), so taking the locks in the other
  // order here would be an inversion.
  obs::telemetry::set_ckpt_probe(dir.empty() ? nullptr : &ckpt_age_probe,
                                 dir.empty() ? 0 : interval_ms);
  std::lock_guard<std::mutex> lock(mu_);
  dir_ = dir;
  interval_ms_ = interval_ms;
  every_work_ = every_work;
  fingerprint_ = fingerprint;
  work_acc_ = 0;
  last_write_ = std::chrono::steady_clock::now();
  ever_wrote_ = false;
  generation_ = 0;
  if (!dir_.empty()) {
    ::mkdir(dir_.c_str(), 0755);  // EEXIST is fine
    // Continue the generation sequence of an existing (valid) checkpoint
    // so resume's next write never clobbers the state file the manifest
    // still commits to. A corrupt manifest just restarts at generation 1 —
    // resume validation (which refuses corrupt manifests loudly) has
    // already run by the time anything depends on the old state.
    try {
      generation_ = Manifest::load(manifest_path(dir_)).get_u64("generation");
    } catch (const CheckpointInvalid&) {
    }
  }
  active_.store(!dir_.empty(), std::memory_order_relaxed);
  engaged_.store(!dir_.empty() ||
                     stop_requested_.load(std::memory_order_relaxed) ||
                     stop_after_.load(std::memory_order_relaxed) != 0,
                 std::memory_order_relaxed);
}

void CheckpointService::reset() {
  obs::telemetry::set_ckpt_probe(nullptr, 0);
  std::lock_guard<std::mutex> lock(mu_);
  dir_.clear();
  fingerprint_.clear();
  interval_ms_ = 0;
  every_work_ = 0;
  writer_ = nullptr;
  manifest_extra_ = nullptr;
  generation_ = 0;
  work_acc_ = 0;
  ever_wrote_ = false;
  writes_.store(0, std::memory_order_relaxed);
  bytes_.store(0, std::memory_order_relaxed);
  write_ms_.store(0, std::memory_order_relaxed);
  active_.store(false, std::memory_order_relaxed);
  in_write_.store(false, std::memory_order_relaxed);
  stop_requested_.store(false, std::memory_order_relaxed);
  stop_after_.store(0, std::memory_order_relaxed);
  engaged_.store(false, std::memory_order_relaxed);
}

void CheckpointService::set_writer(Serializer s,
                                   std::function<void(Manifest&)> extra) {
  std::lock_guard<std::mutex> lock(mu_);
  writer_ = std::move(s);
  manifest_extra_ = std::move(extra);
}

void CheckpointService::stop_after_polls(std::uint64_t n) {
  stop_after_.store(n, std::memory_order_relaxed);
  if (n != 0) engaged_.store(true, std::memory_order_relaxed);
}

void CheckpointService::poll_slow(std::uint64_t work) {
  // Checked first: during a write the serializer runs with mu_ released,
  // so a serializer that re-enters a polling loop lands here and must
  // bail out — without touching the lock, the test hook, or the stop
  // unwind — instead of recursing into write_now.
  if (in_write_.load(std::memory_order_relaxed)) return;

  // Deterministic-interrupt test hook: the n-th poll becomes a stop
  // request, exactly as if SIGTERM had landed at this quiescent point.
  std::uint64_t hook = stop_after_.load(std::memory_order_relaxed);
  while (hook != 0) {
    if (stop_after_.compare_exchange_weak(hook, hook - 1,
                                          std::memory_order_relaxed)) {
      if (hook == 1) request_stop();
      break;
    }
  }

  bool due_now = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    work_acc_ += work;
    if (active_.load(std::memory_order_relaxed) && writer_ != nullptr &&
        !stop_requested_.load(std::memory_order_relaxed)) {
      if (every_work_ != 0 && work_acc_ >= every_work_) {
        due_now = true;
      } else if (interval_ms_ != 0 &&
                 std::chrono::steady_clock::now() - last_write_ >=
                     std::chrono::milliseconds(interval_ms_)) {
        due_now = true;
      }
    }
  }

  if (stop_requested_.load(std::memory_order_relaxed)) {
    write_now("stop");
    throw CheckpointStop(
        active_.load(std::memory_order_relaxed)
            ? "stop requested: state checkpointed at a quiescent point"
            : "stop requested: stopping at a quiescent point (no checkpoint "
              "directory configured)");
  }
  if (due_now) write_now("interval");
}

void CheckpointService::write_now(const char* why) {
  // Copy everything the write needs under the lock, then run the
  // serializer with mu_ RELEASED: a serializer that calls poll() on the
  // same thread must hit the in_write_ reentrancy guard, not deadlock on
  // the non-recursive mutex.
  Serializer writer;
  std::function<void(Manifest&)> extra;
  std::string dir;
  std::string fingerprint;
  std::uint64_t gen = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!active_.load(std::memory_order_relaxed) || !writer_ ||
        in_write_.load(std::memory_order_relaxed)) {
      return;
    }
    in_write_.store(true, std::memory_order_relaxed);
    writer = writer_;
    extra = manifest_extra_;
    dir = dir_;
    fingerprint = fingerprint_;
    gen = generation_ + 1;
  }
  struct Guard {
    std::atomic<bool>* flag;
    ~Guard() { flag->store(false, std::memory_order_relaxed); }
  } guard{&in_write_};

  const auto t0 = std::chrono::steady_clock::now();
  const std::string spath = state_path(dir, gen);
  std::uint64_t state_bytes = 0;
  {
    SectionWriter w(spath);
    writer(w);
    w.finish();
    state_bytes = w.bytes_written();
  }
  Manifest m;
  m.set_u64("format", kFormatVersion);
  m.set_u64("generation", gen);
  m.set("state", "state-" + std::to_string(gen) + ".bin");
  m.set("fingerprint", fingerprint);
  m.set("why", why);
  m.set_u64("checkpoints", writes_.load(std::memory_order_relaxed) + 1);
  if (extra) extra(m);
  m.save(manifest_path(dir));

  std::uint64_t ms = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    // The new manifest is committed; the previous generation's state file
    // is now garbage and can go. (Deleting only after the commit point is
    // what makes a crash during THIS write recoverable from the previous
    // one.)
    if (generation_ != 0 && generation_ != gen) {
      ::unlink(state_path(dir, generation_).c_str());
    }
    generation_ = gen;
    work_acc_ = 0;
    last_write_ = std::chrono::steady_clock::now();
    ever_wrote_ = true;

    ms = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(last_write_ - t0)
            .count());
    writes_.fetch_add(1, std::memory_order_relaxed);
    bytes_.fetch_add(state_bytes, std::memory_order_relaxed);
    write_ms_.fetch_add(ms, std::memory_order_relaxed);
  }

  obs::MemLedger::global().set(obs::MemAccount::kCkptState, state_bytes);
  obs::flight::record(obs::flight::Ev::kCkpt,
                      static_cast<std::int64_t>(state_bytes),
                      static_cast<std::int64_t>(ms));
  if (obs::stats_enabled()) {
    obs::JsonObj rec;
    rec.str("type", "ckpt.write")
        .str("why", why)
        .num("generation", static_cast<std::int64_t>(gen))
        .num("bytes", static_cast<std::int64_t>(state_bytes))
        .num("ms", static_cast<std::int64_t>(ms))
        .num("total_writes",
             static_cast<std::int64_t>(writes_.load(std::memory_order_relaxed)))
        .num("total_ms", static_cast<std::int64_t>(
                             write_ms_.load(std::memory_order_relaxed)));
    obs::stats_sink().write(rec.render());
  }
}

std::int64_t CheckpointService::seconds_since_last_write() const {
  if (!active_.load(std::memory_order_relaxed)) return -1;
  std::lock_guard<std::mutex> lock(mu_);
  // Before the first write, age is measured from configure(): a stalled
  // first checkpoint is exactly as alarming as a stalled tenth.
  return std::chrono::duration_cast<std::chrono::seconds>(
             std::chrono::steady_clock::now() - last_write_)
      .count();
}

std::string CheckpointService::dir() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dir_;
}

}  // namespace tsb::util::ckpt
