#include "util/checkpoint.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <array>
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

/// Telemetry probe (ckpt_age_s on each tick, the input of the report's
/// checkpoint-stall rule): seconds since the service's last successful
/// write.
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

/// Slicing-by-8 tables (Kounavis & Berry 2005). Row 0 is the bytewise
/// table; row k maps a byte to the CRC of that byte followed by k zero
/// bytes, so one step folds eight input bytes with eight lookups. Built at
/// compile time: no static-init cost and no first-call guard.
constexpr std::array<std::array<std::uint32_t, 256>, 8> make_crc_tables() {
  std::array<std::array<std::uint32_t, 256>, 8> t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < 8; ++k) {
    for (std::size_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFF];
    }
  }
  return t;
}

constexpr auto kCrcTables = make_crc_tables();

}  // namespace

std::uint32_t crc32(const void* data, std::size_t len, std::uint32_t seed) {
  const auto& t = kCrcTables;
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  const std::uint8_t* p = static_cast<const std::uint8_t*>(data);
  for (; len >= 8; p += 8, len -= 8) {
    const std::uint32_t lo = rd32(p) ^ c;
    const std::uint32_t hi = rd32(p + 4);
    c = t[7][lo & 0xFF] ^ t[6][(lo >> 8) & 0xFF] ^ t[5][(lo >> 16) & 0xFF] ^
        t[4][lo >> 24] ^ t[3][hi & 0xFF] ^ t[2][(hi >> 8) & 0xFF] ^
        t[1][(hi >> 16) & 0xFF] ^ t[0][hi >> 24];
  }
  for (; len > 0; ++p, --len) c = t[0][(c ^ *p) & 0xFF] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

// --- SectionWriter ---------------------------------------------------------

SectionWriter::SectionWriter(const std::string& path)
    : path_(path), tmp_(path + ".tmp"), buf_(new std::uint8_t[kBufBytes]) {
  fd_ = ::open(tmp_.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd_ < 0) fail("open " + tmp_);
  std::uint8_t hdr[sizeof(kMagic) + 4];
  std::memcpy(hdr, kMagic, sizeof(kMagic));
  le32(hdr + sizeof(kMagic), kFormatVersion);
  raw(hdr, sizeof(hdr));  // buffered: cannot fail
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
  total_ += len;
  if (len > kBufBytes - buf_len_) {
    flush();
    if (len >= kBufBytes) {
      if (!iofault::write_full(fd_, data, len)) fail("write " + tmp_);
      return;
    }
  }
  std::memcpy(buf_.get() + buf_len_, data, len);
  buf_len_ += len;
}

void SectionWriter::flush() {
  if (buf_len_ == 0) return;
  if (!iofault::write_full(fd_, buf_.get(), buf_len_)) fail("write " + tmp_);
  buf_len_ = 0;
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
  sections_.emplace_back(name, 0);
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
  flush();  // the header being patched must be in the file first
  std::uint8_t hdr[12];
  le64(hdr, sec_len_);
  le32(hdr + 8, sec_crc_);
  if (!iofault::pwrite_full(fd_, hdr, sizeof(hdr),
                            static_cast<off_t>(sec_header_))) {
    fail("backpatch " + tmp_);
  }
  sections_.back().second = sec_len_;
  in_section_ = false;
}

void SectionWriter::finish() {
  TSB_REQUIRE(!in_section_ && !finished_, "checkpoint finish misnesting");
  // END sentinel: zero-length name, zero-length payload, zero CRC. Its
  // presence is what lets a reader distinguish "complete file" from "file
  // truncated exactly at a section boundary".
  std::uint8_t sentinel[4 + 12] = {};
  raw(sentinel, sizeof(sentinel));
  flush();
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
  struct ::stat st;
  if (fd_ < 0 || ::fstat(fd_, &st) != 0) {
    const std::string detail = errno_detail();
    if (fd_ >= 0) ::close(fd_);
    throw CheckpointInvalid("checkpoint file missing or unreadable: " +
                            path_ + ": " + detail);
  }
  left_ = static_cast<std::uint64_t>(st.st_size);
  std::uint8_t hdr[sizeof(kMagic) + 4];
  read_exact(hdr, sizeof(hdr), "header");
  if (std::memcmp(hdr, kMagic, sizeof(kMagic)) != 0) {
    fail("bad magic (not a checkpoint section file)");
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

void SectionReader::read_exact(void* buf, std::size_t len, const char* what) {
  if (!iofault::read_full(fd_, buf, len)) {
    fail(std::string("truncated ") + what);
  }
  left_ -= std::min<std::uint64_t>(len, left_);
}

void SectionReader::fail(const std::string& what) {
  throw CheckpointInvalid("checkpoint invalid: " + path_ +
                          (sec_name_.empty() ? "" : " section " + sec_name_) +
                          ": " + what);
}

std::string SectionReader::next() {
  std::uint8_t len4[4];
  read_exact(len4, 4, "at section header");
  const std::uint32_t name_len = rd32(len4);
  if (name_len >= kMaxSectionName) fail("implausible section name length");
  std::string name(name_len, '\0');
  if (name_len > 0) read_exact(name.data(), name_len, "section name");
  sec_name_ = name_len > 0 ? name : "<end>";
  std::uint8_t hdr[12];
  read_exact(hdr, sizeof(hdr), "section length/CRC");
  const std::uint64_t len = rd64(hdr);
  const std::uint32_t want_crc = rd32(hdr + 8);
  if (name_len == 0 && len != 0) fail("END sentinel carries a payload");
  // The length is read off the disk: check it against the file before
  // allocating, so a corrupt claim is a refusal, not a bad_alloc or a
  // multi-GiB zero fill.
  if (len > left_) {
    fail("truncated section payload (claims " + std::to_string(len) +
         " bytes, " + std::to_string(left_) + " left in the file)");
  }
  payload_.resize(len);
  if (len > 0) read_exact(payload_.data(), len, "section payload");
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

void Manifest::save(const std::string& path) const {
  SectionWriter w(path);
  w.begin("manifest");
  w.put_u64(generation);
  w.put_str(fingerprint);
  w.put_str(why);
  w.put_u64(checkpoints);
  w.put_u64(telemetry_ticks);
  w.end();
  w.finish();
}

Manifest Manifest::load(const std::string& path) {
  SectionReader r(path);
  r.expect("manifest");
  Manifest m;
  m.generation = r.get_u64();
  m.fingerprint = r.get_str();
  m.why = r.get_str();
  m.checkpoints = r.get_u64();
  m.telemetry_ticks = r.get_u64();
  r.done();
  r.expect_end();
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
  committed_ = Manifest{};
  manifest_error_ = nullptr;
  if (!dir_.empty()) {
    ::mkdir(dir_.c_str(), 0755);  // EEXIST is fine
    // Continue the generation sequence of an existing checkpoint so the
    // next write never clobbers the state file the manifest still commits
    // to. An unreadable manifest restarts at generation 1; resume() is
    // what refuses it.
    try {
      committed_ = Manifest::load(manifest_path(dir_));
    } catch (const CheckpointInvalid&) {
      manifest_error_ = std::current_exception();
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
  committed_ = Manifest{};
  manifest_error_ = nullptr;
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

void CheckpointService::set_writer(Serializer s) {
  std::lock_guard<std::mutex> lock(mu_);
  writer_ = std::move(s);
}

Manifest CheckpointService::resume(
    const std::function<void(SectionReader&)>& restore) {
  Manifest m;
  std::string dir;
  std::string fingerprint;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (dir_.empty()) {
      throw CheckpointInvalid("resume requested without a checkpoint dir");
    }
    if (manifest_error_) std::rethrow_exception(manifest_error_);
    m = committed_;
    dir = dir_;
    fingerprint = fingerprint_;
  }
  if (m.fingerprint != fingerprint) {
    throw CheckpointInvalid(
        "checkpoint fingerprint mismatch: written by {" + m.fingerprint +
        "} but this run is {" + fingerprint +
        "}; resuming across incompatible flags would silently change the "
        "campaign");
  }
  SectionReader r(state_path(dir, m.generation));
  restore(r);
  r.expect_end();
  // Tick ids continue where the interrupted run's file ended, so a report
  // over the concatenated timelines keeps its monotonic-tick invariant.
  obs::telemetry::set_tick_base(m.telemetry_ticks);
  return m;
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
  std::string dir;
  Manifest m;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!active_.load(std::memory_order_relaxed) || !writer_ ||
        in_write_.load(std::memory_order_relaxed)) {
      return;
    }
    in_write_.store(true, std::memory_order_relaxed);
    writer = writer_;
    dir = dir_;
    m.generation = committed_.generation + 1;
    m.fingerprint = fingerprint_;
  }
  struct Guard {
    std::atomic<bool>* flag;
    ~Guard() { flag->store(false, std::memory_order_relaxed); }
  } guard{&in_write_};

  const auto t0 = std::chrono::steady_clock::now();
  std::uint64_t state_bytes = 0;
  obs::JsonObj sections;
  {
    SectionWriter w(state_path(dir, m.generation));
    writer(w);
    w.finish();
    state_bytes = w.bytes_written();
    for (const auto& [name, bytes] : w.section_bytes()) {
      sections.num(name, static_cast<std::int64_t>(bytes));
    }
  }
  m.why = why;
  m.checkpoints = writes_.load(std::memory_order_relaxed) + 1;
  m.telemetry_ticks = obs::telemetry::ticks();
  // The commit point of the whole checkpoint: before this rename the
  // previous manifest (if any) still names the previous complete state
  // file; after it, the new one. Crash anywhere: one of the two, whole.
  m.save(manifest_path(dir));

  std::uint64_t ms = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    // The new manifest is committed; the previous generation's state file
    // is now garbage and can go. (Deleting only after the commit point is
    // what makes a crash during THIS write recoverable from the previous
    // one.)
    if (committed_.generation != 0) {
      ::unlink(state_path(dir, committed_.generation).c_str());
    }
    committed_ = m;
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
    obs::JsonObj rec = obs::audit_event("ckpt.write");
    rec.str("why", why)
        .num("generation", static_cast<std::int64_t>(m.generation))
        .num("bytes", static_cast<std::int64_t>(state_bytes))
        .raw("section_bytes", sections.render())
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

}  // namespace tsb::util::ckpt
