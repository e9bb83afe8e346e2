#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <map>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

namespace tsb::util {

/// Clean "the run stopped at a quiescent point after persisting a
/// checkpoint" signal — the graceful-shutdown sibling of BudgetExhausted.
/// Nothing is wrong; callers surface it with its own exit code (5 at the
/// CLI) and the campaign continues later via `tsb resume`.
class CheckpointStop : public std::runtime_error {
 public:
  explicit CheckpointStop(const std::string& what)
      : std::runtime_error(what) {}
};

/// A checkpoint failed validation: bad magic, unsupported format version,
/// CRC mismatch, truncated section, torn manifest, or a flag-fingerprint
/// disagreement with the resuming run. Refusal is the only sound response
/// — resuming from corrupt state could silently fabricate a verdict — so
/// this is distinct from both RequirementFailed (protocol is wrong) and
/// BudgetExhausted (resources ran out), and maps to its own exit code (6).
class CheckpointInvalid : public std::runtime_error {
 public:
  explicit CheckpointInvalid(const std::string& what)
      : std::runtime_error(what) {}
};

namespace ckpt {

/// CRC-32 (IEEE 802.3, reflected 0xEDB88320) over `len` bytes, continuing
/// from `seed` (pass a previous return value to extend). crc32("123456789")
/// == 0xCBF43926 — the standard check value the unit tests pin.
std::uint32_t crc32(const void* data, std::size_t len, std::uint32_t seed = 0);

/// Bump when the state-file layout changes incompatibly; readers refuse
/// other versions rather than guessing.
inline constexpr std::uint32_t kFormatVersion = 1;

/// Streaming writer for the versioned, per-section-CRC checkpoint state
/// file. Layout:
///
///   "TSBCKPT\n" magic, u32 format version,
///   then per section: u32 name length, name bytes,
///                     u64 payload length, u32 payload CRC-32, payload,
///   terminated by a zero-length-name END sentinel section whose payload
///   is empty — so a file truncated at any byte, including exactly at a
///   section boundary, is detectable without trusting file size.
///
/// Sections stream: begin() writes the header with placeholder length/CRC,
/// the put_* calls append payload bytes while folding them into a running
/// CRC, end() backpatches the real length and CRC via pwrite. The whole
/// file is written to `<path>.tmp`, fsync'd, and atomically renamed into
/// place by finish() — a crash mid-write never leaves a half file under
/// the final name. All I/O goes through util::iofault wrappers; a write
/// failure (full disk, dead device) throws BudgetExhausted with the errno
/// detail, degrading to the CLI's exit 4 like the spill writer.
class SectionWriter {
 public:
  explicit SectionWriter(const std::string& path);
  ~SectionWriter();
  SectionWriter(const SectionWriter&) = delete;
  SectionWriter& operator=(const SectionWriter&) = delete;

  void begin(const std::string& name);
  void put_bytes(const void* data, std::size_t len);
  void put_u8(std::uint8_t v) { put_bytes(&v, 1); }
  void put_u32(std::uint32_t v);
  void put_u64(std::uint64_t v);
  void put_i64(std::int64_t v) { put_u64(static_cast<std::uint64_t>(v)); }
  void put_str(const std::string& s);
  void end();

  /// Write the END sentinel, fsync, close, and atomically rename the tmp
  /// file to the final path. No further calls allowed.
  void finish();

  std::uint64_t bytes_written() const { return total_; }

 private:
  void raw(const void* data, std::size_t len);
  [[noreturn]] void fail(const std::string& what);

  std::string path_;
  std::string tmp_;
  int fd_ = -1;
  bool finished_ = false;
  bool in_section_ = false;
  std::uint64_t total_ = 0;       ///< file offset == bytes written
  std::uint64_t sec_header_ = 0;  ///< offset of current section's len field
  std::uint64_t sec_len_ = 0;
  std::uint32_t sec_crc_ = 0;
};

/// Sequential reader for SectionWriter files. Sections are read strictly
/// in the order they were written (the format is a stream, not an index):
/// expect(name) loads the next section, validates its CRC, and throws
/// CheckpointInvalid on any mismatch — wrong name, wrong magic/version,
/// truncation, or checksum failure. Payload parsing goes through the
/// bounds-checked get_* cursor, which also throws instead of reading past
/// the section.
class SectionReader {
 public:
  explicit SectionReader(const std::string& path);
  ~SectionReader();
  SectionReader(const SectionReader&) = delete;
  SectionReader& operator=(const SectionReader&) = delete;

  /// Load the next section, requiring its name to be `name`.
  void expect(const std::string& name);
  /// Load the next section whatever its name; "" for the END sentinel.
  std::string next();
  /// Require the next section to be the END sentinel.
  void expect_end();

  std::size_t remaining() const { return payload_.size() - pos_; }
  const std::uint8_t* get_bytes(std::size_t len);
  std::uint8_t get_u8();
  std::uint32_t get_u32();
  std::uint64_t get_u64();
  std::int64_t get_i64() { return static_cast<std::int64_t>(get_u64()); }
  std::string get_str();
  /// The whole current payload must have been consumed; called by the
  /// engine restore paths so a format drift fails loudly, not silently.
  void done();

 private:
  [[noreturn]] void fail(const std::string& what);

  std::string path_;
  int fd_ = -1;
  std::string sec_name_;
  std::vector<std::uint8_t> payload_;
  std::size_t pos_ = 0;
};

/// The checkpoint directory's commit record: a short text file of
/// `key=value` lines with a trailing self-CRC line covering everything
/// above it. The manifest names the format version, the state-file
/// generation it commits, the flag fingerprint the resuming run must
/// match, and observability continuity (telemetry tick count). It is
/// written tmp + fsync + rename *after* the state file it points to, so
/// the rename is the checkpoint's commit point: a crash anywhere in the
/// sequence leaves either the previous complete checkpoint or the new one,
/// never a half-committed mix.
struct Manifest {
  std::map<std::string, std::string> kv;

  void set(const std::string& k, const std::string& v) { kv[k] = v; }
  void set_u64(const std::string& k, std::uint64_t v);
  const std::string& get(const std::string& k) const;  ///< throws if absent
  std::uint64_t get_u64(const std::string& k) const;
  bool has(const std::string& k) const { return kv.count(k) != 0; }

  /// Serialize + CRC + tmp/fsync/rename to `path`. Throws
  /// BudgetExhausted on I/O failure (exit-4 path, like SectionWriter).
  void save(const std::string& path) const;
  /// Parse + CRC-validate `path`. Throws CheckpointInvalid when the file
  /// is missing, torn, or fails its checksum.
  static Manifest load(const std::string& path);
};

inline constexpr const char* kManifestName = "manifest.tsb";

/// Path helpers for a checkpoint directory's generation-numbered files.
std::string manifest_path(const std::string& dir);
std::string state_path(const std::string& dir, std::uint64_t gen);

/// Process-wide checkpoint coordinator, polled from the engines' existing
/// quiescent points (the explorer's every-4096-expansions check and the
/// reach graph's every-256-steps walk check).
///
/// The run that owns checkpointable state registers a serializer callback
/// (the adversary's, capturing its oracle); poll() fires it when the
/// configured wall-clock interval or expansion-count budget elapses, and
/// write_now() orchestrates the durable commit: state file via
/// SectionWriter (tmp + fsync + rename), then the manifest rename as the
/// commit point, then deletion of older generations. request_stop() is
/// async-signal-safe (one atomic store — SIGTERM/SIGINT handlers call it);
/// the next poll() at a quiescent point writes a final checkpoint and
/// throws CheckpointStop, which unwinds to the CLI for a flushed exit 5.
/// When no checkpoint directory is configured, a stop request still
/// throws CheckpointStop (graceful stop without persistence).
class CheckpointService {
 public:
  static CheckpointService& global();

  /// Configure the directory and cadence. interval_ms and every_work are
  /// alternatives (0 = unused); when both are 0 checkpoints are written
  /// only on request_stop(). `fingerprint` is recorded in every manifest
  /// and must match on resume.
  void configure(const std::string& dir, std::uint64_t interval_ms,
                 std::uint64_t every_work, const std::string& fingerprint);
  /// Drop configuration and serializer (tests; between CLI runs).
  void reset();

  using Serializer = std::function<void(SectionWriter&)>;
  /// Register/clear the state serializer. Extra manifest keys (telemetry
  /// tick counts, engine counters) are re-collected per write via
  /// `manifest_extra` (may be null).
  void set_writer(Serializer s,
                  std::function<void(Manifest&)> manifest_extra = nullptr);

  bool enabled() const {
    return active_.load(std::memory_order_relaxed);
  }

  /// Quiescent-point hook. `work` is the expansions since the caller's
  /// last poll. Fast path when idle: one relaxed load (engaged_ covers
  /// "configured", "stop requested", and the test hook). May invoke the
  /// serializer inline; throws CheckpointStop after a stop-request's final
  /// checkpoint.
  void poll(std::uint64_t work) {
    if (!engaged_.load(std::memory_order_relaxed)) return;
    poll_slow(work);
  }

  /// Async-signal-safe stop request (SIGTERM/SIGINT): two atomic stores.
  void request_stop() {
    stop_requested_.store(true, std::memory_order_relaxed);
    engaged_.store(true, std::memory_order_relaxed);
  }
  bool stop_requested() const {
    return stop_requested_.load(std::memory_order_relaxed);
  }

  /// Test hook: request_stop() automatically after `n` more polls, so
  /// differential tests interrupt a run at a deterministic moment.
  void stop_after_polls(std::uint64_t n);

  /// Write a checkpoint right now (caller guarantees quiescence). `why`
  /// lands in the ckpt.write stats record ("interval" / "stop" / "final").
  /// No-op when no directory or serializer is configured.
  void write_now(const char* why);

  // Forensics for the ledger / report / bench overhead gate.
  std::uint64_t checkpoints_written() const {
    return writes_.load(std::memory_order_relaxed);
  }
  std::uint64_t bytes_written() const {
    return bytes_.load(std::memory_order_relaxed);
  }
  std::uint64_t write_ms_total() const {
    return write_ms_.load(std::memory_order_relaxed);
  }
  /// Seconds since the last successful write (-1: never wrote / disabled).
  /// The telemetry watchdog's checkpoint-stall rule reads this.
  std::int64_t seconds_since_last_write() const;
  std::uint64_t interval_ms() const { return interval_ms_; }
  std::string dir() const;

 private:
  CheckpointService() = default;
  void poll_slow(std::uint64_t work);

  std::atomic<bool> engaged_{false};  ///< poll() must take the slow path
  std::atomic<bool> active_{false};   ///< a checkpoint dir is configured
  std::atomic<bool> stop_requested_{false};
  std::atomic<std::uint64_t> stop_after_{0};  ///< 0 = hook off
  mutable std::mutex mu_;  ///< guards config + write orchestration
  std::string dir_;
  std::string fingerprint_;
  std::uint64_t interval_ms_ = 0;
  std::uint64_t every_work_ = 0;
  Serializer writer_;
  std::function<void(Manifest&)> manifest_extra_;
  std::uint64_t generation_ = 0;
  std::uint64_t work_acc_ = 0;
  /// Reentrancy guard: set (outside mu_) for the duration of a write so a
  /// serializer that calls poll() no-ops instead of recursing. The
  /// serializer itself runs with mu_ released — holding the non-recursive
  /// mutex across the callback would deadlock any such re-entry.
  std::atomic<bool> in_write_{false};
  std::chrono::steady_clock::time_point last_write_{};
  bool ever_wrote_ = false;
  std::atomic<std::uint64_t> writes_{0};
  std::atomic<std::uint64_t> bytes_{0};
  std::atomic<std::uint64_t> write_ms_{0};
};

}  // namespace ckpt
}  // namespace tsb::util
