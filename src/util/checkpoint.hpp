#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <utility>
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
/// == 0xCBF43926 — the standard check value the unit tests pin. Computed
/// slicing-by-8 (Kounavis & Berry 2005): eight bytes per step through eight
/// compile-time tables, the same value as the bytewise definition.
std::uint32_t crc32(const void* data, std::size_t len, std::uint32_t seed = 0);

/// Bump when the layout of a checkpoint file (state or manifest) changes
/// incompatibly; readers refuse other versions rather than guessing.
/// Version 2: the manifest became a section file. Version 3: the graph and
/// roots sections store a value dictionary and 16-bit code rows. Version 4:
/// code rows, successor rows and renamings are stored as the spill codec's
/// 64-record delta groups (util::spill::SpillStore::save). Version 5: the
/// graph section stores neither the decide flags nor the fact map.
/// Version 6: a delta record names its changed words with a bitmask
/// instead of a count and per-word indices. Version 7: an arena stores a
/// register-vector dictionary after its value dictionary, and a row is
/// the n state codes plus one register-vector code. Version 8: a state
/// file is the oracle's memo alone, each entry's root as plain words; the
/// graph and roots sections are gone.
inline constexpr std::uint32_t kFormatVersion = 8;

/// Streaming writer for the versioned, per-section-CRC checkpoint file
/// format (the state file and the manifest). Layout:
///
///   "TSBCKPT\n" magic, u32 format version,
///   then per section: u32 name length, name bytes,
///                     u64 payload length, u32 payload CRC-32, payload,
///   terminated by a zero-length-name END sentinel section whose payload
///   is empty — so a file truncated at any byte, including exactly at a
///   section boundary, is detectable without trusting file size.
///
/// Sections stream through one fixed 1 MiB buffer: begin() appends the
/// header with placeholder length/CRC, the put_* calls copy payload bytes
/// in while folding them into a running CRC, and the buffer goes out in one
/// write when full (a put larger than the whole buffer is written straight
/// through after a flush). end() flushes, then backpatches the real length
/// and CRC via pwrite; finish() flushes the END sentinel before its fsync.
/// Buffering changes the syscall count, never the bytes. The whole file is
/// written to `<path>.tmp`, fsync'd, and atomically renamed into place by
/// finish() — a crash mid-write never leaves a half file under the final
/// name. All I/O goes through util::iofault wrappers; a write failure (full
/// disk, dead device) throws BudgetExhausted with the errno detail,
/// degrading to the CLI's exit 4 like the spill writer, and the destructor
/// unlinks the tmp file.
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
  /// Payload bytes of each ended section, in write order.
  const std::vector<std::pair<std::string, std::uint64_t>>& section_bytes()
      const {
    return sections_;
  }

 private:
  static constexpr std::size_t kBufBytes = std::size_t{1} << 20;

  void raw(const void* data, std::size_t len);
  void flush();
  [[noreturn]] void fail(const std::string& what);

  std::string path_;
  std::string tmp_;
  std::unique_ptr<std::uint8_t[]> buf_;  ///< kBufBytes, not yet written
  std::size_t buf_len_ = 0;
  int fd_ = -1;
  bool finished_ = false;
  bool in_section_ = false;
  std::uint64_t total_ = 0;       ///< bytes written, buffered included
  std::uint64_t sec_header_ = 0;  ///< offset of current section's len field
  std::uint64_t sec_len_ = 0;
  std::uint32_t sec_crc_ = 0;
  std::vector<std::pair<std::string, std::uint64_t>> sections_;
};

/// Sequential reader for SectionWriter files. Sections are read strictly
/// in the order they were written (the format is a stream, not an index):
/// expect(name) loads the next section, validates its CRC, and throws
/// CheckpointInvalid on any mismatch — wrong name, wrong magic/version,
/// truncation, or checksum failure. Payload parsing goes through the
/// bounds-checked get_* cursor, which also throws instead of reading past
/// the section. A section length is hostile input too: one claiming more
/// bytes than the file has left is refused before anything is allocated.
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
  /// read_full exactly `len` bytes, failing with "truncated <what>".
  void read_exact(void* buf, std::size_t len, const char* what);
  [[noreturn]] void fail(const std::string& what);

  std::string path_;
  int fd_ = -1;
  std::uint64_t left_ = 0;  ///< file bytes not yet read
  std::string sec_name_;
  std::vector<std::uint8_t> payload_;
  std::size_t pos_ = 0;
};

/// The checkpoint directory's commit record: one "manifest" section in a
/// SectionWriter file, so it shares the state file's magic, version word,
/// CRC, END sentinel and tmp + fsync + rename. It names the generation it
/// commits (the state file is state_path(dir, generation)), the flag
/// fingerprint the resuming run must match, and the telemetry tick count a
/// resumed run continues from. It is written *after* the state file it
/// points to, so its rename is the checkpoint's commit point: a crash
/// anywhere in the sequence leaves either the previous complete checkpoint
/// or the new one, never a half-committed mix.
struct Manifest {
  std::uint64_t generation = 0;  ///< 0: nothing committed
  std::string fingerprint;
  std::string why;               ///< the ckpt.write reason
  std::uint64_t checkpoints = 0;  ///< writes by the run that committed it
  std::uint64_t telemetry_ticks = 0;

  /// Throws BudgetExhausted on I/O failure (exit-4 path, like any
  /// SectionWriter).
  void save(const std::string& path) const;
  /// Throws CheckpointInvalid when the file is missing, torn, of another
  /// format version, or fails its checksum.
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
/// throws CheckpointStop (graceful stop without persistence). The service
/// is the only reader of the manifest: configure() loads it once, and
/// resume() restores the state file it commits.
class CheckpointService {
 public:
  static CheckpointService& global();

  /// Configure the directory and cadence. interval_ms and every_work are
  /// alternatives (0 = unused); when both are 0 checkpoints are written
  /// only on request_stop(). `fingerprint` is recorded in every manifest
  /// and must match on resume. Loads the directory's committed manifest,
  /// if any, so writes continue its generation numbering; an unreadable
  /// one restarts at generation 1 and only resume() refuses it.
  void configure(const std::string& dir, std::uint64_t interval_ms,
                 std::uint64_t every_work, const std::string& fingerprint);
  /// Drop configuration and serializer (tests; between CLI runs).
  void reset();

  using Serializer = std::function<void(SectionWriter&)>;
  /// Register/clear the state serializer.
  void set_writer(Serializer s);

  /// Resume from the committed checkpoint configure() found: hand its
  /// state file to `restore`, require the END sentinel, and continue the
  /// telemetry tick ids. Throws CheckpointInvalid when no directory is
  /// configured, the directory holds no readable manifest (rethrowing why),
  /// the manifest's fingerprint is not this run's, or the state file fails
  /// validation. Returns the manifest resumed from.
  Manifest resume(const std::function<void(SectionReader&)>& restore);

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
  /// Telemetry ticks carry it as ckpt_age_s (the checkpoint-stall rule).
  std::int64_t seconds_since_last_write() const;
  std::uint64_t interval_ms() const { return interval_ms_; }

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
  Manifest committed_;  ///< the directory's newest commit record
  std::exception_ptr manifest_error_;  ///< why configure() could not load it
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
