#pragma once

#include <cstddef>
#include <cstdint>
#include <fstream>
#include <string>
#include <utility>

// Scale-out support for the Monte Carlo engine: sharding, shard-merge and
// checkpoint/resume. The correctness story is the runner's existing
// determinism contract -- chunking and the chunk-ordered reduction depend
// only on (trials, seed, chunk_size) -- extended across process boundaries:
//
//   * shard mode   -- the runner executes only its ShardSpec's contiguous
//     chunk-index slice of every run() call and dumps the *per-chunk*
//     partial accumulators (not a pre-merged total: the single-process
//     result is a left fold over chunk partials, and only replaying that
//     exact fold merges bit-identically) to one file per call;
//   * merge mode   -- the runner executes no trials at all; each run() call
//     loads the N shard dumps for its call index, validates their headers
//     against the run geometry it would have used itself, and folds the
//     chunk partials in global chunk order -- returning a total that is
//     bit-identical to the single-process run, so the scenario's downstream
//     arithmetic and emitted tables are byte-identical too;
//   * checkpoint mode -- the runner executes chunks in sequential ranges
//     and, after each range, atomically (write-temp-then-rename) snapshots
//     the left-fold prefix; completed calls get a final `.done` snapshot. A
//     killed sweep rerun with resume=true loads `.done` calls outright,
//     continues a `.part` call from its completed-chunk prefix, and -- the
//     prefix being the same left fold the uninterrupted run performs --
//     emits byte-identical results.
//
// Shard mode requires the scenario's control flow to be data-independent
// (fixed trial counts): an adaptive driver deciding from shard-local
// partials diverges across shards, which the merge detects via missing or
// surplus call files and rejects. Checkpoint/resume has no such restriction
// -- a resumed call returns the full merged total the original computed, so
// every downstream decision replays identically.
//
// This header holds the plain (non-template) half: specs, file naming, call
// headers and atomic file plumbing. The templated dispatch that knows the
// accumulator type lives in MonteCarloRunner::run_chunks (monte_carlo.h).

namespace mram::eng {

/// This process's slice of a sharded sweep: shard `index` of `count` owns
/// the contiguous chunk-index range chunk_range(n_chunks) of every run()
/// call. count == 0 means "not sharded" (the default-constructed state).
struct ShardSpec {
  std::size_t index = 0;
  std::size_t count = 0;

  bool active() const { return count > 0; }

  /// Throws util::ConfigError unless index < count and count is sane.
  void validate() const;

  /// Chunk indices [lo, hi) owned by this shard out of n_chunks: the
  /// standard balanced contiguous split (i*n/count). Ranges of consecutive
  /// shards are adjacent and cover [0, n_chunks) exactly, so merging shard
  /// dumps in shard order replays the global chunk order.
  std::pair<std::size_t, std::size_t> chunk_range(std::size_t n_chunks) const;
};

enum class ShardMode {
  kOff,        ///< plain single-process run
  kShard,      ///< execute own slice, dump per-chunk partials
  kMerge,      ///< execute nothing, fold N shard dumps per call
  kCheckpoint  ///< execute everything, snapshot completed chunk ranges
};

/// Runner-level scale-out configuration, set per scenario via
/// MonteCarloRunner::set_shard_io (which also resets the call counter that
/// keys the dump files).
struct ShardIo {
  ShardMode mode = ShardMode::kOff;
  ShardSpec shard;               ///< kShard: this process's slice
  std::size_t merge_count = 0;   ///< kMerge: shard dumps per call
  std::string dir;               ///< partials / checkpoint directory
  bool resume = false;           ///< kCheckpoint: honor existing snapshots
  std::size_t checkpoint_chunk_stride = 16;  ///< chunks per snapshot

  /// Throws util::ConfigError on an inconsistent configuration.
  void validate() const;
};

namespace shard_detail {

/// Fixed-size header of every dump file: the run geometry of the call that
/// produced it. Merge and resume validate every field against the geometry
/// the *loading* run computed for the same call index, so a seed, trial
/// count or code drift between producer and consumer fails loudly.
struct CallHeader {
  std::uint64_t magic = kMagic;
  std::uint64_t call = 0;      ///< 0-based run()-call index within a scenario
  std::uint64_t trials = 0;
  std::uint64_t chunk = 0;     ///< effective chunk size of the call
  std::uint64_t n_chunks = 0;
  std::uint64_t seed = 0;      ///< master seed passed to run()
  std::uint64_t chunk_lo = 0;  ///< dump: owned range; .part: always 0
  std::uint64_t chunk_hi = 0;  ///< dump: owned range end; .part/.done:
                               ///< chunks folded into the stored prefix

  static constexpr std::uint64_t kMagic = 0x4d52414d53484152ull;  // MRAMSHAR
};

std::string shard_file(const std::string& dir, std::uint64_t call,
                       std::size_t shard, std::size_t count);
std::string done_file(const std::string& dir, std::uint64_t call);
std::string part_file(const std::string& dir, std::uint64_t call);

void write_header(std::ostream& os, const CallHeader& h);

/// Reads and magic-checks a header; `path` names the file in errors.
CallHeader read_header(std::istream& is, const std::string& path);

/// Validates the geometry fields (call/trials/chunk/n_chunks/seed) of a
/// loaded header against the expected ones; throws util::ConfigError naming
/// `path` and the first mismatching field.
void check_header(const CallHeader& got, const CallHeader& want,
                  const std::string& path);

/// Opens a dump for reading; throws util::ConfigError when the file is
/// missing (the "shards diverged or incomplete" case) or unreadable.
std::ifstream open_dump(const std::string& path);

/// Write-temp-then-rename file writer: the target path either keeps its old
/// content or atomically gains the complete new content -- a kill mid-write
/// can never leave a torn snapshot. Destruction without commit() removes
/// the temp file.
class AtomicFile {
 public:
  explicit AtomicFile(std::string path);
  ~AtomicFile();

  AtomicFile(const AtomicFile&) = delete;
  AtomicFile& operator=(const AtomicFile&) = delete;

  std::ostream& stream() { return os_; }

  /// Flushes, closes and renames temp -> target. Throws util::ConfigError
  /// on any failure.
  void commit();

 private:
  std::string path_;
  std::string tmp_;
  std::ofstream os_;
  bool committed_ = false;
};

/// Best-effort removal (used to drop a stale `.part` snapshot once the
/// `.done` one exists); ignores errors.
void remove_file(const std::string& path);

/// Shard count N inferred from the first `*.shard-*-of-N` file in `dir`;
/// 0 when the directory holds none. Throws util::ConfigError naming the
/// file when N is 0 or does not fit a std::size_t.
std::size_t detect_shard_count(const std::string& dir);

/// Number of run() calls covered by the shard dumps in `dir` (max call
/// index + 1; 0 when empty). The merge compares this against the calls it
/// actually consumed to detect shards that ran *more* calls than the
/// replay -- the signature of data-dependent control flow.
std::uint64_t call_count_in_dir(const std::string& dir);

}  // namespace shard_detail
}  // namespace mram::eng
