#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "obs/stopwatch.h"

// Deterministic metrics registry for the whole engine stack.
//
// Design constraints, in order:
//
//   1. Instrumentation must be provably incapable of perturbing results.
//      Nothing in this header draws randomness, allocates on the trial hot
//      path, or changes any control flow the workloads can observe; the
//      runner's chunking, per-trial streams and merge order are untouched
//      whether metrics are on or off (pinned by test: byte-identical CSVs
//      with the registry installed and absent, at 1 and 4 threads).
//
//   2. Disabled must be a branch on null. Every recording helper loads one
//      pointer (a thread_local for chunk-context counters, an atomic for
//      serial-context records) and returns when it is null. No registry
//      installed => no work.
//
//   3. Accumulation is per-worker-thread local, merged in chunk order.
//      Inside a runner chunk, counter increments go to that chunk's private
//      MetricsBlock (installed via ChunkScope by the executing worker); the
//      runner folds the blocks into the registry in chunk-index order after
//      the pool drains. All merged quantities are unsigned integers (counts,
//      nanoseconds, bucket tallies), so the fold is exact -- no
//      floating-point reassociation -- and any merge order yields identical
//      totals; the chunk order makes that property trivially testable.
//
// Metric identifiers are a closed enum rather than interned strings: the
// hot-path record is then a single indexed add into a fixed array, and the
// name table below doubles as the metric glossary the README documents.

namespace mram::obs {

/// Monotonic counters. Chunk-context counters (incremented inside runner
/// trials via the thread-local block) and serial-context counters (driver
/// loops) share this namespace; counter_add() routes correctly for both.
enum class Counter : std::uint16_t {
  kEngineCalls,          ///< runner run()/run_batched() calls
  kEngineChunks,         ///< fan-out tasks: chunks of run(), spans of
                         ///< run_batched()
  kEngineTrials,         ///< trials executed
  kEngineBatchBlocks,    ///< spans handed to a run_batched body
  kEngineBatchLanes,     ///< trials in those spans
  kEngineBusyNanos,      ///< summed task wall time (worker busy time)
  kEngineWallNanos,      ///< summed runner-call wall time (caller view)
  kLlgNoiseBlocks,       ///< batched-LLG kernel invocations (noise blocks)
  kLlgLaneSteps,         ///< Heun lane-steps executed (active lanes)
  kLlgLaneStepCapacity,  ///< steps x slots per call (occupancy denom.)
  kLlgLanesEntered,      ///< trials entering run_until_switch
  kLlgLanesEarlyExit,    ///< trials retired by mz crossing before their window
  kLlgBlocksW8,          ///< kernel calls through the fixed 8-lane body
  kLlgBlocksW16,         ///< kernel calls through the fixed 16-lane body
  kLlgBlocksGeneric,     ///< kernel calls through the variable-width body
  kLlgFlops,             ///< est. flops executed (lane-steps x flops/step)
  kMagneticsKeValues,    ///< K/E values through the batched elliptic kernel
  kMagneticsKeLaneSlots, ///< of those, values in full 8-lane blocks
  kRareIsRounds,         ///< importance-sampling rounds run
  kRareSplitLevels,      ///< subset-simulation levels resolved
  kRareMcmcProposals,    ///< pCN MCMC proposals made
  kRareMcmcAccepts,      ///< pCN MCMC proposals accepted
  kReadoutLadderSolves,  ///< bitline ladder solves (BitlinePath::port)
  kReadoutLadderNanos,   ///< summed wall time of those solves
  kSweepPoints,          ///< sweep grid points evaluated
  kTraceSpansDropped,    ///< trace spans discarded by the per-thread cap
  kCount
};

/// Last-write-wins configuration values (doubles). Set from serial code or
/// from chunk contexts that always write the same value (e.g. the SIMD lane
/// width the dispatch selected).
enum class Gauge : std::uint16_t {
  kEngineThreads,       ///< worker threads of the shared runner
  kEngineChunkSize,     ///< effective trials per chunk of the last call
  kLlgPreferredLanes,   ///< lane width preferred_lanes() selected
  kLlgFlopsPerStep,     ///< documented flop count of one Heun lane-step
  kPerfActive,          ///< 1 = hardware counter groups are live, 0 = fallback
  kPerfFallbackReason,  ///< PerfFallback code when kPerfActive is 0
  kCount
};

/// Time-bucketed histograms over unsigned integer values (nanoseconds
/// unless noted). Buckets are powers of two, so merge is a bucket-wise
/// integer add -- exact in any order.
enum class Hist : std::uint16_t {
  kEngineChunkNanos,   ///< per-task wall time (chunk or span)
  kEngineCallNanos,    ///< per-runner-call wall time
  kSweepPointNanos,    ///< per-sweep-point wall time
  kCount
};

/// Stable snake-case name of a metric ("engine.trials"), used as the JSON
/// key and documented in the README glossary.
const char* counter_name(Counter c);
const char* gauge_name(Gauge g);
const char* hist_name(Hist h);

/// The grouped hardware counter set perfctr opens per worker thread. One
/// group so the six counts are scheduled onto the PMU together and stay
/// mutually consistent; the order here is the order events are opened and
/// the order PERF_FORMAT_GROUP reads them back.
enum class PerfEvent : std::uint8_t {
  kCycles,          ///< PERF_COUNT_HW_CPU_CYCLES
  kInstructions,    ///< PERF_COUNT_HW_INSTRUCTIONS
  kCacheRefs,       ///< PERF_COUNT_HW_CACHE_REFERENCES
  kCacheMisses,     ///< PERF_COUNT_HW_CACHE_MISSES
  kBranchMisses,    ///< PERF_COUNT_HW_BRANCH_MISSES
  kStalledBackend,  ///< PERF_COUNT_HW_STALLED_CYCLES_BACKEND
  kCount
};

/// Stable snake-case event name ("cycles", "cache_misses", ...), used as
/// the counter-key suffix in the metrics JSON.
const char* perf_event_name(PerfEvent e);

/// One group read of this thread's counters. valid is false when hardware
/// profiling is off, unavailable, or the read failed -- callers treat an
/// invalid sample as "no data", never as an error. time_enabled vs
/// time_running exposes kernel multiplexing: running < enabled means the
/// PMU was oversubscribed and the counts are scaled estimates.
struct PerfSample {
  static constexpr std::size_t kEvents =
      static_cast<std::size_t>(PerfEvent::kCount);

  std::array<std::uint64_t, kEvents> value{};
  std::uint64_t time_enabled = 0;
  std::uint64_t time_running = 0;
  bool valid = false;
};

/// Kernel attribution for a chunk's perf delta. Trial bodies stamp the tag
/// of the kernel they dispatch into (tag_kernel below); a chunk that runs
/// more than one distinct kernel degrades to kMixed rather than guessing.
/// The batched LLG kernel stamps one kLlg per call whatever body widths it
/// runs (the width split is in the llg.blocks_* counters), so the chunks of
/// every current workload are kernel-homogeneous.
enum class KernelTag : std::uint8_t {
  kUntagged,  ///< no trial body stamped a tag
  kLlg,       ///< batched LLG kernel (any body width)
  kReadout,   ///< read-path sampling (sense + disturb)
  kRare,      ///< rare-event MCMC resampling
  kMixed,     ///< chunk touched more than one kernel
  kCount
};

/// Stable snake-case tag name ("llg", "readout", ...), used as the
/// counter-key infix in the metrics JSON ("perf.llg.cycles").
const char* kernel_tag_name(KernelTag t);

/// Exact unsigned fold of chunk perf deltas, kept per KernelTag in the
/// registry and emitted into the snapshot counters map.
struct PerfAccum {
  std::array<std::uint64_t, PerfSample::kEvents> value{};
  std::uint64_t time_enabled = 0;
  std::uint64_t time_running = 0;
  std::uint64_t chunks = 0;  ///< chunks that contributed a valid delta
};

/// Power-of-two-bucketed histogram of u64 values. Bucket b counts values v
/// with bit_width(v) == b + 1, i.e. v in [2^b, 2^(b+1)); 0 lands in bucket
/// 0 alongside 1. All fields are unsigned integers, so merging two
/// histograms -- and folding a set of them in any order -- is exact.
struct Histogram {
  static constexpr std::size_t kBuckets = 64;

  std::uint64_t count = 0;
  std::uint64_t total = 0;  ///< sum of recorded values
  std::uint64_t min = ~std::uint64_t{0};  ///< meaningful only when count > 0
  std::uint64_t max = 0;
  std::array<std::uint64_t, kBuckets> buckets{};

  static std::size_t bucket_of(std::uint64_t v) {
    return v == 0 ? 0 : static_cast<std::size_t>(std::bit_width(v)) - 1;
  }

  void record(std::uint64_t v) {
    ++count;
    total += v;
    if (v < min) min = v;
    if (v > max) max = v;
    ++buckets[bucket_of(v)];
  }

  void merge(const Histogram& o) {
    count += o.count;
    total += o.total;
    if (o.count > 0) {
      if (o.min < min) min = o.min;
      if (o.max > max) max = o.max;
    }
    for (std::size_t b = 0; b < kBuckets; ++b) buckets[b] += o.buckets[b];
  }

  double mean() const {
    return count ? static_cast<double>(total) / static_cast<double>(count)
                 : 0.0;
  }

  /// Quantile estimate from the bucket tallies: the target rank is located
  /// in its bucket and interpolated log-linearly within it (bucket b spans
  /// [2^b, 2^(b+1)), so fraction f maps to 2^(b+f); bucket 0 holds {0, 1}
  /// and interpolates linearly). Clamped to the observed [min, max], which
  /// also makes single-value histograms exact. q outside (0, 1) returns the
  /// matching extreme.
  double quantile(double q) const;
};

/// Per-chunk (per-worker-thread-local) accumulation unit: a fixed counter
/// array plus the chunk's own wall time. Plain data, no locks -- exactly
/// one worker writes it, and the runner folds it after the pool drains.
struct MetricsBlock {
  std::array<std::uint64_t, static_cast<std::size_t>(Counter::kCount)>
      counters{};
  std::uint64_t chunk_nanos = 0;  ///< wall time of this chunk's execution
  /// Group reads bracketing the chunk body (valid only with --perf on a
  /// host whose PMU opened); the registry folds end - begin under tag.
  PerfSample perf_begin;
  PerfSample perf_end;
  KernelTag tag = KernelTag::kUntagged;

  void add(Counter c, std::uint64_t n) {
    counters[static_cast<std::size_t>(c)] += n;
  }
};

/// One scenario's worth of folded metrics: what the registry snapshots and
/// the metrics JSON serializes. Only non-zero counters / recorded
/// histograms / set gauges appear.
struct Snapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, Histogram> histograms;
  /// Named (x, y) trajectories appended from serial driver code (ESS and
  /// rel-error per importance-sampling round, conditional probability per
  /// splitting level, ...).
  std::map<std::string, std::vector<std::pair<double, double>>> series;

  bool empty() const {
    return counters.empty() && gauges.empty() && histograms.empty() &&
           series.empty();
  }
};

/// The process-wide metrics sink. Serial-context records take a mutex (they
/// happen per runner call / sweep point / rare-event round, never per
/// trial); chunk-context records never touch the registry directly -- they
/// go through the lock-free thread-local MetricsBlock and arrive via
/// merge_block on the caller thread, in chunk order.
class Registry {
 public:
  /// Folds one chunk's block (caller thread, chunk-index order).
  void merge_block(const MetricsBlock& block);

  void add(Counter c, std::uint64_t n = 1);
  void set(Gauge g, double v);
  void record(Hist h, std::uint64_t v);
  void series_append(const std::string& name, double x, double y);

  /// Copies the current state out (named, zero-suppressed).
  Snapshot snapshot() const;

  /// Clears every metric (between scenarios).
  void reset();

 private:
  mutable std::mutex mutex_;
  std::array<std::uint64_t, static_cast<std::size_t>(Counter::kCount)>
      counters_{};
  std::array<double, static_cast<std::size_t>(Gauge::kCount)> gauges_{};
  std::array<bool, static_cast<std::size_t>(Gauge::kCount)> gauge_set_{};
  std::array<Histogram, static_cast<std::size_t>(Hist::kCount)> hists_{};
  std::array<PerfAccum, static_cast<std::size_t>(KernelTag::kCount)> perf_{};
  std::map<std::string, std::vector<std::pair<double, double>>> series_;
};

namespace detail {
extern std::atomic<Registry*> g_registry;
/// The executing chunk's block, or null. constinit: the extern declaration
/// then promises no dynamic initializer, so no access calls (or tests for)
/// a TLS-init function. Without it GCC 12 tests the thread-local's address
/// with a `je` on the flags of an `add` that GNU ld relaxes into a
/// flag-less `lea`, and optimized code under UBSan reported a null load.
extern constinit thread_local MetricsBlock* tl_block;
/// Process-wide hardware-profiling switch (perfctr.cpp owns the storage).
extern std::atomic<bool> g_perf_profiling;
}  // namespace detail

/// True when --perf turned chunk-boundary hardware sampling on. Flipped by
/// set_perf_profiling() in perfctr.h; checked (one relaxed-ish atomic load)
/// per chunk, never per trial.
inline bool perf_profiling_enabled() {
  return detail::g_perf_profiling.load(std::memory_order_acquire);
}

/// Reads the calling thread's counter group into `out` (perfctr.cpp). The
/// group is opened lazily on first use per thread and closed at thread
/// exit; when profiling is off or the open failed, `out` stays invalid.
void perf_thread_sample(PerfSample& out);

/// Installs (or, with nullptr, removes) the process-wide registry. Not
/// thread-safe against concurrent recording: install before the run starts,
/// remove after it ends (ScopedRegistry does both).
inline void set_registry(Registry* r) {
  detail::g_registry.store(r, std::memory_order_release);
}

inline Registry* registry() {
  return detail::g_registry.load(std::memory_order_acquire);
}

inline bool metrics_enabled() { return registry() != nullptr; }

/// RAII install/remove of the process-wide registry.
class ScopedRegistry {
 public:
  explicit ScopedRegistry(Registry* r) { set_registry(r); }
  ~ScopedRegistry() { set_registry(nullptr); }
  ScopedRegistry(const ScopedRegistry&) = delete;
  ScopedRegistry& operator=(const ScopedRegistry&) = delete;
};

/// Counter increment, usable from any context. Inside a runner chunk the
/// thread-local block takes it (lock-free); otherwise it goes to the
/// registry under its mutex. With nothing installed both pointers are null
/// and this is a branch-on-null no-op.
inline void counter_add(Counter c, std::uint64_t n = 1) {
  if (MetricsBlock* b = detail::tl_block) {
    b->add(c, n);
    return;
  }
  if (Registry* r = registry()) r->add(c, n);
}

/// Stamps the executing chunk's kernel attribution. Trial bodies call this
/// where they dispatch into a kernel; the first tag wins and a conflicting
/// second tag degrades the chunk to kMixed. Costs one thread-local load
/// plus a compare -- and nothing at all with metrics disabled.
inline void tag_kernel(KernelTag t) {
  if (MetricsBlock* b = detail::tl_block) {
    if (b->tag == KernelTag::kUntagged) {
      b->tag = t;
    } else if (b->tag != t) {
      b->tag = KernelTag::kMixed;
    }
  }
}

/// Gauge set (registry-direct; safe from chunk contexts only for values
/// that are identical on every write, which all current gauges are).
inline void gauge_set(Gauge g, double v) {
  if (Registry* r = registry()) r->set(g, v);
}

/// Histogram record from serial contexts (per runner call / sweep point).
/// Per-chunk wall times arrive via MetricsBlock::chunk_nanos instead, so
/// they fold in chunk order.
inline void hist_record(Hist h, std::uint64_t v) {
  if (Registry* r = registry()) r->record(h, v);
}

/// Series append from serial driver code (rare-event rounds/levels).
inline void series_append(const std::string& name, double x, double y) {
  if (Registry* r = registry()) r->series_append(name, x, y);
}

/// Scoped histogram timer for serial contexts: reads the clock only when a
/// registry is installed, so the disabled path costs one pointer load.
class ScopedHist {
 public:
  explicit ScopedHist(Hist h) : hist_(h), armed_(metrics_enabled()) {
    if (armed_) start_ = Stopwatch::clock::now();
  }
  ~ScopedHist() {
    if (armed_) hist_record(hist_, Stopwatch::nanos_since(start_));
  }
  ScopedHist(const ScopedHist&) = delete;
  ScopedHist& operator=(const ScopedHist&) = delete;

 private:
  Hist hist_;
  bool armed_;
  Stopwatch::clock::time_point start_{};
};

/// Scoped event count plus wall time from any context: on destruction adds
/// 1 to `events` and the elapsed nanoseconds to `nanos` through
/// counter_add. Reads the clock only when a block or a registry is
/// installed, so the disabled path costs counter_add's two pointer loads.
/// Meant for spans of ~10 us and longer, where two clock reads are noise.
class ScopedCount {
 public:
  ScopedCount(Counter events, Counter nanos)
      : events_(events),
        nanos_(nanos),
        armed_(detail::tl_block != nullptr || metrics_enabled()) {
    if (armed_) start_ = Stopwatch::clock::now();
  }
  ~ScopedCount() {
    if (!armed_) return;
    counter_add(events_);
    counter_add(nanos_, Stopwatch::nanos_since(start_));
  }
  ScopedCount(const ScopedCount&) = delete;
  ScopedCount& operator=(const ScopedCount&) = delete;

 private:
  Counter events_;
  Counter nanos_;
  bool armed_;
  Stopwatch::clock::time_point start_{};
};

/// Installs `block` as the executing thread's accumulation target for the
/// lifetime of one chunk, timing it. finish(trials) stamps the trial count
/// and the chunk wall time; the runner merges the block afterwards (in
/// chunk order, on the caller thread). A null block (metrics disabled)
/// arms nothing and reads no clock.
class ChunkScope {
 public:
  explicit ChunkScope(MetricsBlock* block) : block_(block) {
    if (block_) {
      prev_ = detail::tl_block;
      detail::tl_block = block_;
      start_ = Stopwatch::clock::now();
      // Perf reads bracket the chunk body *inside* the wall-clock window,
      // so the hardware window is never wider than chunk_nanos. Guarded by
      // the profiling switch: a plain --metrics run never touches perf fds.
      if (perf_profiling_enabled()) perf_thread_sample(block_->perf_begin);
    }
  }

  /// Records the chunk's own metrics. Call once, at the end of the chunk
  /// body (the destructor only restores the thread-local).
  void finish(std::uint64_t trials) {
    if (!block_) return;
    if (block_->perf_begin.valid) perf_thread_sample(block_->perf_end);
    block_->chunk_nanos = Stopwatch::nanos_since(start_);
    block_->add(Counter::kEngineChunks, 1);
    block_->add(Counter::kEngineTrials, trials);
  }

  ~ChunkScope() {
    if (block_) detail::tl_block = prev_;
  }

  ChunkScope(const ChunkScope&) = delete;
  ChunkScope& operator=(const ChunkScope&) = delete;

 private:
  MetricsBlock* block_;
  MetricsBlock* prev_ = nullptr;
  Stopwatch::clock::time_point start_{};
};

}  // namespace mram::obs
