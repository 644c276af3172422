#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "engine/thread_pool.h"
#include "obs/metrics.h"
#include "obs/progress.h"
#include "obs/stopwatch.h"
#include "obs/trace.h"
#include "util/error.h"
#include "util/rng.h"

// Unified Monte Carlo engine. Every stochastic workload in the repository --
// WER trials, retention holds, yield sampling, device ensembles, stochastic
// LLG switching -- is a loop of independent seeded trials folded into an
// accumulator. MonteCarloRunner factors that loop out once:
//
//   * trials are scheduled in fixed-size chunks over a worker thread pool;
//   * trial i draws its randomness from util::Rng::stream(seed, i), a
//     counter-based stream independent of which thread runs it;
//   * each chunk folds into its own partial accumulator, and the partials
//     are merged in chunk-index order after the pool drains.
//
// Because the chunking, the per-trial streams and the merge order depend
// only on (trials, seed, chunk_size) -- never on the thread count or the
// scheduling interleaving -- a run is bit-identical on 1 thread and on 64.
//
// The accumulator type (`Partial`) must be default-constructible and provide
//   void merge(const Partial&);
// Workloads with per-trial setup cost (e.g. building an MramArray) supply a
// context factory that runs once per chunk; the trial functor receives the
// chunk-local context by reference.

namespace mram::eng {

struct RunnerConfig {
  unsigned threads = 0;         ///< worker threads; 0 = hardware concurrency
  std::size_t chunk_size = 64;  ///< maximum trials per chunk. The runner
                                ///< subdivides further for small runs (see
                                ///< effective_chunk) so a 16-trial batch of
                                ///< heavy trials still spreads over the pool.

  void validate() const {
    if (chunk_size == 0) {
      throw util::ConfigError("runner chunk size must be positive");
    }
  }
};

class MonteCarloRunner {
 public:
  explicit MonteCarloRunner(RunnerConfig config = {})
      : config_(config), pool_((config.validate(), config.threads)) {}

  const RunnerConfig& config() const { return config_; }

  /// Total worker threads (pool + caller).
  unsigned threads() const { return pool_.size(); }

  /// Runs `trials` independent trials and returns the merged accumulator.
  /// MakeContext: () -> Ctx, invoked once per chunk on the executing worker.
  /// TrialFn: (Ctx&, util::Rng&, std::size_t trial_index, Partial&) -> void.
  /// Chunk actually used for `trials`: config.chunk_size capped so that a
  /// run always splits into ~kTargetChunks pieces. Depends only on
  /// (trials, chunk_size) -- never on the thread count -- so the
  /// determinism contract holds while small heavy batches (e.g. 16
  /// stochastic-LLG trials) still fan out across the pool.
  std::size_t effective_chunk(std::size_t trials) const {
    const std::size_t target = (trials + kTargetChunks - 1) / kTargetChunks;
    const std::size_t chunk =
        std::max<std::size_t>(std::min(config_.chunk_size, target), 1);
    MRAM_ENSURES(chunk > 0, "effective chunk must be positive");
    return chunk;
  }

  /// Upper bound on run_batched's lane_width: lane blocks live in a
  /// fixed-size stack buffer of per-trial streams. 64 matches the widest
  /// consumers (subset simulation and the read-error noise_margin blocks).
  static constexpr std::size_t kMaxLaneWidth = 64;

  template <class Partial, class MakeContext, class TrialFn>
  Partial run(std::size_t trials, std::uint64_t seed,
              MakeContext&& make_context, TrialFn&& trial) {
    MRAM_EXPECTS(trials > 0, "need at least one trial");
    const std::size_t chunk = effective_chunk(trials);
    const std::size_t n_chunks = (trials + chunk - 1) / chunk;
    return run_chunks<Partial>(
        trials, chunk, n_chunks,
        [&](std::vector<Partial>& partials) {
          pool_.for_each(n_chunks, [&](std::size_t ci) {
            obs::ChunkScope scope(chunk_block(ci));
            obs::TraceSpan span("engine", [ci] {
              return "chunk " + std::to_string(ci);
            });
            auto context = make_context();
            Partial acc;
            const std::size_t lo = ci * chunk;
            const std::size_t hi = std::min(lo + chunk, trials);
            for (std::size_t i = lo; i < hi; ++i) {
              util::Rng rng = util::Rng::stream(seed, i);
              trial(context, rng, i, acc);
            }
            partials[ci] = std::move(acc);
            scope.finish(hi - lo);
            obs::progress_add_trials(hi - lo);
          });
        });
  }

  /// Context-free convenience overload.
  /// TrialFn: (util::Rng&, std::size_t trial_index, Partial&) -> void.
  template <class Partial, class TrialFn>
  Partial run(std::size_t trials, std::uint64_t seed, TrialFn&& trial) {
    struct NoContext {};
    return run<Partial>(
        trials, seed, [] { return NoContext{}; },
        [&trial](NoContext&, util::Rng& rng, std::size_t i, Partial& acc) {
          trial(rng, i, acc);
        });
  }

  /// Batched variant of run(): each chunk is handed to `batch` in
  /// lane-blocks of up to `lane_width` consecutive trials, so a SoA kernel
  /// (e.g. dyn::BatchMacrospinSim) can advance the whole block in lockstep.
  /// BatchFn: (Ctx&, util::Rng* rngs, std::size_t first_trial,
  ///           std::size_t lanes, Partial&) -> void, where rngs[l] is the
  /// stream of trial first_trial + l.
  ///
  /// Chunking and merge order are shared with run() -- they depend only on
  /// (trials, chunk_size), never on lane_width or the thread count -- and
  /// the per-trial streams are identical, so a batch functor that folds its
  /// lanes into the accumulator in lane order reproduces run() bit for bit
  /// at any lane_width (remainder blocks and lane_width=1 included).
  template <class Partial, class MakeContext, class BatchFn>
  Partial run_batched(std::size_t trials, std::uint64_t seed,
                      std::size_t lane_width, MakeContext&& make_context,
                      BatchFn&& batch) {
    MRAM_EXPECTS(trials > 0, "need at least one trial");
    MRAM_EXPECTS(lane_width > 0, "lane width must be positive");
    MRAM_EXPECTS(lane_width <= kMaxLaneWidth,
                 "lane width exceeds engine maximum (64)");
    const std::size_t chunk = effective_chunk(trials);
    const std::size_t n_chunks = (trials + chunk - 1) / chunk;
    return run_chunks<Partial>(
        trials, chunk, n_chunks,
        [&](std::vector<Partial>& partials) {
          pool_.for_each(n_chunks, [&](std::size_t ci) {
            obs::ChunkScope scope(chunk_block(ci));
            obs::TraceSpan span("engine", [ci] {
              return "chunk " + std::to_string(ci);
            });
            auto context = make_context();
            Partial acc;
            const std::size_t lo = ci * chunk;
            const std::size_t hi = std::min(lo + chunk, trials);
            // Lane streams live in a fixed stack buffer, assigned in place
            // per block -- no per-block heap churn in the hot scheduling
            // loop.
            util::Rng rngs[kMaxLaneWidth];
            for (std::size_t base = lo; base < hi; base += lane_width) {
              const std::size_t lanes = std::min(lane_width, hi - base);
              for (std::size_t l = 0; l < lanes; ++l) {
                rngs[l] = util::Rng::stream(seed, base + l);
              }
              batch(context, rngs, base, lanes, acc);
              obs::counter_add(obs::Counter::kEngineBatchBlocks);
              obs::counter_add(obs::Counter::kEngineBatchLanes, lanes);
            }
            partials[ci] = std::move(acc);
            scope.finish(hi - lo);
            obs::progress_add_trials(hi - lo);
          });
        });
  }

  /// Context-free convenience overload of run_batched().
  /// BatchFn: (util::Rng* rngs, std::size_t first_trial, std::size_t lanes,
  ///           Partial&) -> void.
  template <class Partial, class BatchFn>
  Partial run_batched(std::size_t trials, std::uint64_t seed,
                      std::size_t lane_width, BatchFn&& batch) {
    struct NoContext {};
    return run_batched<Partial>(
        trials, seed, lane_width, [] { return NoContext{}; },
        [&batch](NoContext&, util::Rng* rngs, std::size_t first,
                 std::size_t lanes, Partial& acc) {
          batch(rngs, first, lanes, acc);
        });
  }

 private:
  static constexpr std::size_t kTargetChunks = 64;

  /// Per-runner-call observability: counts the call, stamps the config
  /// gauges, announces the trial total to the progress gate, opens the
  /// call-level trace span, and -- on destruction -- records the call's
  /// wall time (counter + histogram). Everything is branch-on-null when no
  /// sink is installed; nothing here touches the chunking or the streams.
  class CallObserver {
   public:
    CallObserver(const MonteCarloRunner& runner, std::size_t trials,
                 std::size_t chunk)
        : armed_(obs::metrics_enabled()),
          span_("engine", [&] {
            return "call (" + std::to_string(trials) + " trials)";
          }) {
      obs::counter_add(obs::Counter::kEngineCalls);
      obs::gauge_set(obs::Gauge::kEngineThreads, runner.threads());
      obs::gauge_set(obs::Gauge::kEngineChunkSize,
                     static_cast<double>(chunk));
      obs::progress_begin_call(trials);
      if (armed_) sw_.reset();
    }

    ~CallObserver() {
      if (armed_) {
        const std::uint64_t ns = sw_.nanos();
        obs::counter_add(obs::Counter::kEngineWallNanos, ns);
        obs::hist_record(obs::Hist::kEngineCallNanos, ns);
      }
    }

    CallObserver(const CallObserver&) = delete;
    CallObserver& operator=(const CallObserver&) = delete;

   private:
    bool armed_;
    obs::TraceSpan span_;
    obs::Stopwatch sw_;
  };

  /// Accumulation target for chunk ci, or null when metrics are off
  /// (chunk_blocks_ is sized by run_chunks before each fan-out and left
  /// empty when no registry is installed).
  obs::MetricsBlock* chunk_block(std::size_t ci) {
    return chunk_blocks_.empty() ? nullptr : &chunk_blocks_[ci];
  }

  /// Shared tail of run()/run_batched(). `exec(partials)` fans all
  /// n_chunks chunks out over the pool, writing the partial of chunk ci into
  /// partials[ci]; the partials and the per-chunk metric blocks are then
  /// folded strictly in chunk order on this thread -- never in completion
  /// order -- which is what makes the result thread-count independent.
  template <class Partial, class Exec>
  Partial run_chunks(std::size_t trials, std::size_t chunk,
                     std::size_t n_chunks, Exec&& exec) {
    const CallObserver observe(*this, trials, chunk);
    // With no registry installed the block vector stays empty and every
    // chunk gets a null block (no-op scope).
    if (obs::metrics_enabled()) {
      chunk_blocks_.assign(n_chunks, obs::MetricsBlock{});
    } else {
      chunk_blocks_.clear();
    }
    std::vector<Partial> partials(n_chunks);
    exec(partials);
    if (obs::Registry* r = obs::registry()) {
      for (const auto& b : chunk_blocks_) r->merge_block(b);
    }
    chunk_blocks_.clear();
    Partial total;
    for (auto& p : partials) total.merge(p);
    return total;
  }

  RunnerConfig config_;
  ThreadPool pool_;
  /// Per-chunk metric blocks of the fan-out in flight, indexed by chunk.
  /// Sized on the caller thread before the pool starts, each element
  /// written by exactly one worker, folded in chunk order after for_each
  /// returns; empty whenever metrics are off.
  std::vector<obs::MetricsBlock> chunk_blocks_;
};

}  // namespace mram::eng
