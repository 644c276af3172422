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
// only on (trials, seed) -- never on the thread count or the
// scheduling interleaving -- a run is bit-identical on 1 thread and on 64.
// The batched path fans out spans of whole chunks instead of single chunks
// (so a SIMD kernel sees many trials at once), but each trial still folds
// into its own chunk's partial: spans decide who executes a trial, never
// where its result goes, so span sizes may follow the thread count. The
// engine.chunks / engine.chunk_ns metrics count and time these fan-out
// tasks: chunks of run(), spans of run_batched().
//
// The accumulator type (`Partial`) must be default-constructible and provide
//   void merge(const Partial&);
// Workloads with per-trial setup cost (e.g. building an MramArray) supply a
// context factory that runs once per chunk (once per span on the batched
// path); the trial functor receives that local context by reference.

namespace mram::eng {

struct RunnerConfig {
  unsigned threads = 0;  ///< worker threads; 0 = hardware concurrency
};

class MonteCarloRunner {
 public:
  explicit MonteCarloRunner(RunnerConfig config = {})
      : pool_(config.threads) {}

  /// Total worker threads (pool + caller).
  unsigned threads() const { return pool_.size(); }

  /// Maximum trials per chunk. effective_chunk subdivides further for small
  /// runs, so a 16-trial batch of heavy trials still spreads over the pool.
  static constexpr std::size_t kChunkSize = 64;

  /// Chunk actually used for `trials`: kChunkSize capped so that a run
  /// always splits into ~kTargetChunks pieces. Depends only on `trials` --
  /// never on the thread count -- so the determinism contract holds while
  /// small heavy batches (e.g. 16 stochastic-LLG trials) still fan out
  /// across the pool.
  static std::size_t effective_chunk(std::size_t trials) {
    const std::size_t target = (trials + kTargetChunks - 1) / kTargetChunks;
    return std::max<std::size_t>(std::min(kChunkSize, target), 1);
  }

  /// The widest block a batch body hands to a lane-parallel score at once
  /// (eng::BatchScore), and the trial count a run_batched() span aims at.
  /// 64 matches the widest consumers: subset simulation and the read-error
  /// noise_margin blocks; a 64-trial span also keeps an LLG kernel's slots
  /// refilled for many trials.
  static constexpr std::size_t kMaxLaneWidth = 64;

  /// Runs `trials` independent trials and returns the merged accumulator.
  /// MakeContext: () -> Ctx, invoked once per chunk on the executing worker.
  /// TrialFn: (Ctx&, util::Rng&, std::size_t trial_index, Partial&) -> void.
  template <class Partial, class MakeContext, class TrialFn>
  Partial run(std::size_t trials, std::uint64_t seed,
              MakeContext&& make_context, TrialFn&& trial) {
    MRAM_EXPECTS(trials > 0, "need at least one trial");
    const std::size_t chunk = effective_chunk(trials);
    const std::size_t n_chunks = (trials + chunk - 1) / chunk;
    return run_chunks<Partial>(
        trials, chunk, n_chunks, n_chunks,
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

  /// Batched variant of run(): the pool fans out *spans* of whole
  /// consecutive chunks (span_chunks() of them) and hands each span's
  /// trials to `batch` at once, so a SoA kernel (e.g.
  /// dyn::BatchMacrospinSim) can keep its lanes full across chunk
  /// boundaries.
  /// BatchFn: (Ctx&, util::Rng* rngs, std::size_t first_trial, std::size_t n,
  ///           const AccOf& acc_of) -> void, where rngs[l] is the stream of
  /// trial first_trial + l and acc_of(i) -> Partial& is the partial of
  /// trial i's chunk. The functor folds trial i into acc_of(i), in trial
  /// order.
  ///
  /// Spans group execution only. Chunks, per-trial streams, partials and
  /// the chunk-order merge are run()'s -- they depend on the trial count,
  /// never on the span size or the thread count -- so a batch
  /// functor that folds each trial into its own chunk's partial in trial
  /// order reproduces run() bit for bit at any thread count.
  template <class Partial, class MakeContext, class BatchFn>
  Partial run_batched(std::size_t trials, std::uint64_t seed,
                      MakeContext&& make_context, BatchFn&& batch) {
    MRAM_EXPECTS(trials > 0, "need at least one trial");
    const std::size_t chunk = effective_chunk(trials);
    const std::size_t n_chunks = (trials + chunk - 1) / chunk;
    const std::size_t per_span = span_chunks(chunk, n_chunks);
    const std::size_t n_spans = (n_chunks + per_span - 1) / per_span;
    return run_chunks<Partial>(
        trials, chunk, n_chunks, n_spans,
        [&](std::vector<Partial>& partials) {
          const auto acc_of = [&partials, chunk](std::size_t i) -> Partial& {
            return partials[i / chunk];
          };
          pool_.for_each(n_spans, [&](std::size_t si) {
            obs::ChunkScope scope(chunk_block(si));
            obs::TraceSpan span("engine", [si] {
              return "span " + std::to_string(si);
            });
            auto context = make_context();
            const std::size_t lo = si * per_span * chunk;
            const std::size_t hi = std::min(lo + per_span * chunk, trials);
            std::vector<util::Rng> rngs;
            rngs.reserve(hi - lo);
            for (std::size_t i = lo; i < hi; ++i) {
              rngs.push_back(util::Rng::stream(seed, i));
            }
            batch(context, rngs.data(), lo, hi - lo, acc_of);
            obs::counter_add(obs::Counter::kEngineBatchBlocks);
            obs::counter_add(obs::Counter::kEngineBatchLanes, hi - lo);
            scope.finish(hi - lo);
            obs::progress_add_trials(hi - lo);
          });
        });
  }

 private:
  static constexpr std::size_t kTargetChunks = 64;

  /// Whole chunks per run_batched() span: enough for kMaxLaneWidth trials,
  /// capped so that at least min(n_chunks, threads()) spans remain and a
  /// small call of heavy trials (16 stochastic-LLG trials in chunks of
  /// one) still spreads over the pool.
  std::size_t span_chunks(std::size_t chunk, std::size_t n_chunks) const {
    const std::size_t fill = (kMaxLaneWidth + chunk - 1) / chunk;
    return std::min(fill, std::max<std::size_t>(n_chunks / threads(), 1));
  }

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
      if (armed_) start_ = obs::Stopwatch::clock::now();
    }

    ~CallObserver() {
      if (armed_) {
        const std::uint64_t ns = obs::Stopwatch::nanos_since(start_);
        obs::counter_add(obs::Counter::kEngineWallNanos, ns);
        obs::hist_record(obs::Hist::kEngineCallNanos, ns);
      }
    }

    CallObserver(const CallObserver&) = delete;
    CallObserver& operator=(const CallObserver&) = delete;

   private:
    bool armed_;
    obs::TraceSpan span_;
    obs::Stopwatch::clock::time_point start_{};
  };

  /// Accumulation target for fan-out task ti (a chunk of run(), a span of
  /// run_batched()), or null when metrics are off (chunk_blocks_ is sized
  /// by run_chunks before each fan-out and left empty when no registry is
  /// installed).
  obs::MetricsBlock* chunk_block(std::size_t ti) {
    return chunk_blocks_.empty() ? nullptr : &chunk_blocks_[ti];
  }

  /// Shared tail of run()/run_batched(). `exec(partials)` fans n_tasks
  /// tasks out over the pool, which write the partial of chunk ci into
  /// partials[ci]; the partials and the per-task metric blocks are then
  /// folded strictly in index order on this thread -- never in completion
  /// order -- which is what makes the result thread-count independent.
  template <class Partial, class Exec>
  Partial run_chunks(std::size_t trials, std::size_t chunk,
                     std::size_t n_chunks, std::size_t n_tasks, Exec&& exec) {
    const CallObserver observe(*this, trials, chunk);
    // With no registry installed the block vector stays empty and every
    // task gets a null block (no-op scope).
    if (obs::metrics_enabled()) {
      chunk_blocks_.assign(n_tasks, obs::MetricsBlock{});
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

  ThreadPool pool_;
  /// Per-task metric blocks of the fan-out in flight, indexed by task.
  /// Sized on the caller thread before the pool starts, each element
  /// written by exactly one worker, folded in chunk order after for_each
  /// returns; empty whenever metrics are off.
  std::vector<obs::MetricsBlock> chunk_blocks_;
};

}  // namespace mram::eng
