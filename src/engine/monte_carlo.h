#pragma once

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "engine/shard.h"
#include "engine/thread_pool.h"
#include "obs/metrics.h"
#include "obs/progress.h"
#include "obs/stopwatch.h"
#include "obs/trace.h"
#include "util/error.h"
#include "util/rng.h"
#include "util/serialize.h"

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
// The same contract extends across processes: set_shard_io() switches the
// runner into shard, merge or checkpoint mode (engine/shard.h), where the
// chunk loop executes a slice / replays dumped per-chunk partials / snapshots
// the running reduction -- all reproducing the single-process left fold bit
// for bit. These modes serialize the accumulators (util/serialize.h); a
// workload whose Partial is not serializable gets a ConfigError.
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

  /// Installs a scale-out configuration (validated) and resets the call
  /// counter that keys dump files, so every scenario starts its numbering at
  /// call 0 regardless of what ran before on this runner.
  void set_shard_io(ShardIo io) {
    io.validate();
    io_ = std::move(io);
    call_counter_ = 0;
  }

  const ShardIo& shard_io() const { return io_; }

  /// run()/run_batched() calls since the last set_shard_io(). The merge
  /// driver compares this with the call files present in the partials
  /// directory to catch shards whose control flow diverged.
  std::uint64_t shard_calls() const { return call_counter_; }

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
        trials, chunk, n_chunks, seed,
        [&](std::size_t lo_chunk, std::size_t hi_chunk,
            std::vector<Partial>& partials) {
          pool_.for_each(hi_chunk - lo_chunk, [&](std::size_t k) {
            const std::size_t ci = lo_chunk + k;
            obs::ChunkScope scope(chunk_block(k));
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
            partials[k] = std::move(acc);
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
        trials, chunk, n_chunks, seed,
        [&](std::size_t lo_chunk, std::size_t hi_chunk,
            std::vector<Partial>& partials) {
          pool_.for_each(hi_chunk - lo_chunk, [&](std::size_t k) {
            const std::size_t ci = lo_chunk + k;
            obs::ChunkScope scope(chunk_block(k));
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
            partials[k] = std::move(acc);
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
    CallObserver(const MonteCarloRunner& runner, std::uint64_t call,
                 std::size_t trials, std::size_t chunk, std::size_t n_chunks)
        : armed_(obs::metrics_enabled()),
          span_("engine", [&] {
            return "call " + std::to_string(call) + " (" +
                   std::to_string(trials) + " trials)";
          }) {
      obs::counter_add(obs::Counter::kEngineCalls);
      obs::gauge_set(obs::Gauge::kEngineThreads, runner.threads());
      obs::gauge_set(obs::Gauge::kEngineChunkSize,
                     static_cast<double>(chunk));
      // In shard mode only this shard's chunk slice executes; size the
      // progress bar to what will actually run (0 for merge replays, which
      // execute nothing).
      std::size_t progress_trials = trials;
      if (runner.io_.mode == ShardMode::kShard) {
        const auto [plo, phi] = runner.io_.shard.chunk_range(n_chunks);
        const std::size_t lo_t = std::min(plo * chunk, trials);
        const std::size_t hi_t = std::min(phi * chunk, trials);
        progress_trials = hi_t - lo_t;
      } else if (runner.io_.mode == ShardMode::kMerge) {
        progress_trials = 0;
      }
      obs::progress_begin_call(progress_trials);
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

  /// Accumulation target for fan-out index k, or null when metrics are off
  /// (chunk_blocks_ is sized by run_chunks' instrumented executor before
  /// each fan-out and left empty when no registry is installed).
  obs::MetricsBlock* chunk_block(std::size_t k) {
    return chunk_blocks_.empty() ? nullptr : &chunk_blocks_[k];
  }

  /// Shared tail of run()/run_batched(): mode dispatch around the chunk
  /// executor. `exec(lo_chunk, hi_chunk, partials)` fans chunks
  /// [lo_chunk, hi_chunk) out over the pool, writing the partial of chunk
  /// lo_chunk + k into partials[k] (sized hi_chunk - lo_chunk by the
  /// caller). All four modes fold partials strictly in global chunk order,
  /// which is what makes their results interchangeable bit for bit.
  template <class Partial, class Exec>
  Partial run_chunks(std::size_t trials, std::size_t chunk,
                     std::size_t n_chunks, std::uint64_t seed, Exec&& exec) {
    const std::uint64_t call = call_counter_++;
    const CallObserver observe(*this, call, trials, chunk, n_chunks);
    // Wrap the chunk executor so each fan-out sizes the per-chunk metric
    // blocks first and folds them -- strictly in chunk order, on this
    // thread -- after the pool drains. With no registry installed the
    // vector stays empty and every chunk gets a null block (no-op scope).
    auto instrumented = [&](std::size_t lo_chunk, std::size_t hi_chunk,
                            std::vector<Partial>& partials) {
      if (obs::metrics_enabled()) {
        chunk_blocks_.assign(hi_chunk - lo_chunk, obs::MetricsBlock{});
      } else {
        chunk_blocks_.clear();
      }
      exec(lo_chunk, hi_chunk, partials);
      if (obs::Registry* r = obs::registry()) {
        for (const auto& b : chunk_blocks_) r->merge_block(b);
      }
      chunk_blocks_.clear();
    };
    if (io_.mode == ShardMode::kOff) {
      std::vector<Partial> partials(n_chunks);
      instrumented(0, n_chunks, partials);
      // Deterministic order-independent reduction: chunk order, not
      // completion order.
      Partial total;
      for (auto& p : partials) total.merge(p);
      return total;
    }
    if constexpr (!util::io::kSerializable<Partial>) {
      throw util::ConfigError(
          "this workload's accumulator cannot be serialized, so shard, "
          "merge and checkpoint modes are unavailable for it (see "
          "util/serialize.h for the dump/load protocol)");
    } else {
      shard_detail::CallHeader want;
      want.call = call;
      want.trials = trials;
      want.chunk = chunk;
      want.n_chunks = n_chunks;
      want.seed = seed;
      switch (io_.mode) {
        case ShardMode::kShard:
          return run_shard<Partial>(want, instrumented);
        case ShardMode::kMerge:
          return run_merge<Partial>(want);
        default:
          return run_checkpoint<Partial>(want, instrumented);
      }
    }
  }

  /// kShard: execute only this shard's chunk slice, dump the per-chunk
  /// partials (header + one serialized Partial per owned chunk), and return
  /// the shard-local fold -- enough for the scenario to finish locally, but
  /// the authoritative totals come from the merge.
  template <class Partial, class Exec>
  Partial run_shard(shard_detail::CallHeader want, Exec&& exec) {
    const auto [lo, hi] = io_.shard.chunk_range(want.n_chunks);
    std::vector<Partial> partials(hi - lo);
    if (hi > lo) exec(lo, hi, partials);
    want.chunk_lo = lo;
    want.chunk_hi = hi;
    {
      obs::ScopedHist dump_timer(obs::Hist::kShardDumpNanos);
      shard_detail::AtomicFile file(shard_detail::shard_file(
          io_.dir, want.call, io_.shard.index, io_.shard.count));
      shard_detail::write_header(file.stream(), want);
      util::io::BinWriter writer(file.stream());
      for (auto& p : partials) writer(p);
      const auto dumped = file.stream().tellp();
      file.commit();
      obs::counter_add(obs::Counter::kShardDumpCalls);
      if (dumped > 0) {
        obs::counter_add(obs::Counter::kShardDumpBytes,
                         static_cast<std::uint64_t>(dumped));
      }
    }
    Partial total;
    for (auto& p : partials) total.merge(p);
    return total;
  }

  /// kMerge: execute nothing; load the N shard dumps for this call, verify
  /// each header against the geometry this run computed itself, and fold the
  /// chunk partials in global chunk order. Shard ranges are adjacent and
  /// exhaustive (ShardSpec::chunk_range), so visiting shards 0..N-1 and
  /// their chunks in file order IS the single-process fold.
  template <class Partial>
  Partial run_merge(const shard_detail::CallHeader& want) {
    obs::ScopedHist merge_timer(obs::Hist::kShardMergeNanos);
    obs::counter_add(obs::Counter::kShardMergeCalls);
    Partial total;
    for (std::size_t s = 0; s < io_.merge_count; ++s) {
      const std::string path =
          shard_detail::shard_file(io_.dir, want.call, s, io_.merge_count);
      if (obs::metrics_enabled()) {
        std::error_code ec;
        const auto bytes = std::filesystem::file_size(path, ec);
        if (!ec) {
          obs::counter_add(obs::Counter::kShardMergeBytes,
                           static_cast<std::uint64_t>(bytes));
        }
      }
      std::ifstream is = shard_detail::open_dump(path);
      const auto got = shard_detail::read_header(is, path);
      shard_detail::check_header(got, want, path);
      const auto [lo, hi] =
          ShardSpec{s, io_.merge_count}.chunk_range(want.n_chunks);
      if (got.chunk_lo != lo || got.chunk_hi != hi) {
        throw util::ConfigError(
            path + ": dump covers chunks [" + std::to_string(got.chunk_lo) +
            ", " + std::to_string(got.chunk_hi) + ") but shard " +
            std::to_string(s) + "/" + std::to_string(io_.merge_count) +
            " owns [" + std::to_string(lo) + ", " + std::to_string(hi) + ")");
      }
      util::io::BinReader reader(is);
      for (std::size_t ci = lo; ci < hi; ++ci) {
        Partial p;
        reader(p);
        total.merge(p);
      }
      if (!reader.at_end()) {
        throw util::ConfigError(
            path + ": trailing bytes after the last chunk partial -- "
                   "accumulator layout mismatch between producer and merge?");
      }
    }
    return total;
  }

  /// kCheckpoint: execute chunk ranges of checkpoint_chunk_stride and
  /// snapshot the running left-fold prefix after each (atomic
  /// write-temp-then-rename, so a kill can never leave a torn file). The
  /// final snapshot lands in `.done`; with resume=true, a `.done` call is
  /// loaded outright and a `.part` call continues from its prefix --
  /// continuing a left fold being the identical operation sequence, the
  /// resumed total is bit-identical to an uninterrupted run's.
  template <class Partial, class Exec>
  Partial run_checkpoint(const shard_detail::CallHeader& want, Exec&& exec) {
    const std::string done = shard_detail::done_file(io_.dir, want.call);
    const std::string part = shard_detail::part_file(io_.dir, want.call);
    Partial total;
    std::size_t completed = 0;
    if (io_.resume) {
      if (load_snapshot(done, want, want.n_chunks, total, completed)) {
        return total;
      }
      load_snapshot(part, want, 0, total, completed);
    }
    while (completed < want.n_chunks) {
      const std::size_t hi = std::min(
          completed + io_.checkpoint_chunk_stride,
          static_cast<std::size_t>(want.n_chunks));
      std::vector<Partial> partials(hi - completed);
      exec(completed, hi, partials);
      for (auto& p : partials) total.merge(p);
      completed = hi;
      shard_detail::CallHeader h = want;
      h.chunk_hi = completed;
      shard_detail::AtomicFile file(completed == want.n_chunks ? done : part);
      shard_detail::write_header(file.stream(), h);
      util::io::BinWriter writer(file.stream());
      writer(total);
      file.commit();
    }
    shard_detail::remove_file(part);
    return total;
  }

  /// Loads a checkpoint snapshot if `path` exists: validates its header
  /// (and, when required_chunks > 0, that it covers exactly that many
  /// chunks), then replaces `total`/`completed` with the stored prefix.
  /// Returns false without touching anything when the file is absent.
  template <class Partial>
  bool load_snapshot(const std::string& path,
                     const shard_detail::CallHeader& want,
                     std::size_t required_chunks, Partial& total,
                     std::size_t& completed) {
    std::ifstream is(path, std::ios::binary);
    if (!is) return false;
    const auto got = shard_detail::read_header(is, path);
    shard_detail::check_header(got, want, path);
    if (got.chunk_hi > want.n_chunks ||
        (required_chunks > 0 && got.chunk_hi != required_chunks)) {
      throw util::ConfigError(
          path + ": snapshot claims " + std::to_string(got.chunk_hi) +
          " completed chunks of " + std::to_string(want.n_chunks));
    }
    Partial loaded;
    util::io::BinReader reader(is);
    reader(loaded);
    if (!reader.at_end()) {
      throw util::ConfigError(
          path + ": trailing bytes after the snapshot total -- accumulator "
                 "layout mismatch between producer and resume?");
    }
    total = std::move(loaded);
    completed = static_cast<std::size_t>(got.chunk_hi);
    return true;
  }

  RunnerConfig config_;
  ThreadPool pool_;
  ShardIo io_;
  std::uint64_t call_counter_ = 0;
  /// Per-chunk metric blocks of the fan-out in flight (one per chunk in
  /// [lo_chunk, hi_chunk), indexed by k). Sized on the caller thread before
  /// the pool starts, each element written by exactly one worker, folded in
  /// chunk order after for_each returns; empty whenever metrics are off.
  std::vector<obs::MetricsBlock> chunk_blocks_;
};

}  // namespace mram::eng
