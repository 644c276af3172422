// Tests for the unified Monte Carlo engine: static-dispatch solver policies
// (observed convergence orders), the cached coupling kernel (agreement with
// the direct dipole sum), per-trial RNG streams, the thread pool, and the
// determinism contract of MonteCarloRunner (bit-identical results across
// thread counts and chunk sizes for a fixed seed).

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <filesystem>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "array/array_field.h"
#include "array/data_pattern.h"
#include "device/mtj_device.h"
#include "dynamics/llg.h"
#include "dynamics/switching_sim.h"
#include "engine/monte_carlo.h"
#include "engine/thread_pool.h"
#include "magnetics/disk_source.h"
#include "mram/mram_array.h"
#include "mram/retention.h"
#include "mram/wer.h"
#include "numerics/solvers.h"
#include "util/error.h"
#include "util/stats.h"

namespace mram {
namespace {

using num::Vec3;

// --- solver policies: observed convergence order ----------------------------

double observed_order(double coarse_error, double fine_error) {
  return std::log2(coarse_error / fine_error);
}

TEST(Solvers, Rk4ObservedFourthOrder) {
  // dm/dt = -m, m(1) = m0 * exp(-1).
  auto f = [](double, const Vec3& m) { return -m; };
  auto error_for = [&](double dt) {
    const Vec3 m = num::integrate_fixed<num::Rk4Solver>(f, {1.0, 0.0, 0.0},
                                                        0.0, 1.0, dt);
    return std::abs(m.x - std::exp(-1.0));
  };
  const double p = observed_order(error_for(0.1), error_for(0.05));
  EXPECT_NEAR(p, 4.0, 0.3);
}

TEST(Solvers, HeunObservedSecondOrder) {
  auto f = [](double, const Vec3& m) { return -m; };
  auto error_for = [&](double dt) {
    const Vec3 m = num::integrate_fixed<num::HeunSolver>(f, {1.0, 0.0, 0.0},
                                                         0.0, 1.0, dt);
    return std::abs(m.x - std::exp(-1.0));
  };
  const double p = observed_order(error_for(0.1), error_for(0.05));
  EXPECT_NEAR(p, 2.0, 0.2);
}

// --- LLG on the policies ----------------------------------------------------

TEST(LlgEngine, TrajectoryIncludesFinalPoint) {
  // 10 steps recorded every 3: the seed implementation dropped the final
  // point; it must now always be present.
  const dyn::MacrospinSim sim(dyn::LlgParams{});
  std::vector<dyn::TrajectoryPoint> traj;
  const double dt = 1e-12;
  const Vec3 end = sim.run({0.1, 0.0, 0.9949874371066199}, 10.5 * dt, dt,
                           &traj, 3);
  ASSERT_FALSE(traj.empty());
  EXPECT_NEAR(traj.back().t, 10.5 * dt, 1e-3 * dt);
  EXPECT_TRUE(num::almost_equal(traj.back().m, end, 0.0));
}

TEST(LlgEngine, HeunSwitchingProbabilityMatchesSunModel) {
  // The stochastic Heun trials and the analytic Sun-model success
  // probability must agree on the extremes: a pulse several times tw
  // switches essentially always, a small fraction of tw essentially never.
  const dev::MtjDevice device(dev::MtjParams::reference_device(35e-9));
  const double vp = 1.2;
  const double tw =
      device.switching_time(dev::SwitchDirection::kApToP, vp, 0.0);
  ASSERT_TRUE(std::isfinite(tw));

  util::Rng rng(99);
  const std::size_t trials = 30;
  const auto stats = dyn::llg_switching_stats(
      device, dev::SwitchDirection::kApToP, vp, 0.0, trials, rng, 6.0 * tw,
      1e-12);
  const double p_llg =
      static_cast<double>(stats.switched) / static_cast<double>(stats.trials);
  const double p_sun = device.write_success_probability(
      dev::SwitchDirection::kApToP, vp, 6.0 * tw, 0.0);
  EXPECT_GT(p_sun, 0.9);
  EXPECT_GT(p_llg, 0.9);
  EXPECT_NEAR(p_llg, p_sun, 0.12);

  // And the mean stochastic switching time stays commensurate with tw.
  EXPECT_GT(stats.mean_time, 0.05 * tw);
  EXPECT_LT(stats.mean_time, 20.0 * tw);
}

// --- coupling-kernel cache vs. direct dipole sum ----------------------------

TEST(KernelCache, MatchesDirectDipoleSum) {
  dev::StackGeometry stack;
  stack.ecd = 35e-9;
  const double pitch = 60e-9;
  const int radius = 2;
  const arr::ArrayFieldModel model(stack, pitch, radius);

  util::Rng rng(7);
  arr::DataGrid grid(5, 6, 0);
  for (std::size_t r = 0; r < grid.rows(); ++r) {
    for (std::size_t c = 0; c < grid.cols(); ++c) {
      grid.set(r, c, rng.bernoulli(0.5) ? 1 : 0);
    }
  }

  for (std::size_t r = 0; r < grid.rows(); ++r) {
    for (std::size_t c = 0; c < grid.cols(); ++c) {
      // Direct evaluation: every aggressor layer field summed explicitly at
      // the victim's FL center, no kernel table involved.
      double direct = 0.0;
      for (int dr = -radius; dr <= radius; ++dr) {
        for (int dc = -radius; dc <= radius; ++dc) {
          if (dr == 0 && dc == 0) continue;
          const long rr = static_cast<long>(r) + dr;
          const long cc = static_cast<long>(c) + dc;
          if (rr < 0 || rr >= static_cast<long>(grid.rows()) || cc < 0 ||
              cc >= static_cast<long>(grid.cols())) {
            continue;
          }
          const Vec3 cell{dc * pitch, dr * pitch, 0.0};
          const auto state = dev::bit_to_state(
              grid.at(static_cast<std::size_t>(rr),
                      static_cast<std::size_t>(cc)));
          const auto rl = stack.source_for(dev::Layer::kReferenceLayer, cell);
          const auto hl = stack.source_for(dev::Layer::kHardLayer, cell);
          const auto fl =
              stack.source_for(dev::Layer::kFreeLayer, cell, state);
          direct += mag::disk_field(rl, {}).z + mag::disk_field(hl, {}).z +
                    mag::disk_field(fl, {}).z;
        }
      }
      const double cached = model.field_at(grid, r, c);
      const double scale = std::max(std::abs(direct), 1.0);
      EXPECT_NEAR(cached, direct, 1e-12 * scale)
          << "cell (" << r << ", " << c << ")";
    }
  }
}

TEST(KernelCache, FixedMapPlusFlPartEqualsFieldAt) {
  dev::StackGeometry stack;
  stack.ecd = 35e-9;
  const arr::ArrayFieldModel model(stack, 70e-9, 1);
  arr::DataGrid grid(4, 4, 0);
  grid.set(1, 2, 1);
  grid.set(3, 0, 1);
  const auto fixed_map = model.fixed_field_map(4, 4);
  for (std::size_t r = 0; r < 4; ++r) {
    for (std::size_t c = 0; c < 4; ++c) {
      const double split =
          fixed_map[r * 4 + c] + model.fl_field_at(grid, r, c);
      EXPECT_NEAR(split, model.field_at(grid, r, c),
                  std::abs(split) * 1e-12 + 1e-15);
    }
  }
}

TEST(KernelCache, InteriorFixedFieldEqualsKernelSum) {
  dev::StackGeometry stack;
  stack.ecd = 35e-9;
  const arr::ArrayFieldModel model(stack, 70e-9, 2);
  // An interior cell of a grid large enough for the full window sees
  // exactly the interior fixed field.
  const auto fixed_map = model.fixed_field_map(5, 5);
  EXPECT_NEAR(fixed_map[2 * 5 + 2], model.interior_fixed_field(),
              std::abs(model.interior_fixed_field()) * 1e-12);
}

// --- RNG streams ------------------------------------------------------------

TEST(RngStream, DeterministicAndDecorrelated) {
  util::Rng a = util::Rng::stream(42, 7);
  util::Rng b = util::Rng::stream(42, 7);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(a(), b());

  // Neighboring streams must differ immediately.
  std::set<std::uint64_t> firsts;
  for (std::uint64_t i = 0; i < 100; ++i) {
    firsts.insert(util::Rng::stream(42, i)());
  }
  EXPECT_EQ(firsts.size(), 100u);
}

// --- thread pool ------------------------------------------------------------

TEST(ThreadPool, CoversEveryIndexExactlyOnce) {
  eng::ThreadPool pool(4);
  constexpr std::size_t kCount = 10000;
  std::vector<std::atomic<int>> hits(kCount);
  pool.for_each(kCount, [&](std::size_t i) { ++hits[i]; });
  for (std::size_t i = 0; i < kCount; ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(ThreadPool, ReusableAcrossJobs) {
  eng::ThreadPool pool(3);
  for (int round = 0; round < 20; ++round) {
    std::atomic<std::size_t> sum{0};
    pool.for_each(100, [&](std::size_t i) { sum += i; });
    EXPECT_EQ(sum.load(), 4950u);
  }
}

TEST(ThreadPool, ReusableWithGrowingCounts) {
  // Regression: a worker waking late for a finished small job must not be
  // able to steal indices from a subsequent larger job (each job owns its
  // claim counter). Alternate tiny and large jobs to maximize stale wakes.
  eng::ThreadPool pool(4);
  for (int round = 0; round < 50; ++round) {
    for (std::size_t count : {std::size_t{3}, std::size_t{257}}) {
      std::vector<std::atomic<int>> hits(count);
      pool.for_each(count, [&](std::size_t i) { ++hits[i]; });
      for (std::size_t i = 0; i < count; ++i) {
        ASSERT_EQ(hits[i].load(), 1) << "round " << round << " index " << i;
      }
    }
  }
}

TEST(ThreadPool, PropagatesFirstException) {
  eng::ThreadPool pool(2);
  EXPECT_THROW(pool.for_each(64,
                             [](std::size_t i) {
                               if (i == 13) {
                                 throw std::runtime_error("boom");
                               }
                             }),
               std::runtime_error);
  // The pool survives the exception.
  std::atomic<int> n{0};
  pool.for_each(8, [&](std::size_t) { ++n; });
  EXPECT_EQ(n.load(), 8);
}

TEST(ThreadPool, ZeroTasksReturnsWithoutInvoking) {
  // An empty job must neither invoke the task nor wedge the pool.
  eng::ThreadPool pool(3);
  std::atomic<int> calls{0};
  pool.for_each(0, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls.load(), 0);
  // The pool is still fully functional afterwards.
  pool.for_each(16, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls.load(), 16);
}

TEST(ThreadPool, ManyMoreChunksThanThreads) {
  // Far more indices than workers: the claim counter must hand out every
  // index exactly once with no gaps, and the caller must participate.
  eng::ThreadPool pool(2);
  constexpr std::size_t kCount = 50000;
  std::vector<std::atomic<int>> hits(kCount);
  pool.for_each(kCount, [&](std::size_t i) { ++hits[i]; });
  for (std::size_t i = 0; i < kCount; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << i;
  }
}

TEST(ThreadPool, NestedWaitOnADifferentPool) {
  // The documented reentrancy limit is per-pool: a task may block on a
  // *different* pool's for_each (e.g. a sweep body dispatching through a
  // second runner). Every inner job must complete, and the outer job must
  // drain even though its workers spend time parked inside inner waits.
  eng::ThreadPool outer(3);
  eng::ThreadPool inner(2);
  std::atomic<std::size_t> inner_sum{0};
  outer.for_each(8, [&](std::size_t) {
    inner.for_each(10, [&](std::size_t j) { inner_sum += j + 1; });
  });
  EXPECT_EQ(inner_sum.load(), 8u * 55u);
}

// --- Monte Carlo runner determinism -----------------------------------------

struct CountPartial {
  std::size_t hits = 0;
  util::RunningStats values;

  void merge(const CountPartial& o) {
    hits += o.hits;
    values.merge(o.values);
  }
};

CountPartial run_counting(unsigned threads, std::size_t chunk) {
  eng::RunnerConfig cfg;
  cfg.threads = threads;
  cfg.chunk_size = chunk;
  eng::MonteCarloRunner runner(cfg);
  return runner.run<CountPartial>(
      999, 1234, [](util::Rng& rng, std::size_t, CountPartial& acc) {
        const double u = rng.uniform();
        acc.hits += (u < 0.25);
        acc.values.add(u);
      });
}

TEST(MonteCarloRunner, BitIdenticalAcrossThreadCounts) {
  const auto serial = run_counting(1, 64);
  for (unsigned threads : {2u, 4u, 8u}) {
    const auto parallel = run_counting(threads, 64);
    EXPECT_EQ(parallel.hits, serial.hits);
    EXPECT_EQ(parallel.values.count(), serial.values.count());
    // Bit-identical, not merely close: merge order is fixed by chunk index.
    EXPECT_EQ(parallel.values.mean(), serial.values.mean());
    EXPECT_EQ(parallel.values.variance(), serial.values.variance());
  }
}

TEST(MonteCarloRunner, CountsInvariantUnderChunkSize) {
  // Per-trial streams do not depend on the chunking, so integer statistics
  // are identical for any chunk size (float reductions may differ in ulps).
  const auto a = run_counting(4, 1);
  const auto b = run_counting(4, 64);
  const auto c = run_counting(4, 1024);
  EXPECT_EQ(a.hits, b.hits);
  EXPECT_EQ(b.hits, c.hits);
}

TEST(MonteCarloRunner, SmallHeavyBatchesStillFanOut) {
  // 16 trials with the default chunk_size must split into 16 single-trial
  // chunks, not one serial chunk -- small batches of heavy trials (e.g.
  // stochastic LLG) are exactly where parallelism matters most.
  eng::MonteCarloRunner runner;
  EXPECT_EQ(runner.effective_chunk(16), 1u);
  EXPECT_EQ(runner.effective_chunk(128), 2u);
  EXPECT_EQ(runner.effective_chunk(20000), 64u);
}

TEST(MonteCarloRunner, ContextBuiltPerChunk) {
  eng::RunnerConfig cfg;
  cfg.threads = 2;
  cfg.chunk_size = 10;
  eng::MonteCarloRunner runner(cfg);
  std::atomic<int> contexts{0};
  struct Sum {
    std::size_t n = 0;
    void merge(const Sum& o) { n += o.n; }
  };
  const auto total = runner.run<Sum>(
      95, 1, [&] { ++contexts; return 0; },
      [](int&, util::Rng&, std::size_t, Sum& acc) { ++acc.n; });
  EXPECT_EQ(total.n, 95u);
  // effective chunk = min(chunk_size, ceil(95 / 64)) = 2 -> ceil(95/2)
  // chunks, one context each.
  EXPECT_EQ(contexts.load(), 48);
}

TEST(MonteCarloRunner, RejectsInvalidConfig) {
  eng::RunnerConfig cfg;
  cfg.chunk_size = 0;
  EXPECT_THROW(eng::MonteCarloRunner{cfg}, util::ConfigError);
}

// --- batched runner path ----------------------------------------------------

CountPartial run_counting_batched(unsigned threads, std::size_t chunk,
                                  std::size_t lane_width) {
  eng::RunnerConfig cfg;
  cfg.threads = threads;
  cfg.chunk_size = chunk;
  eng::MonteCarloRunner runner(cfg);
  return runner.run_batched<CountPartial>(
      999, 1234, lane_width,
      [](util::Rng* rngs, std::size_t, std::size_t lanes,
         CountPartial& acc) {
        for (std::size_t l = 0; l < lanes; ++l) {
          const double u = rngs[l].uniform();
          acc.hits += (u < 0.25);
          acc.values.add(u);
        }
      });
}

TEST(MonteCarloRunner, BatchedBitIdenticalToUnbatched) {
  // Same chunking, same per-trial streams, lane-ordered folding: any lane
  // width must reproduce run() bit for bit -- remainder blocks (999 % 8 and
  // 999 % 7 != 0) and lane_width = 1 included.
  const auto reference = run_counting(1, 64);
  for (std::size_t lane_width : {std::size_t{1}, std::size_t{7},
                                 std::size_t{8}, std::size_t{64}}) {
    for (unsigned threads : {1u, 4u}) {
      const auto batched = run_counting_batched(threads, 64, lane_width);
      EXPECT_EQ(batched.hits, reference.hits)
          << "lanes=" << lane_width << " threads=" << threads;
      EXPECT_EQ(batched.values.count(), reference.values.count());
      EXPECT_EQ(batched.values.mean(), reference.values.mean());
      EXPECT_EQ(batched.values.variance(), reference.values.variance());
    }
  }
}

TEST(MonteCarloRunner, BatchedRejectsZeroLaneWidth) {
  eng::MonteCarloRunner runner;
  struct Sum {
    std::size_t n = 0;
    void merge(const Sum& o) { n += o.n; }
  };
  EXPECT_THROW(
      runner.run_batched<Sum>(
          10, 1, 0,
          [](util::Rng*, std::size_t, std::size_t, Sum&) {}),
      util::ContractViolation);
}

// --- seeded WER: serial vs. 4 threads bit-identity --------------------------

mem::WerConfig engine_wer_config() {
  mem::WerConfig cfg;
  cfg.array.device = dev::MtjParams::reference_device(35e-9);
  cfg.array.pitch = 1.5 * 35e-9;
  cfg.array.rows = cfg.array.cols = 5;
  cfg.pulse.voltage = 0.9;
  cfg.pulse.width = 10e-9;
  cfg.direction = dev::SwitchDirection::kApToP;
  cfg.trials = 700;
  return cfg;
}

TEST(MonteCarloRunner, SeededWerBitIdenticalAcrossThreadCounts) {
  auto cfg = engine_wer_config();
  cfg.runner.threads = 1;
  util::Rng rng_serial(2024);
  const auto serial = mem::measure_wer(cfg, rng_serial);

  for (unsigned threads : {2u, 4u, 8u}) {
    SCOPED_TRACE(threads);
    cfg.runner.threads = threads;
    util::Rng rng_parallel(2024);
    const auto parallel = mem::measure_wer(cfg, rng_parallel);

    EXPECT_EQ(parallel.errors, serial.errors);
    EXPECT_EQ(parallel.wer, serial.wer);
    EXPECT_EQ(parallel.mean_success_probability,
              serial.mean_success_probability);
    EXPECT_EQ(parallel.confidence.lo, serial.confidence.lo);
    EXPECT_EQ(parallel.confidence.hi, serial.confidence.hi);
  }
}

/// Failure count and success-probability moments of a WER or retention
/// ensemble, folded in trial order.
struct TrialTally {
  std::size_t hits = 0;
  std::size_t total = 0;
  util::RunningStats values;

  void merge(const TrialTally& o) {
    hits += o.hits;
    total += o.total;
    values.merge(o.values);
  }
};

/// Per-trial reference of measure_wer's brute-force path: the caller's rng
/// seeds the background, then the master seed; every trial reloads the
/// background and runs the full MramArray::write.
TrialTally reference_wer(const mem::WerConfig& cfg, util::Rng& rng) {
  const mem::MramArray prototype(cfg.array);
  const std::size_t vr = prototype.rows() / 2;
  const std::size_t vc = prototype.cols() / 2;
  const int target_bit = dev::state_to_bit(dev::final_state(cfg.direction));
  auto background = arr::make_pattern(cfg.background, prototype.rows(),
                                      prototype.cols(), rng);
  background.set(vr, vc,
                 dev::state_to_bit(dev::initial_state(cfg.direction)));
  const std::uint64_t seed = rng();
  eng::RunnerConfig rc;
  rc.threads = 1;
  eng::MonteCarloRunner runner(rc);
  return runner.run<TrialTally>(
      cfg.trials, seed, [&] { return mem::MramArray(prototype); },
      [&](mem::MramArray& array, util::Rng& trial_rng, std::size_t,
          TrialTally& acc) {
        array.load(background);
        const auto wr =
            array.write(vr, vc, target_bit, cfg.pulse, trial_rng);
        EXPECT_TRUE(wr.attempted);
        acc.values.add(wr.success_probability);
        if (!wr.success) ++acc.hits;
      });
}

TEST(MonteCarloRunner, BatchedWerBitIdenticalToScalarPath) {
  // measure_wer hoists the stray field and the success probability out of
  // its trial loop; the error count and the success-probability moments
  // must still equal a full load/write per trial bit for bit, at 1 and 4
  // threads.
  util::Rng rng_ref(2024);
  const auto ref = reference_wer(engine_wer_config(), rng_ref);
  const std::uint64_t next_draw = rng_ref();
  EXPECT_GT(ref.hits, 0u);

  for (unsigned threads : {1u, 4u}) {
    auto cfg = engine_wer_config();
    cfg.runner.threads = threads;
    util::Rng rng(2024);
    const auto wer = mem::measure_wer(cfg, rng);
    EXPECT_EQ(wer.errors, ref.hits) << threads << " threads";
    EXPECT_EQ(wer.mean_success_probability, ref.values.mean())
        << threads << " threads";
    EXPECT_EQ(rng(), next_draw) << "caller's stream out of step";
  }
}

TEST(RetentionEnsemble, BatchedBitIdenticalToScalarPath) {
  // measure_retention_faults draws every trial against one hoisted flip
  // table; draws and counts must still match MramArray::retention_hold per
  // trial exactly.
  mem::RetentionEnsembleConfig cfg;
  cfg.array.device = dev::MtjParams::reference_device(35e-9);
  cfg.array.device.delta0 = 8.0;
  cfg.array.pitch = 70e-9;
  cfg.array.rows = cfg.array.cols = 4;
  cfg.array.temperature = 400.0;
  cfg.hold = 1.0;
  cfg.trials = 150;

  TrialTally ref;
  {
    util::Rng rng(5);
    const mem::MramArray prototype(cfg.array);
    const auto pattern = arr::make_pattern(cfg.pattern, cfg.array.rows,
                                           cfg.array.cols, rng);
    eng::RunnerConfig rc;
    rc.threads = 1;
    eng::MonteCarloRunner runner(rc);
    ref = runner.run<TrialTally>(
        cfg.trials, rng(), [&] { return mem::MramArray(prototype); },
        [&](mem::MramArray& array, util::Rng& trial_rng, std::size_t,
            TrialTally& acc) {
          array.load(pattern);
          const std::size_t flips = array.retention_hold(cfg.hold, trial_rng);
          acc.hits += (flips > 0);
          acc.total += flips;
          acc.values.add(static_cast<double>(flips));
        });
  }
  EXPECT_GT(ref.hits, 0u);

  for (unsigned threads : {1u, 4u}) {
    cfg.runner.threads = threads;
    util::Rng rng(5);
    const auto r = mem::measure_retention_faults(cfg, rng);
    EXPECT_EQ(r.faulty_trials, ref.hits) << threads << " threads";
    EXPECT_EQ(r.total_flips, ref.total);
    EXPECT_EQ(r.mean_flips, ref.values.mean());
  }
}

TEST(RetentionEnsemble, HotArrayFaultsAndIsThreadCountInvariant) {
  mem::RetentionEnsembleConfig cfg;
  cfg.array.device = dev::MtjParams::reference_device(35e-9);
  cfg.array.device.delta0 = 8.0;  // run hot so flips occur within the hold
  cfg.array.pitch = 70e-9;
  cfg.array.rows = cfg.array.cols = 4;
  cfg.array.temperature = 400.0;
  cfg.hold = 1.0;
  cfg.trials = 200;

  cfg.runner.threads = 1;
  util::Rng rng_a(5);
  const auto serial = mem::measure_retention_faults(cfg, rng_a);
  EXPECT_GT(serial.faulty_trials, 0u);
  EXPECT_LE(serial.confidence.lo, serial.fault_probability);
  EXPECT_GE(serial.confidence.hi, serial.fault_probability);

  cfg.runner.threads = 4;
  util::Rng rng_b(5);
  const auto parallel = mem::measure_retention_faults(cfg, rng_b);
  EXPECT_EQ(parallel.faulty_trials, serial.faulty_trials);
  EXPECT_EQ(parallel.total_flips, serial.total_flips);
}

// --- scale-out: shard / merge / checkpoint ----------------------------------

std::string make_temp_dir(const std::string& tag) {
  const auto dir =
      std::filesystem::temp_directory_path() / ("mram_engine_" + tag);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

// The accumulators the engine ships must satisfy the dump protocol without
// bespoke code: plain aggregates of counters and stats are trivially
// copyable.
static_assert(util::io::kSerializable<CountPartial>);
static_assert(util::io::kSerializable<util::WeightedStats>);
static_assert(util::io::kSerializable<std::vector<double>>);

TEST(ShardSpec, ChunkRangesPartitionExactly) {
  for (std::size_t count : {1u, 3u, 4u, 7u}) {
    std::size_t expected_lo = 0;
    for (std::size_t i = 0; i < count; ++i) {
      const auto [lo, hi] = eng::ShardSpec{i, count}.chunk_range(64);
      EXPECT_EQ(lo, expected_lo) << i << "/" << count;
      EXPECT_LE(lo, hi);
      expected_lo = hi;
    }
    EXPECT_EQ(expected_lo, 64u) << count;
  }
  EXPECT_THROW(eng::ShardSpec{}.chunk_range(64), util::ConfigError);
  EXPECT_THROW((eng::ShardSpec{4, 4}).chunk_range(64), util::ConfigError);
}

CountPartial run_counting_io(const eng::ShardIo& io, unsigned threads = 1) {
  eng::RunnerConfig cfg;
  cfg.threads = threads;
  cfg.chunk_size = 64;
  eng::MonteCarloRunner runner(cfg);
  runner.set_shard_io(io);
  return runner.run<CountPartial>(
      999, 1234, [](util::Rng& rng, std::size_t, CountPartial& acc) {
        const double u = rng.uniform();
        acc.hits += (u < 0.25);
        acc.values.add(u);
      });
}

void expect_bit_identical(const CountPartial& got, const CountPartial& want) {
  EXPECT_EQ(got.hits, want.hits);
  EXPECT_EQ(got.values.count(), want.values.count());
  EXPECT_EQ(got.values.mean(), want.values.mean());
  EXPECT_EQ(got.values.variance(), want.values.variance());
  EXPECT_EQ(got.values.min(), want.values.min());
  EXPECT_EQ(got.values.max(), want.values.max());
}

TEST(ShardedRunner, FourWayMergeBitIdenticalToSingleProcess) {
  // The acceptance property of the tentpole: N independent shard processes
  // plus a merge reproduce the single-process left fold bit for bit --
  // Chan-style stats merges are NOT associative, so this only holds because
  // shards dump *per-chunk* partials and the merge replays the exact global
  // chunk order.
  const std::string dir = make_temp_dir("shard4");
  const auto reference = run_counting_io({});  // kOff
  for (std::size_t count : {1u, 4u}) {
    for (std::size_t i = 0; i < count; ++i) {
      eng::ShardIo io;
      io.mode = eng::ShardMode::kShard;
      io.shard = {i, count};
      io.dir = dir;
      run_counting_io(io, /*threads=*/i % 2 ? 4 : 1);
    }
    eng::ShardIo merge;
    merge.mode = eng::ShardMode::kMerge;
    merge.merge_count = count;
    merge.dir = dir;
    expect_bit_identical(run_counting_io(merge), reference);
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
  }
}

TEST(ShardedRunner, ShardDumpsValidateGeometryOnMerge) {
  const std::string dir = make_temp_dir("shard_geom");
  eng::ShardIo io;
  io.mode = eng::ShardMode::kShard;
  io.shard = {0, 2};
  io.dir = dir;
  run_counting_io(io);

  // Missing second shard: the merge must fail on the absent dump, naming it.
  eng::ShardIo merge;
  merge.mode = eng::ShardMode::kMerge;
  merge.merge_count = 2;
  merge.dir = dir;
  EXPECT_THROW(run_counting_io(merge), util::ConfigError);

  // A merge whose replay geometry differs (another seed) must reject the
  // dump instead of folding garbage.
  io.shard = {1, 2};
  run_counting_io(io);
  eng::RunnerConfig cfg;
  cfg.chunk_size = 64;
  eng::MonteCarloRunner other_seed(cfg);
  other_seed.set_shard_io(merge);
  EXPECT_THROW(other_seed.run<CountPartial>(
                   999, 4321,
                   [](util::Rng&, std::size_t, CountPartial&) {}),
               util::ConfigError);
}

TEST(ShardedRunner, NonSerializableAccumulatorIsRejected) {
  struct Opaque {
    std::vector<std::unique_ptr<int>> ptrs;  // no serialize(), not trivial
    void merge(const Opaque&) {}
  };
  static_assert(!util::io::kSerializable<Opaque>);
  eng::MonteCarloRunner runner;
  eng::ShardIo io;
  io.mode = eng::ShardMode::kShard;
  io.shard = {0, 2};
  io.dir = make_temp_dir("nonser");
  runner.set_shard_io(io);
  EXPECT_THROW(
      runner.run<Opaque>(100, 1, [](util::Rng&, std::size_t, Opaque&) {}),
      util::ConfigError);
}

TEST(CheckpointRunner, UninterruptedRunMatchesPlainRun) {
  const std::string dir = make_temp_dir("ckpt_plain");
  eng::ShardIo io;
  io.mode = eng::ShardMode::kCheckpoint;
  io.dir = dir;
  io.checkpoint_chunk_stride = 3;
  expect_bit_identical(run_counting_io(io), run_counting_io({}));
  // The completed call left a .done snapshot and no .part behind.
  EXPECT_TRUE(std::filesystem::exists(dir + "/call-000000.done"));
  EXPECT_FALSE(std::filesystem::exists(dir + "/call-000000.part"));
}

TEST(CheckpointRunner, KilledRunResumesBitIdentically) {
  const std::string dir = make_temp_dir("ckpt_resume");
  const auto reference = run_counting_io({});

  // First attempt dies mid-run: trials past 600 throw, which surfaces after
  // the pool drains -- ranges completed before the failing one have
  // committed .part snapshots.
  eng::RunnerConfig cfg;
  cfg.chunk_size = 64;  // 999 trials -> 63 chunks of effective size 16
  eng::ShardIo io;
  io.mode = eng::ShardMode::kCheckpoint;
  io.dir = dir;
  io.checkpoint_chunk_stride = 4;
  {
    eng::MonteCarloRunner runner(cfg);
    runner.set_shard_io(io);
    EXPECT_THROW(
        runner.run<CountPartial>(
            999, 1234,
            [](util::Rng& rng, std::size_t i, CountPartial& acc) {
              if (i >= 600) throw std::runtime_error("killed");
              const double u = rng.uniform();
              acc.hits += (u < 0.25);
              acc.values.add(u);
            }),
        std::runtime_error);
  }
  ASSERT_TRUE(std::filesystem::exists(dir + "/call-000000.part"));

  // The resumed run continues from the snapshot prefix: bit-identical total,
  // and the already-checkpointed trials are not re-executed.
  std::size_t executed = 0;
  eng::MonteCarloRunner runner(cfg);
  io.resume = true;
  runner.set_shard_io(io);
  const auto resumed = runner.run<CountPartial>(
      999, 1234, [&](util::Rng& rng, std::size_t, CountPartial& acc) {
        ++executed;
        const double u = rng.uniform();
        acc.hits += (u < 0.25);
        acc.values.add(u);
      });
  expect_bit_identical(resumed, reference);
  EXPECT_LT(executed, 999u);

  // A second resume finds the .done snapshot and executes nothing at all.
  eng::MonteCarloRunner again(cfg);
  again.set_shard_io(io);
  const auto loaded = again.run<CountPartial>(
      999, 1234, [](util::Rng&, std::size_t, CountPartial&) {
        ADD_FAILURE() << "done call must load, not re-run";
      });
  expect_bit_identical(loaded, reference);
}

TEST(CheckpointRunner, ResumeRejectsMismatchedSnapshot) {
  // A snapshot produced under one seed must not silently resume a run with
  // another: the header check fails loudly.
  const std::string dir = make_temp_dir("ckpt_mismatch");
  eng::ShardIo io;
  io.mode = eng::ShardMode::kCheckpoint;
  io.dir = dir;
  run_counting_io(io);
  io.resume = true;
  eng::RunnerConfig cfg;
  cfg.chunk_size = 64;
  eng::MonteCarloRunner runner(cfg);
  runner.set_shard_io(io);
  EXPECT_THROW(runner.run<CountPartial>(
                   999, 777, [](util::Rng&, std::size_t, CountPartial&) {}),
               util::ConfigError);
}

TEST(ShardedRunner, BatchedPathShardsIdentically) {
  // run_batched shares run()'s chunk geometry, so the same dump/merge cycle
  // must hold on the batched path too (lane width independent).
  const std::string dir = make_temp_dir("shard_batched");
  const auto reference = run_counting(1, 64);
  auto batched_io = [&](const eng::ShardIo& io) {
    eng::RunnerConfig cfg;
    cfg.chunk_size = 64;
    eng::MonteCarloRunner runner(cfg);
    runner.set_shard_io(io);
    return runner.run_batched<CountPartial>(
        999, 1234, 16,
        [](util::Rng* rngs, std::size_t, std::size_t lanes,
           CountPartial& acc) {
          for (std::size_t l = 0; l < lanes; ++l) {
            const double u = rngs[l].uniform();
            acc.hits += (u < 0.25);
            acc.values.add(u);
          }
        });
  };
  for (std::size_t i = 0; i < 3; ++i) {
    eng::ShardIo io;
    io.mode = eng::ShardMode::kShard;
    io.shard = {i, 3};
    io.dir = dir;
    batched_io(io);
  }
  eng::ShardIo merge;
  merge.mode = eng::ShardMode::kMerge;
  merge.merge_count = 3;
  merge.dir = dir;
  expect_bit_identical(batched_io(merge), reference);
}

// --- RunningStats::merge ----------------------------------------------------

TEST(RunningStatsMerge, MatchesSerialAccumulation) {
  util::Rng rng(3);
  util::RunningStats serial, left, right;
  for (int i = 0; i < 500; ++i) {
    const double x = rng.normal(2.0, 3.0);
    serial.add(x);
    (i < 200 ? left : right).add(x);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), serial.count());
  EXPECT_NEAR(left.mean(), serial.mean(), 1e-12);
  EXPECT_NEAR(left.variance(), serial.variance(), 1e-9);
  EXPECT_EQ(left.min(), serial.min());
  EXPECT_EQ(left.max(), serial.max());
}

TEST(RunningStatsMerge, EmptySidesAreNeutral) {
  util::RunningStats a, b;
  a.merge(b);
  EXPECT_TRUE(a.empty());
  b.add(1.5);
  a.merge(b);
  EXPECT_EQ(a.count(), 1u);
  EXPECT_EQ(a.mean(), 1.5);
  util::RunningStats c;
  a.merge(c);
  EXPECT_EQ(a.count(), 1u);
}

}  // namespace
}  // namespace mram
