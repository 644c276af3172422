// google-benchmark microbenchmarks of the field solvers and the device
// model -- the hot paths of the Monte Carlo studies.

#include <benchmark/benchmark.h>

#include <vector>

#include "array/array_field.h"
#include "array/intercell.h"
#include "device/mtj_device.h"
#include "dynamics/llg.h"
#include "dynamics/llg_batch.h"
#include "engine/monte_carlo.h"
#include "magnetics/current_loop.h"
#include "mram/mram_array.h"
#include "numerics/solvers.h"

namespace {

using namespace mram;

const mag::CurrentLoop kLoop{{0, 0, 0}, 27.5e-9, 1.7648e-3};
const num::Vec3 kPoint{40e-9, 10e-9, 5.2e-9};

void BM_LoopFieldExact(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(mag::loop_field_exact(kLoop, kPoint));
  }
}
BENCHMARK(BM_LoopFieldExact);

void BM_LoopFieldBiotSavart(benchmark::State& state) {
  const int segments = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        mag::loop_field_biot_savart(kLoop, kPoint, segments));
  }
}
BENCHMARK(BM_LoopFieldBiotSavart)->Arg(64)->Arg(256)->Arg(1024);

void BM_InterCellSolverBuild(benchmark::State& state) {
  dev::StackGeometry stack;
  stack.ecd = 35e-9;
  for (auto _ : state) {
    arr::InterCellSolver solver(stack, 70e-9);
    benchmark::DoNotOptimize(solver.fixed_field());
  }
}
BENCHMARK(BM_InterCellSolverBuild);

void BM_InterCellPatternEval(benchmark::State& state) {
  dev::StackGeometry stack;
  stack.ecd = 35e-9;
  const arr::InterCellSolver solver(stack, 70e-9);
  int np = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(solver.field_for(arr::Np8(np & 0xff)));
    ++np;
  }
}
BENCHMARK(BM_InterCellPatternEval);

void BM_DeviceSwitchingTime(benchmark::State& state) {
  const dev::MtjDevice device(dev::MtjParams::reference_device(35e-9));
  const double hz = device.intra_stray_field();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        device.switching_time(dev::SwitchDirection::kApToP, 0.9, hz));
  }
}
BENCHMARK(BM_DeviceSwitchingTime);

void BM_ArrayFieldMap(benchmark::State& state) {
  dev::StackGeometry stack;
  stack.ecd = 35e-9;
  const arr::ArrayFieldModel model(stack, 70e-9,
                                   static_cast<int>(state.range(0)));
  arr::DataGrid grid(16, 16, 0);
  for (std::size_t i = 0; i < 16; ++i) grid.set(i, i, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.field_map(grid));
  }
}
BENCHMARK(BM_ArrayFieldMap)->Arg(1)->Arg(2);

// --- macrospin LLG integration ----------------------------------------------

dyn::LlgParams bench_llg_params() {
  dyn::LlgParams p;
  p.current = 120e-6;
  return p;
}

void BM_LlgRk4StepStaticDispatch(benchmark::State& state) {
  const dyn::MacrospinSim sim(bench_llg_params());
  const auto& f = sim.rhs_functor();
  num::Vec3 m{0.02, 0.0, -0.9998};
  for (auto _ : state) {
    m = num::normalized(num::Rk4Solver::step(f, 0.0, m, 1e-13));
    benchmark::DoNotOptimize(m);
  }
}
BENCHMARK(BM_LlgRk4StepStaticDispatch);

void BM_LlgRunDeterministic(benchmark::State& state) {
  const dyn::MacrospinSim sim(bench_llg_params());
  const num::Vec3 m0 = num::normalized({0.02, 0.0, -0.9998});
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim.run(m0, 1e-9, 1e-13));
  }
}
BENCHMARK(BM_LlgRunDeterministic);

void BM_LlgRunAdaptiveRk45(benchmark::State& state) {
  const dyn::MacrospinSim sim(bench_llg_params());
  const num::Vec3 m0 = num::normalized({0.02, 0.0, -0.9998});
  num::AdaptiveConfig cfg;
  cfg.abs_tol = 1e-8;
  cfg.rel_tol = 1e-8;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim.run_adaptive(m0, 1e-9, cfg));
  }
}
BENCHMARK(BM_LlgRunAdaptiveRk45);

// --- stochastic-LLG trial loop: scalar vs batched SoA kernel ----------------
//
// The hot loop of every switching-time / WER-adjacent stochastic study: B
// independent thermal trials integrated over a fixed window (mz_stop = -2
// disables early exit so both paths do identical work). The batched kernel
// advances the B trials in lockstep over SoA lanes; the items/s rate is
// trials/s, so the batched-vs-scalar ratio at the same trial count is the
// throughput speedup of the migration. BENCH_llg_batch.json commits these
// numbers (see README "Performance").

constexpr std::size_t kLlgBenchTrials = 16;
constexpr double kLlgBenchDuration = 1e-9;
constexpr double kLlgBenchDt = 1e-12;

dyn::LlgParams bench_stochastic_llg_params() {
  dyn::LlgParams p;
  p.current = 120e-6;
  p.temperature = 300.0;
  return p;
}

void BM_LlgSwitchTrialsScalar(benchmark::State& state) {
  const dyn::MacrospinSim sim(bench_stochastic_llg_params());
  const num::Vec3 m0 = num::normalized({0.05, 0.0, -1.0});
  for (auto _ : state) {
    for (std::size_t i = 0; i < kLlgBenchTrials; ++i) {
      util::Rng rng = util::Rng::stream(7, i);
      benchmark::DoNotOptimize(
          sim.run_until_switch(m0, kLlgBenchDuration, kLlgBenchDt, rng,
                               -2.0));
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kLlgBenchTrials));
}
BENCHMARK(BM_LlgSwitchTrialsScalar);

void BM_LlgSwitchTrialsBatched(benchmark::State& state) {
  const std::size_t lanes = static_cast<std::size_t>(state.range(0));
  dyn::BatchMacrospinSim batch(bench_stochastic_llg_params());
  const num::Vec3 m0_one = num::normalized({0.05, 0.0, -1.0});
  std::vector<num::Vec3> m0(lanes, m0_one);
  std::vector<util::Rng> rngs(lanes, util::Rng(0));
  std::vector<dyn::SwitchResult> out(lanes);
  for (auto _ : state) {
    for (std::size_t base = 0; base < kLlgBenchTrials; base += lanes) {
      const std::size_t n = std::min(lanes, kLlgBenchTrials - base);
      for (std::size_t l = 0; l < n; ++l) {
        rngs[l] = util::Rng::stream(7, base + l);
      }
      batch.run_until_switch(n, m0.data(), rngs.data(), kLlgBenchDuration,
                             kLlgBenchDt, out.data(), -2.0);
      benchmark::DoNotOptimize(out.data());
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kLlgBenchTrials));
}
BENCHMARK(BM_LlgSwitchTrialsBatched)->Arg(1)->Arg(4)->Arg(8)->Arg(16);

// One 64-step noise block (192 deviates per lane) at an explicit lane-fill
// level: range(0) lanes, range(1) the Rng::LaneFill level (0 portable,
// 1 AVX2, 2 AVX-512F). Levels the host lacks are skipped.
void BM_NormalFillLanes(benchmark::State& state) {
  const std::size_t lanes = static_cast<std::size_t>(state.range(0));
  const auto level = static_cast<util::Rng::LaneFill>(state.range(1));
  if (!util::Rng::lane_fill_supported(level)) {
    state.SkipWithError("lane-fill level not supported on this CPU");
    return;
  }
  constexpr std::size_t kValues = 192;
  std::vector<util::Rng> rngs;
  std::vector<std::size_t> lane_of(lanes);
  for (std::size_t a = 0; a < lanes; ++a) {
    rngs.push_back(util::Rng::stream(7, a));
    lane_of[a] = a;
  }
  std::vector<double> out(kValues * lanes);
  for (auto _ : state) {
    util::Rng::normal_fill_lanes(level, rngs.data(), lane_of.data(), lanes,
                                 kValues, out.data(), lanes);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kValues * lanes));
}
BENCHMARK(BM_NormalFillLanes)->ArgsProduct({{12, 16}, {0, 1, 2}});

// --- cached coupling kernel -------------------------------------------------

void BM_MramStrayFieldAt(benchmark::State& state) {
  mem::ArrayConfig cfg;
  cfg.device = dev::MtjParams::reference_device(35e-9);
  cfg.pitch = 70e-9;
  cfg.rows = cfg.cols = 16;
  cfg.coupling_radius = static_cast<int>(state.range(0));
  mem::MramArray array(cfg);
  std::size_t r = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(array.stray_field_at(r & 15, (r >> 4) & 15));
    ++r;
  }
}
BENCHMARK(BM_MramStrayFieldAt)->Arg(1)->Arg(2);

// --- Monte Carlo runner -----------------------------------------------------

void BM_RunnerSchedulingOverhead(benchmark::State& state) {
  struct Count {
    std::size_t n = 0;
    void merge(const Count& o) { n += o.n; }
  };
  eng::RunnerConfig cfg;
  cfg.threads = static_cast<unsigned>(state.range(0));
  eng::MonteCarloRunner runner(cfg);
  for (auto _ : state) {
    const auto total = runner.run<Count>(
        4096, 42,
        [](util::Rng& rng, std::size_t, Count& acc) { acc.n += rng() & 1; });
    benchmark::DoNotOptimize(total);
  }
}
BENCHMARK(BM_RunnerSchedulingOverhead)->Arg(1)->Arg(4);

void BM_MramWrite(benchmark::State& state) {
  mem::ArrayConfig cfg;
  cfg.device = dev::MtjParams::reference_device(35e-9);
  cfg.pitch = 70e-9;
  cfg.rows = cfg.cols = 8;
  mem::MramArray array(cfg);
  util::Rng rng(1);
  const mem::WritePulse pulse{1.1, 50e-9};
  int bit = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(array.write(4, 4, bit, pulse, rng));
    bit = 1 - bit;
  }
}
BENCHMARK(BM_MramWrite);

}  // namespace

BENCHMARK_MAIN();
