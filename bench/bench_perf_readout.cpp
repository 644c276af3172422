// google-benchmark microbenchmarks of the read-path subsystem: the bitline
// ladder reduction (the dense solve Monte Carlo loops hoist), the per-read
// sampling pipeline, and the RER / read-disturb trial loops. The items/s
// rate of the trial-loop benches is trials/s. BENCH_readout.json commits
// these numbers (see README "Performance"; CI regenerates the JSON as a
// per-PR artifact).

#include <benchmark/benchmark.h>

#include <vector>

#include "readout/bitline.h"
#include "readout/read_error.h"
#include "readout/rer.h"
#include "util/rng.h"

namespace {

using namespace mram;

rdo::ReadPathConfig bench_path(double v_read, std::size_t rows = 64) {
  rdo::ReadPathConfig path;
  path.v_read = v_read;
  path.bitline.rows = rows;
  return path;
}

void BM_BitlineTheveninSolve(benchmark::State& state) {
  const auto rows = static_cast<std::size_t>(state.range(0));
  const auto params = dev::MtjParams::reference_device(35e-9);
  rdo::BitlineParams bl;
  bl.rows = rows;
  const rdo::BitlinePath path(
      bl, dev::ElectricalModel(params.electrical, params.stack.area()));
  std::vector<int> column(rows);
  for (std::size_t r = 0; r < rows; ++r) column[r] = r & 1;
  std::size_t row = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(path.port(row % rows, 0.2, column));
    ++row;
  }
}
BENCHMARK(BM_BitlineTheveninSolve)->Arg(16)->Arg(64)->Arg(128);

void BM_SampleRead(benchmark::State& state) {
  const auto params = dev::MtjParams::reference_device(35e-9);
  const rdo::ReadErrorModel model(params, bench_path(0.04));
  const std::vector<int> column(64, 0);
  const auto op = model.operating_point(63, column);
  const double hz = model.device().intra_stray_field();
  util::Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        model.sample_read(op, dev::MtjState::kAntiParallel, hz, 300.0, rng));
  }
}
BENCHMARK(BM_SampleRead);

// --- RER trial loop ---------------------------------------------------------

constexpr std::size_t kRerBenchTrials = 512;

rdo::RerConfig bench_rer_config() {
  rdo::RerConfig cfg;
  cfg.path = bench_path(0.04);
  cfg.trials = kRerBenchTrials;
  cfg.hz_stray = dev::MtjDevice(cfg.device).intra_stray_field();
  cfg.runner.threads = 1;  // measure the trial body, not the pool scaling
  return cfg;
}

void BM_RerTrials(benchmark::State& state) {
  const auto cfg = bench_rer_config();
  eng::MonteCarloRunner runner(cfg.runner);
  for (auto _ : state) {
    util::Rng rng(7);
    benchmark::DoNotOptimize(rdo::measure_rer(cfg, rng, runner));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kRerBenchTrials));
}
BENCHMARK(BM_RerTrials);

// --- stochastic-LLG read-disturb trial loop ---------------------------------
//
// The heavy path: every trial integrates the read-current torque over the
// strobe. Short window + fixed trial count keeps the bench seconds-scale.

// Enough trials that the runner's chunk subdivision (~64 chunks per run)
// still leaves full lane-blocks inside each chunk -- at 1024 trials a chunk
// holds 16 trials, one preferred_lanes() block on an AVX-512 host.
constexpr std::size_t kDisturbBenchTrials = 1024;

rdo::ReadDisturbConfig bench_disturb_config() {
  rdo::ReadDisturbConfig cfg;
  cfg.device.delta0 = 14.0;
  cfg.path = bench_path(0.12);
  cfg.duration = 1e-9;
  cfg.dt = 1e-12;
  cfg.trials = kDisturbBenchTrials;
  cfg.hz_stray = dev::MtjDevice(cfg.device).intra_stray_field();
  cfg.runner.threads = 1;
  return cfg;
}

void BM_ReadDisturbTrials(benchmark::State& state) {
  const auto cfg = bench_disturb_config();
  eng::MonteCarloRunner runner(cfg.runner);
  for (auto _ : state) {
    util::Rng rng(7);
    benchmark::DoNotOptimize(rdo::measure_read_disturb(cfg, rng, runner));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kDisturbBenchTrials));
}
BENCHMARK(BM_ReadDisturbTrials);

}  // namespace

BENCHMARK_MAIN();
