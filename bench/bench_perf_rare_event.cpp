// google-benchmark microbenchmarks of the rare-event drivers: brute force vs
// importance sampling vs multilevel splitting on the same workloads, each run
// to the estimator's own stopping rule. Items/s is simulated trials/s; the
// per-bench counters carry the estimator quality:
//
//   probability   -- the estimate the run produced
//   rel_err       -- its reported relative standard error
//   simulated     -- trials actually simulated per run
//   effective     -- brute-force-equivalent trials, (1-p)/(p rel_err^2)
//   brute_speedup -- effective / simulated: how many plain Monte Carlo
//                    trials each simulated trial was worth
//
// At the deep operating points (~1e-10) brute force cannot run at all, so
// brute_speedup against the brute-force extrapolation is the acceptance
// number: the deep benches must report >= 100x. BENCH_rare_event.json in the
// repo root commits these numbers (see README "Performance"; CI regenerates
// the JSON as a per-PR artifact).

#include <benchmark/benchmark.h>

#include <cstdint>

#include "device/mtj_device.h"
#include "engine/monte_carlo.h"
#include "engine/rare_event.h"
#include "mram/wer.h"
#include "readout/rer.h"
#include "util/rng.h"

namespace {

using namespace mram;

void report_estimate(benchmark::State& state,
                     const eng::RareEventEstimate& est) {
  state.counters["probability"] = est.probability;
  state.counters["rel_err"] = est.rel_error;
  state.counters["simulated"] = est.simulated_trials;
  state.counters["effective"] = est.effective_trials;
  state.counters["brute_speedup"] =
      est.simulated_trials > 0.0 ? est.effective_trials / est.simulated_trials
                                 : 0.0;
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(est.simulated_trials));
}

/// WER config at `width_frac` multiples of the analytic switching time.
/// 1.8x sits in the overlap regime (~1e-2); 4.7x is the deep point (~1e-10).
mem::WerConfig wer_config(double width_frac, std::size_t trials) {
  mem::WerConfig cfg;
  cfg.array.device = dev::MtjParams::reference_device(35e-9);
  cfg.array.pitch = 1.5 * 35e-9;
  cfg.array.rows = cfg.array.cols = 5;
  cfg.pulse.voltage = 0.9;
  cfg.direction = dev::SwitchDirection::kApToP;
  cfg.trials = trials;
  cfg.runner.threads = 1;  // measure the estimator, not the pool scaling
  const dev::MtjDevice device(cfg.array.device);
  cfg.pulse.width =
      width_frac * device.switching_time(dev::SwitchDirection::kApToP, 0.9,
                                         device.intra_stray_field());
  return cfg;
}

// --- overlap regime (~1e-2): all three methods, same target quality ---------

void BM_WerOverlapBrute(benchmark::State& state) {
  // Brute force sized for ~10% relative error at p ~ 1e-2: the baseline
  // cost every accelerated run is compared against.
  const auto cfg = wer_config(1.8, 10000);
  eng::MonteCarloRunner runner(cfg.runner);
  eng::RareEventEstimate last;
  for (auto _ : state) {
    util::Rng rng(7);
    last = mem::measure_wer(cfg, rng, runner).rare;
    benchmark::DoNotOptimize(last);
  }
  report_estimate(state, last);
}
BENCHMARK(BM_WerOverlapBrute);

void BM_WerOverlapImportance(benchmark::State& state) {
  auto cfg = wer_config(1.8, 1000);
  cfg.rare.method = eng::RareEventMethod::kImportanceSampling;
  eng::MonteCarloRunner runner(cfg.runner);
  eng::RareEventEstimate last;
  for (auto _ : state) {
    util::Rng rng(7);
    last = mem::measure_wer(cfg, rng, runner).rare;
    benchmark::DoNotOptimize(last);
  }
  report_estimate(state, last);
}
BENCHMARK(BM_WerOverlapImportance);

void BM_WerOverlapSplitting(benchmark::State& state) {
  auto cfg = wer_config(1.8, 1000);
  cfg.rare.method = eng::RareEventMethod::kSplitting;
  eng::MonteCarloRunner runner(cfg.runner);
  eng::RareEventEstimate last;
  for (auto _ : state) {
    util::Rng rng(7);
    last = mem::measure_wer(cfg, rng, runner).rare;
    benchmark::DoNotOptimize(last);
  }
  report_estimate(state, last);
}
BENCHMARK(BM_WerOverlapSplitting);

// --- deep regime (~1e-10): accelerated drivers only -------------------------
//
// Brute force would need ~1e12 trials here; the brute_speedup counter is
// the acceptance criterion (>= 100x fewer simulated trials than the
// brute-force extrapolation at the same relative error).

void BM_WerDeepImportance(benchmark::State& state) {
  auto cfg = wer_config(4.7, 2000);
  cfg.rare.method = eng::RareEventMethod::kImportanceSampling;
  eng::MonteCarloRunner runner(cfg.runner);
  eng::RareEventEstimate last;
  for (auto _ : state) {
    util::Rng rng(7);
    last = mem::measure_wer(cfg, rng, runner).rare;
    benchmark::DoNotOptimize(last);
  }
  report_estimate(state, last);
}
BENCHMARK(BM_WerDeepImportance);

void BM_WerDeepSplitting(benchmark::State& state) {
  auto cfg = wer_config(4.7, 2000);
  cfg.rare.method = eng::RareEventMethod::kSplitting;
  eng::MonteCarloRunner runner(cfg.runner);
  eng::RareEventEstimate last;
  for (auto _ : state) {
    util::Rng rng(7);
    last = mem::measure_wer(cfg, rng, runner).rare;
    benchmark::DoNotOptimize(last);
  }
  report_estimate(state, last);
}
BENCHMARK(BM_WerDeepSplitting);

void BM_RerDeepImportance(benchmark::State& state) {
  // The full electrical read path at a healthy margin (~7 sigma, RER
  // ~1e-11): every tilted trial still pays the AP bias fixed-point solve,
  // run lane-parallel across each block of trials.
  rdo::RerConfig cfg;
  cfg.path.v_read = 0.16;
  cfg.trials = 2000;
  cfg.hz_stray = dev::MtjDevice(cfg.device).intra_stray_field();
  cfg.runner.threads = 1;
  cfg.rare.method = eng::RareEventMethod::kImportanceSampling;
  eng::MonteCarloRunner runner(cfg.runner);
  eng::RareEventEstimate last;
  for (auto _ : state) {
    util::Rng rng(7);
    last = rdo::measure_rer(cfg, rng, runner).rare;
    benchmark::DoNotOptimize(last);
  }
  report_estimate(state, last);
}
BENCHMARK(BM_RerDeepImportance);

}  // namespace

BENCHMARK_MAIN();
