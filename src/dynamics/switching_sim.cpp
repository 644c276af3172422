#include "dynamics/switching_sim.h"

#include <cmath>

#include "dynamics/llg_batch.h"
#include "dynamics/llg_heun_step.h"
#include "engine/monte_carlo.h"
#include "obs/metrics.h"
#include "util/constants.h"
#include "util/error.h"
#include "util/stats.h"

namespace mram::dyn {

using dev::MtjState;
using dev::SwitchDirection;
using num::Vec3;

LlgParams llg_from_device_current(const dev::MtjDevice& device,
                                  double current_toward_p, double hz_stray,
                                  double temperature) {
  const auto& p = device.params();
  LlgParams llg;
  llg.hk = p.hk;
  llg.alpha = p.damping;
  llg.stt_efficiency = p.stt_efficiency;
  llg.volume = p.stack.volume();
  // Share the energy barrier with the analytic model: Ms*V = thermal moment.
  llg.ms = device.thermal_moment(temperature) / llg.volume;
  llg.temperature = temperature;
  llg.h_applied = {0.0, 0.0,
                   hz_stray * p.thermal.stray_field_scale(temperature)};
  llg.spin_polarization = {0.0, 0.0, 1.0};
  // Positive current drives the magnetization toward +z (the P state).
  llg.current = current_toward_p;
  llg.validate();
  return llg;
}

LlgParams llg_from_device(const dev::MtjDevice& device, SwitchDirection dir,
                          double vp, double hz_stray, double temperature) {
  const double i = device.electrical().current(initial_state(dir), vp);
  return llg_from_device_current(
      device, (dir == SwitchDirection::kApToP) ? i : -i, hz_stray,
      temperature);
}

Vec3 thermal_initial_tilt(util::Rng& rng, double delta, double mz0) {
  const double u = std::max(rng.uniform(), 1e-300);
  const double theta =
      std::min(std::sqrt(-std::log(u) / std::max(delta, 1.0)), 0.5);
  const double phi = rng.uniform(0.0, 2.0 * util::kPi);
  return num::normalized({std::sin(theta) * std::cos(phi),
                          std::sin(theta) * std::sin(phi),
                          mz0 * std::cos(theta)});
}

namespace {

/// Runner context of run_thermal_llg: the kernel plus span-sized start and
/// result buffers, reused by every span the context runs.
struct ThermalLlgSpan {
  explicit ThermalLlgSpan(const LlgParams& llg) : sim(llg) {}

  BatchMacrospinSim sim;
  std::vector<Vec3> m0;
  std::vector<SwitchResult> out;
};

}  // namespace

ThermalLlgTally run_thermal_llg(eng::MonteCarloRunner& runner,
                                const LlgParams& llg, std::size_t trials,
                                std::uint64_t seed, double delta, double mz0,
                                double duration, double dt) {
  return runner.run_batched<ThermalLlgTally>(
      trials, seed, [&] { return ThermalLlgSpan(llg); },
      [&](ThermalLlgSpan& span, util::Rng* rngs, std::size_t first,
          std::size_t n, const auto& acc_of) {
        span.m0.resize(n);
        span.out.resize(n);
        for (std::size_t l = 0; l < n; ++l) {
          span.m0[l] = thermal_initial_tilt(rngs[l], delta, mz0);
        }
        span.sim.run_until_switch(n, span.m0.data(), rngs, duration, dt,
                                  span.out.data());
        for (std::size_t l = 0; l < n; ++l) {
          if (span.out[l].switched) {
            ThermalLlgTally& acc = acc_of(first + l);
            ++acc.switched;
            acc.times.add(span.out[l].time);
          }
        }
      });
}

SwitchingStats llg_switching_stats(const dev::MtjDevice& device,
                                   SwitchDirection dir, double vp,
                                   double hz_stray, std::size_t trials,
                                   util::Rng& rng, double duration, double dt,
                                   double temperature,
                                   eng::MonteCarloRunner& runner) {
  MRAM_EXPECTS(trials > 0, "need at least one trial");
  const auto llg = llg_from_device(device, dir, vp, hz_stray, temperature);
  const double delta =
      device.delta(initial_state(dir), hz_stray, temperature);
  const double mz0 = (initial_state(dir) == MtjState::kParallel) ? 1.0 : -1.0;

  // Report echo for the efficiency section: which documented flop constant
  // the llg.flops counter is accumulating under (serial context, once per
  // runner call -- never from inside a chunk).
  obs::gauge_set(obs::Gauge::kLlgFlopsPerStep,
                 llg.current != 0.0
                     ? static_cast<double>(detail::kHeunStepFlopsTorque)
                     : static_cast<double>(detail::kHeunStepFlops));
  const std::uint64_t seed = rng();
  const ThermalLlgTally tally =
      run_thermal_llg(runner, llg, trials, seed, delta, mz0, duration, dt);
  SwitchingStats stats;
  stats.trials = trials;
  stats.switched = tally.switched;
  if (tally.switched > 0) {
    stats.mean_time = tally.times.mean();
    stats.stddev_time = tally.times.stddev();
  }
  return stats;
}

}  // namespace mram::dyn
