#pragma once

#include "device/mtj_device.h"
#include "dynamics/llg.h"
#include "dynamics/llg_batch.h"
#include "engine/monte_carlo.h"

// Bridges the device model and the LLG solver: builds a MacrospinSim from
// MtjParams so the same calibrated device can be simulated dynamically, and
// provides Monte Carlo switching-time estimation used by
// the abl_llg_vs_sun scenario.

namespace mram::dyn {

/// LLG parameters equivalent to the calibrated device, driven in `dir` at
/// bias `vp` with stray field `hz_stray` [A/m]. The macrospin Ms*V equals
/// the device's thermal moment, so both models share the same energy
/// barrier.
LlgParams llg_from_device(const dev::MtjDevice& device,
                          dev::SwitchDirection dir, double vp,
                          double hz_stray, double temperature = 300.0);

/// Same mapping for an explicitly specified charge current (positive drives
/// the magnetization toward +z, the P state). The read path uses this: a
/// read current's magnitude comes from the bitline operating point, not
/// from an ideal bias across the device, and its polarity is fixed by the
/// read circuit rather than by a switching direction.
LlgParams llg_from_device_current(const dev::MtjDevice& device,
                                  double current_toward_p, double hz_stray,
                                  double temperature = 300.0);

/// Thermal-equilibrium initial tilt about the easy axis: theta^2 ~
/// Exp(1/Delta), uniform azimuth, FL along sign(mz0). Consumes exactly two
/// uniforms from `rng` -- the shared trial prologue of every scalar and
/// batched stochastic-LLG ensemble (switching stats and read disturb), so
/// their stream consumption stays identical.
num::Vec3 thermal_initial_tilt(util::Rng& rng, double delta, double mz0);

/// Runner context of the batched stochastic-LLG ensembles (switching stats
/// and read disturb): the kernel plus span-sized start and result buffers,
/// reused by every span the context runs.
struct ThermalLlgSpan {
  explicit ThermalLlgSpan(const LlgParams& llg) : sim(llg) {}

  /// Trial l of the span draws its thermal_initial_tilt(rngs[l], delta,
  /// mz0), then all n trials run through one refilling kernel call.
  /// Returns the n results, valid until the next call.
  const SwitchResult* run(util::Rng* rngs, std::size_t n, double delta,
                          double mz0, double duration, double dt);

  BatchMacrospinSim sim;
  std::vector<num::Vec3> m0;
  std::vector<SwitchResult> out;
};

struct SwitchingStats {
  double mean_time = 0.0;    ///< [s] over switched trials
  double stddev_time = 0.0;  ///< [s]
  std::size_t switched = 0;
  std::size_t trials = 0;
};

/// Monte Carlo switching-time statistics from repeated stochastic LLG runs
/// starting near the initial state of `dir` (thermal initial tilt). Runs on
/// the engine runner's batched path: each runner span goes through one
/// BatchMacrospinSim call, each trial bit-identical to one
/// MacrospinSim::run_until_switch trial for the same (seed, trials) at any
/// thread count. The overload taking a
/// MonteCarloRunner reuses its thread pool across calls (sweeps should
/// hoist one runner).
SwitchingStats llg_switching_stats(const dev::MtjDevice& device,
                                   dev::SwitchDirection dir, double vp,
                                   double hz_stray, std::size_t trials,
                                   util::Rng& rng, double duration = 60e-9,
                                   double dt = 1e-12,
                                   double temperature = 300.0,
                                   const eng::RunnerConfig& runner = {});

SwitchingStats llg_switching_stats(const dev::MtjDevice& device,
                                   dev::SwitchDirection dir, double vp,
                                   double hz_stray, std::size_t trials,
                                   util::Rng& rng, double duration,
                                   double dt, double temperature,
                                   eng::MonteCarloRunner& runner);

}  // namespace mram::dyn
