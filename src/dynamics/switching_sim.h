#pragma once

#include "device/mtj_device.h"
#include "dynamics/llg.h"
#include "engine/monte_carlo.h"
#include "util/stats.h"

// Bridges the device model and the LLG solver: maps MtjParams to LlgParams
// so the same calibrated device can be simulated dynamically, and provides
// the batched Monte Carlo switching-time estimation used by the
// abl_llg_vs_sun scenario.

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
/// uniforms from `rng` -- the shared trial prologue of every stochastic-LLG
/// ensemble (switching stats and read disturb), so their stream consumption
/// stays identical.
num::Vec3 thermal_initial_tilt(util::Rng& rng, double delta, double mz0);

/// Switched count and crossing times [s] of a thermal-LLG ensemble; also
/// the runner partial of run_thermal_llg.
struct ThermalLlgTally {
  std::size_t switched = 0;
  util::RunningStats times;  ///< crossing times of the switched trials

  void merge(const ThermalLlgTally& o) {
    switched += o.switched;
    times.merge(o.times);
  }
};

/// Batched thermal-LLG ensemble, the body of both stochastic-LLG drivers
/// (llg_switching_stats and rdo::measure_read_disturb): trial i draws
/// thermal_initial_tilt(Rng::stream(seed, i), delta, mz0), then integrates
/// `llg` for up to `duration` in steps of `dt` until mz crosses 0. Each
/// runner span runs through one refilling BatchMacrospinSim call, so every
/// trial equals one scalar MacrospinSim::run_until_switch trial
/// (tests/support/macrospin_sim.h) bit for bit, and
/// results fold in trial order: the tally is bit-identical for the same
/// (seed, trials) at any thread count.
ThermalLlgTally run_thermal_llg(eng::MonteCarloRunner& runner,
                                const LlgParams& llg, std::size_t trials,
                                std::uint64_t seed, double delta, double mz0,
                                double duration, double dt);

struct SwitchingStats {
  double mean_time = 0.0;    ///< [s] over switched trials
  double stddev_time = 0.0;  ///< [s]
  std::size_t switched = 0;
  std::size_t trials = 0;
};

/// Monte Carlo switching-time statistics from repeated stochastic LLG runs
/// starting near the initial state of `dir` (thermal initial tilt), on
/// run_thermal_llg. Sweeps pass one runner so they pay thread creation
/// once.
SwitchingStats llg_switching_stats(const dev::MtjDevice& device,
                                   dev::SwitchDirection dir, double vp,
                                   double hz_stray, std::size_t trials,
                                   util::Rng& rng, double duration,
                                   double dt, double temperature,
                                   eng::MonteCarloRunner& runner);

}  // namespace mram::dyn
