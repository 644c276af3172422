#pragma once

#include <vector>

#include "engine/monte_carlo.h"
#include "mram/mram_array.h"

// Write-verify-write (WVW) controller, the scheme of the Intel 22FFL
// STT-MRAM the paper cites as [4]: after each write pulse the cell is read
// back; on mismatch the pulse is reapplied up to a retry budget. WVW trades
// latency and energy for write reliability, which is exactly the margin
// knob the paper's Fig. 5 conclusion calls for at aggressive pitches.

namespace mram::mem {

struct WvwConfig {
  WritePulse pulse;
  std::size_t max_attempts = 4;  ///< total pulses including the first

  void validate() const;
};

struct WvwResult {
  bool success = false;
  std::size_t attempts = 0;   ///< pulses actually fired
  double latency = 0.0;       ///< attempts * (pulse + verify read) [s]
  double energy = 0.0;        ///< sum over pulses of V^2/R * width [J]
};

/// Read access time charged per verify step [s] (paper ref. [4]: 4 ns read).
inline constexpr double kVerifyReadTime = 4e-9;

/// Writes `bit` into (r, c) of `array` under WVW. The verify read is
/// assumed error-free (20 mV read; disturb-free).
WvwResult write_verify_write(MramArray& array, std::size_t r, std::size_t c,
                             int bit, const WvwConfig& config,
                             util::Rng& rng);

/// Comparison row for the single-pulse vs. WVW study.
struct SchemeComparison {
  double single_pulse_wer = 0.0;
  double wvw_wer = 0.0;
  double wvw_mean_attempts = 0.0;
  double wvw_mean_latency = 0.0;  ///< [s]
  double wvw_mean_energy = 0.0;   ///< [J]
  double single_energy = 0.0;     ///< [J] (one pulse, always)
};

/// Monte Carlo single-pulse vs WVW ensemble on the caller's runner: each trial
/// fires one single pulse and one full WVW sequence at the worst-case victim
/// (center cell, AP->P, all-P background) from its own counter-based stream,
/// so results are bit-identical at any thread count for a fixed seed.
/// Runs on the runner's standard (unbatched) path: a WVW trial's retry loop
/// is control-flow divergent and stateful, so there is nothing for a
/// lane-lockstep kernel to vectorize.
struct WvwEnsembleConfig {
  ArrayConfig array;
  WvwConfig wvw;
  std::size_t trials = 1000;
};

SchemeComparison measure_wvw(const WvwEnsembleConfig& config, util::Rng& rng,
                             eng::MonteCarloRunner& runner);

}  // namespace mram::mem
