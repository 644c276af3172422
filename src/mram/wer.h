#pragma once

#include "array/data_pattern.h"
#include "engine/monte_carlo.h"
#include "engine/rare_event.h"
#include "mram/mram_array.h"
#include "util/stats.h"

// Write-error-rate (WER) analysis: the memory-level consequence of the
// paper's Fig. 5 observation that aggressive pitches need a larger write
// margin. The victim is the center cell; the background pattern sets the
// neighborhood (NP8 = 0 corresponds to kAllZero, the worst case for AP->P).
//
// Trials run on the caller's MonteCarloRunner: parallel across its worker
// threads, with per-trial counter-based RNG streams, so results for a given
// seed are bit-identical at any thread count.

namespace mram::mem {

struct WerConfig {
  ArrayConfig array;
  arr::PatternKind background = arr::PatternKind::kAllZero;
  WritePulse pulse;
  dev::SwitchDirection direction = dev::SwitchDirection::kApToP;
  std::size_t trials = 1000;
  /// Rare-event driver selection. Brute force (default) runs the legacy
  /// trial loop unchanged; importance sampling tilts the latent write-noise
  /// variable toward failure, splitting runs subset simulation on the
  /// margin deficit -- both reach WERs far below 1/trials with quantified
  /// relative error, and both stay bit-identical across --threads.
  eng::RareEventConfig rare;
};

struct WerResult {
  std::size_t errors = 0;  ///< raw error count (brute) / effective hits
  std::size_t trials = 0;  ///< trials actually simulated
  double wer = 0.0;
  util::Interval confidence;  ///< 95% Wilson (brute) or estimator CI
  double mean_success_probability = 0.0;
  eng::RareEventEstimate rare;  ///< estimator quality (all methods)
};

/// Repeatedly initializes the array to `background` with the victim in the
/// direction's initial state, fires one write pulse at the victim, and
/// counts failures. Sweeps pass one runner so they pay thread creation once.
WerResult measure_wer(const WerConfig& config, util::Rng& rng,
                      eng::MonteCarloRunner& runner);

}  // namespace mram::mem
