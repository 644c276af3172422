#pragma once

#include "array/data_pattern.h"
#include "engine/monte_carlo.h"
#include "engine/rare_event.h"
#include "mram/mram_array.h"
#include "util/stats.h"

// Retention analysis at the array level (Fig. 6's device-level conclusion
// lifted to memories): which cell/state/pattern combination has the lowest
// thermal stability, and what failure probability does that imply over a
// storage horizon.

namespace mram::mem {

struct RetentionReport {
  double min_delta = 0.0;          ///< worst-case Delta over all cells
  std::size_t worst_row = 0;
  std::size_t worst_col = 0;
  double min_retention_time = 0.0; ///< tau0 * exp(min_delta) [s]
  double array_fail_probability = 0.0;  ///< P(any cell flips within horizon)
};

/// Scans every cell of `array` under its current data and reports the
/// worst-case retention metrics over `horizon` seconds.
RetentionReport analyze_retention(const MramArray& array, double horizon);

/// Monte Carlo retention-fault ensemble: repeated independent holds of the
/// same pattern, each trial drawing its own thermal history. Runs on the
/// caller's runner (parallel, bit-identical across thread counts for a
/// fixed seed); sweeps over hold times or patterns pass one runner so they
/// pay thread creation once.
struct RetentionEnsembleConfig {
  ArrayConfig array;
  arr::PatternKind pattern = arr::PatternKind::kAllZero;
  double hold = 1.0;          ///< dwell per trial [s]
  std::size_t trials = 1000;
  /// Rare-event driver selection (default: brute force, the legacy loop).
  /// Importance sampling inflates the per-cell flip probabilities and
  /// carries exact product-Bernoulli likelihood ratios; splitting runs
  /// subset simulation on the per-cell latent Gaussians. The retention
  /// fault probability here also has a closed form (reported in
  /// exact_fault_probability), which makes this workload the cleanest
  /// validation target for both drivers.
  eng::RareEventConfig rare;
};

struct RetentionEnsembleResult {
  std::size_t trials = 0;         ///< trials actually simulated
  std::size_t faulty_trials = 0;  ///< trials with >= 1 flip / effective hits
  std::size_t total_flips = 0;    ///< raw flip count (brute force only)
  double fault_probability = 0.0; ///< estimated P(any cell flips)
  util::Interval confidence;      ///< 95% Wilson (brute) or estimator CI
  double mean_flips = 0.0;        ///< flips per hold (analytic for rare runs)
  /// Closed-form 1 - prod(1 - p_i) over the per-cell flip probabilities --
  /// the exact answer every estimator should agree with.
  double exact_fault_probability = 0.0;
  eng::RareEventEstimate rare;    ///< estimator quality (all methods)
};

RetentionEnsembleResult measure_retention_faults(
    const RetentionEnsembleConfig& config, util::Rng& rng,
    eng::MonteCarloRunner& runner);

/// Longest scrub (refresh) interval such that the probability of any cell of
/// `array` flipping between scrubs stays below `max_fail_probability`, based
/// on the current data's worst-case cell. Returns +infinity when even a
/// 10-year interval meets the target. Preconditions: probability in (0, 1).
double max_scrub_interval(const MramArray& array,
                          double max_fail_probability);

}  // namespace mram::mem
