#pragma once

#include "array/data_pattern.h"
#include "engine/monte_carlo.h"
#include "engine/rare_event.h"
#include "readout/read_error.h"
#include "util/stats.h"

// Monte Carlo read-path workloads, mirroring the write side's measure_wer
// structure: every driver runs on the caller's eng::MonteCarloRunner with
// per-trial counter-based streams (bit-identical across thread counts).
//
//   measure_rer          -- read error rate of one cell: decision errors,
//                           transient-blocked strobes and analytic-model
//                           read disturbs, per sampled read; brute force,
//                           importance sampling or splitting (config.rare).
//   measure_read_disturb -- stochastic-LLG read disturb: integrates the
//                           actual read-current torque on
//                           dyn::run_thermal_llg (the batched
//                           BatchMacrospinSim kernel, lane for lane equal
//                           to the tests' scalar MacrospinSim). Plain
//                           Monte Carlo only: the deep read-error rates
//                           come from measure_rer's rare-event drivers.

namespace mram::rdo {

/// Sentinel for "the last row of the column" (the worst-case read position).
inline constexpr std::size_t kFarRow = static_cast<std::size_t>(-1);

struct RerConfig {
  dev::MtjParams device = dev::MtjParams::reference_device(35e-9);
  ReadPathConfig path;
  dev::MtjState stored = dev::MtjState::kAntiParallel;
  std::size_t row = kFarRow;  ///< selected row; kFarRow = rows - 1
  arr::PatternKind column_pattern = arr::PatternKind::kCheckerboard;
  double hz_stray = 0.0;      ///< stray field at the victim [A/m, at Tref]
  double temperature = 300.0; ///< [K]
  std::size_t trials = 1000;
  /// Rare-event driver selection. The accelerated paths estimate the read
  /// error probability (wrong decision OR metastable strobe, i.e. the
  /// noise margin landing below the metastable band) over the three
  /// per-read deviates (TMR, offset, reference mismatch). Importance
  /// sampling tilts the two sense deviates toward the failure boundary
  /// (the TMR deviate stays untilted: it enters the margin through the
  /// nonlinear electrical solve); splitting runs subset simulation on the
  /// margin deficit. The disturb bernoulli is not part of the deep
  /// estimate -- its analytic probability lives in error_budget.
  eng::RareEventConfig rare;
};

struct RerResult {
  std::size_t trials = 0;
  std::size_t decision_errors = 0;  ///< sensed the complement of the stored bit
  std::size_t blocked = 0;          ///< metastable strobes (no valid data)
  std::size_t disturbs = 0;         ///< reads that flipped the stored bit
  std::size_t read_errors = 0;      ///< decision + blocked / effective hits
  double rer = 0.0;                 ///< estimated read-error probability
  double disturb_rate = 0.0;        ///< disturbs / trials (brute force only)
  util::Interval confidence;        ///< 95% Wilson (brute) or estimator CI
  double mean_margin = 0.0;         ///< mean signed sensed margin [A]
                                    ///< (nominal op.margin for rare runs)
  ReadErrorModel::OperatingPoint op;  ///< nominal operating point
  eng::RareEventEstimate rare;        ///< estimator quality (all methods)
};

/// Repeatedly reads one cell storing `stored` at the configured row and
/// column pattern, sampling the full read path per trial.
RerResult measure_rer(const RerConfig& config, util::Rng& rng,
                      eng::MonteCarloRunner& runner);

struct ReadDisturbConfig {
  dev::MtjParams device = dev::MtjParams::reference_device(35e-9);
  ReadPathConfig path;
  dev::MtjState stored = dev::MtjState::kAntiParallel;
  std::size_t row = kFarRow;
  arr::PatternKind column_pattern = arr::PatternKind::kAllZero;
  double hz_stray = 0.0;
  double temperature = 300.0;
  double duration = 0.0;  ///< read pulse [s]; 0 = path.t_read
  double dt = 1e-12;      ///< LLG step [s]
  std::size_t trials = 256;
};

struct ReadDisturbResult {
  std::size_t trials = 0;          ///< trajectories simulated
  std::size_t disturbed = 0;       ///< trajectories that crossed mz = 0
  double rate = 0.0;               ///< disturbed / trials
  util::Interval confidence;       ///< 95% Wilson interval
  double mean_switch_time = 0.0;   ///< over disturbed trials [s]
  double analytic_probability = 0.0;  ///< thermal-activation model, same drive
  double i_read = 0.0;             ///< read current through the cell [A]
  double v_mtj = 0.0;              ///< bias across the MTJ [V]
};

/// Stochastic-LLG read disturb: each trial tilts the stored state thermally
/// and integrates the read-current torque for the pulse duration; a crossing
/// of the mz = 0 plane is a disturb.
ReadDisturbResult measure_read_disturb(const ReadDisturbConfig& config,
                                       util::Rng& rng,
                                       eng::MonteCarloRunner& runner);

/// Resolves kFarRow against the configured column length.
std::size_t resolve_row(std::size_t row, const BitlineParams& bitline);

/// Expands a pattern kind into per-row column bits (bit 1 = AP). `rng` is
/// consumed only by arr::PatternKind::kRandom, exactly as make_pattern does.
std::vector<int> make_column_data(arr::PatternKind kind, std::size_t rows,
                                  util::Rng& rng);

}  // namespace mram::rdo
