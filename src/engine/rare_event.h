#pragma once

#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

#include "engine/monte_carlo.h"
#include "util/stats.h"

// Rare-event acceleration on top of MonteCarloRunner. Production MRAM error
// rates sit at 1e-12..1e-18 where brute-force sampling is hopeless (1e14+
// trials for a single hit), so the deep-rate paths estimate through variance
// reduction instead (measure_wer, measure_retention_faults and measure_rer
// select one through their RareEventConfig):
//
//   * importance sampling -- trials are drawn under an exponentially tilted
//     (mean-shifted) noise measure that makes failures common, and every
//     trial carries the likelihood ratio dP/dQ of its realized draws; the
//     weighted accumulator util::WeightedStats turns indicator * weight back
//     into an unbiased estimate of the true probability with a computable
//     standard error and effective sample size;
//
//   * multilevel splitting (subset simulation) -- the failure event is
//     factored into a chain of conditional events ("reach level k+1 given
//     level k was reached"), each common enough to estimate directly; the
//     product of the per-level conditionals estimates the rare probability.
//
// Determinism contract: both drivers compose exclusively out of
// Rng::stream-derived per-trial streams scheduled through MonteCarloRunner's
// chunk-ordered reduction, plus serial between-round / between-level logic
// whose inputs are the (already thread-count-independent) merged results.
// Every estimate is therefore bit-identical across --threads, like the
// brute-force paths.

namespace mram::eng {

enum class RareEventMethod {
  kBruteForce,          ///< plain Monte Carlo (the default; exact legacy path)
  kImportanceSampling,  ///< tilted draws + likelihood-ratio weights
  kSplitting,           ///< multilevel splitting / subset simulation
};

/// Rare-event method selection of a workload config. The default is brute
/// force, so wiring this struct into a workload config changes nothing
/// until a caller opts in.
struct RareEventConfig {
  RareEventMethod method = RareEventMethod::kBruteForce;
};

/// Target conditional probability per adaptive subset-simulation level.
inline constexpr double kLevelP0 = 0.25;

/// MCMC refresh moves per trial in subset-simulation levels.
inline constexpr std::size_t kMcmcSteps = 8;

/// Preconditioned-Crank-Nicolson correlation of MCMC proposals.
inline constexpr double kMcmcRho = 0.8;

/// Hard cap on subset-simulation levels (the adaptive schedule settles for
/// the direct estimate beyond this).
inline constexpr std::size_t kMaxLevels = 24;

/// Importance sampling stops adding rounds once the estimator relative
/// error falls below this.
inline constexpr double kTargetRelError = 0.1;

/// Hard cap on importance-sampling rounds (each of the workload's trial
/// count), so a badly placed tilt cannot loop forever.
inline constexpr std::size_t kMaxRounds = 64;

/// What a rare-event (or brute-force) estimation run reports alongside the
/// raw workload result: the probability, its estimator quality, and the
/// work it cost.
struct RareEventEstimate {
  RareEventMethod method = RareEventMethod::kBruteForce;
  double probability = 0.0;
  /// Estimator relative standard error; +inf when nothing was observed.
  double rel_error = std::numeric_limits<double>::infinity();
  /// Effective sample size: Kish ESS of the hit weights (IS), the hit
  /// count (brute force / final splitting level).
  double ess = 0.0;
  /// Brute-force-equivalent trial count: the number of plain Monte Carlo
  /// trials that would achieve the same relative error, (1-p)/(p*re^2).
  /// Equals the actual trial count for brute-force runs.
  double effective_trials = 0.0;
  /// Trials (or trajectory/score evaluations) actually simulated.
  double simulated_trials = 0.0;
  /// ~95% confidence interval on probability.
  util::Interval confidence{};
  /// Per-level conditional probabilities (splitting only).
  std::vector<double> level_probabilities;
};

/// Deterministic seed derivation for rounds/levels: collisions between the
/// per-trial streams of different tags are as unlikely as any two stream
/// seeds colliding.
inline std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t tag) {
  return util::Rng::stream(seed, tag)();
}

/// Brute-force trials needed to match relative error `rel_error` at
/// probability p -- the common "effective trials" currency all three
/// methods report in.
inline double brute_equivalent_trials(double probability, double rel_error,
                                      double fallback) {
  if (probability <= 0.0 || probability >= 1.0 || rel_error <= 0.0 ||
      !std::isfinite(rel_error)) {
    return fallback;
  }
  return (1.0 - probability) / (probability * rel_error * rel_error);
}

/// Packages a plain binomial result (successes out of trials) in the common
/// estimate format, so brute-force runs report the same quality columns as
/// the accelerated ones.
RareEventEstimate brute_force_estimate(std::size_t successes,
                                       std::size_t trials);

/// Packages a merged weighted accumulator as an importance-sampling
/// estimate (95% normal CI on the weighted mean, clamped at 0).
RareEventEstimate importance_estimate(const util::WeightedStats& ws);

/// Importance sampling with deterministic relative-error stopping: runs
/// rounds of `batch` trials (round r seeds from derive_seed(seed, r)),
/// merging round accumulators in round order, until the estimator relative
/// error reaches kTargetRelError or kMaxRounds rounds ran. The
/// stopping decision consumes only merged (thread-count-independent) state,
/// so the round count -- and therefore the result -- is bit-identical
/// across --threads.
/// RoundFn: (std::uint64_t round_seed) -> util::WeightedStats, one runner
/// call of `batch` trials (run or run_batched, as the workload needs).
template <class RoundFn>
RareEventEstimate importance_rounds(std::size_t batch, std::uint64_t seed,
                                    RoundFn&& round) {
  MRAM_EXPECTS(batch > 0, "importance sampling needs a positive batch size");
  util::WeightedStats total;
  std::size_t rounds = 0;
  for (std::size_t r = 0; r < kMaxRounds; ++r) {
    total.merge(round(derive_seed(seed, r)));
    ++rounds;
    obs::counter_add(obs::Counter::kRareIsRounds);
    obs::series_append("rare.is.ess", static_cast<double>(rounds),
                       total.effective_samples());
    obs::series_append("rare.is.rel_error", static_cast<double>(rounds),
                       total.rel_error());
    if (total.rel_error() <= kTargetRelError) break;
  }
  auto est = importance_estimate(total);
  est.simulated_trials = static_cast<double>(rounds * batch);
  est.effective_trials = brute_equivalent_trials(
      est.probability, est.rel_error, est.simulated_trials);
  return est;
}

/// Batched score of subset simulation: score(n, zs, out) writes into
/// out[l] the score of the latent vector zs + l*dim, for l in [0, n). It
/// must be a pure function of each vector (no state, no dependence on n or
/// on a vector's position in the batch), may run concurrently on several
/// worker threads, and is called with n up to
/// MonteCarloRunner::kMaxLaneWidth. Every score must be a number: NaN
/// breaks the level ordering and is rejected with a ContractViolation.
using BatchScore =
    std::function<void(std::size_t n, const double* zs, double* out)>;

/// Smallest per-level trial count subset_simulation accepts. Scenarios pass
/// it as the floor of their scaled trial counts, so a too-small
/// --trial-scale is an input error, not a contract failure.
inline constexpr std::size_t kSplittingMinTrials = 4;

/// Subset simulation (multilevel splitting in a standard-normal latent
/// space) for the analytic workloads. The event is expressed through a
/// deterministic score over `dim` iid standard normals; failure is
/// score > 0. Level 0 draws n_per_level fresh vectors through the runner;
/// each subsequent level resamples survivors and refreshes them with
/// kMcmcSteps preconditioned-Crank-Nicolson moves accepted inside the
/// current level set. Levels follow the adaptive quantile schedule (each
/// pins the top kLevelP0 fraction, ties broken by trial index).
/// Deterministic across --threads: level-k trial i draws only from
/// Rng::stream(derive_seed(seed, k), i), and all cross-trial logic runs
/// serially on chunk-order-merged results.
///
/// Lockstep evaluation: every level runs through runner.run_batched, each
/// span walks its trials in blocks of up to kMaxLaneWidth, and the chains
/// of one block advance in lockstep. Level 0 draws all of the block's
/// vectors in one lane-parallel fill (Rng::normal_fill_lanes, dim values
/// per chain), then scores them in one call. A resample level draws each
/// chain's parent (rng.below(m)), then all of its proposal noise in one
/// lane-parallel fill of kMcmcSteps * dim values per chain; per MCMC step
/// it forms every chain's proposal, scores the whole block in one call and
/// accepts chain by chain. Each chain therefore consumes its own stream in
/// the per-trial order below(m), then kMcmcSteps fills of dim normals
/// (normal_fill's split contract makes one fill of kMcmcSteps * dim the
/// same draws). Trial i's state and score live in slot i of the level's
/// generation buffer, written only by the span that runs trial i, so the
/// result does not depend on the block or span sizes, the chunking of the
/// batch or the thread count.
RareEventEstimate subset_simulation(MonteCarloRunner& runner, std::size_t dim,
                                    std::size_t n_per_level,
                                    std::uint64_t seed,
                                    const BatchScore& score);

}  // namespace mram::eng
