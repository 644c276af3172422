#include "engine/rare_event.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <string>

namespace mram::eng {

RareEventEstimate brute_force_estimate(std::size_t successes,
                                       std::size_t trials) {
  RareEventEstimate est;
  est.method = RareEventMethod::kBruteForce;
  const double n = static_cast<double>(trials);
  est.probability = trials > 0 ? static_cast<double>(successes) / n : 0.0;
  est.ess = static_cast<double>(successes);
  est.simulated_trials = n;
  est.effective_trials = n;
  if (trials > 0) {
    est.confidence = util::wilson_interval(successes, trials);
    if (successes > 0 && successes < trials) {
      est.rel_error =
          std::sqrt((1.0 - est.probability) / (n * est.probability));
    } else if (successes == trials && trials > 0) {
      est.rel_error = 0.0;
    }
  }
  return est;
}

RareEventEstimate importance_estimate(const util::WeightedStats& ws) {
  RareEventEstimate est;
  est.method = RareEventMethod::kImportanceSampling;
  est.simulated_trials = static_cast<double>(ws.count());
  est.ess = ws.effective_samples();
  if (ws.empty()) return est;
  est.probability = ws.mean();
  est.rel_error = ws.rel_error();
  const double half = 1.96 * ws.std_error();
  est.confidence = {std::max(0.0, est.probability - half),
                    est.probability + half};
  est.effective_trials = brute_equivalent_trials(
      est.probability, est.rel_error, est.simulated_trials);
  return est;
}

namespace {

/// One generation of subset-simulation states: latent vectors (trial-major)
/// and their scores, concatenated in trial order by the chunk-ordered merge.
struct ScorePartial {
  std::vector<double> zs;
  std::vector<double> scores;
  /// Appends one trial: its latent vector z[0..dim) and its score.
  void add(const double* z, std::size_t dim, double score) {
    zs.insert(zs.end(), z, z + dim);
    scores.push_back(score);
  }
  void merge(const ScorePartial& other) {
    zs.insert(zs.end(), other.zs.begin(), other.zs.end());
    scores.insert(scores.end(), other.scores.begin(), other.scores.end());
  }
};

/// Throws unless every score of a generation is a number: the level
/// comparator (score descending, index ascending) is only a strict weak
/// ordering over non-NaN scores. One serial pass per level, off the
/// per-proposal path.
void check_scores(const ScorePartial& gen, std::size_t level) {
  for (const double s : gen.scores) {
    if (std::isnan(s)) {
      throw util::ContractViolation(
          "subset simulation: the score returned NaN at level " +
          std::to_string(level));
    }
  }
}

}  // namespace

RareEventEstimate subset_simulation(MonteCarloRunner& runner, std::size_t dim,
                                    std::size_t n_per_level,
                                    std::uint64_t seed,
                                    const BatchScore& score) {
  MRAM_EXPECTS(dim > 0, "subset simulation needs a positive dimension");
  MRAM_EXPECTS(n_per_level >= kSplittingMinTrials,
               "subset simulation needs kSplittingMinTrials per level");
  const std::size_t N = n_per_level;
  const double dN = static_cast<double>(N);
  constexpr std::size_t kLanes = MonteCarloRunner::kMaxLaneWidth;

  RareEventEstimate est;
  est.method = RareEventMethod::kSplitting;

  // Level 0: fresh standard-normal latent vectors through the runner, one
  // score call per block of up to kLanes trials of a span.
  ScorePartial gen = runner.run_batched<ScorePartial>(
      N, derive_seed(seed, 0),
      [&] { return std::vector<double>(kLanes * (dim + 1)); },
      [&](std::vector<double>& buf, util::Rng* rngs, std::size_t first,
          std::size_t n, const auto& acc_of) {
        obs::tag_kernel(obs::KernelTag::kRare);
        double* zs = buf.data();
        double* scores = zs + kLanes * dim;
        for (std::size_t b = 0; b < n; b += kLanes) {
          const std::size_t lanes = std::min(kLanes, n - b);
          for (std::size_t l = 0; l < lanes; ++l) {
            rngs[b + l].normal_fill(zs + l * dim, dim);
          }
          score(lanes, zs, scores);
          for (std::size_t l = 0; l < lanes; ++l) {
            acc_of(first + b + l).add(zs + l * dim, dim, scores[l]);
          }
        }
      });
  check_scores(gen, 0);

  double log_p = 0.0;
  double delta2 = 0.0;
  double evals = dN;
  bool dead = false;  // the schedule stalled with zero hits

  // Resamples the next generation from `parents` (indices into gen),
  // refreshing each trial with kMcmcSteps pCN moves accepted inside
  // {score >= level}. Trial i of level tag k draws only from
  // Rng::stream(derive_seed(seed, k), i); the chains of a block of up to
  // kLanes trials step in lockstep through one score call per MCMC step.
  const auto resample = [&](const std::vector<std::size_t>& parents,
                            double level, std::uint64_t tag) {
    const double rho = kMcmcRho;
    const double beta = std::sqrt(1.0 - rho * rho);
    const std::size_t m = parents.size();
    gen = runner.run_batched<ScorePartial>(
        N, derive_seed(seed, tag),
        [&] { return std::vector<double>(kLanes * (2 * dim + 2)); },
        [&, m](std::vector<double>& buf, util::Rng* rngs, std::size_t first,
               std::size_t n, const auto& acc_of) {
          obs::tag_kernel(obs::KernelTag::kRare);
          double* cur = buf.data();
          double* prop = cur + kLanes * dim;
          double* cur_score = prop + kLanes * dim;
          double* prop_score = cur_score + kLanes;
          for (std::size_t b = 0; b < n; b += kLanes) {
            const std::size_t lanes = std::min(kLanes, n - b);
            util::Rng* block = rngs + b;
            for (std::size_t l = 0; l < lanes; ++l) {
              const std::size_t j = parents[block[l].below(m)];
              std::copy_n(gen.zs.data() + j * dim, dim, cur + l * dim);
              cur_score[l] = gen.scores[j];
            }
            for (std::size_t step = 0; step < kMcmcSteps; ++step) {
              for (std::size_t l = 0; l < lanes; ++l) {
                double* p = prop + l * dim;
                const double* c = cur + l * dim;
                block[l].normal_fill(p, dim);
                for (std::size_t d = 0; d < dim; ++d) {
                  p[d] = rho * c[d] + beta * p[d];
                }
              }
              score(lanes, prop, prop_score);
              std::uint64_t accepts = 0;
              for (std::size_t l = 0; l < lanes; ++l) {
                if (prop_score[l] >= level) {
                  ++accepts;
                  std::copy_n(prop + l * dim, dim, cur + l * dim);
                  cur_score[l] = prop_score[l];
                }
              }
              obs::counter_add(obs::Counter::kRareMcmcProposals, lanes);
              obs::counter_add(obs::Counter::kRareMcmcAccepts, accepts);
            }
            for (std::size_t l = 0; l < lanes; ++l) {
              acc_of(first + b + l).add(cur + l * dim, dim, cur_score[l]);
            }
          }
        });
    check_scores(gen, static_cast<std::size_t>(tag));
    evals += dN * static_cast<double>(kMcmcSteps);
  };

  const auto count_hits = [&] {
    return static_cast<std::size_t>(
        std::count_if(gen.scores.begin(), gen.scores.end(),
                      [](double s) { return s > 0.0; }));
  };
  // Per-level contribution to the squared relative error. Level 0 trials
  // are independent (g = 1); MCMC-level trials are correlated through
  // their parents, inflated by a conventional g = 3 (Au & Beck report
  // gamma in the 1..3 range for these acceptance rates) -- a documented
  // approximation, conservative for well-mixed chains.
  const auto record_level = [&](double phat, bool first) {
    log_p += std::log(phat);
    const double g = first ? 1.0 : 3.0;
    delta2 += g * (1.0 - phat) / (dN * phat);
    est.level_probabilities.push_back(phat);
    obs::counter_add(obs::Counter::kRareSplitLevels);
    obs::series_append("rare.split.level_p",
                       static_cast<double>(est.level_probabilities.size()),
                       phat);
  };

  // Adaptive quantile schedule: each level pins the top kLevelP0 fraction
  // (deterministic (score desc, trial index asc) tie-break).
  const std::size_t m =
      std::max<std::size_t>(1, static_cast<std::size_t>(kLevelP0 * dN));
  double prev_level = -std::numeric_limits<double>::infinity();
  for (std::size_t k = 0;; ++k) {
    const std::size_t hits = count_hits();
    if (hits >= m) {
      record_level(static_cast<double>(hits) / dN, k == 0);
      est.ess = static_cast<double>(hits);
      break;
    }
    std::vector<std::size_t> order(N);
    std::iota(order.begin(), order.end(), std::size_t{0});
    // (score desc, index asc) is a strict total order on the NaN-free
    // scores, so the top-m set and its order are unique: a partial sort
    // yields exactly the full sort's first m entries.
    std::partial_sort(order.begin(), order.begin() + m, order.end(),
                      [&](std::size_t a, std::size_t b) {
                        if (gen.scores[a] != gen.scores[b]) {
                          return gen.scores[a] > gen.scores[b];
                        }
                        return a < b;
                      });
    const double level = gen.scores[order[m - 1]];
    if (k >= kMaxLevels || level <= prev_level) {
      // No further progress possible; settle for the direct estimate at
      // the current level (zero hits => probability zero).
      if (hits > 0) {
        record_level(static_cast<double>(hits) / dN, k == 0);
        est.ess = static_cast<double>(hits);
      } else {
        dead = true;
      }
      break;
    }
    prev_level = level;
    record_level(static_cast<double>(m) / dN, k == 0);
    order.resize(m);
    resample(order, level, k + 1);
  }

  est.simulated_trials = evals;
  if (dead) {
    // Nothing reached the failure set: report zero with a rule-of-three
    // style upper bound conditional on the levels that did resolve.
    est.probability = 0.0;
    est.confidence = {0.0, std::exp(log_p) * 3.0 / dN};
    return est;
  }
  est.probability = std::exp(log_p);
  est.rel_error = std::sqrt(delta2);
  est.confidence = {
      std::max(0.0, est.probability * (1.0 - 1.96 * est.rel_error)),
      est.probability * (1.0 + 1.96 * est.rel_error)};
  est.effective_trials =
      brute_equivalent_trials(est.probability, est.rel_error, evals);
  return est;
}

}  // namespace mram::eng
