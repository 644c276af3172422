#include "engine/rare_event.h"

#include <algorithm>
#include <array>
#include <cmath>
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

/// One generation of subset-simulation states: trial i's latent vector at
/// zs[i * dim, (i + 1) * dim) and its score at scores[i]. A level's batch
/// bodies write each trial into its own slot, so every slot has exactly one
/// writer and the generation does not depend on the span geometry or the
/// thread count.
struct Generation {
  std::vector<double> zs;
  std::vector<double> scores;
};

/// run_batched's partial for bodies that write into Generation slots:
/// nothing is folded, so nothing is merged.
struct NoPartial {
  void merge(const NoPartial&) {}
};

/// Lane indices 0..kMaxLaneWidth-1: a block's engines are rngs[0..lanes).
constexpr auto kLaneOf = [] {
  std::array<std::size_t, MonteCarloRunner::kMaxLaneWidth> lanes{};
  for (std::size_t l = 0; l < lanes.size(); ++l) lanes[l] = l;
  return lanes;
}();

/// Counts a generation's hits (score > 0) and throws unless every score is
/// a number: the level comparator (score descending, index ascending) is
/// only a strict weak ordering over non-NaN scores. One serial pass per
/// level, off the per-proposal path.
std::size_t count_hits(const std::vector<double>& scores, std::size_t level) {
  std::size_t hits = 0;
  bool nan = false;
  for (const double s : scores) {
    nan |= std::isnan(s);
    hits += s > 0.0 ? 1 : 0;
  }
  if (nan) {
    throw util::ContractViolation(
        "subset simulation: the score returned NaN at level " +
        std::to_string(level));
  }
  return hits;
}

/// A trial's score and index, ranked by (score desc, index asc).
struct Ranked {
  double score;
  std::size_t index;
};

bool ranks_before(const Ranked& a, const Ranked& b) {
  if (a.score != b.score) return a.score > b.score;
  return a.index < b.index;
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

  // The current generation and the one a resample level writes; swapped
  // after each level.
  Generation gen{std::vector<double>(N * dim), std::vector<double>(N)};
  Generation next{std::vector<double>(N * dim), std::vector<double>(N)};

  // Level 0: fresh standard-normal latent vectors through the runner. Each
  // block of up to kLanes trials of a span draws its dim normals per chain
  // in one lane-parallel fill (noise[d * lanes + l]), transposes them into
  // the trials' slots and scores them there in one call.
  runner.run_batched<NoPartial>(
      N, derive_seed(seed, 0),
      [&] { return std::vector<double>(kLanes * dim); },
      [&](std::vector<double>& noise, util::Rng* rngs, std::size_t first,
          std::size_t n, const auto&) {
        obs::tag_kernel(obs::KernelTag::kRare);
        for (std::size_t b = 0; b < n; b += kLanes) {
          const std::size_t lanes = std::min(kLanes, n - b);
          util::Rng::normal_fill_lanes(rngs + b, kLaneOf.data(), lanes, dim,
                                       noise.data(), lanes);
          double* zs = gen.zs.data() + (first + b) * dim;
          for (std::size_t l = 0; l < lanes; ++l) {
            for (std::size_t d = 0; d < dim; ++d) {
              zs[l * dim + d] = noise[d * lanes + l];
            }
          }
          score(lanes, zs, gen.scores.data() + first + b);
        }
      });

  double log_p = 0.0;
  double delta2 = 0.0;
  double evals = dN;
  bool dead = false;  // the schedule stalled with zero hits

  // Resamples `next` from `parents` (indices into gen), refreshing each
  // trial with kMcmcSteps pCN moves accepted inside {score >= level}, then
  // swaps it in. Trial i of level tag k draws only from
  // Rng::stream(derive_seed(seed, k), i): its parent (below(m)), then all
  // kMcmcSteps * dim proposal normals in one fill. The chains of a block of
  // up to kLanes trials draw that noise in one lane-parallel fill
  // (noise[(step * dim + d) * lanes + l]), step in lockstep through one
  // score call per MCMC step, and keep their current states in their own
  // slots of `next`.
  const auto resample = [&](const std::vector<std::size_t>& parents,
                            double level, std::uint64_t tag) {
    const double rho = kMcmcRho;
    const double beta = std::sqrt(1.0 - rho * rho);
    const std::size_t m = parents.size();
    const std::size_t fill = kMcmcSteps * dim;
    runner.run_batched<NoPartial>(
        N, derive_seed(seed, tag),
        [&] { return std::vector<double>(kLanes * (fill + dim + 1)); },
        [&, m](std::vector<double>& buf, util::Rng* rngs, std::size_t first,
               std::size_t n, const auto&) {
          obs::tag_kernel(obs::KernelTag::kRare);
          double* noise = buf.data();
          double* prop = noise + kLanes * fill;
          double* prop_score = prop + kLanes * dim;
          for (std::size_t b = 0; b < n; b += kLanes) {
            const std::size_t lanes = std::min(kLanes, n - b);
            util::Rng* block = rngs + b;
            double* cur = next.zs.data() + (first + b) * dim;
            double* cur_score = next.scores.data() + first + b;
            for (std::size_t l = 0; l < lanes; ++l) {
              const std::size_t j = parents[block[l].below(m)];
              std::copy_n(gen.zs.data() + j * dim, dim, cur + l * dim);
              cur_score[l] = gen.scores[j];
            }
            util::Rng::normal_fill_lanes(block, kLaneOf.data(), lanes, fill,
                                         noise, lanes);
            for (std::size_t step = 0; step < kMcmcSteps; ++step) {
              const double* z = noise + step * dim * lanes;
              for (std::size_t l = 0; l < lanes; ++l) {
                double* p = prop + l * dim;
                const double* c = cur + l * dim;
                for (std::size_t d = 0; d < dim; ++d) {
                  p[d] = rho * c[d] + beta * z[d * lanes + l];
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
          }
        });
    std::swap(gen, next);
    evals += dN * static_cast<double>(kMcmcSteps);
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
  std::vector<Ranked> ranked(N);
  std::vector<std::size_t> parents(m);
  double prev_level = -std::numeric_limits<double>::infinity();
  for (std::size_t k = 0;; ++k) {
    const std::size_t hits = count_hits(gen.scores, k);
    if (hits >= m) {
      record_level(static_cast<double>(hits) / dN, k == 0);
      est.ess = static_cast<double>(hits);
      break;
    }
    for (std::size_t i = 0; i < N; ++i) ranked[i] = {gen.scores[i], i};
    // (score desc, index asc) is a strict total order on the NaN-free
    // scores, so the top-m set and its order are unique: nth_element puts
    // the m-th entry in place with the m-1 before it ahead of it, and
    // sorting those yields exactly the full sort's first m entries.
    std::nth_element(ranked.begin(), ranked.begin() + (m - 1), ranked.end(),
                     ranks_before);
    std::sort(ranked.begin(), ranked.begin() + (m - 1), ranks_before);
    const double level = ranked[m - 1].score;
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
    for (std::size_t j = 0; j < m; ++j) parents[j] = ranked[j].index;
    resample(parents, level, k + 1);
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
