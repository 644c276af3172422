#include "mram/retention.h"

#include <cmath>
#include <limits>

#include "util/error.h"

namespace mram::mem {

RetentionReport analyze_retention(const MramArray& array, double horizon) {
  MRAM_EXPECTS(horizon > 0.0, "horizon must be positive");

  RetentionReport report;
  report.min_delta = std::numeric_limits<double>::infinity();

  double log_survival = 0.0;
  const double tau0 = array.device().params().attempt_time;
  const double t = array.config().temperature;
  const double scale =
      array.device().params().thermal.stray_field_scale(t);

  for (std::size_t r = 0; r < array.rows(); ++r) {
    for (std::size_t c = 0; c < array.cols(); ++c) {
      const double delta = array.cell_delta(r, c);
      if (delta < report.min_delta) {
        report.min_delta = delta;
        report.worst_row = r;
        report.worst_col = c;
      }
      // Accumulate log-survival over all cells for the array failure
      // probability.
      const auto state = dev::bit_to_state(array.read(r, c));
      const double hz_total = array.stray_field_at(r, c) * scale;
      const double p_flip =
          array.device().flip_probability(state, hz_total, horizon, t);
      log_survival += std::log1p(-std::min(p_flip, 1.0 - 1e-15));
    }
  }
  report.min_retention_time = tau0 * std::exp(report.min_delta);
  report.array_fail_probability = -std::expm1(log_survival);
  return report;
}

double max_scrub_interval(const MramArray& array,
                          double max_fail_probability) {
  MRAM_EXPECTS(max_fail_probability > 0.0 && max_fail_probability < 1.0,
               "failure probability target must be in (0, 1)");
  constexpr double kTenYears = 10.0 * 365.25 * 24.0 * 3600.0;
  if (analyze_retention(array, kTenYears).array_fail_probability <=
      max_fail_probability) {
    return std::numeric_limits<double>::infinity();
  }
  // The failure probability is monotone in the interval; bisect on log time
  // between 1 ns and 10 years.
  double lo = std::log(1e-9);
  double hi = std::log(kTenYears);
  for (int iter = 0; iter < 80; ++iter) {
    const double mid = 0.5 * (lo + hi);
    const double p =
        analyze_retention(array, std::exp(mid)).array_fail_probability;
    if (p > max_fail_probability) {
      hi = mid;
    } else {
      lo = mid;
    }
  }
  return std::exp(lo);
}

RetentionEnsembleResult measure_retention_faults(
    const RetentionEnsembleConfig& config, util::Rng& rng,
    eng::MonteCarloRunner& runner) {
  MRAM_EXPECTS(config.trials > 0, "need at least one trial");
  MRAM_EXPECTS(config.hold > 0.0, "hold must be positive");
  config.array.validate();

  struct Partial {
    std::size_t faulty = 0;
    std::size_t flips = 0;
    util::RunningStats per_hold;

    void merge(const Partial& o) {
      faulty += o.faulty;
      flips += o.flips;
      per_hold.merge(o.per_hold);
    }
  };

  const MramArray prototype(config.array);
  const auto pattern = arr::make_pattern(config.pattern, config.array.rows,
                                         config.array.cols, rng);
  const std::uint64_t seed = rng();

  // Trial-invariant per-cell flip probabilities, hoisted once: brute force
  // draws against this table, the rare-event methods sample from
  // transformed versions of it, and every path reports the closed-form
  // array fault probability it implies.
  std::vector<double> p_flip;
  {
    MramArray probe(prototype);
    probe.load(pattern);
    p_flip = probe.retention_flip_probabilities(config.hold);
  }
  double log_survival = 0.0;
  double expected_flips = 0.0;
  for (double p : p_flip) {
    log_survival += std::log1p(-std::min(p, 1.0 - 1e-15));
    expected_flips += p;
  }
  const double exact_fail = -std::expm1(log_survival);

  if (config.rare.method != eng::RareEventMethod::kBruteForce) {
    eng::RareEventEstimate est;
    if (expected_flips <= 0.0) {
      est.method = config.rare.method;
      est.rel_error = 0.0;  // no cell can flip: the answer is exactly 0
    } else if (config.rare.method ==
               eng::RareEventMethod::kImportanceSampling) {
      // Product-Bernoulli importance sampling: cell i flips with inflated
      // probability q_i = min(1/2, T p_i) instead of p_i, where the
      // T = 1/sum(p_i) makes about one flip per trial expected.
      // The likelihood ratio is exact: log w = sum_i l0_i + sum_flips
      // (l1_i - l0_i) with l0 = log((1-p)/(1-q)), l1 = log(p/q).
      const double temp = 1.0 / expected_flips;
      const std::size_t cells = p_flip.size();
      std::vector<double> q(cells), l0(cells), dl(cells);
      double base0 = 0.0;
      for (std::size_t i = 0; i < cells; ++i) {
        // Clamp like the closed form above: p_flip underflows to exactly 1
        // for hopeless cells, which would make l0/dl infinite.
        const double p = std::min(p_flip[i], 1.0 - 1e-15);
        if (p <= 0.0) {
          q[i] = 0.0;
          l0[i] = 0.0;
          dl[i] = 0.0;
          continue;
        }
        q[i] = std::min(0.5, std::max(p, temp * p));
        l0[i] = std::log1p(-p) - std::log1p(-q[i]);
        dl[i] = (std::log(p) - std::log(q[i])) - l0[i];
        base0 += l0[i];
      }
      est = eng::importance_rounds(
          config.trials, seed, [&](std::uint64_t round_seed) {
            return runner.run<util::WeightedStats>(
                config.trials, round_seed,
                [&](util::Rng& trial_rng, std::size_t,
                    util::WeightedStats& ws) {
                  double logw = base0;
                  bool any = false;
                  for (std::size_t i = 0; i < cells; ++i) {
                    if (q[i] > 0.0 && trial_rng.uniform() < q[i]) {
                      logw += dl[i];
                      any = true;
                    }
                  }
                  if (any) {
                    ws.add(1.0, std::exp(logw));
                  } else {
                    ws.add(0.0, 0.0);
                  }
                });
          });
    } else {
      // Subset simulation on the per-cell latent Gaussians: cell i flips
      // iff z_i < probit(p_i), so the fault score is the worst margin
      // deficit max_i(probit(p_i) - z_i).
      std::vector<double> b(p_flip.size());
      for (std::size_t i = 0; i < p_flip.size(); ++i) {
        b[i] = util::probit(std::min(p_flip[i], 1.0 - 1e-15));
      }
      est = eng::subset_simulation(
          runner, b.size(), config.trials, seed,
          [&b](std::size_t n, const double* zs, double* out) {
            for (std::size_t l = 0; l < n; ++l) {
              const double* z = zs + l * b.size();
              double worst = -std::numeric_limits<double>::infinity();
              for (std::size_t i = 0; i < b.size(); ++i) {
                worst = std::max(worst, b[i] - z[i]);
              }
              out[l] = worst;
            }
          });
    }

    RetentionEnsembleResult result;
    result.trials = static_cast<std::size_t>(est.simulated_trials);
    result.faulty_trials = static_cast<std::size_t>(est.ess + 0.5);
    result.fault_probability = est.probability;
    result.confidence = est.confidence;
    result.mean_flips = expected_flips;  // analytic expectation
    result.exact_fault_probability = exact_fail;
    result.rare = std::move(est);
    return result;
  }

  // Every trial holds the same pattern, so each one only pays the bernoulli
  // draws against the hoisted flip table -- the same draws in the same
  // order as MramArray::retention_hold, so the statistics equal a full hold
  // per trial bit for bit.
  const auto partial = runner.run<Partial>(
      config.trials, seed, [&] { return MramArray(prototype); },
      [&](MramArray& array, util::Rng& trial_rng, std::size_t, Partial& acc) {
        array.load(pattern);
        const std::size_t flips =
            array.apply_retention_flips(p_flip, trial_rng);
        acc.faulty += (flips > 0);
        acc.flips += flips;
        acc.per_hold.add(static_cast<double>(flips));
      });

  RetentionEnsembleResult result;
  result.trials = config.trials;
  result.faulty_trials = partial.faulty;
  result.total_flips = partial.flips;
  result.fault_probability = static_cast<double>(partial.faulty) /
                             static_cast<double>(config.trials);
  result.confidence =
      util::wilson_interval(partial.faulty, config.trials);
  result.mean_flips = partial.per_hold.mean();
  result.exact_fault_probability = exact_fail;
  result.rare = eng::brute_force_estimate(partial.faulty, config.trials);
  return result;
}

}  // namespace mram::mem
