#include "mram/wer.h"

#include <cmath>

#include "util/error.h"

namespace mram::mem {

using dev::SwitchDirection;

namespace {

struct WerPartial {
  std::size_t errors = 0;
  util::RunningStats psucc;

  void merge(const WerPartial& o) {
    errors += o.errors;
    psucc.merge(o.psucc);
  }
};

}  // namespace

WerResult measure_wer(const WerConfig& config, util::Rng& rng,
                      eng::MonteCarloRunner& runner) {
  MRAM_EXPECTS(config.trials > 0, "need at least one trial");
  config.array.validate();
  config.pulse.validate();

  const MramArray prototype(config.array);
  const std::size_t vr = prototype.rows() / 2;
  const std::size_t vc = prototype.cols() / 2;
  const int target_bit = dev::state_to_bit(final_state(config.direction));
  const int initial_bit = dev::state_to_bit(initial_state(config.direction));

  // Build the background once; the victim starts in the initial state. The
  // caller's rng seeds both the (possibly random) background and the master
  // seed of the per-trial streams.
  auto background = arr::make_pattern(config.background, prototype.rows(),
                                      prototype.cols(), rng);
  background.set(vr, vc, initial_bit);
  const std::uint64_t seed = rng();

  // Every trial reloads the same background and fires the same pulse at the
  // same victim, so the expressions MramArray::write evaluates per trial --
  // the stray field of the loaded background at the victim, then the
  // analytic success probability -- are one evaluation per call. No rng
  // draw here, so the caller's stream is the one a per-trial write loop
  // would see.
  const double p = [&] {
    MramArray probe(prototype);
    probe.load(background);
    MRAM_ENSURES(probe.read(vr, vc) != target_bit,
                 "victim must start in the initial state");
    const dev::SwitchDirection dir =
        (target_bit == 0) ? SwitchDirection::kApToP : SwitchDirection::kPToAp;
    return probe.device().write_success_probability(
        dir, config.pulse.voltage, config.pulse.width,
        probe.stray_field_at(vr, vc), config.array.temperature);
  }();

  if (config.rare.method != eng::RareEventMethod::kBruteForce) {
    // A write error is a single analytic Bernoulli with success probability
    // p, recast on a standard-normal latent variable: error <=> z > beta,
    // beta = probit(p). Importance sampling tilts z to the failure boundary
    // (mean shift beta, the most likely failure point) and unbiases with
    // the likelihood ratio; splitting runs subset simulation on the margin
    // deficit z - beta. Either reaches WERs far below 1/trials.
    const double beta = util::probit(p);
    eng::RareEventEstimate est;
    if (!std::isfinite(beta)) {
      // Degenerate operating point: errors certain (p == 0) or impossible.
      est.method = config.rare.method;
      est.probability = (p <= 0.0) ? 1.0 : 0.0;
      est.rel_error = 0.0;
      est.confidence = {est.probability, est.probability};
    } else if (config.rare.method == eng::RareEventMethod::kImportanceSampling) {
      est = eng::importance_rounds(
          config.trials, seed, [&](std::uint64_t round_seed) {
            return runner.run<util::WeightedStats>(
                config.trials, round_seed,
                [beta](util::Rng& trial_rng, std::size_t,
                       util::WeightedStats& ws) {
                  double y;
                  trial_rng.normal_fill_tilted(&y, 1, &beta, 1);
                  if (y > beta) {
                    ws.add(1.0, std::exp(0.5 * beta * beta - beta * y));
                  } else {
                    ws.add(0.0, 0.0);
                  }
                });
          });
    } else {
      est = eng::subset_simulation(
          runner, 1, config.trials, seed,
          [beta](std::size_t n, const double* zs, double* out) {
            for (std::size_t l = 0; l < n; ++l) out[l] = zs[l] - beta;
          });
    }

    WerResult result;
    result.wer = est.probability;
    result.confidence = est.confidence;
    result.errors = static_cast<std::size_t>(est.ess + 0.5);
    result.trials = static_cast<std::size_t>(est.simulated_trials);
    result.mean_success_probability = p;
    result.rare = std::move(est);
    return result;
  }

  // Each trial pays exactly the one bernoulli draw MramArray::write
  // consumes, so the statistics equal a full load/write per trial bit for
  // bit.
  const auto partial = runner.run<WerPartial>(
      config.trials, seed,
      [p](util::Rng& trial_rng, std::size_t, WerPartial& acc) {
        acc.psucc.add(p);
        if (!trial_rng.bernoulli(p)) ++acc.errors;
      });

  WerResult result;
  result.trials = config.trials;
  result.errors = partial.errors;
  result.wer =
      static_cast<double>(result.errors) / static_cast<double>(result.trials);
  result.confidence = util::wilson_interval(result.errors, result.trials);
  result.mean_success_probability = partial.psucc.mean();
  result.rare = eng::brute_force_estimate(result.errors, result.trials);
  return result;
}

}  // namespace mram::mem
