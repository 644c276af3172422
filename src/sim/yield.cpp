#include "sim/yield.h"

#include <cmath>

#include "util/error.h"

namespace mram::sim {

void YieldSpec::validate() const {
  if (write_voltage <= 0.0) {
    throw util::ConfigError("write voltage must be positive");
  }
  if (max_switching_time <= 0.0) {
    throw util::ConfigError("switching-time spec must be positive");
  }
  if (min_delta <= 0.0) {
    throw util::ConfigError("Delta spec must be positive");
  }
  if (temperature <= 0.0) {
    throw util::ConfigError("temperature must be positive");
  }
}

namespace {

struct YieldPartial {
  std::size_t pass_write = 0;
  std::size_t pass_retention = 0;
  std::size_t pass_both = 0;

  void merge(const YieldPartial& o) {
    pass_write += o.pass_write;
    pass_retention += o.pass_retention;
    pass_both += o.pass_both;
  }
};

}  // namespace

YieldResult estimate_yield(const dev::MtjParams& nominal,
                           const VariationModel& variation, double pitch,
                           const YieldSpec& spec, std::size_t samples,
                           util::Rng& rng, eng::MonteCarloRunner& runner) {
  MRAM_EXPECTS(samples > 0, "need at least one sample");
  spec.validate();

  // Each sample builds its own device and coupling solver (the fields scale
  // with the sampled geometry), which makes the trial expensive -- exactly
  // the shape the parallel runner is for.
  const std::uint64_t seed = rng();
  const auto partial = runner.run<YieldPartial>(
      samples, seed,
      [&](util::Rng& trial_rng, std::size_t, YieldPartial& acc) {
        const auto params = variation.sample(nominal, trial_rng);
        if (pitch < params.stack.ecd) {
          // An oversized sample does not fit the pitch: counts as a fail.
          return;
        }
        const dev::MtjDevice device(params);
        const arr::InterCellSolver coupling(params.stack, pitch);
        const double h_worst = device.intra_stray_field() +
                               coupling.field_for(arr::Np8::all_parallel());

        const double tw = device.switching_time(dev::SwitchDirection::kApToP,
                                                spec.write_voltage, h_worst);
        const bool write_ok =
            std::isfinite(tw) && tw <= spec.max_switching_time;

        const double delta = device.delta(dev::MtjState::kParallel, h_worst,
                                          spec.temperature);
        const bool retention_ok = delta >= spec.min_delta;

        acc.pass_write += write_ok;
        acc.pass_retention += retention_ok;
        acc.pass_both += (write_ok && retention_ok);
      });

  YieldResult result;
  result.sampled = samples;
  result.pass_write = partial.pass_write;
  result.pass_retention = partial.pass_retention;
  result.pass_both = partial.pass_both;
  result.yield = static_cast<double>(result.pass_both) /
                 static_cast<double>(result.sampled);
  return result;
}

}  // namespace mram::sim
