#include "mram/wvw.h"

#include "util/error.h"
#include "util/stats.h"

namespace mram::mem {

void WvwConfig::validate() const {
  pulse.validate();
  if (max_attempts == 0) {
    throw util::ConfigError("WVW needs at least one attempt");
  }
}

WvwResult write_verify_write(MramArray& array, std::size_t r, std::size_t c,
                             int bit, const WvwConfig& config,
                             util::Rng& rng) {
  config.validate();

  WvwResult result;
  if (array.read(r, c) == bit) {
    // Verify-first: WVW skips the pulse entirely when the data already
    // matches (this is where the scheme saves energy on real workloads).
    result.success = true;
    result.latency = kVerifyReadTime;
    return result;
  }

  const dev::MtjState drive_state = dev::bit_to_state(1 - bit);
  for (std::size_t attempt = 0; attempt < config.max_attempts; ++attempt) {
    const auto wr = array.write(r, c, bit, config.pulse, rng);
    ++result.attempts;
    // Energy of this pulse through the initial-state resistance. After a
    // successful switch mid-pulse the resistance changes; charging the full
    // pulse at the drive state's resistance is the pessimistic bound.
    const double resistance = array.device().electrical().resistance(
        drive_state, config.pulse.voltage);
    result.energy +=
        config.pulse.voltage * config.pulse.voltage / resistance *
        config.pulse.width;
    result.latency += config.pulse.width + kVerifyReadTime;
    if (wr.success) {
      result.success = true;
      return result;
    }
  }
  return result;
}

namespace {

struct WvwPartial {
  std::size_t single_errors = 0;
  std::size_t wvw_errors = 0;
  util::RunningStats attempts, latency, energy;

  void merge(const WvwPartial& o) {
    single_errors += o.single_errors;
    wvw_errors += o.wvw_errors;
    attempts.merge(o.attempts);
    latency.merge(o.latency);
    energy.merge(o.energy);
  }
};

}  // namespace

SchemeComparison measure_wvw(const WvwEnsembleConfig& config, util::Rng& rng,
                             eng::MonteCarloRunner& runner) {
  MRAM_EXPECTS(config.trials > 0, "need at least one trial");
  config.wvw.validate();
  config.array.validate();

  const MramArray prototype(config.array);
  const std::size_t vr = prototype.rows() / 2;
  const std::size_t vc = prototype.cols() / 2;

  // Worst case background: all P, victim AP, target P (AP->P with NP8 = 0).
  arr::DataGrid background(prototype.rows(), prototype.cols(), 0);
  background.set(vr, vc, 1);

  const std::uint64_t seed = rng();
  const auto partial = runner.run<WvwPartial>(
      config.trials, seed, [&] { return MramArray(prototype); },
      [&](MramArray& array, util::Rng& trial_rng, std::size_t,
          WvwPartial& acc) {
        array.load(background);
        if (!array.write(vr, vc, 0, config.wvw.pulse, trial_rng).success) {
          ++acc.single_errors;
        }
        array.load(background);
        const auto wvw =
            write_verify_write(array, vr, vc, 0, config.wvw, trial_rng);
        if (!wvw.success) ++acc.wvw_errors;
        acc.attempts.add(static_cast<double>(wvw.attempts));
        acc.latency.add(wvw.latency);
        acc.energy.add(wvw.energy);
      });

  SchemeComparison cmp;
  const double single_resistance = prototype.device().electrical().resistance(
      dev::MtjState::kAntiParallel, config.wvw.pulse.voltage);
  cmp.single_energy = config.wvw.pulse.voltage * config.wvw.pulse.voltage /
                      single_resistance * config.wvw.pulse.width;
  const double n = static_cast<double>(config.trials);
  cmp.single_pulse_wer = static_cast<double>(partial.single_errors) / n;
  cmp.wvw_wer = static_cast<double>(partial.wvw_errors) / n;
  cmp.wvw_mean_attempts = partial.attempts.mean();
  cmp.wvw_mean_latency = partial.latency.mean();
  cmp.wvw_mean_energy = partial.energy.mean();
  return cmp;
}

}  // namespace mram::mem
