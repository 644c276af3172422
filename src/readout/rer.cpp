#include "readout/rer.h"

#include <algorithm>
#include <cmath>

#include "dynamics/switching_sim.h"
#include "util/error.h"

namespace mram::rdo {

using dev::MtjState;

std::size_t resolve_row(std::size_t row, const BitlineParams& bitline) {
  if (row == kFarRow) return bitline.rows - 1;
  MRAM_EXPECTS(row < bitline.rows, "selected row out of range");
  return row;
}

std::vector<int> make_column_data(arr::PatternKind kind, std::size_t rows,
                                  util::Rng& rng) {
  const arr::DataGrid grid = arr::make_pattern(kind, rows, 1, rng);
  std::vector<int> column(rows);
  for (std::size_t r = 0; r < rows; ++r) column[r] = grid.at(r, 0);
  return column;
}

// --- measure_rer -----------------------------------------------------------

namespace {

struct RerPartial {
  std::size_t decision_errors = 0;
  std::size_t blocked = 0;
  std::size_t disturbs = 0;
  util::RunningStats margin;

  void merge(const RerPartial& o) {
    decision_errors += o.decision_errors;
    blocked += o.blocked;
    disturbs += o.disturbs;
    margin.merge(o.margin);
  }
};

}  // namespace

RerResult measure_rer(const RerConfig& config, util::Rng& rng,
                      eng::MonteCarloRunner& runner) {
  MRAM_EXPECTS(config.trials > 0, "need at least one trial");
  config.path.validate();
  const std::size_t row = resolve_row(config.row, config.path.bitline);

  // Shared setup, exactly once: the column pattern (the caller's rng seeds
  // a random pattern and the master seed, like measure_wer's background)
  // and the model with its nominal operating point.
  const ReadErrorModel model(config.device, config.path);
  const auto column =
      make_column_data(config.column_pattern, config.path.bitline.rows, rng);
  const std::uint64_t seed = rng();
  const auto op = model.operating_point(row, column);

  if (config.rare.method != eng::RareEventMethod::kBruteForce) {
    // A read error (wrong decision or metastable strobe) is the noise
    // margin landing below the metastable band, over the three per-read
    // standard normals z = (TMR, offset, reference). At nominal TMR the
    // margin is linear in (z1, z2), so beta below is the Gaussian distance
    // to the failure boundary in total-sense-sigma units -- the anchor for
    // the importance tilt. The full nonlinear noise_margin (TMR through
    // the electrical solve) is what both drivers actually evaluate.
    const SenseAmpParams& sp = config.path.sense;
    const double band = sp.metastable_band;
    const double sigma = model.sense_amp().total_sigma();
    const double beta = (op.margin - band) / sigma;
    constexpr std::size_t kLanes = eng::MonteCarloRunner::kMaxLaneWidth;
    eng::RareEventEstimate est;
    if (config.rare.method == eng::RareEventMethod::kImportanceSampling) {
      // noise_margin ~ op.margin + s*(sigma_off z1 - sigma_ref z2), s = +1
      // for stored P and -1 for AP; the most likely failure point shifts
      // (z1, z2) by beta along the failure gradient. The TMR deviate z0
      // stays untilted: it enters through the nonlinear electrical solve,
      // and the sense deviates dominate the boundary.
      const double s = config.stored == MtjState::kParallel ? 1.0 : -1.0;
      const double tilt[3] = {0.0, -s * beta * sp.offset_sigma / sigma,
                              s * beta * sp.reference_sigma / sigma};
      const double bias =
          0.5 * (tilt[1] * tilt[1] + tilt[2] * tilt[2]);
      // One lane-parallel noise_margin call per block of up to kLanes
      // trials of a span; trials fold in trial order, exactly like one
      // trial at a time.
      est = eng::importance_rounds(
          config.trials, seed, [&](std::uint64_t round_seed) {
            return runner.run_batched<util::WeightedStats>(
                config.trials, round_seed,
                [&] { return std::vector<double>(4 * kLanes); },
                [&](std::vector<double>& buf, util::Rng* rngs,
                    std::size_t first, std::size_t n, const auto& acc_of) {
                  double* zs = buf.data();
                  double* margins = zs + 3 * kLanes;
                  for (std::size_t b = 0; b < n; b += kLanes) {
                    const std::size_t lanes = std::min(kLanes, n - b);
                    for (std::size_t l = 0; l < lanes; ++l) {
                      rngs[b + l].normal_fill_tilted(zs + 3 * l, 3, tilt, 3);
                    }
                    model.noise_margin(op, config.stored, lanes, zs, margins);
                    for (std::size_t l = 0; l < lanes; ++l) {
                      const double* z = zs + 3 * l;
                      util::WeightedStats& ws = acc_of(first + b + l);
                      if (margins[l] < band) {
                        ws.add(1.0, std::exp(bias - tilt[1] * z[1] -
                                             tilt[2] * z[2]));
                      } else {
                        ws.add(0.0, 0.0);
                      }
                    }
                  }
                });
          });
    } else {
      est = eng::subset_simulation(
          runner, 3, config.trials, seed,
          [&](std::size_t n, const double* zs, double* out) {
            model.noise_margin(op, config.stored, n, zs, out);
            for (std::size_t l = 0; l < n; ++l) out[l] = band - out[l];
          });
    }

    RerResult result;
    result.trials = static_cast<std::size_t>(est.simulated_trials);
    result.read_errors = static_cast<std::size_t>(est.ess + 0.5);
    result.rer = est.probability;
    result.confidence = est.confidence;
    result.mean_margin = op.margin;  // nominal; no sampled margins here
    result.op = op;
    result.rare = std::move(est);
    return result;
  }

  // Every trial reads the same cell on the same column, so the ladder
  // reduction and the reference current are the one operating point above.
  // Each trial then consumes exactly the per-read draw sequence of
  // ReadErrorModel::sample_read, so the statistics equal re-deriving the
  // operating point per trial bit for bit.
  const auto partial = runner.run<RerPartial>(
      config.trials, seed,
      [&](util::Rng& trial_rng, std::size_t, RerPartial& acc) {
        const ReadOutcome read = model.sample_read(
            op, config.stored, config.hz_stray, config.temperature,
            trial_rng);
        acc.decision_errors += read.decision_error;
        acc.blocked += read.blocked;
        acc.disturbs += read.disturbed;
        acc.margin.add(read.margin);
      });

  RerResult result;
  result.trials = config.trials;
  result.decision_errors = partial.decision_errors;
  result.blocked = partial.blocked;
  result.disturbs = partial.disturbs;
  result.read_errors = partial.decision_errors + partial.blocked;
  result.rer = static_cast<double>(result.read_errors) /
               static_cast<double>(result.trials);
  result.disturb_rate = static_cast<double>(result.disturbs) /
                        static_cast<double>(result.trials);
  result.confidence = util::wilson_interval(result.read_errors, result.trials);
  result.mean_margin = partial.margin.mean();
  result.op = op;
  result.rare = eng::brute_force_estimate(result.read_errors, result.trials);
  return result;
}

// --- measure_read_disturb --------------------------------------------------

ReadDisturbResult measure_read_disturb(const ReadDisturbConfig& config,
                                       util::Rng& rng,
                                       eng::MonteCarloRunner& runner) {
  MRAM_EXPECTS(config.trials > 0, "need at least one trial");
  MRAM_EXPECTS(config.dt > 0.0, "LLG step must be positive");
  config.path.validate();
  const std::size_t row = resolve_row(config.row, config.path.bitline);
  const double duration =
      config.duration > 0.0 ? config.duration : config.path.t_read;

  const ReadErrorModel model(config.device, config.path);
  const auto column =
      make_column_data(config.column_pattern, config.path.bitline.rows, rng);
  const auto op = model.operating_point(row, column);
  const bool parallel = config.stored == MtjState::kParallel;
  const double i_read = parallel ? op.i_p : op.i_ap;
  const double v_mtj = parallel ? op.v_p : op.v_ap;

  // The read polarity always drives toward P, whatever the stored state:
  // the current magnitude comes from the bitline operating point.
  const auto llg = dyn::llg_from_device_current(
      model.device(), i_read, config.hz_stray, config.temperature);
  const double delta =
      model.device().delta(config.stored, config.hz_stray, config.temperature);
  const double mz0 = dev::state_direction(config.stored);

  const std::uint64_t seed = rng();
  const dyn::ThermalLlgTally tally = dyn::run_thermal_llg(
      runner, llg, config.trials, seed, delta, mz0, duration, config.dt);

  ReadDisturbResult result;
  result.trials = config.trials;
  result.disturbed = tally.switched;
  result.rate = static_cast<double>(result.disturbed) /
                static_cast<double>(result.trials);
  result.confidence = util::wilson_interval(result.disturbed, result.trials);
  if (tally.switched > 0) result.mean_switch_time = tally.times.mean();
  result.analytic_probability = model.disturb_probability(
      config.stored, i_read, duration, config.hz_stray, config.temperature);
  result.i_read = i_read;
  result.v_mtj = v_mtj;
  return result;
}

}  // namespace mram::rdo
