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

void fold_read(const ReadOutcome& outcome, RerPartial& acc) {
  acc.decision_errors += outcome.decision_error;
  acc.blocked += outcome.blocked;
  acc.disturbs += outcome.disturbed;
  acc.margin.add(outcome.margin);
}

}  // namespace

RerResult measure_rer(const RerConfig& config, util::Rng& rng) {
  eng::MonteCarloRunner runner(config.runner);
  return measure_rer(config, rng, runner);
}

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
      const double theta = (config.rare.tilt != 0.0) ? config.rare.tilt : beta;
      const double s = config.stored == MtjState::kParallel ? 1.0 : -1.0;
      const double tilt[3] = {0.0, -s * theta * sp.offset_sigma / sigma,
                              s * theta * sp.reference_sigma / sigma};
      const double bias =
          0.5 * (tilt[1] * tilt[1] + tilt[2] * tilt[2]);
      // One lane-parallel noise_margin call per lane block; lanes fold in
      // trial order, exactly like one trial at a time.
      est = eng::importance_rounds_batched(
          runner, config.trials, kLanes, seed, config.rare,
          [] { return std::vector<double>(4 * kLanes); },
          [&](std::vector<double>& buf, util::Rng* rngs, std::size_t,
              std::size_t lanes, util::WeightedStats& ws) {
            double* zs = buf.data();
            double* margins = zs + 3 * kLanes;
            for (std::size_t l = 0; l < lanes; ++l) {
              rngs[l].normal_fill_tilted(zs + 3 * l, 3, tilt, 3);
            }
            model.noise_margin(op, config.stored, lanes, zs, margins);
            for (std::size_t l = 0; l < lanes; ++l) {
              const double* z = zs + 3 * l;
              if (margins[l] < band) {
                ws.add(1.0, std::exp(bias - tilt[1] * z[1] - tilt[2] * z[2]));
              } else {
                ws.add(0.0, 0.0);
              }
            }
          });
    } else {
      est = eng::subset_simulation(
          runner, 3, config.trials, seed, config.rare,
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

  // The batched path hoists the trial-invariant electrical solve: every
  // trial reads the same cell on the same column, so the ladder reduction
  // and the reference current are one evaluation per run. Each lane then
  // consumes exactly the per-read draw sequence of ReadErrorModel::
  // sample_read -- the same draws the scalar reference path consumes -- and
  // folding lanes in trial order keeps the accumulation order, so every
  // statistic is bit-identical to batch_lanes == 0 (which still re-derives
  // the operating point per trial, exercising the full pipeline).
  const auto partial =
      (config.batch_lanes > 0)
          ? runner.run_batched<RerPartial>(
                config.trials, seed, config.batch_lanes,
                [&](util::Rng* rngs, std::size_t, std::size_t lanes,
                    RerPartial& acc) {
                  for (std::size_t l = 0; l < lanes; ++l) {
                    fold_read(model.sample_read(op, config.stored,
                                                config.hz_stray,
                                                config.temperature, rngs[l]),
                              acc);
                  }
                })
          : runner.run<RerPartial>(
                config.trials, seed,
                [&](util::Rng& trial_rng, std::size_t, RerPartial& acc) {
                  const auto trial_op = model.operating_point(row, column);
                  fold_read(model.sample_read(trial_op, config.stored,
                                              config.hz_stray,
                                              config.temperature, trial_rng),
                            acc);
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

namespace {

constexpr std::size_t kMaxLanes = 64;

struct DisturbPartial {
  std::size_t disturbed = 0;
  util::RunningStats times;

  void merge(const DisturbPartial& o) {
    disturbed += o.disturbed;
    times.merge(o.times);
  }
};

/// One splitting stage's trajectory results, concatenated in trial order by
/// the runner's chunk-ordered merge.
struct StagePartial {
  std::vector<dyn::SwitchResult> results;
  void merge(const StagePartial& o) {
    results.insert(results.end(), o.results.begin(), o.results.end());
  }
  template <class Ar>
  void serialize(Ar& ar) {
    ar(results);
  }
};

/// Multilevel splitting on the switching coordinate: trajectories are staged
/// through descending |mz| thresholds; each stage restarts N trajectories
/// from uniformly resampled survivor crossing states (with their elapsed
/// time) and integrates them to the next threshold within the remaining
/// pulse window. The disturb probability is the product of the per-stage
/// conditional crossing fractions. Deterministic across --threads: stage k
/// trial i draws only from Rng::stream(derive_seed(seed, k), i) -- the
/// parent pick first, then the integrator -- and all cross-trial logic runs
/// serially on the chunk-order-merged results; the batched shape consumes
/// the identical per-trial draws through the per-lane-durations kernel.
eng::RareEventEstimate disturb_splitting(const ReadDisturbConfig& config,
                                         eng::MonteCarloRunner& runner,
                                         const dyn::LlgParams& llg,
                                         double delta, double mz0,
                                         double duration,
                                         std::uint64_t seed) {
  config.rare.validate();
  const std::size_t N = config.trials;
  MRAM_EXPECTS(N >= 4, "splitting needs >= 4 trajectories per stage");
  const double dN = static_cast<double>(N);

  // Stage schedule: descending |mz| thresholds ending at the mz = 0
  // crossing (the disturb event itself). The auto schedule spaces levels
  // evenly in the energy coordinate 1 - mz^2 (the macrospin barrier is
  // ~ Delta * (1 - mz^2)), aiming at a conditional probability of about
  // level_p0 per stage: crossing costs ~ln(1/p0) of barrier each.
  std::vector<double> xs;
  if (!config.rare.levels.empty()) {
    xs = config.rare.levels;
    for (std::size_t j = 0; j < xs.size(); ++j) {
      MRAM_EXPECTS(xs[j] >= 0.0 && xs[j] < 1.0,
                   "|mz| levels must be in [0, 1)");
      MRAM_EXPECTS(j == 0 || xs[j] < xs[j - 1], "|mz| levels must descend");
    }
    if (xs.back() != 0.0) xs.push_back(0.0);
  } else {
    const double lp = std::log(1.0 / config.rare.level_p0);
    std::size_t n = static_cast<std::size_t>(std::ceil(delta / lp));
    n = std::min(std::max<std::size_t>(n, 1), config.rare.max_levels);
    const double spacing = std::max(lp / delta, 1.0 / static_cast<double>(n));
    for (std::size_t j = 1; j <= n; ++j) {
      const double e = 1.0 - static_cast<double>(j) * spacing;
      xs.push_back(e > 0.0 ? std::sqrt(e) : 0.0);
    }
    xs.back() = 0.0;
  }

  eng::RareEventEstimate est;
  est.method = eng::RareEventMethod::kSplitting;

  // Survivor pool of the previous stage: crossing states and elapsed times.
  std::vector<num::Vec3> pool_m;
  std::vector<double> pool_t;

  double log_p = 0.0;
  double delta2 = 0.0;
  double simulated = 0.0;
  bool dead = false;

  for (std::size_t k = 0; k < xs.size(); ++k) {
    const double thr = mz0 * xs[k];
    const std::uint64_t stage_seed = eng::derive_seed(seed, k);
    const std::size_t pool = pool_m.size();

    // Per-trial draw order, both shapes: stage 0 pays the thermal tilt's
    // two uniforms; later stages pay one below(pool) for the parent pick;
    // then the stream goes to the integrator. A parent that crossed with
    // no window left fails immediately without touching the integrator.
    StagePartial gen;
    if (config.batch_lanes > 0) {
      gen = runner.run_batched<StagePartial>(
          N, stage_seed, config.batch_lanes,
          [&] { return dyn::BatchMacrospinSim(llg); },
          [&](dyn::BatchMacrospinSim& batch, util::Rng* rngs, std::size_t,
              std::size_t lanes, StagePartial& acc) {
            num::Vec3 m0[kMaxLanes];
            double left[kMaxLanes];
            double base_t[kMaxLanes];
            std::size_t idx[kMaxLanes];
            util::Rng comp[kMaxLanes];
            dyn::SwitchResult res[kMaxLanes];
            std::size_t na = 0;
            for (std::size_t l = 0; l < lanes; ++l) {
              double t0 = 0.0;
              num::Vec3 start;
              if (k == 0) {
                start = dyn::thermal_initial_tilt(rngs[l], delta, mz0);
              } else {
                const std::size_t j = rngs[l].below(pool);
                start = pool_m[j];
                t0 = pool_t[j];
              }
              if (duration - t0 <= 0.0) {
                res[l].time = t0;
                continue;
              }
              m0[na] = start;
              left[na] = duration - t0;
              base_t[na] = t0;
              comp[na] = rngs[l];
              idx[na] = l;
              ++na;
            }
            if (na > 0) {
              dyn::SwitchResult sub[kMaxLanes];
              batch.run_until_switch(na, m0, comp, left, config.dt, sub,
                                     thr);
              for (std::size_t a = 0; a < na; ++a) {
                sub[a].time += base_t[a];
                res[idx[a]] = sub[a];
              }
            }
            for (std::size_t l = 0; l < lanes; ++l) {
              acc.results.push_back(res[l]);
            }
          });
    } else {
      gen = runner.run<StagePartial>(
          N, stage_seed, [&] { return dyn::MacrospinSim(llg); },
          [&](dyn::MacrospinSim& sim, util::Rng& trial_rng, std::size_t,
              StagePartial& acc) {
            double t0 = 0.0;
            num::Vec3 start;
            if (k == 0) {
              start = dyn::thermal_initial_tilt(trial_rng, delta, mz0);
            } else {
              const std::size_t j = trial_rng.below(pool);
              start = pool_m[j];
              t0 = pool_t[j];
            }
            dyn::SwitchResult r{};
            if (duration - t0 > 0.0) {
              r = sim.run_until_switch(start, duration - t0, config.dt,
                                       trial_rng, thr);
              r.time += t0;
            } else {
              r.time = t0;
            }
            acc.results.push_back(r);
          });
    }
    simulated += dN;

    std::vector<num::Vec3> next_m;
    std::vector<double> next_t;
    for (const auto& r : gen.results) {
      if (r.switched) {
        next_m.push_back(r.m_end);
        next_t.push_back(r.time);
      }
    }
    if (next_m.empty()) {
      dead = true;
      break;
    }
    const double phat = static_cast<double>(next_m.size()) / dN;
    log_p += std::log(phat);
    // Stage 0 trials are independent (g = 1); resampled stages are
    // correlated through shared parents, inflated by g = 3 like the
    // subset-simulation driver (a documented, conservative approximation).
    delta2 += (k == 0 ? 1.0 : 3.0) * (1.0 - phat) / (dN * phat);
    est.level_probabilities.push_back(phat);
    est.ess = static_cast<double>(next_m.size());
    pool_m = std::move(next_m);
    pool_t = std::move(next_t);
  }

  est.simulated_trials = simulated;
  if (dead) {
    // Nothing crossed this stage: report zero with a rule-of-three style
    // upper bound conditional on the stages that did resolve.
    est.probability = 0.0;
    est.ess = 0.0;
    est.confidence = {0.0, std::exp(log_p) * 3.0 / dN};
    return est;
  }
  est.probability = std::exp(log_p);
  est.rel_error = std::sqrt(delta2);
  est.confidence = {
      std::max(0.0, est.probability * (1.0 - 1.96 * est.rel_error)),
      est.probability * (1.0 + 1.96 * est.rel_error)};
  est.effective_trials = eng::brute_equivalent_trials(
      est.probability, est.rel_error, simulated);
  return est;
}

}  // namespace

ReadDisturbResult measure_read_disturb(const ReadDisturbConfig& config,
                                       util::Rng& rng) {
  eng::MonteCarloRunner runner(config.runner);
  return measure_read_disturb(config, rng, runner);
}

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
  MRAM_EXPECTS(config.batch_lanes <= kMaxLanes,
               "read-disturb lane width capped at 64");

  if (config.rare.method != eng::RareEventMethod::kBruteForce) {
    eng::RareEventEstimate est;
    if (config.rare.method == eng::RareEventMethod::kImportanceSampling) {
      // Constant mean shift of the standard-normal thermal deviates along
      // the switching direction (-z for a +z stored state); the tilted
      // Heun kernels accumulate the exact pathwise likelihood ratio per
      // trajectory. Good for moderately rare disturbs; a constant drift is
      // a weak proxy deep in the diffusive regime -- use splitting there.
      const double theta = (config.rare.tilt != 0.0) ? config.rare.tilt : 1.0;
      const num::Vec3 tilt{0.0, 0.0, -theta * mz0};
      const auto fold = [](const dyn::SwitchResult& r,
                           util::WeightedStats& ws) {
        if (r.switched) {
          ws.add(1.0, std::exp(r.log_weight));
        } else {
          ws.add(0.0, 0.0);
        }
      };
      est =
          (config.batch_lanes > 0)
              ? eng::importance_rounds_batched(
                    runner, config.trials, config.batch_lanes, seed,
                    config.rare, [&] { return dyn::BatchMacrospinSim(llg); },
                    [&](dyn::BatchMacrospinSim& batch, util::Rng* rngs,
                        std::size_t, std::size_t lanes,
                        util::WeightedStats& ws) {
                      num::Vec3 m0[kMaxLanes];
                      dyn::SwitchResult result[kMaxLanes];
                      for (std::size_t l = 0; l < lanes; ++l) {
                        m0[l] =
                            dyn::thermal_initial_tilt(rngs[l], delta, mz0);
                      }
                      batch.run_until_switch(lanes, m0, rngs, duration,
                                             config.dt, result, 0.0, tilt);
                      for (std::size_t l = 0; l < lanes; ++l) {
                        fold(result[l], ws);
                      }
                    })
              : eng::importance_rounds(
                    runner, config.trials, seed, config.rare,
                    [&](util::Rng& trial_rng, std::size_t,
                        util::WeightedStats& ws) {
                      const dyn::MacrospinSim sim(llg);
                      const num::Vec3 m0 =
                          dyn::thermal_initial_tilt(trial_rng, delta, mz0);
                      fold(sim.run_until_switch(m0, duration, config.dt,
                                                trial_rng, 0.0, tilt),
                           ws);
                    });
    } else {
      est = disturb_splitting(config, runner, llg, delta, mz0, duration,
                              seed);
    }

    ReadDisturbResult result;
    result.trials = static_cast<std::size_t>(est.simulated_trials);
    result.disturbed = static_cast<std::size_t>(est.ess + 0.5);
    result.rate = est.probability;
    result.confidence = est.confidence;
    result.analytic_probability = model.disturb_probability(
        config.stored, i_read, duration, config.hz_stray,
        config.temperature);
    result.i_read = i_read;
    result.v_mtj = v_mtj;
    result.rare = std::move(est);
    return result;
  }

  // Identical trial bodies: thermal tilt (two uniforms) then the stochastic
  // Heun integration. The batched kernel's per-lane arithmetic is the same
  // inline stochastic_heun_step the scalar MacrospinSim executes, so the
  // two paths are bitwise identical for the same (seed, trials).
  const auto partial =
      (config.batch_lanes > 0)
          ? runner.run_batched<DisturbPartial>(
                config.trials, seed, config.batch_lanes,
                [&] { return dyn::BatchMacrospinSim(llg); },
                [&](dyn::BatchMacrospinSim& batch, util::Rng* rngs,
                    std::size_t, std::size_t lanes, DisturbPartial& acc) {
                  num::Vec3 m0[kMaxLanes];
                  dyn::SwitchResult result[kMaxLanes];
                  for (std::size_t l = 0; l < lanes; ++l) {
                    m0[l] = dyn::thermal_initial_tilt(rngs[l], delta, mz0);
                  }
                  batch.run_until_switch(lanes, m0, rngs, duration, config.dt,
                                         result);
                  for (std::size_t l = 0; l < lanes; ++l) {
                    if (result[l].switched) {
                      ++acc.disturbed;
                      acc.times.add(result[l].time);
                    }
                  }
                })
          : runner.run<DisturbPartial>(
                config.trials, seed,
                [&] { return dyn::MacrospinSim(llg); },
                [&](dyn::MacrospinSim& sim, util::Rng& trial_rng, std::size_t,
                    DisturbPartial& acc) {
                  const num::Vec3 m0 =
                      dyn::thermal_initial_tilt(trial_rng, delta, mz0);
                  const auto result =
                      sim.run_until_switch(m0, duration, config.dt, trial_rng);
                  if (result.switched) {
                    ++acc.disturbed;
                    acc.times.add(result.time);
                  }
                });

  ReadDisturbResult result;
  result.trials = config.trials;
  result.disturbed = partial.disturbed;
  result.rate = static_cast<double>(result.disturbed) /
                static_cast<double>(result.trials);
  result.confidence = util::wilson_interval(result.disturbed, result.trials);
  if (partial.disturbed > 0) result.mean_switch_time = partial.times.mean();
  result.analytic_probability = model.disturb_probability(
      config.stored, i_read, duration, config.hz_stray, config.temperature);
  result.i_read = i_read;
  result.v_mtj = v_mtj;
  result.rare = eng::brute_force_estimate(result.disturbed, result.trials);
  return result;
}

// --- read_yield ------------------------------------------------------------

void ReadYieldSpec::validate() const {
  if (min_margin_sigma <= 0.0) {
    throw util::ConfigError("margin spec must be positive");
  }
  if (max_disturb <= 0.0 || max_disturb >= 1.0) {
    throw util::ConfigError("disturb budget must be in (0, 1)");
  }
  if (temperature <= 0.0) {
    throw util::ConfigError("temperature must be positive");
  }
}

namespace {

struct YieldPartial {
  std::size_t pass_margin = 0;
  std::size_t pass_disturb = 0;
  std::size_t pass_both = 0;

  void merge(const YieldPartial& o) {
    pass_margin += o.pass_margin;
    pass_disturb += o.pass_disturb;
    pass_both += o.pass_both;
  }
};

}  // namespace

ReadYieldResult read_yield(const ReadYieldConfig& config, util::Rng& rng) {
  eng::MonteCarloRunner runner(config.runner);
  return read_yield(config, rng, runner);
}

ReadYieldResult read_yield(const ReadYieldConfig& config, util::Rng& rng,
                           eng::MonteCarloRunner& runner) {
  MRAM_EXPECTS(config.samples > 0, "need at least one sample");
  config.path.validate();
  config.spec.validate();
  config.variation.validate();

  const auto column = make_column_data(config.column_pattern,
                                       config.path.bitline.rows, rng);
  const std::size_t far_row = config.path.bitline.rows - 1;
  const std::uint64_t seed = rng();

  // One sampled device per trial: draw the varied parameters, rebuild its
  // read path (its own resistances, intra field and margins) and check the
  // specs at the far row. The batched path runs the identical body lane by
  // lane in trial order, so batch_lanes only changes the scheduling shape,
  // never a draw or a comparison -- bit-identical to the scalar path.
  auto sample_one = [&](util::Rng& trial_rng, YieldPartial& acc) {
    const auto varied = config.variation.sample(config.nominal, trial_rng);
    const ReadErrorModel model(varied, config.path);
    const auto op = model.operating_point(far_row, column);
    const double hz = model.device().intra_stray_field();
    const double t = config.spec.temperature;

    const bool margin_ok =
        op.margin >= config.spec.min_margin_sigma *
                         model.sense_amp().total_sigma();
    const double p_disturb = model.disturb_probability(
        MtjState::kAntiParallel, op.i_ap, config.path.t_read, hz, t);
    const bool disturb_ok = p_disturb <= config.spec.max_disturb;

    acc.pass_margin += margin_ok;
    acc.pass_disturb += disturb_ok;
    acc.pass_both += margin_ok && disturb_ok;
  };

  const auto partial =
      (config.batch_lanes > 0)
          ? runner.run_batched<YieldPartial>(
                config.samples, seed, config.batch_lanes,
                [&](util::Rng* rngs, std::size_t, std::size_t lanes,
                    YieldPartial& acc) {
                  for (std::size_t l = 0; l < lanes; ++l) {
                    sample_one(rngs[l], acc);
                  }
                })
          : runner.run<YieldPartial>(
                config.samples, seed,
                [&](util::Rng& trial_rng, std::size_t, YieldPartial& acc) {
                  sample_one(trial_rng, acc);
                });

  ReadYieldResult result;
  result.sampled = config.samples;
  result.pass_margin = partial.pass_margin;
  result.pass_disturb = partial.pass_disturb;
  result.pass_both = partial.pass_both;
  result.yield = static_cast<double>(result.pass_both) /
                 static_cast<double>(result.sampled);
  return result;
}

}  // namespace mram::rdo
