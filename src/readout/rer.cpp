#include "readout/rer.h"

#include <algorithm>
#include <cmath>

#include "dynamics/llg_batch.h"
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
      // One lane-parallel noise_margin call per block of up to kLanes
      // trials of a span; trials fold in trial order, exactly like one
      // trial at a time.
      est = eng::importance_rounds(
          config.trials, seed, config.rare, [&](std::uint64_t round_seed) {
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

namespace {

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
};

/// Runner context of a splitting stage: the kernel plus span-sized buffers
/// of the trials that still have window left (their starts, remaining
/// windows, elapsed times, span positions, streams and results).
struct StageContext {
  explicit StageContext(const dyn::LlgParams& llg) : sim(llg) {}
  dyn::BatchMacrospinSim sim;
  std::vector<num::Vec3> m0;
  std::vector<double> left, base_t;
  std::vector<std::size_t> idx;
  std::vector<util::Rng> comp;
  std::vector<dyn::SwitchResult> sub, res;
};

/// Multilevel splitting on the switching coordinate: trajectories are staged
/// through descending |mz| thresholds; each stage restarts N trajectories
/// from uniformly resampled survivor crossing states (with their elapsed
/// time) and integrates them to the next threshold within the remaining
/// pulse window. The disturb probability is the product of the per-stage
/// conditional crossing fractions. Deterministic across --threads: stage k
/// trial i draws only from Rng::stream(derive_seed(seed, k), i) -- the
/// parent pick first, then the integrator -- and all cross-trial logic runs
/// serially on the chunk-order-merged results. Each runner span runs on the
/// per-trial-durations kernel, each trial consuming exactly the draws a
/// scalar MacrospinSim trial would.
eng::RareEventEstimate disturb_splitting(const ReadDisturbConfig& config,
                                         eng::MonteCarloRunner& runner,
                                         const dyn::LlgParams& llg,
                                         double delta, double mz0,
                                         double duration,
                                         std::uint64_t seed) {
  config.rare.validate();
  const std::size_t N = config.trials;
  MRAM_EXPECTS(N >= eng::kSplittingMinTrials,
               "splitting needs kSplittingMinTrials trajectories per stage");
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

    // Per-trial draw order: stage 0 pays the thermal tilt's two uniforms;
    // later stages pay one below(pool) for the parent pick; then the stream
    // goes to the integrator. A parent that crossed with no window left
    // fails immediately without touching the integrator.
    const StagePartial gen = runner.run_batched<StagePartial>(
        N, stage_seed,
        [&] { return StageContext(llg); },
        [&](StageContext& ctx, util::Rng* rngs, std::size_t first,
            std::size_t n, const auto& acc_of) {
          ctx.res.assign(n, dyn::SwitchResult{});
          ctx.m0.clear();
          ctx.left.clear();
          ctx.base_t.clear();
          ctx.idx.clear();
          ctx.comp.clear();
          for (std::size_t l = 0; l < n; ++l) {
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
              ctx.res[l].time = t0;
              continue;
            }
            ctx.m0.push_back(start);
            ctx.left.push_back(duration - t0);
            ctx.base_t.push_back(t0);
            ctx.comp.push_back(rngs[l]);
            ctx.idx.push_back(l);
          }
          const std::size_t na = ctx.idx.size();
          if (na > 0) {
            ctx.sub.resize(na);
            ctx.sim.run_until_switch(na, ctx.m0.data(), ctx.comp.data(),
                                     ctx.left.data(), config.dt,
                                     ctx.sub.data(), thr);
            for (std::size_t a = 0; a < na; ++a) {
              ctx.sub[a].time += ctx.base_t[a];
              ctx.res[ctx.idx[a]] = ctx.sub[a];
            }
          }
          for (std::size_t l = 0; l < n; ++l) {
            acc_of(first + l).results.push_back(ctx.res[l]);
          }
        });
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
      est = eng::importance_rounds(
          config.trials, seed, config.rare, [&](std::uint64_t round_seed) {
            return runner.run_batched<util::WeightedStats>(
                config.trials, round_seed,
                [&] { return dyn::ThermalLlgSpan(llg); },
                [&](dyn::ThermalLlgSpan& span, util::Rng* rngs,
                    std::size_t first, std::size_t n, const auto& acc_of) {
                  const dyn::SwitchResult* result = span.run(
                      rngs, n, delta, mz0, duration, config.dt, tilt);
                  for (std::size_t l = 0; l < n; ++l) {
                    util::WeightedStats& ws = acc_of(first + l);
                    if (result[l].switched) {
                      ws.add(1.0, std::exp(result[l].log_weight));
                    } else {
                      ws.add(0.0, 0.0);
                    }
                  }
                });
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

  // Each trial draws the thermal tilt (two uniforms), then the stochastic
  // Heun integration; the batched kernel's per-lane arithmetic is the
  // inline stochastic_heun_step MacrospinSim executes, so every lane equals
  // a scalar run_until_switch bit for bit.
  const auto partial = runner.run_batched<DisturbPartial>(
      config.trials, seed,
      [&] { return dyn::ThermalLlgSpan(llg); },
      [&](dyn::ThermalLlgSpan& span, util::Rng* rngs, std::size_t first,
          std::size_t n, const auto& acc_of) {
        const dyn::SwitchResult* result =
            span.run(rngs, n, delta, mz0, duration, config.dt);
        for (std::size_t l = 0; l < n; ++l) {
          if (result[l].switched) {
            DisturbPartial& acc = acc_of(first + l);
            ++acc.disturbed;
            acc.times.add(result[l].time);
          }
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

}  // namespace mram::rdo
