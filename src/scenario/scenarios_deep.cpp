// Deep-rate scenarios: the rare-event drivers (engine/rare_event.h) pushed
// to production-relevant error rates (1e-12 and below), plus the overlap
// validation study that runs brute force, importance sampling and
// multilevel splitting on the same operating points where all three can
// measure. Every estimate runs through the shared MonteCarloRunner and the
// drivers' deterministic round/level seeding, so all tables are
// bit-identical across --threads for a fixed seed.

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "engine/rare_event.h"
#include "mram/retention.h"
#include "mram/wer.h"
#include "readout/rer.h"
#include "scenario/builtin.h"
#include "scenario/sweep.h"
#include "util/table.h"
#include "util/units.h"

namespace mram::scn {

namespace {

using dev::SwitchDirection;
using eng::RareEventMethod;
using util::s_to_ns;

/// Scientific-notation cell: deep rates span 15+ decades, so the fixed
/// precision of Cell(double) would render them all as 0.0000.
Cell sci(double v, int precision = 3) {
  Cell c(util::format_scientific(v, precision));
  c.value = v;
  c.numeric = true;
  return c;
}

/// Tracks the headline estimator quality for the run-summary columns.
struct SummaryQuality {
  double effective_trials = 0.0;
  double rel_error = -1.0;

  void offer(const eng::RareEventEstimate& est) {
    if (est.effective_trials > effective_trials &&
        std::isfinite(est.rel_error)) {
      effective_trials = est.effective_trials;
      rel_error = est.rel_error;
    }
  }
  void apply(ResultSet& out) const {
    out.effective_trials = effective_trials;
    out.rel_error = rel_error;
  }
};

// --- deep WER --------------------------------------------------------------

ResultSet run_wer_deep(ScenarioContext& ctx) {
  ResultSet out;
  SweepDriver driver(ctx.runner, ctx.seed);

  mem::WerConfig cfg;
  cfg.array.device = dev::MtjParams::reference_device(35e-9);
  cfg.array.pitch = 1.5 * 35e-9;
  cfg.array.rows = cfg.array.cols = 5;
  cfg.pulse.voltage = 0.9;
  cfg.direction = SwitchDirection::kApToP;
  cfg.trials = ctx.scaled_trials(1500, eng::kSplittingMinTrials);

  const dev::MtjDevice device(cfg.array.device);
  const double tw = device.switching_time(
      SwitchDirection::kApToP, cfg.pulse.voltage, device.intra_stray_field());

  SummaryQuality quality;
  const Grid grid(
      GridAxis::list("width_frac", {1.6, 2.4, 3.2, 4.2, 5.2}));
  out.tables.push_back(driver.sweep(
      "wer_deep_vs_width",
      "accelerated WER at Vp = 0.9 V, all-0 background (tw_intra = " +
          util::format_double(s_to_ns(tw), 2) + " ns)",
      {"pulse (ns)", "analytic WER", "IS WER", "95% lo", "95% hi",
       "rel err", "split WER", "simulated", "eff. trials"},
      grid, [&](const SweepPoint& pt) -> std::vector<Cell> {
        auto c = cfg;
        c.pulse.width = pt.at.x * tw;
        c.rare.method = RareEventMethod::kImportanceSampling;
        util::Rng rng_is = pt.rng();
        const auto is = mem::measure_wer(c, rng_is, pt.runner);
        c.rare.method = RareEventMethod::kSplitting;
        util::Rng rng_sp = pt.rng();
        const auto sp = mem::measure_wer(c, rng_sp, pt.runner);
        quality.offer(is.rare);
        quality.offer(sp.rare);
        return {Cell(s_to_ns(c.pulse.width), 2),
                sci(1.0 - is.mean_success_probability),
                sci(is.wer),
                sci(is.rare.confidence.lo),
                sci(is.rare.confidence.hi),
                Cell(is.rare.rel_error, 3),
                sci(sp.wer),
                sci(is.rare.simulated_trials + sp.rare.simulated_trials),
                sci(std::max(is.rare.effective_trials,
                             sp.rare.effective_trials))};
      }));
  quality.apply(out);

  out.notes.push_back(
      "Both drivers track the analytic WER 1 - p across ~15 decades with\n"
      "a few thousand simulated trials per point -- brute force would need\n"
      "~1e14 trials for one hit at the widest pulse. The importance tilt\n"
      "sits at the analytic failure boundary beta = probit(p); splitting\n"
      "runs subset simulation on the latent margin deficit.");
  return out;
}

// --- deep retention --------------------------------------------------------

ResultSet run_retention_deep(ScenarioContext& ctx) {
  ResultSet out;
  SweepDriver driver(ctx.runner, ctx.seed);

  // Retention-fault probability of a hot 4x4 array over a 1 s scrub
  // interval, swept over the device's thermal stability: the engineering
  // question "how strong must the barrier be for a deep retention spec",
  // with the closed form 1 - prod(1 - p_i) dropping from brute-measurable
  // to below 1e-12 across the grid.
  mem::RetentionEnsembleConfig cfg;
  cfg.array.device = dev::MtjParams::reference_device(35e-9);
  cfg.array.pitch = 1.5 * 35e-9;
  cfg.array.rows = cfg.array.cols = 4;
  cfg.array.temperature = 380.0;
  cfg.pattern = arr::PatternKind::kAllZero;
  cfg.hold = 1.0;
  cfg.trials = ctx.scaled_trials(1200, eng::kSplittingMinTrials);

  SummaryQuality quality;
  const Grid grid(
      GridAxis::list("delta0", {40.0, 52.0, 64.0, 76.0, 88.0}));
  out.tables.push_back(driver.sweep(
      "retention_deep_vs_delta",
      "accelerated retention-fault probability over 1 s at 380 K, all-0",
      {"delta0", "exact", "IS estimate", "95% lo", "95% hi", "rel err",
       "split estimate", "simulated", "eff. trials"},
      grid, [&](const SweepPoint& pt) -> std::vector<Cell> {
        auto c = cfg;
        c.array.device.delta0 = pt.at.x;
        c.rare.method = RareEventMethod::kImportanceSampling;
        util::Rng rng_is = pt.rng();
        const auto is = mem::measure_retention_faults(c, rng_is, pt.runner);
        c.rare.method = RareEventMethod::kSplitting;
        util::Rng rng_sp = pt.rng();
        const auto sp = mem::measure_retention_faults(c, rng_sp, pt.runner);
        quality.offer(is.rare);
        quality.offer(sp.rare);
        return {Cell(pt.at.x, 0),
                sci(is.exact_fault_probability),
                sci(is.fault_probability),
                sci(is.rare.confidence.lo),
                sci(is.rare.confidence.hi),
                Cell(is.rare.rel_error, 3),
                sci(sp.fault_probability),
                sci(is.rare.simulated_trials + sp.rare.simulated_trials),
                sci(std::max(is.rare.effective_trials,
                             sp.rare.effective_trials))};
      }));
  quality.apply(out);

  out.notes.push_back(
      "The retention workload has a closed form (the `exact` column), so\n"
      "it is the cleanest end-to-end validation of both drivers: the\n"
      "product-Bernoulli importance sampler and the latent-Gaussian subset\n"
      "simulation both land on it within their reported intervals down to\n"
      "the deepest holds.");
  return out;
}

// --- deep RER --------------------------------------------------------------

ResultSet run_rer_deep(ScenarioContext& ctx) {
  ResultSet out;
  SweepDriver driver(ctx.runner, ctx.seed);

  // The nominal device: at healthy read voltages the sense margin sits
  // 6-15 sigma above the metastable band, i.e. read error rates far below
  // brute-force reach -- exactly the regime a production RER spec quotes.
  rdo::RerConfig cfg;
  cfg.trials = ctx.scaled_trials(1500, eng::kSplittingMinTrials);
  cfg.hz_stray = dev::MtjDevice(cfg.device).intra_stray_field();

  SummaryQuality quality;
  const Grid grid(
      GridAxis::list("v_read", {0.04, 0.06, 0.08, 0.12, 0.18}));
  out.tables.push_back(driver.sweep(
      "rer_deep_vs_vread",
      "accelerated RER, stored AP at the far row, checkerboard column",
      {"V_read (V)", "margin/sigma", "analytic", "IS RER", "95% lo",
       "95% hi", "rel err", "split RER", "eff. trials"},
      grid, [&](const SweepPoint& pt) -> std::vector<Cell> {
        auto c = cfg;
        c.path.v_read = pt.at.x;
        c.rare.method = RareEventMethod::kImportanceSampling;
        util::Rng rng_is = pt.rng();
        const auto is = rdo::measure_rer(c, rng_is, pt.runner);
        c.rare.method = RareEventMethod::kSplitting;
        util::Rng rng_sp = pt.rng();
        const auto sp = rdo::measure_rer(c, rng_sp, pt.runner);
        quality.offer(is.rare);
        quality.offer(sp.rare);
        // Nominal-TMR analytic decision + blocked probabilities; the
        // Monte Carlo estimates additionally carry the per-read TMR
        // variation through the electrical solve.
        const rdo::ReadErrorModel model(c.device, c.path);
        const auto budget = model.error_budget(is.op, c.stored, c.hz_stray,
                                               c.temperature);
        const double sigma = model.sense_amp().total_sigma();
        return {Cell(pt.at.x, 2),
                Cell(is.op.margin / sigma, 2),
                sci(budget.decision + budget.blocked),
                sci(is.rer),
                sci(is.rare.confidence.lo),
                sci(is.rare.confidence.hi),
                Cell(is.rare.rel_error, 3),
                sci(sp.rer),
                sci(std::max(is.rare.effective_trials,
                             sp.rare.effective_trials))};
      }));
  quality.apply(out);

  out.notes.push_back(
      "Read error rates collapse ~exponentially with read voltage as the\n"
      "margin pulls away from the comparator noise; the drivers quantify\n"
      "the tail (1e-12 and below) that the brute-force rer_vs_* scenarios\n"
      "cannot touch, including the TMR-variation correction the\n"
      "nominal-margin analytic column misses.");
  return out;
}

// --- overlap validation ----------------------------------------------------

ResultSet run_rare_event_overlap(ScenarioContext& ctx) {
  ResultSet out;
  SweepDriver driver(ctx.runner, ctx.seed);

  auto& table = out.add(
      "overlap_validation",
      "brute force vs importance sampling vs splitting, overlap regime",
      {"workload", "method", "estimate", "95% lo", "95% hi", "rel err",
       "simulated", "eff. trials", "analytic"});

  constexpr RareEventMethod kMethods[] = {
      RareEventMethod::kBruteForce, RareEventMethod::kImportanceSampling,
      RareEventMethod::kSplitting};
  constexpr const char* kMethodNames[] = {"brute", "importance", "splitting"};

  SummaryQuality quality;
  std::size_t seed_idx = 0;
  const auto add_rows = [&](const char* workload, double analytic,
                            auto&& measure) {
    for (std::size_t m = 0; m < 3; ++m) {
      util::Rng rng(driver.point_seed(seed_idx++));
      const eng::RareEventEstimate est = measure(kMethods[m], rng);
      if (kMethods[m] != RareEventMethod::kBruteForce) quality.offer(est);
      table.add_row({Cell(workload), Cell(kMethodNames[m]),
                     sci(est.probability), sci(est.confidence.lo),
                     sci(est.confidence.hi), Cell(est.rel_error, 3),
                     sci(est.simulated_trials), sci(est.effective_trials),
                     sci(analytic)});
    }
  };

  // WER at a pulse width where errors are common enough for brute force.
  {
    mem::WerConfig cfg;
    cfg.array.device = dev::MtjParams::reference_device(35e-9);
    cfg.array.pitch = 1.5 * 35e-9;
    cfg.array.rows = cfg.array.cols = 5;
    cfg.pulse.voltage = 0.9;
    cfg.direction = SwitchDirection::kApToP;
    cfg.trials = ctx.scaled_trials(4000, eng::kSplittingMinTrials);
    const dev::MtjDevice device(cfg.array.device);
    cfg.pulse.width = device.switching_time(SwitchDirection::kApToP, 0.9,
                                            device.intra_stray_field());
    // The analytic WER, via a throwaway single-trial run.
    auto probe = cfg;
    probe.trials = 1;
    util::Rng probe_rng(driver.point_seed(99));
    const double analytic =
        1.0 - mem::measure_wer(probe, probe_rng, ctx.runner)
                  .mean_success_probability;
    add_rows("WER", analytic, [&](RareEventMethod m, util::Rng& rng) {
      auto c = cfg;
      c.rare.method = m;
      return mem::measure_wer(c, rng, ctx.runner).rare;
    });
  }

  // Retention at a hold where faults are common enough for brute force.
  {
    mem::RetentionEnsembleConfig cfg;
    cfg.array.device = dev::MtjParams::reference_device(35e-9);
    cfg.array.device.delta0 = 18.0;
    cfg.array.pitch = 1.5 * 35e-9;
    cfg.array.rows = cfg.array.cols = 4;
    cfg.array.temperature = 380.0;
    cfg.pattern = arr::PatternKind::kAllZero;
    cfg.hold = 1e-7;
    cfg.trials = ctx.scaled_trials(4000, eng::kSplittingMinTrials);
    double analytic = 0.0;
    add_rows("retention", 0.0, [&](RareEventMethod m, util::Rng& rng) {
      auto c = cfg;
      c.rare.method = m;
      const auto r = mem::measure_retention_faults(c, rng, ctx.runner);
      analytic = r.exact_fault_probability;
      return r.rare;
    });
    // Patch the analytic column in place (it is identical for all rows).
    for (std::size_t r = table.rows.size() - 3; r < table.rows.size(); ++r) {
      table.rows[r].back() = sci(analytic);
    }
  }

  // RER at a starved read voltage where errors are common enough.
  {
    rdo::RerConfig cfg;
    cfg.path.v_read = 0.05;
    cfg.trials = ctx.scaled_trials(4000, eng::kSplittingMinTrials);
    cfg.hz_stray = dev::MtjDevice(cfg.device).intra_stray_field();
    const rdo::ReadErrorModel model(cfg.device, cfg.path);
    util::Rng col_rng(1);  // checkerboard: deterministic, rng not consumed
    const auto column = rdo::make_column_data(
        cfg.column_pattern, cfg.path.bitline.rows, col_rng);
    const auto op = model.operating_point(cfg.path.bitline.rows - 1, column);
    const auto budget =
        model.error_budget(op, cfg.stored, cfg.hz_stray, cfg.temperature);
    add_rows("RER", budget.decision + budget.blocked,
             [&](RareEventMethod m, util::Rng& rng) {
               auto c = cfg;
               c.rare.method = m;
               return rdo::measure_rer(c, rng, ctx.runner).rare;
             });
  }
  quality.apply(out);

  out.notes.push_back(
      "The overlap regime: operating points where brute force still\n"
      "resolves the rate, so all three estimators can be compared head to\n"
      "head. The accelerated estimates agree with brute force and the\n"
      "analytic columns within their reported intervals while spending\n"
      "far fewer trials per unit of effective sample -- the validation\n"
      "recipe README.md describes, and the CI smoke test for the\n"
      "rare-event subsystem.");
  return out;
}

}  // namespace

void register_deep_scenarios(ScenarioRegistry& registry) {
  registry.add(
      {{"wer_deep", "Deep",
        "importance-sampled and splitting WER down to 1e-15",
        "Write error rate across pulse widths on the rare-event drivers:"
        " importance sampling tilts the latent write-noise variable to the"
        " analytic failure boundary, splitting runs subset simulation on"
        " the margin deficit. Both track the analytic WER across ~15"
        " decades with quantified relative error and stay bit-identical"
        " across --threads.",
        {{"Vp / direction", "0.9 V AP->P", "write operating point"},
         {"width_frac", "{1.6..5.2} x tw", "pulse width grid"},
         {"trials", "1500 per round (scaled)", "IS round / splitting level"},
         {"target_rel_error", "0.1", "IS stopping criterion"}}},
       run_wer_deep});
  registry.add(
      {{"retention_deep", "Deep",
        "accelerated retention faults against the closed form",
        "Retention-fault probability of a hot 4x4 array over a 1 s scrub"
        " interval, swept over the device's thermal stability so the exact"
        " fault probability 1 - prod(1 - p_i) falls from brute-measurable"
        " to 1e-12 and below: the product-Bernoulli importance sampler and"
        " the latent-Gaussian subset simulation both reproduce the closed"
        " form within their confidence intervals.",
        {{"hold / T", "1 s / 380 K", "hot 4x4 array, one scrub interval"},
         {"delta0", "{40..88}", "thermal stability grid"},
         {"trials", "1200 per round (scaled)", "IS round / splitting level"}}},
       run_retention_deep});
  registry.add(
      {{"rer_deep", "Deep",
        "read error rate at production margins (1e-12 and below)",
        "RER of the nominal device across healthy read voltages, where"
        " the sense margin sits 6-15 sigma above the metastable band:"
        " importance sampling tilts the comparator deviates to the failure"
        " boundary, splitting runs subset simulation on the margin deficit"
        " -- both including the per-read TMR variation the nominal-margin"
        " analytic budget misses.",
        {{"v_read", "{0.04..0.18} V", "read voltage grid"},
         {"stored / column", "AP, checkerboard", "far-row victim"},
         {"trials", "1500 per round (scaled)", "IS round / splitting level"}}},
       run_rer_deep});
  registry.add(
      {{"rare_event_overlap", "Deep",
        "overlap-regime validation of all three estimators",
        "Runs brute force, importance sampling and multilevel splitting on"
        " the same WER / retention / RER operating points, chosen so brute"
        " force still resolves the rate: the head-to-head agreement table"
        " (with analytic anchors) that validates the accelerated drivers"
        " end to end. Used as the CI smoke test of the rare-event"
        " subsystem.",
        {{"workloads", "WER, retention, RER", "one operating point each"},
         {"methods", "brute / importance / splitting", "rows per workload"},
         {"trials", "4000 per method (scaled)", "overlap-regime statistics"}}},
       run_rare_event_overlap});
}

}  // namespace mram::scn
