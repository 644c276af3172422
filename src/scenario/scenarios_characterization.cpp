// Built-in scenarios for the paper's characterization figures: the R-H loop
// measurement/extraction flow (Fig. 2a), the size dependence of the
// intra-cell stray field (Fig. 2b), and the intra-cell field maps
// (Figs. 3c, 3d). Ports of the former bench_fig2*/fig3* sweep loops onto
// the scenario layer: integer-indexed grids, runner-dispatched trials,
// machine-readable tables.

#include <cmath>
#include <cstddef>

#include "characterization/calibration.h"
#include "characterization/extraction.h"
#include "characterization/rh_loop.h"
#include "magnetics/stray_field.h"
#include "scenario/builtin.h"
#include "scenario/sweep.h"
#include "sim/variation.h"
#include "util/stats.h"
#include "util/units.h"

namespace mram::scn {

namespace {

using util::a_per_m_to_oe;

// --- Fig. 2a ---------------------------------------------------------------

/// Per-cycle loop-extraction accumulator: parameter statistics plus the
/// extraction of the lowest-indexed valid cycle (a deterministic
/// "representative" independent of chunking and thread count).
struct ExtractionPartial {
  util::RunningStats hswp, hswn, hc, hoffset;
  chr::LoopExtraction rep;
  std::size_t rep_index = SIZE_MAX;
  std::size_t valid = 0;

  void merge(const ExtractionPartial& other) {
    hswp.merge(other.hswp);
    hswn.merge(other.hswn);
    hc.merge(other.hc);
    hoffset.merge(other.hoffset);
    valid += other.valid;
    if (other.rep_index < rep_index) {
      rep_index = other.rep_index;
      rep = other.rep;
    }
  }
};

ResultSet run_fig2a(ScenarioContext& ctx) {
  ResultSet out;
  SweepDriver driver(ctx.runner, ctx.seed);

  const dev::MtjDevice device(dev::MtjParams::reference_device(55e-9));
  chr::RhLoopProtocol protocol;  // paper defaults: 3 kOe, 1000 points

  // One representative loop, downsampled for display.
  util::Rng loop_rng(driver.point_seed(0));
  const auto trace = chr::measure_rh_loop(device, protocol,
                                          device.intra_stray_field(),
                                          loop_rng);
  auto& loop = out.add("loop_trace", "loop trace (every 64th of 1000 points)",
                       {"H (Oe)", "R (Ohm)", "state"});
  for (std::size_t i = 0; i < trace.points.size(); i += 64) {
    const auto& pt = trace.points[i];
    loop.add_row({Cell(a_per_m_to_oe(pt.h_applied), 1),
                  Cell(pt.resistance, 1), Cell(dev::to_string(pt.state))});
  }

  // Extraction statistics over repeated cycles, one runner trial per cycle.
  const std::size_t cycles = ctx.scaled_trials(20);
  const auto acc = ctx.runner.run<ExtractionPartial>(
      cycles, driver.point_seed(1),
      [&](util::Rng& rng, std::size_t i, ExtractionPartial& p) {
        const auto t = chr::measure_rh_loop(device, protocol,
                                            device.intra_stray_field(), rng);
        const auto ex =
            chr::extract_loop_parameters(t, device.params().electrical.ra);
        if (!ex.valid) return;
        p.hswp.add(a_per_m_to_oe(ex.hsw_p));
        p.hswn.add(a_per_m_to_oe(ex.hsw_n));
        p.hc.add(a_per_m_to_oe(ex.hc));
        p.hoffset.add(a_per_m_to_oe(ex.hoffset));
        ++p.valid;
        if (i < p.rep_index) {
          p.rep_index = i;
          p.rep = ex;
        }
      });

  auto& ex = out.add("extraction",
                     "extraction over " + std::to_string(cycles) +
                         " cycles (means)",
                     {"parameter", "value", "paper reference"});
  ex.add_row({"Hsw_p (Oe)", Cell(acc.hswp.mean(), 1), "positive"});
  ex.add_row({"Hsw_n (Oe)", Cell(acc.hswn.mean(), 1), "negative"});
  ex.add_row({"Hc (Oe)", Cell(acc.hc.mean(), 1), "2200 (Sec. IV-B)"});
  ex.add_row({"Hoffset (Oe)", Cell(acc.hoffset.mean(), 1),
              "> 0 (loop offset to positive side)"});
  ex.add_row({"Hs_intra (Oe)", Cell(-acc.hoffset.mean(), 1),
              "= -Hoffset (Sec. III)"});
  ex.add_row({"R_P (Ohm)", Cell(acc.rep.rp, 1), "RA/A"});
  ex.add_row({"R_AP (Ohm)", Cell(acc.rep.rap, 1), "high branch"});
  ex.add_row({"TMR", Cell(acc.rep.tmr, 3), "~1.0 near 0 bias"});
  ex.add_row({"eCD (nm)", Cell(acc.rep.ecd * 1e9, 2),
              "55 (Sec. III worked example)"});

  out.notes.push_back(
      "Loop offset is positive, so Hs_intra = -Hoffset < 0, matching the\n"
      "paper's Fig. 2a discussion.");
  return out;
}

// --- Fig. 2b ---------------------------------------------------------------

struct EnsemblePartial {
  util::RunningStats measured;
  std::size_t devices = 0;

  void merge(const EnsemblePartial& other) {
    measured.merge(other.measured);
    devices += other.devices;
  }
};

ResultSet run_fig2b(ScenarioContext& ctx) {
  ResultSet out;
  SweepDriver driver(ctx.runner, ctx.seed);

  const dev::StackGeometry nominal_stack;
  const sim::VariationModel variation;
  const auto anchors = ctx.fig2b_anchor_set();
  const std::size_t devices_per_size = ctx.scaled_trials(10);

  std::vector<double> ecds;
  for (const auto& anchor : anchors) ecds.push_back(anchor.ecd);
  const Grid grid(GridAxis::list("ecd", ecds));

  chr::RhLoopProtocol protocol;
  protocol.points = 400;

  out.tables.push_back(driver.sweep(
      "hz_intra_vs_ecd",
      "Hz_s_intra vs eCD: ensemble measurement vs simulation",
      {"eCD (nm)", "measured mean (Oe)", "measured sigma (Oe)", "devices",
       "simulated (Oe)", "paper anchor (Oe)"},
      grid, [&](const SweepPoint& pt) -> std::vector<Cell> {
        const double ecd = pt.at.x;
        // The 20 nm anchor comes from the paper's Fig. 3d simulation;
        // devices that small were not measured (their Delta is too low for
        // a stable loop), so the measured columns are blank for it.
        const bool measurable = ecd >= 30e-9;

        EnsemblePartial acc;
        if (measurable) {
          const auto nominal = dev::MtjParams::reference_device(ecd);
          acc = pt.runner.run<EnsemblePartial>(
              devices_per_size, pt.seed,
              [&](util::Rng& rng, std::size_t, EnsemblePartial& p) {
                const auto varied = variation.sample(nominal, rng);
                const dev::MtjDevice device(varied);
                const auto trace = chr::measure_rh_loop(
                    device, protocol, device.intra_stray_field(), rng);
                const auto ex = chr::extract_loop_parameters(
                    trace, varied.electrical.ra);
                if (!ex.valid) return;
                p.measured.add(a_per_m_to_oe(ex.hs_intra));
                ++p.devices;
              });
        }

        const double simulated =
            a_per_m_to_oe(chr::intra_field_for_ecd(nominal_stack, ecd));
        return {Cell(ecd * 1e9, 0),
                acc.devices > 0 ? Cell(acc.measured.mean(), 1) : Cell("-"),
                acc.devices > 0 ? Cell(acc.measured.stddev(), 1) : Cell("-"),
                Cell::integer(static_cast<long long>(acc.devices)),
                Cell(simulated, 1),
                Cell(a_per_m_to_oe(anchors[pt.at.index].hz_intra), 0)};
      }));

  out.notes.push_back(
      "Trend check: |Hz_s_intra| grows as eCD shrinks and accelerates below\n"
      "100 nm, as in the paper. The simulation curve is the shipped\n"
      "calibration (RMS residual vs anchors ~21 Oe, within the figure's\n"
      "error bars).");
  return out;
}

// --- Fig. 3c ---------------------------------------------------------------

ResultSet run_fig3c(ScenarioContext& ctx) {
  ResultSet out;
  SweepDriver driver(ctx.runner, ctx.seed);

  dev::StackGeometry stack;
  stack.ecd = 55e-9;
  mag::StrayFieldSolver solver;
  const num::Vec3 origin{};
  solver.add_source("RL",
                    stack.source_for(dev::Layer::kReferenceLayer, origin));
  solver.add_source("HL", stack.source_for(dev::Layer::kHardLayer, origin));

  // Hz on a line across the device at three heights (FL plane, above,
  // below), one 2-D grid: z slice (outer) x lateral position (inner).
  const Grid grid(GridAxis::list("z_nm", {0.0, 5.0, 15.0}),
                  GridAxis::step("x_nm", -60.0, 10.0, 13));
  out.tables.push_back(driver.sweep(
      "hz_slices", "Hz on slices above the FL mid-plane",
      {"z (nm)", "x (nm)", "Hz total (Oe)", "Hz RL (Oe)", "Hz HL (Oe)",
       "|H| (Oe)"},
      grid, [&](const SweepPoint& pt) -> std::vector<Cell> {
        const num::Vec3 p{util::nm_to_m(pt.at.y), 0.0,
                          util::nm_to_m(pt.at.x)};
        const auto total = solver.field_at(p);
        const auto rl = solver.named_field_at("RL", p);
        const auto hl = solver.named_field_at("HL", p);
        return {Cell(pt.at.x, 0), Cell(pt.at.y, 1),
                Cell(a_per_m_to_oe(total.z), 1), Cell(a_per_m_to_oe(rl.z), 1),
                Cell(a_per_m_to_oe(hl.z), 1),
                Cell(a_per_m_to_oe(num::norm(total)), 1)};
      }));

  out.notes.push_back(
      "At the FL plane the HL (magnetized -z) dominates inside the pillar\n"
      "(Hz < 0) and the field reverses sign outside -- the return-flux\n"
      "pattern the paper's 3-D quiver plot shows.");
  return out;
}

// --- Fig. 3d ---------------------------------------------------------------

ResultSet run_fig3d(ScenarioContext& ctx) {
  ResultSet out;
  SweepDriver driver(ctx.runner, ctx.seed);

  const std::vector<double> ecds{20e-9, 35e-9, 55e-9, 90e-9};
  std::vector<dev::MtjDevice> devices;
  devices.reserve(ecds.size());
  for (double ecd : ecds) {
    devices.emplace_back(dev::MtjParams::reference_device(ecd));
  }

  const Grid grid(GridAxis::step("r_nm", -45.0, 5.0, 19));
  out.tables.push_back(driver.sweep(
      "fl_profile", "Hz at the FL plane (0.0 printed outside the FL)",
      {"radial pos (nm)", "eCD=20nm (Oe)", "eCD=35nm (Oe)", "eCD=55nm (Oe)",
       "eCD=90nm (Oe)"},
      grid, [&](const SweepPoint& pt) -> std::vector<Cell> {
        std::vector<Cell> row{Cell(pt.at.x, 1)};
        for (std::size_t i = 0; i < ecds.size(); ++i) {
          const double radius = 0.5 * ecds[i];
          const double rho = std::abs(pt.at.x) * 1e-9;
          if (rho > radius) {
            row.emplace_back(0.0, 1);  // outside this device's FL
          } else {
            row.emplace_back(
                a_per_m_to_oe(devices[i].intra_stray_field_at(rho)), 1);
          }
        }
        return row;
      }));

  auto& c = out.add("center_vs_edge", "center vs edge",
                    {"eCD (nm)", "center Hz (Oe)", "edge Hz (Oe)",
                     "paper center (Oe)"});
  const std::vector<double> paper{-500.0, -400.0, -280.0, -150.0};
  for (std::size_t i = 0; i < ecds.size(); ++i) {
    const double center = a_per_m_to_oe(devices[i].intra_stray_field_at(0.0));
    const double edge =
        a_per_m_to_oe(devices[i].intra_stray_field_at(0.45 * ecds[i]));
    c.add_row({Cell(ecds[i] * 1e9, 1), Cell(center, 1), Cell(edge, 1),
               Cell(paper[i], 1)});
  }

  out.notes.push_back(
      "|Hz| is smaller at the FL edge than at the center and grows as the\n"
      "device shrinks -- both observations of the paper's Fig. 3d.");
  return out;
}

}  // namespace

void register_characterization_scenarios(ScenarioRegistry& registry) {
  registry.add(
      {{"fig2a_rh_loop", "Fig. 2a", "R-H hysteresis loop, eCD = 55 nm",
        "Emulates the paper's R-H loop protocol (0 -> +3 kOe -> -3 kOe -> 0,"
        " 1000 points, stochastic switching) on the reference 55 nm device"
        " and extracts Hsw_p/Hsw_n/Hc/Hoffset/R_P/R_AP/TMR/eCD, averaged"
        " over repeated runner-parallel cycles.",
        {{"ecd", "55 nm", "device size"},
         {"cycles", "20", "extraction cycles (scaled by --trial-scale)"},
         {"protocol", "3 kOe, 1000 pts", "R-H ramp of Sec. III"}}},
       run_fig2a});
  registry.add(
      {{"fig2b_intra_vs_ecd", "Fig. 2b",
        "device size dependence of Hz_s_intra",
        "Synthetic 'measured' ensemble (process variation + full loop"
        " measurement + extraction per device, runner-parallel) against the"
        " calibrated simulation curve at the paper's anchor sizes. The"
        " anchor set is a scenario input: data/fig2b_anchors.csv when"
        " --data points at it, else the compiled-in calibration anchors.",
        {{"anchors", "data/fig2b_anchors.csv", "eCD grid + paper values"},
         {"devices_per_size", "10", "ensemble size (scaled)"},
         {"loop_points", "400", "R-H points per device"}}},
       run_fig2b});
  registry.add(
      {{"fig3c_field_map", "Fig. 3c",
        "intra-cell stray field map, eCD = 55 nm",
        "Hz of the HL + RL sources on horizontal lines across the pillar at"
        " three heights (FL mid-plane, +5 nm, +15 nm), with the per-layer"
        " split.",
        {{"ecd", "55 nm", "device size"},
         {"z_nm", "{0, 5, 15}", "slice heights above the FL mid-plane"},
         {"x_nm", "-60..60 step 10", "lateral line, 13 exact points"}}},
       run_fig3c});
  registry.add(
      {{"fig3d_fl_profile", "Fig. 3d",
        "Hz_s_intra profile over the FL cross-section",
        "Radial profile of the intra-cell field over the FL for eCD in"
        " {20, 35, 55, 90} nm, plus the center-vs-edge comparison against"
        " the paper's readings.",
        {{"ecd", "{20, 35, 55, 90} nm", "device sizes"},
         {"r_nm", "-45..45 step 5", "radial grid, 19 exact points"}}},
       run_fig3d});
}

}  // namespace mram::scn
