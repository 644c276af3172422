// Built-in ablation and extension scenarios: neighborhood truncation,
// dipole vs full-loop fields, in-plane vs out-of-plane components, LLG vs
// Sun's model, Psi definition variants, Biot-Savart convergence, and the
// temperature extension of the write metrics. Tables contain only
// deterministic (or seeded-runner) values -- wall-clock timing columns live
// in perfbench/, not here -- so the CSV artifacts are reproducible.

#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "array/array_field.h"
#include "array/coupling_factor.h"
#include "array/data_pattern.h"
#include "array/intercell.h"
#include "array/neighborhood.h"
#include "dynamics/switching_sim.h"
#include "magnetics/current_loop.h"
#include "magnetics/stray_field.h"
#include "numerics/interp.h"
#include "scenario/builtin.h"
#include "scenario/sweep.h"
#include "util/units.h"

namespace mram::scn {

namespace {

using dev::SwitchDirection;
using util::a_per_m_to_oe;
using util::celsius_to_kelvin;
using util::s_to_ns;

// --- neighborhood truncation -----------------------------------------------

ResultSet run_array_size(ScenarioContext& ctx) {
  ResultSet out;
  SweepDriver driver(ctx.runner, ctx.seed);

  dev::StackGeometry stack;
  stack.ecd = 35e-9;
  const std::vector<arr::PatternKind> kinds{arr::PatternKind::kAllZero,
                                            arr::PatternKind::kAllOne,
                                            arr::PatternKind::kCheckerboard};

  const Grid grid(GridAxis::list("pitch_mult", {1.5, 2.0, 3.0}),
                  GridAxis::step("pattern_idx", 0.0, 1.0, kinds.size()));
  out.tables.push_back(driver.sweep(
      "truncation", "3x3 vs 5x5 vs 7x7 neighborhood truncation",
      {"pitch/eCD", "background", "r=1 (Oe)", "r=2 (Oe)", "r=3 (Oe)",
       "3x3 error vs 7x7 (%)"},
      grid, [&](const SweepPoint& pt) -> std::vector<Cell> {
        const double pitch = pt.at.x * stack.ecd;
        const auto kind = kinds[static_cast<std::size_t>(pt.at.y)];
        util::Rng rng = pt.rng();  // only consumed by kRandom patterns
        const auto pattern_grid = arr::make_pattern(kind, 7, 7, rng);
        std::vector<double> hz;
        for (int radius : {1, 2, 3}) {
          const arr::ArrayFieldModel model(stack, pitch, radius);
          hz.push_back(model.field_at(pattern_grid, 3, 3));
        }
        const double err =
            (hz[2] != 0.0) ? 100.0 * (hz[0] - hz[2]) / hz[2] : 0.0;
        return {Cell(pt.at.x, 1), Cell(arr::to_string(kind)),
                Cell(a_per_m_to_oe(hz[0]), 2), Cell(a_per_m_to_oe(hz[1]), 2),
                Cell(a_per_m_to_oe(hz[2]), 2), Cell(err, 2)};
      }));

  out.notes.push_back(
      "The 3x3 truncation the paper uses captures the bulk of the coupling;\n"
      "the 5x5 ring adds a second-order correction (1/r^3 decay), which the\n"
      "memory-level model can include by raising coupling_radius.");
  return out;
}

// --- dipole vs full loop ---------------------------------------------------

ResultSet run_dipole(ScenarioContext& ctx) {
  ResultSet out;
  SweepDriver driver(ctx.runner, ctx.seed);

  dev::StackGeometry stack;
  stack.ecd = 35e-9;

  const Grid grid(
      GridAxis::list("pitch_mult", {1.5, 2.0, 2.5, 3.0, 4.0, 5.0}));
  out.tables.push_back(driver.sweep(
      "dipole_vs_exact", "NP8 field range and fixed part by method",
      {"pitch (nm)", "pitch/eCD", "range exact (Oe)", "range dipole (Oe)",
       "range error (%)", "fixed exact (Oe)", "fixed dipole (Oe)"},
      grid, [&](const SweepPoint& pt) -> std::vector<Cell> {
        const double pitch = pt.at.x * stack.ecd;
        const arr::InterCellSolver exact(stack, pitch,
                                         mag::FieldMethod::kExact);
        const arr::InterCellSolver dipole(stack, pitch,
                                          mag::FieldMethod::kDipole);
        const auto re = exact.field_range();
        const auto rd = dipole.field_range();
        const double range_e = re.max - re.min;
        const double range_d = rd.max - rd.min;
        return {Cell(pitch * 1e9, 2), Cell(pt.at.x, 2),
                Cell(a_per_m_to_oe(range_e), 2),
                Cell(a_per_m_to_oe(range_d), 2),
                Cell(100.0 * (range_d - range_e) / range_e, 2),
                Cell(a_per_m_to_oe(exact.fixed_field()), 2),
                Cell(a_per_m_to_oe(dipole.fixed_field()), 2)};
      }));

  out.notes.push_back(
      "The dipole model is within a few percent beyond ~3x eCD but\n"
      "overestimates the coupling range at the aggressive pitches the paper\n"
      "studies -- the full loop geometry (finite radius, layer offsets)\n"
      "matters exactly where Psi is large.");
  return out;
}

// --- in-plane vs out-of-plane ----------------------------------------------

/// Full inter-cell field at an arbitrary probe point.
num::Vec3 field_at_probe(const dev::StackGeometry& stack, double pitch,
                         arr::Np8 np8, const num::Vec3& probe) {
  mag::StrayFieldSolver solver;
  const auto& offsets = arr::neighbor_offsets();
  for (int i = 0; i < 8; ++i) {
    const num::Vec3 cell{offsets[i].dx * pitch, offsets[i].dy * pitch, 0.0};
    solver.add_source("RL",
                      stack.source_for(dev::Layer::kReferenceLayer, cell));
    solver.add_source("HL", stack.source_for(dev::Layer::kHardLayer, cell));
    solver.add_source("FL",
                      stack.source_for(dev::Layer::kFreeLayer, cell,
                                       dev::bit_to_state(np8.bit(i))));
  }
  return solver.field_at(probe);
}

ResultSet run_inplane(ScenarioContext& ctx) {
  ResultSet out;
  SweepDriver driver(ctx.runner, ctx.seed);

  dev::StackGeometry stack;
  stack.ecd = 35e-9;
  const double r = stack.radius();

  // Maximally asymmetric pattern: east-side neighbors AP, west-side P
  // (C3 = east, C5 = NE, C7 = SE -> bits 3, 5, 7).
  const arr::Np8 asym((1 << 3) | (1 << 5) | (1 << 7));

  const std::vector<std::pair<std::string, num::Vec3>> probes{
      {"FL center, mid-plane", {0, 0, 0}},
      {"FL center, top surface", {0, 0, 0.5 * stack.t_free}},
      {"FL edge (x=0.9R), mid-plane", {0.9 * r, 0, 0}},
  };
  const std::vector<std::pair<std::string, arr::Np8>> patterns{
      {"NP8=255", arr::Np8(255)}, {"asym (E half AP)", asym}};

  const Grid grid(GridAxis::list("pitch_mult", {1.5, 2.0, 3.0}),
                  GridAxis::step("combo", 0.0, 1.0,
                                 probes.size() * patterns.size()));
  out.tables.push_back(driver.sweep(
      "inplane_vs_z", "in-plane vs out-of-plane inter-cell field",
      {"pitch/eCD", "probe", "pattern", "Hx (Oe)", "Hz (Oe)",
       "|inplane|/|Hz|"},
      grid, [&](const SweepPoint& pt) -> std::vector<Cell> {
        const double pitch = pt.at.x * stack.ecd;
        const std::size_t combo = static_cast<std::size_t>(pt.at.y);
        const auto& [pname, probe] = probes[combo / patterns.size()];
        const auto& [name, np] = patterns[combo % patterns.size()];
        const auto h = field_at_probe(stack, pitch, np, probe);
        const double inplane = std::hypot(h.x, h.y);
        return {Cell(pt.at.x, 1), Cell(pname), Cell(name),
                Cell(a_per_m_to_oe(h.x), 3), Cell(a_per_m_to_oe(h.z), 3),
                Cell(std::abs(h.z) > 0 ? inplane / std::abs(h.z) : 0.0, 4)};
      }));

  out.notes.push_back(
      "At the FL mid-plane center the in-plane component vanishes by\n"
      "symmetry; off-center and at the FL surfaces it stays a modest\n"
      "fraction of Hz, and a transverse field perturbs a perpendicular\n"
      "easy axis only to second order -- supporting the paper's z-only\n"
      "treatment.");
  return out;
}

// --- LLG vs Sun ------------------------------------------------------------

ResultSet run_llg_vs_sun(ScenarioContext& ctx) {
  ResultSet out;
  SweepDriver driver(ctx.runner, ctx.seed);

  const dev::MtjDevice device(dev::MtjParams::reference_device(35e-9));
  const double intra = device.intra_stray_field();
  const std::size_t trials = ctx.scaled_trials(16);

  const Grid grid(GridAxis::step("vp", 0.8, 0.1, 5));
  out.tables.push_back(driver.sweep(
      "llg_vs_sun", "switching time by model",
      {"Vp (V)", "Sun tw (ns)", "LLG mean (ns)", "LLG sigma (ns)",
       "switched/trials", "LLG/Sun"},
      grid, [&](const SweepPoint& pt) -> std::vector<Cell> {
        const double vp = pt.at.x;
        const double tw_sun =
            device.switching_time(SwitchDirection::kApToP, vp, intra);
        util::Rng rng = pt.rng();
        const auto stats = dyn::llg_switching_stats(
            device, SwitchDirection::kApToP, vp, intra, trials, rng, 60e-9,
            2e-12, 300.0, pt.runner);
        const double mean_ns = s_to_ns(stats.mean_time);
        return {Cell(vp, 2), Cell(s_to_ns(tw_sun), 2), Cell(mean_ns, 2),
                Cell(s_to_ns(stats.stddev_time), 2),
                Cell(std::to_string(stats.switched) + "/" +
                     std::to_string(stats.trials)),
                Cell(mean_ns / s_to_ns(tw_sun), 3)};
      }));

  out.notes.push_back(
      "Both models shorten tw with overdrive (Im = Vp/R - Ic). The LLG/Sun\n"
      "ratio is roughly voltage-independent, i.e. the fitted kappa is a\n"
      "constant prefactor, not a hidden voltage dependence.");
  return out;
}

// --- Psi definition variants -----------------------------------------------

ResultSet run_psi_definition(ScenarioContext& ctx) {
  ResultSet out;
  SweepDriver driver(ctx.runner, ctx.seed);

  dev::StackGeometry stack;
  stack.ecd = 35e-9;
  const double hc = util::oe_to_a_per_m(2200.0);

  std::vector<double> pitches, v_paper, v_mag, v_std;
  const Grid grid(GridAxis::step("pitch_nm", 52.5, 12.0, 13));
  out.tables.push_back(driver.sweep(
      "psi_definitions", "coupling factor by definition",
      {"pitch (nm)", "max-variation (paper) (%)", "max-|Hz| (%)",
       "std-dev (%)"},
      grid, [&](const SweepPoint& pt) -> std::vector<Cell> {
        const arr::InterCellSolver solver(stack, pt.at.x * 1e-9);
        const double p0 = 100.0 * arr::coupling_factor(
            solver, hc, arr::PsiDefinition::kMaxVariation);
        const double p1 = 100.0 * arr::coupling_factor(
            solver, hc, arr::PsiDefinition::kMaxMagnitude);
        const double p2 = 100.0 * arr::coupling_factor(
            solver, hc, arr::PsiDefinition::kStdDev);
        pitches.push_back(pt.at.x);
        v_paper.push_back(p0);
        v_mag.push_back(p1);
        v_std.push_back(p2);
        return {Cell(pt.at.x, 3), Cell(p0, 3), Cell(p1, 3), Cell(p2, 3)};
      }));

  auto& x = out.add("crossings", "density-optimal pitch by definition",
                    {"definition", "pitch @ 2% (nm)"});
  auto crossing = [&](const std::vector<double>& vals) {
    const auto c = num::first_crossing(pitches, vals, 2.0);
    return c.found ? Cell(c.x, 1) : Cell("n/a");
  };
  x.add_row({"max-variation (paper)", crossing(v_paper)});
  x.add_row({"max-|Hz|", crossing(v_mag)});
  x.add_row({"std-dev", crossing(v_std)});

  out.notes.push_back(
      "The paper's max-variation Psi isolates the data-DEPENDENT coupling\n"
      "(what the write/retention margins must absorb); max-|Hz| also counts\n"
      "the static HL+RL offset, which a margin can be centered on, and the\n"
      "std-dev view halves the apparent strength. The definitions shift the\n"
      "2 % pitch by tens of nm -- worth stating explicitly, as the paper\n"
      "does.");
  return out;
}

// --- Biot-Savart convergence -----------------------------------------------

ResultSet run_segments(ScenarioContext& ctx) {
  ResultSet out;
  SweepDriver driver(ctx.runner, ctx.seed);

  const mag::CurrentLoop loop{{0, 0, 0}, 27.5e-9, 1.7648e-3};
  // Field points representative of both use sites: the device's own FL
  // (near field) and a neighbor at pitch 90 nm (far field).
  const std::vector<std::pair<std::string, num::Vec3>> points{
      {"own FL center (0, 0, 5.2 nm)", {0.0, 0.0, 5.2e-9}},
      {"neighbor FL (90 nm, 0, 5.2 nm)", {90e-9, 0.0, 5.2e-9}},
  };

  const Grid grid(
      GridAxis::step("point_idx", 0.0, 1.0, points.size()),
      GridAxis::list("segments", {8, 16, 32, 64, 128, 256, 512, 1024, 4096}));
  out.tables.push_back(driver.sweep(
      "convergence", "Biot-Savart discretization convergence",
      {"field point", "segments", "Hz (Oe)", "exact Hz (Oe)", "rel. error"},
      grid, [&](const SweepPoint& pt) -> std::vector<Cell> {
        const auto& [name, p] = points[static_cast<std::size_t>(pt.at.x)];
        const int segments = static_cast<int>(pt.at.y);
        const num::Vec3 exact = mag::loop_field_exact(loop, p);
        const num::Vec3 h = mag::loop_field_biot_savart(loop, p, segments);
        const double rel = num::norm(h - exact) / num::norm(exact);
        return {Cell(name), Cell::integer(segments),
                Cell(a_per_m_to_oe(h.z), 3), Cell(a_per_m_to_oe(exact.z), 3),
                Cell(rel, 8)};
      }));

  out.notes.push_back(
      "O(1/N^2) convergence; the moment-matched polygon removes the\n"
      "inscribed-radius bias. The closed form costs about as much as a\n"
      "50-segment sum while being exact -- hence FieldMethod::kExact is the\n"
      "library default and kBiotSavart reproduces the paper's method.");
  return out;
}

// --- temperature extension -------------------------------------------------

ResultSet run_temperature(ScenarioContext& ctx) {
  ResultSet out;
  SweepDriver driver(ctx.runner, ctx.seed);

  using dev::MtjState;
  using util::a_to_ua;
  const dev::MtjDevice device(dev::MtjParams::reference_device(35e-9));
  const arr::InterCellSolver solver(device.params().stack, 2.0 * 35e-9);
  const double h_worst = device.intra_stray_field() +
                         solver.field_for(arr::Np8::all_parallel());

  const Grid grid(GridAxis::step("T_degC", 0.0, 25.0, 7));
  out.tables.push_back(driver.sweep(
      "write_vs_temp", "write/retention vs temperature",
      {"T (degC)", "Ic0 (uA)", "Ic AP->P worst (uA)", "tw @0.9V worst (ns)",
       "Delta_P worst", "retention tau (s)"},
      grid, [&](const SweepPoint& pt) -> std::vector<Cell> {
        const double tk = celsius_to_kelvin(pt.at.x);
        return {Cell(pt.at.x, 1), Cell(a_to_ua(device.ic0(tk)), 3),
                Cell(a_to_ua(device.ic(SwitchDirection::kApToP, h_worst,
                                       tk)),
                     3),
                Cell(s_to_ns(device.switching_time(SwitchDirection::kApToP,
                                                   0.9, h_worst, tk)),
                     3),
                Cell(device.delta(MtjState::kParallel, h_worst, tk), 3),
                Cell(device.retention_time(MtjState::kParallel, h_worst, tk),
                     3)};
      }));

  out.notes.push_back(
      "Heating lowers Ic (Ms shrinks) and speeds up writes while retention\n"
      "collapses exponentially -- writes are easiest exactly when storage\n"
      "is hardest. The paper's Fig. 6 covers the Delta column; the others\n"
      "follow from the same Bloch scaling through Eqs. 2-4.");
  return out;
}

}  // namespace

void register_ablation_scenarios(ScenarioRegistry& registry) {
  registry.add(
      {{"abl_array_size", "Ablation",
        "3x3 vs 5x5 vs 7x7 neighborhood truncation",
        "Inter-cell field at an interior victim for truncation radii 1-3"
        " under the extreme data backgrounds, quantifying what the paper's"
        " 3x3 window misses.",
        {{"ecd", "35 nm", "device size"},
         {"pitch_mult", "{1.5, 2, 3}", "pitch / eCD"},
         {"radius", "{1, 2, 3}", "neighborhood truncation"}}},
       run_array_size});
  registry.add(
      {{"abl_dipole", "Ablation",
        "dipole vs full-loop inter-cell model, eCD = 35 nm",
        "NP8 field range and fixed part from the exact loop solver vs the"
        " point-dipole approximation across pitches: where the cheap model"
        " is adequate and where it errs.",
        {{"ecd", "35 nm", "device size"},
         {"pitch_mult", "{1.5..5} x eCD", "pitch grid"}}},
       run_dipole});
  registry.add(
      {{"abl_inplane", "Ablation",
        "in-plane vs out-of-plane inter-cell field",
        "Quantifies the paper's z-only treatment: the in-plane field at"
        " honest probe points (FL top surface, FL edge) under the NP8=255"
        " and maximally asymmetric patterns.",
        {{"ecd", "35 nm", "device size"},
         {"pitch_mult", "{1.5, 2, 3}", "pitch / eCD"},
         {"probes", "center/top/edge", "probe points"}}},
       run_inplane});
  registry.add(
      {{"abl_llg_vs_sun", "Ablation",
        "macrospin LLG vs Sun's model (AP->P)",
        "Stochastic macrospin LLG switching times (runner-parallel trials)"
        " against the analytic Sun model across the write-voltage range:"
        " the fitted kappa is a constant prefactor, not a hidden voltage"
        " dependence.",
        {{"ecd", "35 nm", "device size"},
         {"vp", "0.8..1.2 step 0.1", "write voltage, 5 exact points"},
         {"trials", "16 per voltage", "LLG trials (scaled)"},
         {"duration/dt", "60 ns / 2 ps", "integration window"}}},
       run_llg_vs_sun});
  registry.add(
      {{"abl_psi_definition", "Ablation",
        "Psi definition variants, eCD = 35 nm",
        "The paper's max-variation Psi vs a max-|Hz| and a std-dev"
        " definition over a 13-point pitch grid, and where each crosses the"
        " 2 % density-optimal threshold.",
        {{"ecd", "35 nm", "device size"},
         {"pitch_nm", "52.5..196.5 step 12", "pitch grid, 13 exact points"},
         {"threshold", "2 %", "density-optimal Psi"}}},
       run_psi_definition});
  registry.add(
      {{"abl_segments", "Ablation",
        "Biot-Savart discretization convergence",
        "Discretized loop field vs the elliptic-integral closed form at a"
        " near-field and a far-field probe across segment counts:"
        " O(1/N^2) convergence justifying both the paper's method and the"
        " exact default.",
        {{"segments", "{8..4096}", "polygon segment counts"},
         {"probes", "own FL / neighbor FL", "near and far field points"}}},
       run_segments});
  registry.add(
      {{"ext_temperature", "Extension",
        "temperature dependence of write metrics (eCD = 35 nm, pitch = 2 x"
        " eCD, NP8 = 0)",
        "Bloch Ms(T) propagated through Eq. 2 (Ic), Eqs. 3-4 (tw) and Delta"
        " at the worst-case neighborhood over a 7-point temperature grid:"
        " the write window widens while retention shrinks.",
        {{"ecd", "35 nm", "device size"},
         {"pitch", "2 x eCD", "array pitch"},
         {"T_degC", "0..150 step 25", "temperature grid, 7 exact points"}}},
       run_temperature});
}

}  // namespace mram::scn
