// Unit tests for src/array: NP8 neighborhoods, the inter-cell solver, the
// coupling factor Psi and the generalized array field model.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <set>
#include <vector>

#include "array/array_field.h"
#include "array/coupling_factor.h"
#include "array/data_pattern.h"
#include "array/intercell.h"
#include "array/neighborhood.h"
#include "device/mtj_device.h"
#include "magnetics/disk_source.h"
#include "magnetics/current_loop.h"
#include "magnetics/stray_field.h"
#include "numerics/elliptic.h"
#include "numerics/interp.h"
#include "obs/metrics.h"
#include "util/constants.h"
#include "util/error.h"
#include "util/rng.h"
#include "util/units.h"

#include "support/elliptic_ref.h"
#include "support/intercell_ref.h"

namespace mram::arr {
namespace {

using util::a_per_m_to_oe;
using util::oe_to_a_per_m;

dev::StackGeometry stack55() {
  dev::StackGeometry g;
  g.ecd = 55e-9;
  return g;
}

// --- neighborhood / NP8 -----------------------------------------------------

TEST(Neighborhood, OffsetsMatchPaperLayout) {
  const auto& offsets = neighbor_offsets();
  ASSERT_EQ(offsets.size(), 8u);
  int direct = 0, diagonal = 0;
  std::set<std::pair<int, int>> seen;
  for (const auto& o : offsets) {
    EXPECT_TRUE(o.dx >= -1 && o.dx <= 1);
    EXPECT_TRUE(o.dy >= -1 && o.dy <= 1);
    EXPECT_FALSE(o.dx == 0 && o.dy == 0);
    seen.insert({o.dx, o.dy});
    const int dist2 = o.dx * o.dx + o.dy * o.dy;
    if (o.diagonal) {
      EXPECT_EQ(dist2, 2);
      ++diagonal;
    } else {
      EXPECT_EQ(dist2, 1);
      ++direct;
    }
  }
  EXPECT_EQ(direct, 4);
  EXPECT_EQ(diagonal, 4);
  EXPECT_EQ(seen.size(), 8u);  // all offsets distinct
  // Paper order: C0..C3 direct, C4..C7 diagonal.
  for (int i = 0; i < 4; ++i) EXPECT_FALSE(offsets[i].diagonal);
  for (int i = 4; i < 8; ++i) EXPECT_TRUE(offsets[i].diagonal);
}

TEST(Np8, BitAccess) {
  const Np8 np(0b10110101);
  EXPECT_EQ(np.value(), 0b10110101);
  EXPECT_EQ(np.bit(0), 1);
  EXPECT_EQ(np.bit(1), 0);
  EXPECT_EQ(np.bit(7), 1);
}

TEST(Np8, ExtremePatterns) {
  EXPECT_EQ(Np8::all_parallel().value(), 0);
  EXPECT_EQ(Np8::all_antiparallel().value(), 255);
}

TEST(Np8, AllPatternsEnumerated) {
  const auto patterns = all_np8_patterns();
  EXPECT_EQ(patterns.size(), 256u);
  std::set<int> values;
  for (const auto& p : patterns) values.insert(p.value());
  EXPECT_EQ(values.size(), 256u);
}

TEST(Np8Class, RepresentativeBelongsToClass) {
  // Fig. 4a's 25 classes: AP counts among the direct (C0..C3, low nibble)
  // and the diagonal (C4..C7, high nibble) neighbors.
  for (int d = 0; d <= 4; ++d) {
    for (int g = 0; g <= 4; ++g) {
      const auto rep = Np8Class{d, g}.representative();
      const auto bits = static_cast<unsigned>(rep.value());
      EXPECT_EQ(std::popcount(bits & 0x0Fu), d);
      EXPECT_EQ(std::popcount(bits >> 4), g);
    }
  }
}

// --- inter-cell solver ------------------------------------------------------

TEST(InterCellSolver, RejectsOverlappingCells) {
  EXPECT_THROW(InterCellSolver(stack55(), 30e-9), util::ContractViolation);
}

TEST(InterCellSolver, Fig4aLevelsAtPaperDesignPoint) {
  // eCD = 55 nm, pitch = 90 nm (SK hynix design point of [2]): the paper
  // reports Hz_s_inter from -16 Oe (NP8 = 0) to +64 Oe (NP8 = 255) with
  // steps of ~15 Oe per direct and ~5 Oe per diagonal '1'.
  const InterCellSolver solver(stack55(), 90e-9);
  const double lo = a_per_m_to_oe(solver.field_for(Np8::all_parallel()));
  const double hi = a_per_m_to_oe(solver.field_for(Np8::all_antiparallel()));
  EXPECT_NEAR(lo, -16.0, 2.5);
  EXPECT_NEAR(hi, 64.0, 2.5);
  EXPECT_NEAR(hi - lo, 80.0, 1.0);
  EXPECT_NEAR(a_per_m_to_oe(solver.direct_step()), 15.0, 0.5);
  EXPECT_NEAR(a_per_m_to_oe(solver.diagonal_step()), 5.0, 0.5);
}

TEST(InterCellSolver, StepRatioNearInverseCubeOfDistance) {
  // Dipole far-field: direct/diagonal step ratio ~ (sqrt(2))^3 = 2.83.
  const InterCellSolver solver(stack55(), 110e-9);
  EXPECT_NEAR(solver.direct_step() / solver.diagonal_step(), 2.83, 0.25);
}

TEST(InterCellSolver, FieldRangeMatchesExtremePatterns) {
  const InterCellSolver solver(stack55(), 90e-9);
  const auto range = solver.field_range();
  EXPECT_DOUBLE_EQ(range.min, solver.field_for(Np8::all_parallel()));
  EXPECT_DOUBLE_EQ(range.max, solver.field_for(Np8::all_antiparallel()));
  EXPECT_LT(range.min, range.max);
}

TEST(InterCellSolver, DecompositionMatchesExplicitSuperposition) {
  // field_for must equal a from-scratch superposition of all 24 layer
  // sources for arbitrary patterns.
  const auto stack = stack55();
  const double pitch = 85e-9;
  const InterCellSolver solver(stack, pitch);
  for (int v : {0, 255, 0b00000001, 0b00010000, 0b10101010, 0b11001100}) {
    const Np8 np(v);
    mag::StrayFieldSolver direct;
    const auto& offsets = neighbor_offsets();
    for (int i = 0; i < 8; ++i) {
      const num::Vec3 cell{offsets[i].dx * pitch, offsets[i].dy * pitch, 0.0};
      direct.add_source("RL",
                        stack.source_for(dev::Layer::kReferenceLayer, cell));
      direct.add_source("HL", stack.source_for(dev::Layer::kHardLayer, cell));
      direct.add_source(
          "FL", stack.source_for(dev::Layer::kFreeLayer, cell,
                                 dev::bit_to_state(np.bit(i))));
    }
    EXPECT_NEAR(solver.field_for(np), direct.field_at({0, 0, 0}).z,
                std::abs(direct.field_at({0, 0, 0}).z) * 1e-9 + 1e-9)
        << "NP8 = " << v;
  }
}

TEST(InterCellSolver, RingEvaluationMatchesPerCellSumBitwise) {
  // The solver evaluates one cell per ring; the result must be bitwise what
  // eight per-cell evaluations summed in paper order give.
  const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
  const auto& offsets = neighbor_offsets();
  const num::Vec3 victim{};
  for (const auto method : {mag::FieldMethod::kExact,
                            mag::FieldMethod::kDipole}) {
    for (const double ecd_nm : {20.0, 35.0, 55.0, 90.0, 120.0, 175.0}) {
      dev::StackGeometry stack;
      stack.ecd = ecd_nm * 1e-9;
      for (const double ratio : {1.0, 1.1, 1.5, 2.0, 2.6, 3.3, 4.0}) {
        const double pitch = ratio * stack.ecd;
        const InterCellSolver solver(stack, pitch, method);
        double fixed = 0.0;
        for (int i = 0; i < 8; ++i) {
          const num::Vec3 cell{offsets[i].dx * pitch, offsets[i].dy * pitch,
                               0.0};
          auto hz = [&](dev::Layer layer) {
            return mag::disk_field(stack.source_for(layer, cell), victim,
                                   method)
                .z;
          };
          fixed += hz(dev::Layer::kReferenceLayer) +
                   hz(dev::Layer::kHardLayer);
          EXPECT_EQ(bits(solver.fl_unit_field(i)),
                    bits(hz(dev::Layer::kFreeLayer)))
              << "eCD " << ecd_nm << " nm, pitch/eCD " << ratio << ", C" << i;
        }
        EXPECT_EQ(bits(solver.fixed_field()), bits(fixed))
            << "eCD " << ecd_nm << " nm, pitch/eCD " << ratio;
      }
    }
  }
}

// A scalar reference for the batched exact field, independent of the
// batched elliptic kernel: the closed-form loop field with K and E from
// ellint_k and ellint_e one value at a time, and a disk's field summed over
// its loops from zero, bottom to top.
num::Vec3 oracle_loop_field(const mag::CurrentLoop& loop, const num::Vec3& p) {
  const double a = loop.radius;
  const double dx = p.x - loop.center.x;
  const double dy = p.y - loop.center.y;
  const double z = p.z - loop.center.z;
  const double rho = std::sqrt(dx * dx + dy * dy);
  const double d_outer = (a + rho) * (a + rho) + z * z;
  const double d_inner = (a - rho) * (a - rho) + z * z;
  if (rho < 1e-15 * a) return {0.0, 0.0, mag::loop_field_on_axis(loop, z)};
  const double m = 4.0 * a * rho / d_outer;
  const double kk = num::ellint_k(m);
  const double ee = num::ellint_e(m);
  const double sqrt_outer = std::sqrt(d_outer);
  const double hz = loop.current / (2.0 * util::kPi * sqrt_outer) *
                    (kk + ee * (a * a - rho * rho - z * z) / d_inner);
  const double hrho = loop.current * z /
                      (2.0 * util::kPi * rho * sqrt_outer) *
                      (-kk + ee * (a * a + rho * rho + z * z) / d_inner);
  const double inv_rho = 1.0 / rho;
  return {hrho * dx * inv_rho, hrho * dy * inv_rho, hz};
}

num::Vec3 oracle_disk_field(const mag::DiskSource& disk, const num::Vec3& p) {
  std::vector<mag::CurrentLoop> loops;
  mag::append_disk_loops(disk, loops);
  num::Vec3 h{};
  for (const auto& loop : loops) h += oracle_loop_field(loop, p);
  return h;
}

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

bool same_bits(const num::Vec3& a, const num::Vec3& b) {
  return bits(a.x) == bits(b.x) && bits(a.y) == bits(b.y) &&
         bits(a.z) == bits(b.z);
}

TEST(ExactField, BatchedLoopsMatchScalarOracleBitwise) {
  // Off-axis loops of many radii and heights, with on-axis loops mixed in
  // (they take the closed form and skip the kernel), in calls that span
  // several kernel blocks and batches of mag::kLoopBatch.
  util::Rng rng(4242);
  const num::Vec3 p{3e-9, -2e-9, 1e-9};
  std::vector<mag::CurrentLoop> loops;
  for (int i = 0; i < 150; ++i) {
    const bool on_axis = i % 11 == 3;
    loops.push_back({{on_axis ? p.x : rng.uniform(-200e-9, 200e-9),
                      on_axis ? p.y : rng.uniform(-200e-9, 200e-9),
                      rng.uniform(-20e-9, 20e-9)},
                     rng.uniform(5e-9, 90e-9),
                     rng.uniform(-3e-3, 3e-3)});
  }
  for (const std::size_t n : {1, 7, 8, 9, 24, 31, 32, 33, 150}) {
    std::vector<num::Vec3> out(n);
    mag::loop_fields_exact(n, loops.data(), p, out.data());
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_TRUE(same_bits(out[i], oracle_loop_field(loops[i], p)))
          << "n = " << n << ", loop " << i;
    }
  }
  EXPECT_TRUE(
      same_bits(mag::loop_field_exact(loops[5], p),
                oracle_loop_field(loops[5], p)));
}

TEST(InterCellSolver, MatchesScalarLoopOracleBitwise) {
  // fixed_field(), every fl_unit_field(i) and disk_field(kExact) of every
  // aggressor layer against the scalar oracle, summed per cell in paper
  // order. 1, 3, 4, 7 and 40 sub-loops put 6, 18, 24, 42 and 240 loops in
  // the solver's batch; the last two span several kernel calls, and 40
  // takes disk_field past one batch too.
  const auto& offsets = neighbor_offsets();
  const num::Vec3 victim{};
  for (const int sub_loops : {1, 3, 4, 7, 40}) {
    for (const double ecd_nm : {20.0, 35.0, 55.0, 90.0, 120.0, 175.0}) {
      dev::StackGeometry stack;
      stack.ecd = ecd_nm * 1e-9;
      stack.sub_loops = sub_loops;
      for (const double ratio : {1.0, 1.1, 1.5, 2.0, 2.6, 3.3, 4.0}) {
        const double pitch = ratio * stack.ecd;
        const InterCellSolver solver(stack, pitch);
        double fixed = 0.0;
        for (int i = 0; i < 8; ++i) {
          const num::Vec3 cell{offsets[i].dx * pitch, offsets[i].dy * pitch,
                               0.0};
          auto hz = [&](dev::Layer layer) {
            const mag::DiskSource disk = stack.source_for(layer, cell);
            const num::Vec3 want = oracle_disk_field(disk, victim);
            EXPECT_TRUE(same_bits(mag::disk_field(disk, victim), want))
                << sub_loops << " sub-loops, eCD " << ecd_nm
                << " nm, pitch/eCD " << ratio << ", C" << i;
            return want.z;
          };
          fixed += hz(dev::Layer::kReferenceLayer) +
                   hz(dev::Layer::kHardLayer);
          EXPECT_EQ(bits(solver.fl_unit_field(i)),
                    bits(hz(dev::Layer::kFreeLayer)))
              << sub_loops << " sub-loops, eCD " << ecd_nm
              << " nm, pitch/eCD " << ratio << ", C" << i;
        }
        EXPECT_EQ(bits(solver.fixed_field()), bits(fixed))
            << sub_loops << " sub-loops, eCD " << ecd_nm << " nm, pitch/eCD "
            << ratio;
      }
    }
  }
}

TEST(InterCellSolver, BuildCountsItsKeValuesOnceInFullLanes) {
  // One default build: 2 rings x 3 layers x 4 sub-loops off-axis loops,
  // three full 8-lane blocks in one kernel call.
  obs::Registry reg;
  {
    obs::ScopedRegistry guard(&reg);
    const InterCellSolver solver(stack55(), 90e-9);
  }
  const auto counters = reg.snapshot().counters;
  EXPECT_EQ(counters.at("magnetics.ke_values"), 24u);
  EXPECT_EQ(counters.at("magnetics.ke_lane_slots"), 24u);

  // A lone disk's 4 off-axis sub-loops fit no full block.
  reg.reset();
  {
    obs::ScopedRegistry guard(&reg);
    mag::disk_field(stack55().source_for(dev::Layer::kFreeLayer,
                                         {90e-9, 0.0, 0.0}),
                    {});
  }
  const auto lone = reg.snapshot().counters;
  EXPECT_EQ(lone.at("magnetics.ke_values"), 4u);
  EXPECT_EQ(lone.count("magnetics.ke_lane_slots"), 0u);
}

TEST(InterCellSolver, RejectsBiotSavart) {
  EXPECT_THROW(InterCellSolver(stack55(), 90e-9, mag::FieldMethod::kBiotSavart),
               util::ContractViolation);
}

TEST(InterCellSolver, FieldMonotoneInOnesCounts) {
  // Adding a '1' anywhere always raises Hz_s_inter (AP free layers point
  // along -z and contribute positively at the victim plane... the FL unit
  // contribution of a P neighbor is negative).
  const InterCellSolver solver(stack55(), 90e-9);
  for (int i = 0; i < 8; ++i) {
    EXPECT_LT(solver.fl_unit_field(i), 0.0) << "aggressor " << i;
  }
  EXPECT_THROW(solver.fl_unit_field(8), util::ContractViolation);
}

TEST(InterCellSolver, ClassFieldsGridMatchesSteps) {
  // Fig. 4a's 25 points: the field for class (d, g) is
  // base + d*direct_step + g*diagonal_step.
  const InterCellSolver solver(stack55(), 90e-9);
  const double base = solver.field_for(Np8::all_parallel());
  for (int d = 0; d <= 4; ++d) {
    for (int g = 0; g <= 4; ++g) {
      const double hz = solver.field_for(Np8Class{d, g}.representative());
      const double expected =
          base + d * solver.direct_step() + g * solver.diagonal_step();
      EXPECT_NEAR(hz, expected, std::abs(expected) * 1e-9 + 1e-9);
    }
  }
}

TEST(InterCellSolver, CouplingDecaysWithPitch) {
  const auto stack = stack55();
  double prev = 1e300;
  for (double pitch : {90e-9, 120e-9, 160e-9, 200e-9}) {
    const InterCellSolver solver(stack, pitch);
    const auto range = solver.field_range();
    const double spread = range.max - range.min;
    EXPECT_LT(spread, prev);
    prev = spread;
  }
  // At 200 nm the variation is negligible (Psi ~ 0 in Fig. 4b).
  EXPECT_LT(a_per_m_to_oe(prev), 10.0);
}

// --- coupling factor Psi ----------------------------------------------------

TEST(CouplingFactor, MatchesRangeOverHc) {
  const auto stack = stack55();
  const InterCellSolver solver(stack, 90e-9);
  const double hc = oe_to_a_per_m(2200.0);
  const auto range = solver.field_range();
  EXPECT_NEAR(coupling_factor(solver, hc), (range.max - range.min) / hc,
              1e-15);
  // Paper: the 80 Oe spread over 2.2 kOe gives Psi ~ 3.6 %.
  EXPECT_NEAR(coupling_factor(stack, 90e-9, hc), 0.036, 0.004);
}

TEST(CouplingFactor, PaperPitchMultiples) {
  // Fig. 5 annotations for eCD = 35 nm: Psi ~ 1 % at 3x, ~2 % at 2x,
  // ~7 % at 1.5x eCD. Our calibration gives 0.9 / 3.0 / 7.6 %.
  dev::StackGeometry g;
  g.ecd = 35e-9;
  const double hc = oe_to_a_per_m(2200.0);
  EXPECT_NEAR(coupling_factor(g, 3.0 * g.ecd, hc), 0.01, 0.004);
  EXPECT_NEAR(coupling_factor(g, 2.0 * g.ecd, hc), 0.025, 0.008);
  EXPECT_NEAR(coupling_factor(g, 1.5 * g.ecd, hc), 0.07, 0.015);
}

TEST(CouplingFactor, MonotoneDecreasingInPitch) {
  dev::StackGeometry g;
  g.ecd = 35e-9;
  const double hc = oe_to_a_per_m(2200.0);
  double prev = 1e300;
  for (double pitch : num::linspace(1.5 * g.ecd, 200e-9, 24)) {
    const double psi = coupling_factor(g, pitch, hc);
    EXPECT_LT(psi, prev) << "pitch " << pitch;
    prev = psi;
  }
}

TEST(CouplingFactor, LargerDevicesCoupleMoreAtFixedPitch) {
  // Fig. 4b: at a given pitch, bigger eCD -> bigger Psi (larger moments and
  // smaller edge-to-edge gap).
  const double hc = oe_to_a_per_m(2200.0);
  const double pitch = 100e-9;
  double prev = 0.0;
  for (double ecd : {20e-9, 35e-9, 55e-9}) {
    dev::StackGeometry g;
    g.ecd = ecd;
    const double psi = coupling_factor(g, pitch, hc);
    EXPECT_GT(psi, prev);
    prev = psi;
  }
}

TEST(CouplingFactor, MaxDensityPitchHitsThreshold) {
  dev::StackGeometry g;
  g.ecd = 35e-9;
  const double hc = oe_to_a_per_m(2200.0);
  const double pitch = max_density_pitch(g, 0.02, hc, 1.5 * g.ecd, 200e-9);
  EXPECT_NEAR(coupling_factor(g, pitch, hc), 0.02, 1e-6);
  // Paper: ~80 nm for eCD = 35 nm (our calibration: ~76 nm).
  EXPECT_GT(pitch, 65e-9);
  EXPECT_LT(pitch, 90e-9);
  // Threshold already met at max density -> returns pitch_min.
  EXPECT_DOUBLE_EQ(max_density_pitch(g, 0.5, hc, 1.5 * g.ecd, 200e-9),
                   1.5 * g.ecd);
  // Unreachable threshold throws.
  EXPECT_THROW(max_density_pitch(g, 1e-6, hc, 1.5 * g.ecd, 200e-9),
               util::NumericalError);
}

// --- DataGrid and patterns --------------------------------------------------

/// Number of cells of `g` storing 1.
std::size_t ones(const DataGrid& g) {
  std::size_t n = 0;
  for (std::size_t r = 0; r < g.rows(); ++r) {
    for (std::size_t c = 0; c < g.cols(); ++c) n += g.at(r, c);
  }
  return n;
}

TEST(DataGrid, BasicOperations) {
  DataGrid g(3, 4, 0);
  EXPECT_EQ(g.rows(), 3u);
  EXPECT_EQ(g.cols(), 4u);
  EXPECT_EQ(ones(g), 0u);
  g.set(2, 3, 1);
  EXPECT_EQ(g.at(2, 3), 1);
  EXPECT_EQ(ones(g), 1u);
  EXPECT_THROW(g.at(3, 0), util::ContractViolation);
  EXPECT_THROW(g.set(0, 0, 2), util::ContractViolation);
  EXPECT_THROW(DataGrid(0, 1), util::ContractViolation);
}

TEST(DataPattern, GeneratorsProduceExpectedDensity) {
  util::Rng rng(5);
  EXPECT_EQ(ones(make_pattern(PatternKind::kAllZero, 4, 4, rng)), 0u);
  EXPECT_EQ(ones(make_pattern(PatternKind::kAllOne, 4, 4, rng)), 16u);
  EXPECT_EQ(ones(make_pattern(PatternKind::kCheckerboard, 4, 4, rng)), 8u);
  EXPECT_EQ(ones(make_pattern(PatternKind::kRowStripes, 4, 4, rng)), 8u);
  EXPECT_EQ(ones(make_pattern(PatternKind::kColStripes, 4, 4, rng)), 8u);
  const auto rnd = make_pattern(PatternKind::kRandom, 32, 32, rng);
  EXPECT_GT(ones(rnd), 384u);
  EXPECT_LT(ones(rnd), 640u);
}

TEST(DataPattern, InvertFlipsEverything) {
  util::Rng rng(6);
  const auto cb = make_pattern(PatternKind::kCheckerboard, 5, 5, rng);
  const auto inv = make_pattern(PatternKind::kCheckerboard, 5, 5, rng, true);
  for (std::size_t r = 0; r < 5; ++r) {
    for (std::size_t c = 0; c < 5; ++c) {
      EXPECT_EQ(cb.at(r, c) + inv.at(r, c), 1);
    }
  }
}

TEST(DataPattern, Names) {
  for (auto kind : deterministic_patterns()) {
    EXPECT_STRNE(to_string(kind), "?");
  }
  EXPECT_STREQ(to_string(PatternKind::kRandom), "random");
}

// --- ArrayFieldModel --------------------------------------------------------

TEST(ArrayFieldModel, Radius1CenterMatchesInterCellSolver) {
  const auto stack = stack55();
  const double pitch = 90e-9;
  const ArrayFieldModel model(stack, pitch, 1);
  const InterCellSolver solver(stack, pitch);

  util::Rng rng(7);
  for (int v : {0, 255, 0b01100110}) {
    const Np8 np(v);
    // Build a 3x3 grid with the victim at (1,1) and aggressors per NP8.
    DataGrid grid(3, 3, 0);
    const auto& offsets = neighbor_offsets();
    for (int i = 0; i < 8; ++i) {
      grid.set(static_cast<std::size_t>(1 + offsets[i].dy),
               static_cast<std::size_t>(1 + offsets[i].dx), np.bit(i));
    }
    EXPECT_NEAR(model.field_at(grid, 1, 1), solver.field_for(np),
                std::abs(solver.field_for(np)) * 1e-9 + 1e-9)
        << "NP8 = " << v;
  }
}

TEST(ArrayFieldModel, EdgeCellsSeeFewerAggressors) {
  const auto stack = stack55();
  const ArrayFieldModel model(stack, 90e-9, 1);
  DataGrid grid(5, 5, 1);  // all AP: every aggressor pushes Hz up
  const double center = model.field_at(grid, 2, 2);
  const double corner = model.field_at(grid, 0, 0);
  EXPECT_GT(center, corner);
  // Corner has exactly 3 aggressors; verify via an explicit 2x2 grid.
  DataGrid g22(2, 2, 1);
  EXPECT_NEAR(model.field_at(g22, 0, 0), corner, std::abs(corner) * 1e-12);
}

TEST(ArrayFieldModel, WiderRadiusAddsFarNeighbors) {
  const auto stack = stack55();
  const ArrayFieldModel r1(stack, 90e-9, 1);
  const ArrayFieldModel r2(stack, 90e-9, 2);
  DataGrid grid(7, 7, 1);
  const double f1 = r1.field_at(grid, 3, 3);
  const double f2 = r2.field_at(grid, 3, 3);
  EXPECT_NE(f1, f2);
  // The 5x5 correction is small but positive for the all-AP pattern.
  EXPECT_GT(f2, f1);
  EXPECT_LT(std::abs(f2 - f1), 0.35 * std::abs(f1));
}

TEST(ArrayFieldModel, UniformDataCornersAgree) {
  // Uniform data on a 3x4 grid: the map is symmetric, so corners are equal.
  const ArrayFieldModel model(stack55(), 90e-9, 1);
  DataGrid grid(3, 4, 0);
  const double corner = model.field_at(grid, 0, 0);
  EXPECT_NEAR(model.field_at(grid, 0, 3), corner, std::abs(corner) * 1e-9);
  EXPECT_NEAR(model.field_at(grid, 2, 3), corner, std::abs(corner) * 1e-9);
}

TEST(ArrayFieldModel, Validation) {
  EXPECT_THROW(ArrayFieldModel(stack55(), 90e-9, 0), util::ContractViolation);
  EXPECT_THROW(ArrayFieldModel(stack55(), 10e-9, 1), util::ContractViolation);
}

// Property sweep: the NP8 field is affine in the ones counts at any pitch.
class InterCellAffineProperty : public ::testing::TestWithParam<double> {};

TEST_P(InterCellAffineProperty, FieldAffineInCounts) {
  dev::StackGeometry g;
  g.ecd = 35e-9;
  const double pitch = GetParam() * g.ecd;
  const InterCellSolver solver(g, pitch);
  const double base = solver.field_for(Np8::all_parallel());
  for (int d = 0; d <= 4; ++d) {
    for (int g = 0; g <= 4; ++g) {
      const double expected =
          base + d * solver.direct_step() + g * solver.diagonal_step();
      const double actual =
          solver.field_for(Np8Class{d, g}.representative());
      EXPECT_NEAR(actual, expected, std::abs(expected) * 1e-9 + 1e-9);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Pitches, InterCellAffineProperty,
                         ::testing::Values(1.5, 2.0, 3.0, 4.0, 5.0));


// --- Psi definition variants ---------------------------------------------------

TEST(CouplingFactor, DefinitionOrdering) {
  const InterCellSolver solver(stack55(), 90e-9);
  const double hc = oe_to_a_per_m(2200.0);
  const double max_var =
      coupling_factor(solver, hc, PsiDefinition::kMaxVariation);
  const double max_mag =
      coupling_factor(solver, hc, PsiDefinition::kMaxMagnitude);
  const double stddev = coupling_factor(solver, hc, PsiDefinition::kStdDev);
  // The paper's definition equals the two-argument overload.
  EXPECT_DOUBLE_EQ(max_var, coupling_factor(solver, hc));
  // Std-dev over patterns is always below the full range.
  EXPECT_LT(stddev, max_var);
  EXPECT_GT(stddev, 0.0);
  // For this stack |max| (64.5 Oe) is below the range (80 Oe).
  EXPECT_LT(max_mag, max_var);
  EXPECT_GT(max_mag, 0.5 * max_var);
}

TEST(CouplingFactor, StdDevMatchesBinomialDecomposition) {
  // Hz is affine in independent +/-1 bits, so the pattern variance is the
  // sum of the per-neighbor unit-field variances: sum_i fl_i^2 (each bit
  // contributes +/-fl_i with equal probability).
  const InterCellSolver solver(stack55(), 90e-9);
  double var = 0.0;
  for (int i = 0; i < 8; ++i) {
    const double f = solver.fl_unit_field(i);
    var += f * f;
  }
  const double hc = oe_to_a_per_m(2200.0);
  const double expected = std::sqrt(var) / hc;
  // Sample std-dev over 256 patterns carries a (n/(n-1)) correction.
  EXPECT_NEAR(coupling_factor(solver, hc, PsiDefinition::kStdDev), expected,
              expected * 0.01);
}

TEST(InterCell, FieldVectorMatchesScalarSolver) {
  const auto stack = stack55();
  const InterCellSolver solver(stack, 90e-9);
  for (int v : {0, 255, 0b00101001}) {
    const auto h = intercell_field_vector(stack, 90e-9, Np8(v));
    EXPECT_NEAR(h.z, solver.field_for(Np8(v)),
                std::abs(solver.field_for(Np8(v))) * 1e-9 + 1e-9);
    // In-plane components cancel at the victim FL mid-plane center.
    EXPECT_NEAR(h.x, 0.0, 1.0);
    EXPECT_NEAR(h.y, 0.0, 1.0);
  }
}


// Property sweep: edge and corner victims always see weaker coupling than
// interior cells under uniform data (fewer aggressors).
class EdgeVictimProperty : public ::testing::TestWithParam<double> {};

TEST_P(EdgeVictimProperty, InteriorDominatesEdges) {
  dev::StackGeometry g;
  g.ecd = 35e-9;
  const ArrayFieldModel model(g, GetParam() * g.ecd, 1);
  DataGrid grid(5, 5, 1);  // uniform AP: every aggressor adds +Hz
  const double interior = model.field_at(grid, 2, 2);
  const double edge = model.field_at(grid, 0, 2);
  const double corner = model.field_at(grid, 0, 0);
  EXPECT_GT(interior, edge);
  EXPECT_GT(edge, corner);
  EXPECT_GT(corner, 0.0);
}

INSTANTIATE_TEST_SUITE_P(Pitches, EdgeVictimProperty,
                         ::testing::Values(1.5, 2.0, 3.0, 4.0));

}  // namespace
}  // namespace mram::arr
