// Unit and property tests for src/magnetics: current loops (Biot--Savart vs.
// exact elliptic solution), dipole limit, disk sources, superposition solver,
// field maps.

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "magnetics/current_loop.h"
#include "magnetics/dipole.h"
#include "magnetics/disk_source.h"
#include "magnetics/stray_field.h"
#include "util/constants.h"
#include "util/error.h"
#include "util/units.h"

#include "support/cylinder.h"

namespace mram::mag {
namespace {

using num::Vec3;
using util::ContractViolation;

constexpr double kNm = 1e-9;

std::vector<CurrentLoop> loops_of(const DiskSource& disk) {
  std::vector<CurrentLoop> loops;
  append_disk_loops(disk, loops);
  return loops;
}

CurrentLoop reference_loop() {
  // A bound-current loop representative of the paper's devices:
  // R = 27.5 nm (eCD = 55 nm), Ib = 1 mA.
  return {{0, 0, 0}, 27.5 * kNm, 1e-3};
}

// --- on-axis closed form ----------------------------------------------------

TEST(CurrentLoop, OnAxisCenterField) {
  // H(0) = I / (2R).
  const auto loop = reference_loop();
  EXPECT_NEAR(loop_field_on_axis(loop, 0.0),
              loop.current / (2.0 * loop.radius), 1e-3);
}

TEST(CurrentLoop, OnAxisMatchesExactAndBiotSavart) {
  const auto loop = reference_loop();
  for (double z : {0.0, 1.0 * kNm, 5.0 * kNm, 27.5 * kNm, 100.0 * kNm}) {
    const double analytic = loop_field_on_axis(loop, z);
    const Vec3 exact = loop_field_exact(loop, {0, 0, z});
    const Vec3 bs = loop_field_biot_savart(loop, {0, 0, z}, 720);
    EXPECT_NEAR(exact.z, analytic, std::abs(analytic) * 1e-9) << "z=" << z;
    EXPECT_NEAR(bs.z, analytic, std::abs(analytic) * 1e-4) << "z=" << z;
    EXPECT_NEAR(exact.x, 0.0, std::abs(analytic) * 1e-12);
    EXPECT_NEAR(exact.y, 0.0, std::abs(analytic) * 1e-12);
  }
}

// --- Biot--Savart discretization vs. exact ----------------------------------

TEST(CurrentLoop, BiotSavartConvergesToExact) {
  const auto loop = reference_loop();
  const Vec3 p{40.0 * kNm, 10.0 * kNm, 6.8 * kNm};  // generic off-axis point
  const Vec3 exact = loop_field_exact(loop, p);
  double prev_err = 1e300;
  for (int segments : {16, 64, 256, 1024}) {
    const Vec3 approx = loop_field_biot_savart(loop, p, segments);
    const double err = num::norm(approx - exact);
    EXPECT_LT(err, prev_err);
    prev_err = err;
  }
  EXPECT_LT(prev_err, num::norm(exact) * 1e-5);
}

TEST(CurrentLoop, InPlaneExteriorFieldOpposesMoment) {
  // In the loop plane but outside the loop, Hz has the opposite sign of the
  // moment (field lines return).
  const auto loop = reference_loop();
  const Vec3 h = loop_field_exact(loop, {90.0 * kNm, 0.0, 0.0});
  EXPECT_LT(h.z, 0.0);
  EXPECT_NEAR(h.x, 0.0, std::abs(h.z) * 1e-9);  // radial component vanishes
}

TEST(CurrentLoop, FieldScalesLinearlyWithCurrent) {
  auto loop = reference_loop();
  const Vec3 p{10.0 * kNm, -5.0 * kNm, 3.0 * kNm};
  const Vec3 h1 = loop_field_exact(loop, p);
  loop.current *= -2.5;
  const Vec3 h2 = loop_field_exact(loop, p);
  EXPECT_TRUE(num::almost_equal(h2, -2.5 * h1, num::norm(h1) * 1e-12));
}

TEST(CurrentLoop, MirrorSymmetryInZ) {
  const auto loop = reference_loop();
  const Vec3 p{12.0 * kNm, 7.0 * kNm, 9.0 * kNm};
  const Vec3 up = loop_field_exact(loop, p);
  const Vec3 down = loop_field_exact(loop, {p.x, p.y, -p.z});
  // Hz is even in z; the in-plane components are odd.
  EXPECT_NEAR(up.z, down.z, std::abs(up.z) * 1e-10);
  EXPECT_NEAR(up.x, -down.x, std::abs(up.x) * 1e-10);
  EXPECT_NEAR(up.y, -down.y, std::abs(up.y) * 1e-10);
}

TEST(CurrentLoop, RotationalSymmetry) {
  const auto loop = reference_loop();
  const double rho = 33.0 * kNm;
  const double z = 4.0 * kNm;
  const Vec3 a = loop_field_exact(loop, {rho, 0.0, z});
  const double c = std::cos(1.1), s = std::sin(1.1);
  const Vec3 b = loop_field_exact(loop, {rho * c, rho * s, z});
  EXPECT_NEAR(b.z, a.z, std::abs(a.z) * 1e-10);
  // The radial magnitude is invariant.
  const double ra = std::hypot(a.x, a.y);
  const double rb = std::hypot(b.x, b.y);
  EXPECT_NEAR(ra, rb, std::max(ra, 1e-12) * 1e-9);
}

TEST(CurrentLoop, Preconditions) {
  const auto loop = reference_loop();
  EXPECT_THROW(loop_field_biot_savart(loop, {0, 0, 0}, 2), ContractViolation);
  EXPECT_THROW(
      loop_field_exact(CurrentLoop{{0, 0, 0}, -1.0, 1.0}, {0, 0, 1e-9}),
      ContractViolation);
  // A point exactly on the wire is rejected.
  EXPECT_THROW(loop_field_exact(loop, {loop.radius, 0.0, 0.0}),
               ContractViolation);
}

// --- dipole limit (property sweep over distance) ----------------------------

class DipoleLimit : public ::testing::TestWithParam<double> {};

TEST_P(DipoleLimit, LoopApproachesDipoleFarAway) {
  const auto loop = reference_loop();
  const double distance = GetParam() * loop.radius;
  // The loop's moment I * pi R^2, along +z for positive current.
  const Vec3 m{0.0, 0.0,
               loop.current * util::kPi * loop.radius * loop.radius};
  // Probe several directions at this distance.
  for (const Vec3 dir : {Vec3{1, 0, 0}, Vec3{0, 0, 1}, Vec3{0.6, 0.0, 0.8},
                         Vec3{0.36, 0.48, 0.8}}) {
    const Vec3 p = distance * dir;
    const Vec3 exact = loop_field_exact(loop, p);
    const Vec3 dip = dipole_field(m, p);
    const double tol = num::norm(dip) * 6.0 / (GetParam() * GetParam());
    EXPECT_TRUE(num::almost_equal(exact, dip, tol))
        << "distance = " << GetParam() << " R, dir = (" << dir.x << ","
        << dir.y << "," << dir.z << ")";
  }
}

INSTANTIATE_TEST_SUITE_P(Distances, DipoleLimit,
                         ::testing::Values(5.0, 10.0, 20.0, 50.0));

TEST(Dipole, OnAxisAndEquatorialValues) {
  const Vec3 m{0.0, 0.0, 1e-18};
  const double r = 50.0 * kNm;
  // On axis: H = 2m/(4 pi r^3); equatorial: H = -m/(4 pi r^3).
  const double unit = num::norm(m) / (4.0 * util::kPi * r * r * r);
  EXPECT_NEAR(dipole_field(m, {0, 0, r}).z, 2.0 * unit, 2.0 * unit * 1e-12);
  EXPECT_NEAR(dipole_field(m, {r, 0, 0}).z, -unit, unit * 1e-12);
  EXPECT_THROW(dipole_field(m, {0, 0, 0}), ContractViolation);
}

// --- disk sources -----------------------------------------------------------

TEST(DiskSource, SingleSubLoopEqualsLoop) {
  DiskSource disk;
  disk.center = {0, 0, 0};
  disk.radius = 17.5 * kNm;
  disk.thickness = 0.0;
  disk.ms_t = 2e-3;
  disk.polarity = +1;
  const auto loops = loops_of(disk);
  ASSERT_EQ(loops.size(), 1u);
  const Vec3 p{30.0 * kNm, 0.0, 5.0 * kNm};
  EXPECT_TRUE(num::almost_equal(disk_field(disk, p),
                                loop_field_exact(loops[0], p), 1e-6));
}

TEST(DiskSource, SubLoopCurrentsSumToMsT) {
  DiskSource disk;
  disk.radius = 10.0 * kNm;
  disk.thickness = 5.0 * kNm;
  disk.ms_t = 3e-3;
  disk.polarity = -1;
  disk.sub_loops = 7;
  const auto loops = loops_of(disk);
  ASSERT_EQ(loops.size(), 7u);
  double total = 0.0;
  for (const auto& l : loops) total += l.current;
  EXPECT_NEAR(total, -3e-3, 1e-15);
  // Sub-loops span the thickness symmetrically.
  EXPECT_NEAR(loops.front().center.z, -disk.thickness / 2.0 +
                  disk.thickness / 14.0, 1e-18);
  EXPECT_NEAR(loops.back().center.z,
              disk.thickness / 2.0 - disk.thickness / 14.0, 1e-18);
}

TEST(DiskSource, ThicknessDiscretizationConverges) {
  DiskSource disk;
  disk.radius = 17.5 * kNm;
  disk.thickness = 6.0 * kNm;
  disk.ms_t = 2e-3;
  const Vec3 p{0.0, 0.0, 6.8 * kNm};

  DiskSource fine = disk;
  fine.sub_loops = 64;
  const double reference = disk_field(fine, p).z;

  double prev_err = 1e300;
  for (int n : {1, 2, 4, 8, 16}) {
    DiskSource d = disk;
    d.sub_loops = n;
    const double err = std::abs(disk_field(d, p).z - reference);
    EXPECT_LE(err, prev_err * 1.01);
    prev_err = err;
  }
  EXPECT_LT(prev_err, std::abs(reference) * 1e-3);
}

TEST(DiskSource, DipoleMethodUsesTotalMoment) {
  DiskSource disk;
  disk.radius = 17.5 * kNm;
  disk.thickness = 2.0 * kNm;
  disk.ms_t = 2e-3;
  disk.polarity = -1;
  const Vec3 p{300.0 * kNm, 0.0, 0.0};
  const Vec3 h = disk_field(disk, p, FieldMethod::kDipole);
  const Vec3 expected = dipole_field({0, 0, disk_moment(disk)}, p);
  EXPECT_TRUE(num::almost_equal(h, expected, 1e-9));
  EXPECT_LT(disk_moment(disk), 0.0);
}

TEST(DiskSource, Validation) {
  // append_disk_loops and the loop-based disk_field share one validation:
  // each bad disk must be rejected by both.
  DiskSource good;
  good.radius = 1e-8;
  good.ms_t = 1e-3;
  good.thickness = 2e-9;
  good.sub_loops = 3;
  std::vector<DiskSource> bad(5, good);
  bad[0].radius = -1.0;
  bad[1].ms_t = -1e-3;
  bad[2].polarity = 2;
  bad[3].sub_loops = 0;
  bad[4].thickness = -1e-9;
  const Vec3 p{0.0, 0.0, 5e-9};
  EXPECT_EQ(loops_of(good).size(), 3u);
  std::vector<CurrentLoop> appended = loops_of(good);
  append_disk_loops(good, appended);  // appends, keeping what is there
  EXPECT_EQ(appended.size(), 6u);
  EXPECT_NO_THROW(disk_field(good, p));
  for (std::size_t i = 0; i < bad.size(); ++i) {
    EXPECT_THROW(loops_of(bad[i]), ContractViolation) << i;
    EXPECT_THROW(disk_field(bad[i], p), ContractViolation) << i;
    EXPECT_THROW(disk_field(bad[i], p, FieldMethod::kBiotSavart, 16),
                 ContractViolation)
        << i;
  }
}

// --- superposition solver ---------------------------------------------------

TEST(StrayFieldSolver, SuperposesTwoSources) {
  StrayFieldSolver solver;
  DiskSource a;
  a.radius = 10 * kNm;
  a.ms_t = 1e-3;
  DiskSource b = a;
  b.center = {50 * kNm, 0, 0};
  b.polarity = -1;
  solver.add_source("A", a);
  solver.add_source("B", b);

  const Vec3 p{20 * kNm, 5 * kNm, 3 * kNm};
  const Vec3 total = solver.field_at(p);
  const Vec3 fa = disk_field(a, p);
  const Vec3 fb = disk_field(b, p);
  EXPECT_TRUE(num::almost_equal(total, fa + fb, 1e-9));
  EXPECT_TRUE(num::almost_equal(solver.named_field_at("A", p), fa, 1e-12));
  EXPECT_TRUE(num::almost_equal(solver.named_field_at("B", p), fb, 1e-12));
  EXPECT_EQ(num::norm(solver.named_field_at("missing", p)), 0.0);
}

TEST(StrayFieldSolver, MethodSelection) {
  StrayFieldSolver solver;
  DiskSource d;
  d.radius = 15 * kNm;
  d.ms_t = 1.5e-3;
  solver.add_source("d", d);
  const Vec3 p{40 * kNm, 0, 4 * kNm};

  // The solver sums exact loop fields.
  const Vec3 exact = disk_field(d, p, FieldMethod::kExact);
  EXPECT_EQ(solver.field_at(p), exact);
  EXPECT_EQ(disk_field(d, p), exact);
  // The Biot-Savart polygon is a different method, and converges to the
  // exact loop field.
  EXPECT_NE(disk_field(d, p, FieldMethod::kBiotSavart), exact);
  const Vec3 bs = disk_field(d, p, FieldMethod::kBiotSavart, 2048);
  EXPECT_TRUE(num::almost_equal(exact, bs, num::norm(exact) * 1e-4));
}

// --- exact cylinder (Derby-Olbert) -------------------------------------------

TEST(Cylinder, MatchesOnAxisSolenoidFormula) {
  DiskSource d;
  d.radius = 10 * kNm;
  d.thickness = 20 * kNm;
  d.ms_t = 1e-3;
  const double m_s = d.ms_t / d.thickness;
  const double a = d.radius, b = 0.5 * d.thickness;
  for (double z : {15 * kNm, 30 * kNm, 100 * kNm}) {
    const double zp = z + b, zm = z - b;
    const double expected = 0.5 * m_s * (zp / std::hypot(zp, a) -
                                         zm / std::hypot(zm, a));
    EXPECT_NEAR(cylinder_field_exact(d, {0, 0, z}).z, expected,
                std::abs(expected) * 1e-10)
        << "z=" << z;
  }
}

TEST(Cylinder, StackedLoopsConvergeToExact) {
  DiskSource d;
  d.radius = 17.5 * kNm;
  d.thickness = 2.4 * kNm;
  d.ms_t = 1.7648e-3;
  d.polarity = -1;
  d.center = {0, 0, -5.2 * kNm};
  for (const Vec3 p : {Vec3{0, 0, 0}, Vec3{30 * kNm, 10 * kNm, 0},
                       Vec3{70 * kNm, 0, 0}, Vec3{5 * kNm, -3 * kNm, 4 * kNm}}) {
    const Vec3 exact = cylinder_field_exact(d, p);
    double prev_err = 1e300;
    for (int n : {1, 4, 16, 64}) {
      DiskSource approx = d;
      approx.sub_loops = n;
      const double err = num::norm(disk_field(approx, p) - exact);
      EXPECT_LE(err, prev_err * 1.001);
      prev_err = err;
    }
    EXPECT_LT(prev_err, num::norm(exact) * 1e-3);
  }
}

TEST(Cylinder, RadialComponentMatchesLoops) {
  // Regression for the in-plane component (a pure-z bug would still pass
  // the on-axis tests).
  DiskSource d;
  d.radius = 17.5 * kNm;
  d.thickness = 2.4 * kNm;
  d.ms_t = 1.7648e-3;
  d.polarity = -1;
  d.center = {0, 0, -5.2 * kNm};
  DiskSource fine = d;
  fine.sub_loops = 200;
  const Vec3 p{30 * kNm, 10 * kNm, 0};
  const Vec3 exact = cylinder_field_exact(d, p);
  const Vec3 loops = disk_field(fine, p);
  EXPECT_NEAR(exact.x, loops.x, std::abs(loops.x) * 1e-3);
  EXPECT_NEAR(exact.y, loops.y, std::abs(loops.y) * 1e-3);
  EXPECT_LT(exact.x, -100.0);  // nonzero radial field at this probe
}

TEST(Cylinder, PolarityFlipsField) {
  DiskSource d;
  d.radius = 10 * kNm;
  d.thickness = 4 * kNm;
  d.ms_t = 2e-3;
  const Vec3 p{25 * kNm, 0, 8 * kNm};
  const Vec3 up = cylinder_field_exact(d, p);
  d.polarity = -1;
  const Vec3 down = cylinder_field_exact(d, p);
  EXPECT_TRUE(num::almost_equal(up, -down, num::norm(up) * 1e-12));
}

TEST(Cylinder, Preconditions) {
  DiskSource d;
  d.radius = 10 * kNm;
  d.thickness = 0.0;
  d.ms_t = 1e-3;
  EXPECT_THROW(cylinder_field_exact(d, {0, 0, 5 * kNm}), ContractViolation);
  d.thickness = 4 * kNm;
  // Point on the edge ring is rejected.
  EXPECT_THROW(cylinder_field_exact(d, {10 * kNm, 0, 2 * kNm}),
               ContractViolation);
}


// Property sweep: superposition and linearity of the stray-field solver
// across source counts.
class SuperpositionProperty : public ::testing::TestWithParam<int> {};

TEST_P(SuperpositionProperty, FieldIsSumOfSources) {
  const int n = GetParam();
  StrayFieldSolver solver;
  std::vector<DiskSource> sources;
  for (int i = 0; i < n; ++i) {
    DiskSource d;
    d.radius = (10.0 + 2.0 * i) * kNm;
    d.thickness = 2.0 * kNm;
    d.ms_t = (0.5 + 0.3 * i) * 1e-3;
    d.polarity = (i % 2 == 0) ? +1 : -1;
    d.center = {i * 60.0 * kNm, -i * 25.0 * kNm, -5.0 * kNm};
    sources.push_back(d);
    solver.add_source("s" + std::to_string(i), d);
  }
  const Vec3 p{13.0 * kNm, 7.0 * kNm, 2.0 * kNm};
  Vec3 sum{};
  for (const auto& d : sources) sum += disk_field(d, p);
  const Vec3 total = solver.field_at(p);
  EXPECT_TRUE(num::almost_equal(total, sum, num::norm(sum) * 1e-12 + 1e-15));
  // Doubling every Ms*t doubles the field (linearity).
  StrayFieldSolver doubled;
  for (auto d : sources) {
    d.ms_t *= 2.0;
    doubled.add_source("d", d);
  }
  EXPECT_TRUE(num::almost_equal(doubled.field_at(p), 2.0 * total,
                                num::norm(total) * 1e-12 + 1e-15));
}

INSTANTIATE_TEST_SUITE_P(SourceCounts, SuperpositionProperty,
                         ::testing::Values(1, 2, 4, 8));

}  // namespace
}  // namespace mram::mag
