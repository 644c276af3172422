// Unit tests for src/numerics: Vec3, elliptic integrals, the least-squares
// optimizer, interpolation/root finding. The ODE steppers are covered by
// Solvers.* in test_engine.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "numerics/elliptic.h"
#include "numerics/interp.h"
#include "numerics/optimize.h"
#include "numerics/vec3.h"
#include "util/constants.h"
#include "util/error.h"
#include "util/rng.h"

#include "support/cel.h"
#include "support/elliptic_ref.h"

namespace mram::num {
namespace {

using util::ContractViolation;
using util::kPi;

// --- Vec3 -------------------------------------------------------------------

TEST(Vec3, Arithmetic) {
  const Vec3 a{1, 2, 3};
  const Vec3 b{4, 5, 6};
  EXPECT_EQ(a + b, (Vec3{5, 7, 9}));
  EXPECT_EQ(b - a, (Vec3{3, 3, 3}));
  EXPECT_EQ(2.0 * a, (Vec3{2, 4, 6}));
  EXPECT_EQ(a * 2.0, (Vec3{2, 4, 6}));
  EXPECT_EQ(a / 2.0, (Vec3{0.5, 1, 1.5}));
  EXPECT_EQ(-a, (Vec3{-1, -2, -3}));
}

TEST(Vec3, DotAndCross) {
  const Vec3 x{1, 0, 0};
  const Vec3 y{0, 1, 0};
  const Vec3 z{0, 0, 1};
  EXPECT_EQ(cross(x, y), z);
  EXPECT_EQ(cross(y, z), x);
  EXPECT_EQ(cross(z, x), y);
  EXPECT_DOUBLE_EQ(dot(x, y), 0.0);
  EXPECT_DOUBLE_EQ(dot(Vec3{1, 2, 3}, Vec3{4, 5, 6}), 32.0);
}

TEST(Vec3, CrossIsAnticommutative) {
  const Vec3 a{1.5, -2.0, 0.25};
  const Vec3 b{-0.5, 3.0, 1.0};
  EXPECT_TRUE(almost_equal(cross(a, b), -cross(b, a), 1e-15));
  // a x b is orthogonal to both.
  EXPECT_NEAR(dot(cross(a, b), a), 0.0, 1e-12);
  EXPECT_NEAR(dot(cross(a, b), b), 0.0, 1e-12);
}

TEST(Vec3, NormAndNormalize) {
  const Vec3 v{3, 4, 0};
  EXPECT_DOUBLE_EQ(norm2(v), 25.0);
  EXPECT_DOUBLE_EQ(norm(v), 5.0);
  EXPECT_TRUE(almost_equal(normalized(v), Vec3{0.6, 0.8, 0.0}, 1e-15));
}

// --- elliptic integrals -----------------------------------------------------

TEST(Elliptic, KnownValuesAtZero) {
  // K(0) = E(0) = pi/2.
  EXPECT_NEAR(ellint_k(0.0), kPi / 2.0, 1e-12);
  EXPECT_NEAR(ellint_e(0.0), kPi / 2.0, 1e-12);
}

TEST(Elliptic, KnownValueAtHalf) {
  // Reference values (Abramowitz & Stegun), m = k^2 = 0.5.
  EXPECT_NEAR(ellint_k(0.5), 1.8540746773013719, 1e-10);
  EXPECT_NEAR(ellint_e(0.5), 1.3506438810476755, 1e-10);
}

TEST(Elliptic, EAtOne) { EXPECT_NEAR(ellint_e(1.0), 1.0, 1e-12); }

TEST(Elliptic, DomainChecks) {
  EXPECT_THROW(ellint_k(1.0), ContractViolation);
  EXPECT_THROW(ellint_k(-0.1), ContractViolation);
  EXPECT_THROW(ellint_e(1.1), ContractViolation);
}

TEST(Elliptic, BatchedKEMatchesSeparateCallsBitwise) {
  // Every level the host runs, and the load-time dispatch, must give
  // bitwise ellint_k and ellint_e. Calls of 1, 7, 8, 9, 24 and 25 values
  // cover the 8-lane blocks, the one-lane tail and blocks whose lanes stop
  // at different iterations (m near 1 takes the most duplications).
  const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
  std::vector<double> m{0.0, 1e-300, 0.5, 1.0 - 1e-12,
                        std::nextafter(1.0, 0.0)};
  util::Rng rng(20201);
  while (m.size() < 100'005) m.push_back(rng.uniform());
  std::vector<double> want_k(m.size()), want_e(m.size());
  for (std::size_t i = 0; i < m.size(); ++i) {
    want_k[i] = ellint_k(m[i]);
    want_e[i] = ellint_e(m[i]);
  }

  using Batch = std::function<void(std::size_t, const double*, double*,
                                   double*)>;
  std::vector<std::pair<std::string, Batch>> paths{
      {"dispatch", [](std::size_t n, const double* mm, double* k, double* e) {
         ellint_ke_n(n, mm, k, e);
       }}};
  for (const auto [level, name] :
       {std::pair{KeLevel::kPortable, "portable"},
        std::pair{KeLevel::kAvx2, "avx2"},
        std::pair{KeLevel::kAvx512, "avx512"}}) {
    if (!ke_level_supported(level)) continue;
    paths.emplace_back(name, [level](std::size_t n, const double* mm,
                                     double* k, double* e) {
      ellint_ke_n(level, n, mm, k, e);
    });
  }
  EXPECT_TRUE(ke_level_supported(KeLevel::kPortable));

  // Each path covers every value once, in calls whose sizes cycle through
  // kSizes, so every size meets every part of the input.
  constexpr std::size_t kSizes[] = {1, 7, 8, 9, 24, 25};
  std::vector<double> k(m.size(), -1.0), e(m.size(), -1.0);
  for (const auto& [name, batch] : paths) {
    std::size_t call = 0;
    for (std::size_t i = 0; i < m.size(); ++call) {
      const std::size_t c = std::min(kSizes[call % 6], m.size() - i);
      batch(c, &m[i], &k[i], &e[i]);
      i += c;
    }
    std::size_t mismatches = 0;
    for (std::size_t i = 0; i < m.size(); ++i) {
      if (bits(k[i]) != bits(want_k[i]) || bits(e[i]) != bits(want_e[i])) {
        if (++mismatches <= 3) ADD_FAILURE() << name << ": m = " << m[i];
      }
      k[i] = e[i] = -1.0;
    }
    EXPECT_EQ(mismatches, 0u) << name;
  }
}

TEST(Elliptic, BatchedKERejectsOutOfDomainValues) {
  // One bad value anywhere in a call is rejected, at every level.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const double bad : {-0.1, -1e-300, 1.0, 1.5, nan}) {
    std::vector<double> m(9, 0.5);
    m[8] = bad;
    std::vector<double> k(9), e(9);
    EXPECT_THROW(ellint_ke_n(9, m.data(), k.data(), e.data()),
                 ContractViolation)
        << bad;
    EXPECT_THROW(ellint_ke_n(1, &m[8], k.data(), e.data()), ContractViolation)
        << bad;
    for (const auto level :
         {KeLevel::kPortable, KeLevel::kAvx2, KeLevel::kAvx512}) {
      if (!ke_level_supported(level)) continue;
      EXPECT_THROW(ellint_ke_n(level, 9, m.data(), k.data(), e.data()),
                   ContractViolation)
          << bad;
    }
  }
}

TEST(Elliptic, LegendreRelation) {
  // E(m) K(1-m) + E(1-m) K(m) - K(m) K(1-m) = pi/2 for all m in (0,1).
  for (double m : {0.1, 0.3, 0.5, 0.7, 0.9}) {
    const double lhs = ellint_e(m) * ellint_k(1.0 - m) +
                       ellint_e(1.0 - m) * ellint_k(m) -
                       ellint_k(m) * ellint_k(1.0 - m);
    EXPECT_NEAR(lhs, kPi / 2.0, 1e-10) << "m = " << m;
  }
}

TEST(Elliptic, MonotonicityInParameter) {
  // K increases with m, E decreases with m.
  double prev_k = ellint_k(0.0);
  double prev_e = ellint_e(0.0);
  for (double m = 0.1; m < 0.95; m += 0.1) {
    EXPECT_GT(ellint_k(m), prev_k);
    EXPECT_LT(ellint_e(m), prev_e);
    prev_k = ellint_k(m);
    prev_e = ellint_e(m);
  }
}

TEST(Elliptic, CarlsonRfSymmetry) {
  const double v = carlson_rf(1.0, 2.0, 3.0);
  EXPECT_NEAR(carlson_rf(3.0, 1.0, 2.0), v, 1e-12);
  EXPECT_NEAR(carlson_rf(2.0, 3.0, 1.0), v, 1e-12);
  // R_F(x,x,x) = 1/sqrt(x).
  EXPECT_NEAR(carlson_rf(4.0, 4.0, 4.0), 0.5, 1e-12);
}

// --- optimizers -------------------------------------------------------------

TEST(SolveSpd, SolvesKnownSystem) {
  // A = [[4,2],[2,3]], b = [2, 5] -> x = [-0.5, 2].
  const auto x = solve_spd({4, 2, 2, 3}, {2, 5});
  EXPECT_NEAR(x[0], -0.5, 1e-12);
  EXPECT_NEAR(x[1], 2.0, 1e-12);
}

TEST(SolveSpd, RejectsIndefinite) {
  EXPECT_THROW(solve_spd({1, 2, 2, 1}, {1, 1}), util::NumericalError);
}

TEST(LevenbergMarquardt, FitsLine) {
  // y = 2x + 1 with points on the line: exact fit.
  const std::vector<double> xs{0, 1, 2, 3, 4};
  auto residuals = [&](const std::vector<double>& p) {
    std::vector<double> r;
    for (double x : xs) r.push_back(p[0] * x + p[1] - (2.0 * x + 1.0));
    return r;
  };
  const auto fit = levenberg_marquardt(residuals, {0.0, 0.0});
  EXPECT_NEAR(fit.parameters[0], 2.0, 1e-6);
  EXPECT_NEAR(fit.parameters[1], 1.0, 1e-6);
  EXPECT_NEAR(fit.cost, 0.0, 1e-10);
}

TEST(LevenbergMarquardt, FitsExponential) {
  // y = 3 exp(-0.7 x), nonlinear in the decay rate.
  const std::vector<double> xs{0, 0.5, 1, 1.5, 2, 3, 4};
  auto residuals = [&](const std::vector<double>& p) {
    std::vector<double> r;
    for (double x : xs) {
      r.push_back(p[0] * std::exp(-p[1] * x) - 3.0 * std::exp(-0.7 * x));
    }
    return r;
  };
  const auto fit = levenberg_marquardt(residuals, {1.0, 0.1});
  EXPECT_NEAR(fit.parameters[0], 3.0, 1e-4);
  EXPECT_NEAR(fit.parameters[1], 0.7, 1e-4);
}

TEST(LevenbergMarquardt, RequiresEnoughResiduals) {
  auto residuals = [](const std::vector<double>& p) {
    return std::vector<double>{p[0]};
  };
  EXPECT_THROW(levenberg_marquardt(residuals, {0.0, 0.0}),
               ContractViolation);
}

// --- interpolation / roots --------------------------------------------------

TEST(Interp, Linspace) {
  const auto xs = linspace(0.0, 1.0, 5);
  ASSERT_EQ(xs.size(), 5u);
  EXPECT_DOUBLE_EQ(xs[0], 0.0);
  EXPECT_DOUBLE_EQ(xs[2], 0.5);
  EXPECT_DOUBLE_EQ(xs[4], 1.0);
  EXPECT_EQ(linspace(3.0, 9.0, 1), std::vector<double>{3.0});
}

TEST(Interp, BisectFindsRoot) {
  const double r =
      bisect([](double x) { return x * x - 2.0; }, 0.0, 2.0, 1e-12);
  EXPECT_NEAR(r, std::sqrt(2.0), 1e-10);
  EXPECT_THROW(bisect([](double x) { return x * x + 1.0; }, -1.0, 1.0),
               ContractViolation);
}

TEST(Interp, FirstCrossing) {
  const std::vector<double> xs{0, 1, 2, 3};
  const std::vector<double> ys{0, 10, 20, 30};
  const auto c = first_crossing(xs, ys, 15.0);
  ASSERT_TRUE(c.found);
  EXPECT_DOUBLE_EQ(c.x, 1.5);
  EXPECT_FALSE(first_crossing(xs, ys, 99.0).found);
}

// Property sweep: bisect solves f(x) = x^3 - c over a range of c.
class BisectProperty : public ::testing::TestWithParam<double> {};

TEST_P(BisectProperty, SolvesCubeRoot) {
  const double c = GetParam();
  const double r =
      bisect([&](double x) { return x * x * x - c; }, 0.0, 10.0, 1e-12);
  EXPECT_NEAR(r, std::cbrt(c), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(CubeRoots, BisectProperty,
                         ::testing::Values(0.1, 1.0, 8.0, 27.0, 500.0));


// --- Bulirsch cel ------------------------------------------------------------

TEST(Cel, ReducesToCompleteEllipticIntegrals) {
  // K(m) = cel(kc, 1, 1, 1) and E(m) = cel(kc, 1, 1, kc^2), kc = sqrt(1-m).
  for (double m : {0.1, 0.3, 0.5, 0.7, 0.9}) {
    const double kc = std::sqrt(1.0 - m);
    EXPECT_NEAR(cel(kc, 1.0, 1.0, 1.0), ellint_k(m), 1e-10) << "m=" << m;
    EXPECT_NEAR(cel(kc, 1.0, 1.0, kc * kc), ellint_e(m), 1e-10) << "m=" << m;
  }
}

TEST(Cel, EvenInKc) {
  EXPECT_NEAR(cel(0.4, 0.7, 1.2, -0.3), cel(-0.4, 0.7, 1.2, -0.3), 1e-12);
}

TEST(Cel, LinearInAandB) {
  // cel is linear in (a, b): cel(kc,p,a,b) = a*cel(kc,p,1,0) + b*cel(kc,p,0,1).
  const double kc = 0.35, p = 0.8;
  const double full = cel(kc, p, 1.7, -0.6);
  const double parts = 1.7 * cel(kc, p, 1.0, 0.0) - 0.6 * cel(kc, p, 0.0, 1.0);
  EXPECT_NEAR(full, parts, 1e-10);
}

TEST(Cel, NegativePBranch) {
  // For p < 0 the integrand has a pole and cel computes the Cauchy
  // principal value. Reference: symmetric-exclusion midpoint quadrature
  // (2e6 points per side, eps -> 1e-5) gives -1.07829.
  EXPECT_NEAR(cel(0.5, -0.5, 1.0, 1.0), -1.07826, 1e-4);
}

TEST(Cel, DomainChecks) {
  EXPECT_THROW(cel(0.0, 1.0, 1.0, 1.0), ContractViolation);
  EXPECT_THROW(cel(0.5, 0.0, 1.0, 1.0), ContractViolation);
}

}  // namespace
}  // namespace mram::num
