#pragma once

#include <cstddef>

// Complete elliptic integrals K(m) and E(m), parameterized by m = k^2.
//
// Used by magnetics::loop_fields_exact: the off-axis field of a circular
// current loop has a closed form in terms of K and E, which we use as the
// ground truth the discretized Biot-Savart solver must converge to
// (the abl_segments scenario) and as the field of every loop-based source
// the array solvers evaluate.
//
// Implementation: Carlson symmetric forms R_F and R_D by the duplication
// algorithm (Carlson, Numer. Algorithms 10, 1995; Numerical Recipes style),
// iterated until every relative deviation from the mean is below 1e-12,
// which leaves K and E accurate to ~1e-12 over m in [0, 1).

namespace mram::num {

/// Carlson's duplication stops once every relative deviation from the mean
/// is below kCarlsonTol, or after kCarlsonMaxIter steps.
inline constexpr double kCarlsonTol = 1e-12;
inline constexpr int kCarlsonMaxIter = 200;

/// Values per lockstep block of ellint_ke_n: full blocks of this many
/// values run in SIMD lanes, the remainder one value at a time.
inline constexpr std::size_t kKeLanes = 8;

/// K(m[i]) into k[i] and E(m[i]) into e[i] for i < n, each bitwise equal to
/// the scalar Carlson forms K = R_F(0, 1 - m, 1) and
/// E = R_F - m/3 R_D(0, 1 - m, 1) (the tests' ellint_k and ellint_e,
/// tests/support/elliptic_ref.h). R_F and R_D of (0, 1 - m, 1) share one
/// duplication sequence, so one loop steps both, and each value freezes its
/// R_F and its R_D state at its own stopping iteration. The outputs may
/// be m itself (in place). Preconditions: every m[i] in [0, 1) (NaN is
/// rejected).
void ellint_ke_n(std::size_t n, const double* m, double* k, double* e);

/// Instruction-set level of the ellint_ke_n kernel. Every level produces
/// the same bits; ellint_ke_n always takes the widest level this build and
/// CPU support, picked once at load time.
enum class KeLevel { kPortable, kAvx2, kAvx512 };

/// Whether this build and CPU can run `level` (kPortable always can).
bool ke_level_supported(KeLevel level);

/// ellint_ke_n at an explicit level, so tests can check each level the
/// host supports. Precondition: ke_level_supported(level).
void ellint_ke_n(KeLevel level, std::size_t n, const double* m, double* k,
                 double* e);

}  // namespace mram::num
