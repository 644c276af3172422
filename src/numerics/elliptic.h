#pragma once

// Complete elliptic integrals K(m) and E(m), parameterized by m = k^2.
//
// Used by magnetics::loop_field_exact: the off-axis field of a circular
// current loop has a closed form in terms of K and E, which we use as the
// ground truth the discretized Biot-Savart solver must converge to
// (the abl_segments scenario) and as a fast path for axisymmetric evaluations.
//
// Implementation: Carlson symmetric forms R_F and R_D (Numerical Recipes
// style duplication algorithm), accurate to ~1e-12 over m in [0, 1).

namespace mram::num {

/// Carlson's degenerate elliptic integral R_F(x, y, z).
/// Preconditions: x, y, z >= 0 and at most one of them is zero.
double carlson_rf(double x, double y, double z);

/// Carlson's elliptic integral R_D(x, y, z).
/// Preconditions: x, y >= 0, at most one zero, z > 0.
double carlson_rd(double x, double y, double z);

/// Complete elliptic integral of the first kind, K(m), m = k^2 in [0, 1).
double ellint_k(double m);

/// Complete elliptic integral of the second kind, E(m), m = k^2 in [0, 1].
double ellint_e(double m);

/// K(m) and E(m) together, m in [0, 1): one R_F evaluation shared by both.
/// Bitwise equal to {ellint_k(m), ellint_e(m)}.
struct EllintKE {
  double k;
  double e;
};
EllintKE ellint_ke(double m);

}  // namespace mram::num
