#pragma once

// The scalar complete elliptic integrals K(m) and E(m), m = k^2, by
// Carlson's symmetric forms R_F and R_D and the duplication algorithm
// (Carlson, Numer. Algorithms 10, 1995; Numerical Recipes style), one value
// per call. They are the tests' reference for the batched kernel
// num::ellint_ke_n (numerics/elliptic.h), which must equal them bit for
// bit: same operations in the same order, the same stopping rule
// (kCarlsonTol, kCarlsonMaxIter).

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

}  // namespace mram::num
