#pragma once

// Bulirsch's generalized complete elliptic integral
//
//   cel(kc, p, a, b) = integral_0^{pi/2}
//       (a cos^2 t + b sin^2 t) /
//       ((cos^2 t + p sin^2 t) sqrt(cos^2 t + kc^2 sin^2 t)) dt,
//
// the workhorse of Derby & Olbert's closed-form field of a uniformly
// magnetized cylinder (Am. J. Phys. 78, 229 (2010)): the tests' exact
// reference for the stacked-loop disk discretization (support/cylinder.h).

namespace mram::num {

/// Bulirsch cel algorithm. Preconditions: kc != 0, p != 0.
/// Accuracy ~1e-12.
double cel(double kc, double p, double a, double b);

}  // namespace mram::num
