#pragma once

#include <algorithm>

#include "numerics/vec3.h"
#include "util/error.h"

// Static-dispatch ODE solver policies for the Vec3 state used by the
// macrospin dynamics. The steppers are templated on the right-hand-side
// callable, so a functor RHS inlines completely: the Monte Carlo hot loops
// pay zero type-erasure overhead and make zero allocations per step.
//
// A solver policy provides
//   static constexpr int kOrder;            // global convergence order
//   static Vec3 step(Rhs&&, t, m, dt);      // one explicit step

namespace mram::num {

/// Classical fixed-step Runge--Kutta 4. The k1 overloads let a caller that
/// already evaluated f(t, m) (e.g. the LLG loop, whose state is unit by
/// invariant and needs no stage projection there) skip the first stage.
struct Rk4Solver {
  static constexpr int kOrder = 4;

  template <class Rhs>
  static Vec3 step(Rhs&& f, double t, const Vec3& m, double dt,
                   const Vec3& k1) {
    const Vec3 k2 = f(t + 0.5 * dt, m + 0.5 * dt * k1);
    const Vec3 k3 = f(t + 0.5 * dt, m + 0.5 * dt * k2);
    const Vec3 k4 = f(t + dt, m + dt * k3);
    return m + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4);
  }

  template <class Rhs>
  static Vec3 step(Rhs&& f, double t, const Vec3& m, double dt) {
    return step(f, t, m, dt, f(t, m));
  }
};

/// Heun (explicit trapezoidal) predictor-corrector. With the noise frozen
/// across the step this converges to the Stratonovich solution of the
/// stochastic LLG, which is why the thermal switching paths use it.
struct HeunSolver {
  static constexpr int kOrder = 2;

  template <class Rhs>
  static Vec3 step(Rhs&& f, double t, const Vec3& m, double dt,
                   const Vec3& k1) {
    const Vec3 k2 = f(t + dt, m + dt * k1);
    return m + (0.5 * dt) * (k1 + k2);
  }

  template <class Rhs>
  static Vec3 step(Rhs&& f, double t, const Vec3& m, double dt) {
    return step(f, t, m, dt, f(t, m));
  }
};

/// Integrates from t0 to t1 with fixed steps of the given solver policy.
/// Residual intervals smaller than half a step fold into the last step.
template <class Solver, class Rhs, class Observer>
Vec3 integrate_fixed(Rhs&& f, const Vec3& m0, double t0, double t1, double dt,
                     Observer&& observer) {
  MRAM_EXPECTS(dt > 0.0, "integrate_fixed requires dt > 0");
  MRAM_EXPECTS(t1 >= t0, "integrate_fixed requires t1 >= t0");
  Vec3 m = m0;
  double t = t0;
  while (t1 - t > 0.5 * dt) {
    const double step = std::min(dt, t1 - t);
    m = Solver::step(f, t, m, step);
    t += step;
    observer(t, m);
  }
  if (t1 - t > 1e-9 * dt) {
    m = Solver::step(f, t, m, t1 - t);
    observer(t1, m);
  }
  return m;
}

template <class Solver, class Rhs>
Vec3 integrate_fixed(Rhs&& f, const Vec3& m0, double t0, double t1,
                     double dt) {
  return integrate_fixed<Solver>(f, m0, t0, t1, dt,
                                 [](double, const Vec3&) {});
}

}  // namespace mram::num
