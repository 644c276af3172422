#pragma once

#include "numerics/vec3.h"

// Fixed-step ODE stepper for the Vec3 state of the scalar reference
// macrospin (support/macrospin_sim.h, MacrospinSim::run). The stepper is
// templated on the right-hand-side callable, so a functor RHS inlines
// completely and no step allocates.

namespace mram::num {

/// Classical fixed-step Runge--Kutta 4. The k1 overloads let a caller that
/// already evaluated f(t, m) (e.g. the LLG loop, whose state is unit by
/// invariant and needs no stage projection there) skip the first stage.
struct Rk4Solver {
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

}  // namespace mram::num
