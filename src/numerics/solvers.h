#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>

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
// and Rk45Solver additionally reports an embedded local-error estimate that
// drives the adaptive controller in integrate_rk45().

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

/// Dormand--Prince embedded Runge--Kutta 5(4) pair. step() advances with the
/// 5th-order solution and returns the norm of the difference to the embedded
/// 4th-order solution as the local truncation error estimate. The pair is
/// FSAL (first-same-as-last): last_rhs is f evaluated at the step's result,
/// which is exactly the next step's k1 -- integrate_rk45 reuses it, paying 6
/// RHS evaluations per accepted step instead of 7.
struct Rk45Solver {
  static constexpr int kOrder = 5;

  struct StepResult {
    Vec3 y;        ///< 5th-order solution at t + dt
    double error;  ///< |y5 - y4|, local truncation error estimate
    Vec3 last_rhs; ///< f(t + dt, y): the next step's k1 (FSAL)
  };

  template <class Rhs>
  static StepResult step(Rhs&& f, double t, const Vec3& m, double dt) {
    return step(f, t, m, dt, f(t, m));
  }

  template <class Rhs>
  static StepResult step(Rhs&& f, double t, const Vec3& m, double dt,
                         const Vec3& k1) {
    const Vec3 k2 = f(t + dt / 5.0, m + dt * (1.0 / 5.0) * k1);
    const Vec3 k3 =
        f(t + dt * 3.0 / 10.0, m + dt * ((3.0 / 40.0) * k1 + (9.0 / 40.0) * k2));
    const Vec3 k4 = f(t + dt * 4.0 / 5.0,
                      m + dt * ((44.0 / 45.0) * k1 - (56.0 / 15.0) * k2 +
                                (32.0 / 9.0) * k3));
    const Vec3 k5 =
        f(t + dt * 8.0 / 9.0,
          m + dt * ((19372.0 / 6561.0) * k1 - (25360.0 / 2187.0) * k2 +
                    (64448.0 / 6561.0) * k3 - (212.0 / 729.0) * k4));
    const Vec3 k6 =
        f(t + dt, m + dt * ((9017.0 / 3168.0) * k1 - (355.0 / 33.0) * k2 +
                            (46732.0 / 5247.0) * k3 + (49.0 / 176.0) * k4 -
                            (5103.0 / 18656.0) * k5));
    const Vec3 y5 = m + dt * ((35.0 / 384.0) * k1 + (500.0 / 1113.0) * k3 +
                              (125.0 / 192.0) * k4 - (2187.0 / 6784.0) * k5 +
                              (11.0 / 84.0) * k6);
    const Vec3 k7 = f(t + dt, y5);
    const Vec3 y4 =
        m + dt * ((5179.0 / 57600.0) * k1 + (7571.0 / 16695.0) * k3 +
                  (393.0 / 640.0) * k4 - (92097.0 / 339200.0) * k5 +
                  (187.0 / 2100.0) * k6 + (1.0 / 40.0) * k7);
    return {y5, norm(y5 - y4), k7};
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

/// Step-size controller settings for integrate_rk45().
struct AdaptiveConfig {
  double abs_tol = 1e-9;   ///< absolute error tolerance per step
  double rel_tol = 1e-6;   ///< relative error tolerance per step
  double dt_init = 0.0;    ///< initial step; 0 picks (t1-t0)/100
  double dt_min = 0.0;     ///< floor; 0 picks 1e-12 * (t1-t0)
  double safety = 0.9;     ///< controller safety factor
  std::size_t max_steps = 10'000'000;
};

/// Adaptive Dormand--Prince integration with PI-free step-size control:
/// accepted when err <= tol = abs_tol + rel_tol * |y|, next step scaled by
/// safety * (tol/err)^(1/5) clamped to [0.2, 5]. The observer fires after
/// every *accepted* step. Throws NumericalError when the controller needs a
/// step below dt_min or exceeds max_steps.
template <class Rhs, class Observer>
Vec3 integrate_rk45(Rhs&& f, const Vec3& m0, double t0, double t1,
                    const AdaptiveConfig& config, Observer&& observer) {
  MRAM_EXPECTS(t1 >= t0, "integrate_rk45 requires t1 >= t0");
  MRAM_EXPECTS(config.abs_tol > 0.0 && config.rel_tol >= 0.0,
               "integrate_rk45 requires positive tolerances");
  const double span = t1 - t0;
  if (span == 0.0) return m0;

  double dt = (config.dt_init > 0.0) ? config.dt_init : span / 100.0;
  const double dt_min =
      (config.dt_min > 0.0) ? config.dt_min : 1e-12 * span;
  Vec3 m = m0;
  double t = t0;
  Vec3 k1 = f(t0, m0);  // FSAL: refreshed from last_rhs on every accept
  std::size_t steps = 0;
  while (t < t1) {
    if (++steps > config.max_steps) {
      throw util::NumericalError("integrate_rk45 exceeded max_steps");
    }
    const double h = std::min(dt, t1 - t);
    const auto r = Rk45Solver::step(f, t, m, h, k1);
    if (!std::isfinite(r.error)) {
      // A NaN estimate would otherwise never be accepted *and* never trip
      // the dt_min abort (comparisons are false both ways): fail fast.
      throw util::NumericalError(
          "integrate_rk45 produced a non-finite state or error estimate");
    }
    const double tol = config.abs_tol + config.rel_tol * norm(r.y);
    if (r.error <= tol) {
      t += h;
      m = r.y;
      k1 = r.last_rhs;
      observer(t, m);
    } else if (h <= dt_min) {
      throw util::NumericalError(
          "integrate_rk45 cannot meet tolerance at minimum step size");
    }
    const double scale =
        (r.error > 0.0)
            ? config.safety * std::pow(tol / r.error, 1.0 / 5.0)
            : 5.0;
    dt = std::max(h * std::clamp(scale, 0.2, 5.0), dt_min);
  }
  return m;
}

template <class Rhs>
Vec3 integrate_rk45(Rhs&& f, const Vec3& m0, double t0, double t1,
                    const AdaptiveConfig& config = {}) {
  return integrate_rk45(f, m0, t0, t1, config, [](double, const Vec3&) {});
}

}  // namespace mram::num
