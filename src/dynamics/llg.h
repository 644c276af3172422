#pragma once

#include <vector>

#include "numerics/solvers.h"
#include "numerics/vec3.h"
#include "util/rng.h"

// Macrospin Landau--Lifshitz--Gilbert--Slonczewski (s-LLGS) solver.
//
// The paper evaluates switching with Sun's analytic model (Eqs. 3-4); this
// module provides the dynamical substrate that model approximates: a single
// macrospin with uniaxial perpendicular anisotropy, damping, spin-transfer
// torque and optional thermal fluctuations,
//
//   dm/dt = -gamma' [ m x Heff + alpha m x (m x Heff)
//                     + a_j ( m x (m x p) - alpha m x p ) ],
//
// gamma' = gamma mu0 / (1 + alpha^2), with the spin-torque field
// a_j = hbar eta I / (2 e mu0 Ms V). The abl_llg_vs_sun scenario compares the
// two; the linearized critical torque a_j = alpha * Hk reproduces Eq. 2's
// Ic0 (tested in tests/dynamics).

namespace mram::dyn {

struct LlgParams {
  double hk = 369781.0;        ///< uniaxial anisotropy field [A/m] (+z axis)
  double alpha = 0.03;         ///< Gilbert damping
  double ms = 0.6e6;           ///< saturation magnetization [A/m]
  double volume = 1.3e-24;     ///< macrospin volume [m^3]
  double temperature = 0.0;    ///< [K]; 0 disables the thermal field
  num::Vec3 h_applied{};       ///< external + stray field [A/m]
  num::Vec3 spin_polarization{0.0, 0.0, 1.0};  ///< unit vector p
  double stt_efficiency = 0.6; ///< eta
  double current = 0.0;        ///< charge current I [A]; sign selects torque
                               ///< direction along p

  /// Spin-torque field a_j [A/m] for the configured current.
  double spin_torque_field() const;

  void validate() const;
};

/// One trajectory sample.
struct TrajectoryPoint {
  double t;     ///< [s]
  num::Vec3 m;  ///< unit magnetization
};

/// Allocation-free LLG right-hand side with all parameter-derived constants
/// (gamma', a_j) precomputed. Passing this functor to the templated solver
/// policies in numerics/solvers.h inlines the whole stage evaluation -- no
/// std::function indirection in the Monte Carlo hot loops. The field `h`
/// holds applied + stray (+ thermal, for the stochastic paths) [A/m].
struct LlgRhs {
  double gamma_prime = 0.0;  ///< gamma mu0 / (1 + alpha^2)
  double alpha = 0.0;
  double hk = 0.0;
  double aj = 0.0;           ///< spin-torque field [A/m]
  num::Vec3 h{};             ///< non-anisotropy effective field [A/m]
  num::Vec3 p{0.0, 0.0, 1.0};

  num::Vec3 operator()(double /*t*/, const num::Vec3& m) const {
    const num::Vec3 heff{h.x, h.y, h.z + hk * m.z};
    const num::Vec3 mxh = cross(m, heff);
    num::Vec3 dmdt = -gamma_prime * (mxh + alpha * cross(m, mxh));
    if (aj != 0.0) {
      const num::Vec3 mxp = cross(m, p);
      dmdt += -gamma_prime * aj * (cross(m, mxp) - alpha * mxp);
    }
    return dmdt;
  }
};

struct SwitchResult {
  bool switched = false;
  double time = 0.0;  ///< time of the mz zero crossing [s]
  /// Accumulated log likelihood ratio log(dP/dQ) of the executed trajectory
  /// when the thermal noise was importance-tilted; exactly 0.0 for untilted
  /// runs. Multiplying an indicator by exp(log_weight) unbiases estimates
  /// taken under the tilted measure.
  double log_weight = 0.0;
  /// Magnetization at exit -- the crossing state when switched, the
  /// end-of-window state otherwise. The splitting driver restarts
  /// continuation trajectories from here.
  num::Vec3 m_end{};
};

/// Thermal field standard deviation per component for step dt [A/m]
/// (Brown 1963). Shared by the scalar and batched stochastic kernels.
double thermal_field_sigma(const LlgParams& params, double dt);

class MacrospinSim {
 public:
  explicit MacrospinSim(const LlgParams& params);

  const LlgParams& params() const { return params_; }

  /// Deterministic right-hand side dm/dt at magnetization m.
  num::Vec3 rhs(const num::Vec3& m) const { return rhs_(0.0, m); }

  /// Integrates deterministically (RK4) from m0 for `duration` seconds with
  /// step `dt`, renormalizing |m| every step. Returns the final state;
  /// optionally records the trajectory every `record_every` steps plus the
  /// final point.
  num::Vec3 run(const num::Vec3& m0, double duration, double dt,
                std::vector<TrajectoryPoint>* trajectory = nullptr,
                std::size_t record_every = 1) const;

  /// Stochastic integration (Heun) with the thermal field enabled when
  /// temperature > 0. Stops early once mz crosses `mz_stop`. A nonzero
  /// `tilt` (per-component mean shift of the *standard-normal* thermal
  /// deviates, importance sampling) biases the noise toward switching and
  /// accumulates the compensating log likelihood ratio in
  /// SwitchResult::log_weight; the raw draw stream is identical to the
  /// untilted run, so tilt = 0 reproduces it bit for bit.
  SwitchResult run_until_switch(const num::Vec3& m0, double duration,
                                double dt, util::Rng& rng,
                                double mz_stop = 0.0,
                                const num::Vec3& tilt = {}) const;

  /// Thermal field standard deviation per component for step dt [A/m].
  double thermal_field_sigma(double dt) const;

 private:
  LlgParams params_;
  LlgRhs rhs_;  ///< deterministic RHS with precomputed gamma', a_j
};

}  // namespace mram::dyn
