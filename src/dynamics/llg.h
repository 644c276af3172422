#pragma once

#include "numerics/vec3.h"

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
// Ic0 (tested in tests/dynamics). The integrator is the batched kernel
// (llg_batch.h); the scalar one-trial-at-a-time integrator it is checked
// against bit for bit is the tests' reference, tests/support/macrospin_sim.h.

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

/// The LLG right-hand side's parameter-derived constants (gamma', a_j),
/// precomputed once per parameter set; detail::HeunStepCoeffs
/// (llg_heun_step.h) is built from them. The field `h` holds applied + stray
/// [A/m].
struct LlgRhs {
  double gamma_prime = 0.0;  ///< gamma mu0 / (1 + alpha^2)
  double alpha = 0.0;
  double hk = 0.0;
  double aj = 0.0;           ///< spin-torque field [A/m]
  num::Vec3 h{};             ///< non-anisotropy effective field [A/m]
  num::Vec3 p{0.0, 0.0, 1.0};
};

struct SwitchResult {
  bool switched = false;
  double time = 0.0;  ///< time of the mz_stop crossing [s]
  /// Magnetization at exit -- the crossing state when switched, the
  /// end-of-window state otherwise.
  num::Vec3 m_end{};
};

/// Thermal field standard deviation per component for step dt [A/m]
/// (Brown 1963).
double thermal_field_sigma(const LlgParams& params, double dt);

}  // namespace mram::dyn
