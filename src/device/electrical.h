#pragma once

#include "device/stack_geometry.h"

// Electrical model of the MTJ: resistance-area product, TMR and its bias
// dependence (Sec. II-A and Eq. 4 of the paper).
//
//   R_P        = RA / A                    (size-dependent, bias-independent)
//   TMR(V)     = TMR0 / (1 + (V/Vh)^2)     (standard bias roll-off)
//   R_AP(V)    = R_P * (1 + TMR(V))
//
// The eCD extraction of Sec. III inverts R_P: eCD = sqrt(4/pi * RA / R_P).

namespace mram::dev {

struct ElectricalParams {
  double ra = 4.5e-12;   ///< resistance-area product [Ohm*m^2] (4.5 Ohm*um^2)
  double tmr0 = 1.0;     ///< zero-bias TMR, as a ratio (1.0 = 100 %)
  double vh = 0.9;       ///< bias at which TMR halves [V]
  double read_voltage = 20e-3;  ///< read voltage used in R-H loops [V]

  void validate() const;
};

class ElectricalModel {
 public:
  ElectricalModel(const ElectricalParams& params, double area);

  /// Low (parallel) resistance [Ohm]; bias-independent in this model.
  double rp() const { return rp_; }

  /// Bias-dependent TMR ratio at |V| volts.
  double tmr(double v) const;

  /// Resistance [Ohm] in `state` at bias |v| (Eq. 4's R(Vp)).
  double resistance(MtjState state, double v) const;

  /// Current [A] through the device in `state` at bias v.
  double current(MtjState state, double v) const;

  const ElectricalParams& params() const { return params_; }

  /// eCD [m] recovered from RA and a measured R_P (Sec. III):
  /// eCD = sqrt(4/pi * RA / R_P).
  static double ecd_from_rp(double ra, double rp);

 private:
  ElectricalParams params_;
  double rp_;
};

}  // namespace mram::dev
