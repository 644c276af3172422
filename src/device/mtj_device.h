#pragma once

#include "device/electrical.h"
#include "device/stack_geometry.h"
#include "device/switching.h"
#include "device/thermal.h"
#include "util/units.h"

// The MTJ device model: ties the stack geometry, electrical model and
// thermal model together and implements the paper's performance equations:
//
//   Eq. 2  Ic(Hz)    = Ic0 * (1 + s * Hz/Hk),  Ic0 = (4 e alpha / (hbar eta)) * Delta0 kB Tref
//   Eq. 3  tw(Hz)    = [ (2/(C + ln(pi^2 Delta / 4))) * (muB P / (e m (1+P^2))) * Im ]^-1
//   Eq. 4  Im        = Vp / R(Vp) - Ic(Hz)
//   Eq. 5  Delta(Hz) = Delta0 * (1 + s * Hz/Hk)^2
//
// plus thermal-activation switching/retention statistics built on Eq. 5.
//
// Stray-field inputs are always the out-of-plane component Hz at the FL,
// in A/m, quoted at the reference temperature; methods taking a temperature
// scale the stray field internally with the thermal model (the sources are
// ferromagnets whose Ms follows the same Bloch law).

namespace mram::dev {

/// Full parameter set of a device. Defaults reproduce the paper's calibrated
/// eCD = 35 nm reference device (see MtjParams::reference_device()).
struct MtjParams {
  StackGeometry stack;
  ElectricalParams electrical;
  ThermalModel thermal;

  double hk = util::oe_to_a_per_m(4646.8);  ///< anisotropy field Hk [A/m]
  double delta0 = 45.5;        ///< intrinsic thermal stability at Tref
  double hc = util::oe_to_a_per_m(2200.0);  ///< FL coercivity [A/m]

  double damping = 0.03;       ///< Gilbert damping alpha
  double stt_efficiency = 0.6007; ///< eta in Eq. 2 (fitted: Ic0 = 57.2 uA)
  double polarization = 0.6;   ///< spin polarization P in Eq. 3
  double sun_prefactor = 0.129;///< kappa: angular-averaging correction in
                               ///< Eq. 3 (fitted; see DESIGN.md sec. 3)
  double attempt_time = 1e-9;  ///< tau0 for Arrhenius retention [s]
  double tw_sigma_ln = 0.25;   ///< log-normal spread of precessional tw

  /// Paper's calibrated device scaled to diameter `ecd` [m]: Delta0 scales
  /// with the FL area (Hk held constant across sizes).
  static MtjParams reference_device(double ecd);

  void validate() const;
};

class MtjDevice {
 public:
  explicit MtjDevice(const MtjParams& params);

  const MtjParams& params() const { return params_; }
  const ElectricalModel& electrical() const { return electrical_; }

  // --- intra-cell stray field (Sec. IV-A) --------------------------------

  /// Out-of-plane intra-cell stray field Hz at the FL center [A/m] at the
  /// reference temperature (RL + HL contributions; cached after first call).
  double intra_stray_field() const;

  /// Same, but evaluated at radial position `rho` [m] from the device axis
  /// (Fig. 3d profile).
  double intra_stray_field_at(double rho) const;

  // --- Eq. 2: critical switching current ---------------------------------

  /// Intrinsic critical current Ic0 [A] at temperature `t` [K].
  double ic0(double t = 300.0) const;

  /// Critical current [A] for a switch in `dir` under stray field `hz_stray`
  /// [A/m, at Tref] (Eq. 2).
  double ic(SwitchDirection dir, double hz_stray, double t = 300.0) const;

  // --- Eqs. 3-4: Sun's average switching time ----------------------------

  /// Overdrive current Im = Vp/R(Vp) - Ic [A]; R is the resistance of the
  /// initial state at bias Vp. Non-positive Im means no precessional switch.
  double overdrive(SwitchDirection dir, double vp, double hz_stray,
                   double t = 300.0) const;

  /// Average switching time tw [s] (Eq. 3). Returns +infinity when the
  /// overdrive is non-positive (sub-critical drive).
  double switching_time(SwitchDirection dir, double vp, double hz_stray,
                        double t = 300.0) const;

  // --- Eq. 5: thermal stability and retention ----------------------------

  /// Thermal stability factor of `state` under `hz_stray` [A/m, at Tref]
  /// at temperature `t` [K] (Eq. 5 with Bloch scaling).
  double delta(MtjState state, double hz_stray, double t = 300.0) const;

  /// Arrhenius retention time tau0 * exp(Delta) [s].
  double retention_time(MtjState state, double hz_stray,
                        double t = 300.0) const;

  // --- stochastic switching ----------------------------------------------

  /// Barrier (in kB*T units) for leaving `state` under a total out-of-plane
  /// field `hz_total` [A/m at temperature t]: Delta0(T) * (1 + d*h)^2 with
  /// h = hz_total/Hk clamped to [-1, 1]. This is the Stoner--Wohlfarth
  /// barrier used by the R-H loop emulation and retention analysis.
  double barrier(MtjState state, double hz_total, double t = 300.0) const;

  /// Probability that `state` flips within `dwell` seconds under total field
  /// `hz_total` [A/m] (Neel--Brown: 1 - exp(-dwell/tau0 * exp(-barrier))).
  double flip_probability(MtjState state, double hz_total, double dwell,
                          double t = 300.0) const;

  /// Probability that a write pulse of `pulse` seconds at `vp` volts
  /// completes the switch in `dir`. Precessional regime: log-normal CDF
  /// around tw; sub-critical: thermally assisted with current-lowered
  /// barrier Delta*(1 - I/Ic).
  double write_success_probability(SwitchDirection dir, double vp,
                                   double pulse, double hz_stray,
                                   double t = 300.0) const;

  /// Probability that a read with current `i_read` [A] (always of read
  /// polarity: toward P, the AP->P write direction) disturbs `state` within
  /// `duration` seconds: thermally assisted reversal with the macrospin
  /// STT-activation barrier Delta * (1 -/+ I/Ic)^2 -- lowered for AP,
  /// raised for P. The read path's current comes from the bitline operating
  /// point (IR drop, divider, per-read TMR variation), not from an ideal
  /// bias across the device. Validated against the stochastic-LLG
  /// read-disturb ensemble (rdo::measure_read_disturb) in
  /// tests/test_readout.cpp.
  double read_disturb_probability_at_current(MtjState state, double i_read,
                                             double duration, double hz_stray,
                                             double t = 300.0) const;

  // --- derived quantities --------------------------------------------------

  /// FL magnetic moment m [A*m^2] entering Eq. 3, from the thermal-stability
  /// calibration m = Ms*V = 2*Delta0*kB*Tref / (mu0*Hk), Bloch-scaled.
  double thermal_moment(double t = 300.0) const;

 private:
  MtjParams params_;
  ElectricalModel electrical_;
  mutable double cached_intra_field_ = 0.0;
  mutable bool intra_field_valid_ = false;
};

}  // namespace mram::dev
