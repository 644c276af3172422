#include "device/mtj_device.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "magnetics/stray_field.h"
#include "util/constants.h"
#include "util/error.h"

namespace mram::dev {

namespace {

/// Standard normal CDF.
double phi(double x) { return 0.5 * std::erfc(-x / std::sqrt(2.0)); }

}  // namespace

MtjParams MtjParams::reference_device(double ecd) {
  MtjParams p;  // defaults are the eCD = 35 nm calibration
  const double ref_ecd = p.stack.ecd;
  p.stack.ecd = ecd;
  // Delta0 = Hk*Ms*V/(2 kB T) scales with the FL area for fixed Hk and
  // Ms*t, but large devices no longer reverse coherently: the activation
  // volume saturates (nucleation-limited reversal), which is why the paper
  // can quote a single Hc ~ 2.2 kOe across 35-175 nm. We cap the effective
  // Delta0 accordingly.
  constexpr double kNucleationDeltaCap = 60.0;
  const double area_ratio = (ecd * ecd) / (ref_ecd * ref_ecd);
  p.delta0 = std::min(p.delta0 * area_ratio, kNucleationDeltaCap);
  p.validate();
  return p;
}

void MtjParams::validate() const {
  stack.validate();
  electrical.validate();
  thermal.validate();
  if (hk <= 0.0) throw util::ConfigError("Hk must be positive");
  if (delta0 <= 0.0) throw util::ConfigError("Delta0 must be positive");
  if (hc <= 0.0) throw util::ConfigError("Hc must be positive");
  if (damping <= 0.0) throw util::ConfigError("damping must be positive");
  if (stt_efficiency <= 0.0) {
    throw util::ConfigError("STT efficiency must be positive");
  }
  if (polarization <= 0.0 || polarization > 1.0) {
    throw util::ConfigError("polarization must be in (0, 1]");
  }
  if (sun_prefactor <= 0.0) {
    throw util::ConfigError("Sun prefactor must be positive");
  }
  if (attempt_time <= 0.0) {
    throw util::ConfigError("attempt time must be positive");
  }
  if (tw_sigma_ln < 0.0) {
    throw util::ConfigError("tw log-sigma must be non-negative");
  }
}

MtjDevice::MtjDevice(const MtjParams& params)
    : params_(params), electrical_(params.electrical, params.stack.area()) {
  params_.validate();
}

double MtjDevice::intra_stray_field() const {
  if (!intra_field_valid_) {
    cached_intra_field_ = intra_stray_field_at(0.0);
    intra_field_valid_ = true;
  }
  return cached_intra_field_;
}

double MtjDevice::intra_stray_field_at(double rho) const {
  mag::StrayFieldSolver solver;
  const num::Vec3 origin{};
  solver.add_source("RL",
                    params_.stack.source_for(Layer::kReferenceLayer, origin));
  solver.add_source("HL", params_.stack.source_for(Layer::kHardLayer, origin));
  return solver.field_at({rho, 0.0, 0.0}).z;
}

double MtjDevice::ic0(double t) const {
  // Ic0 = (4 e alpha / (hbar eta)) * Eb0, Eb0 = Delta0 kB Tref. The product
  // Delta0(T) kB T equals Eb0 * ms_scale(T), so temperature enters only
  // through the Bloch factor.
  const double eb0 =
      params_.delta0 * util::kBoltzmann * params_.thermal.reference_temperature;
  const double prefactor = 4.0 * util::kElementaryCharge * params_.damping /
                           (util::kHbar * params_.stt_efficiency);
  return prefactor * eb0 * params_.thermal.ms_scale(t);
}

double MtjDevice::ic(SwitchDirection dir, double hz_stray, double t) const {
  const double h = hz_stray * params_.thermal.stray_field_scale(t) / params_.hk;
  return ic0(t) * (1.0 + stray_sign(dir) * h);
}

double MtjDevice::overdrive(SwitchDirection dir, double vp, double hz_stray,
                            double t) const {
  MRAM_EXPECTS(vp > 0.0, "write voltage must be positive");
  const double i = electrical_.current(initial_state(dir), vp);
  return i - ic(dir, hz_stray, t);
}

double MtjDevice::thermal_moment(double t) const {
  const double m_ref = 2.0 * params_.delta0 * util::kBoltzmann *
                       params_.thermal.reference_temperature /
                       (util::kMu0 * params_.hk);
  return m_ref * params_.thermal.ms_scale(t);
}

double MtjDevice::switching_time(SwitchDirection dir, double vp,
                                 double hz_stray, double t) const {
  const double im = overdrive(dir, vp, hz_stray, t);
  if (im <= 0.0) return std::numeric_limits<double>::infinity();

  const double d = delta(initial_state(dir), hz_stray, t);
  if (d <= 0.0) return 0.0;  // barrier collapsed; switching is immediate
  const double log_term =
      util::kEulerGamma + std::log(util::kPi * util::kPi * d / 4.0);
  const double moment_term =
      util::kBohrMagneton * params_.polarization /
      (util::kElementaryCharge * thermal_moment(t) *
       (1.0 + params_.polarization * params_.polarization));
  const double rate =
      params_.sun_prefactor * (2.0 / log_term) * moment_term * im;
  MRAM_ENSURES(rate > 0.0, "switching rate must be positive");
  return 1.0 / rate;
}

double MtjDevice::delta(MtjState state, double hz_stray, double t) const {
  const double h =
      std::clamp(hz_stray * params_.thermal.stray_field_scale(t) / params_.hk,
                 -1.0, 1.0);
  const double base = params_.delta0 * params_.thermal.delta0_scale(t);
  const double factor = 1.0 + stray_sign(state) * h;
  return base * factor * factor;
}

double MtjDevice::retention_time(MtjState state, double hz_stray,
                                 double t) const {
  return params_.attempt_time * std::exp(delta(state, hz_stray, t));
}

double MtjDevice::barrier(MtjState state, double hz_total, double t) const {
  const double h = std::clamp(hz_total / params_.hk, -1.0, 1.0);
  const double base = params_.delta0 * params_.thermal.delta0_scale(t);
  const double factor = 1.0 + state_direction(state) * h;
  return base * factor * factor;
}

double MtjDevice::flip_probability(MtjState state, double hz_total,
                                   double dwell, double t) const {
  MRAM_EXPECTS(dwell >= 0.0, "dwell time must be non-negative");
  const double b = barrier(state, hz_total, t);
  const double rate = std::exp(-b) / params_.attempt_time;
  return -std::expm1(-dwell * rate);
}

double MtjDevice::write_success_probability(SwitchDirection dir, double vp,
                                            double pulse, double hz_stray,
                                            double t) const {
  MRAM_EXPECTS(pulse >= 0.0, "pulse width must be non-negative");
  if (pulse == 0.0) return 0.0;
  const double im = overdrive(dir, vp, hz_stray, t);
  if (im > 0.0) {
    const double tw = switching_time(dir, vp, hz_stray, t);
    if (params_.tw_sigma_ln == 0.0) return pulse >= tw ? 1.0 : 0.0;
    return phi(std::log(pulse / tw) / params_.tw_sigma_ln);
  }
  // Sub-critical: thermally assisted reversal with barrier lowered linearly
  // by the drive current (Delta * (1 - I/Ic)).
  const double i = electrical_.current(initial_state(dir), vp);
  const double ic_dir = ic(dir, hz_stray, t);
  const double d = delta(initial_state(dir), hz_stray, t);
  const double eff = d * std::max(0.0, 1.0 - i / ic_dir);
  const double rate = std::exp(-eff) / params_.attempt_time;
  return -std::expm1(-pulse * rate);
}

double MtjDevice::read_disturb_probability_at_current(MtjState state,
                                                      double i_read,
                                                      double duration,
                                                      double hz_stray,
                                                      double t) const {
  MRAM_EXPECTS(i_read >= 0.0, "read current must be non-negative");
  MRAM_EXPECTS(duration >= 0.0, "read duration must be non-negative");
  if (duration == 0.0) return 0.0;

  // Positive bias pushes toward P: it destabilizes AP (barrier scaled by
  // (1 - I/Ic(AP->P))^2) and stabilizes P ((1 + I/Ic(P->AP))^2). The
  // exponent is quadratic, the macrospin STT-activation barrier (Taniguchi
  // & Imamura), not the linear form this function originally used: the
  // stochastic-LLG read-disturb Monte Carlo (rdo::measure_read_disturb)
  // reproduces the quadratic law within its statistics while the linear
  // form under-predicts disturb rates by 1-2 orders of magnitude at
  // I/Ic ~ 0.3-0.6 (tests/test_readout.cpp pins the agreement).
  double factor;
  if (state == MtjState::kAntiParallel) {
    factor = 1.0 - i_read / ic(SwitchDirection::kApToP, hz_stray, t);
  } else {
    factor = 1.0 + i_read / ic(SwitchDirection::kPToAp, hz_stray, t);
  }
  factor = std::max(factor, 0.0);
  const double eff = delta(state, hz_stray, t) * factor * factor;
  const double rate = std::exp(-eff) / params_.attempt_time;
  return -std::expm1(-duration * rate);
}

}  // namespace mram::dev
