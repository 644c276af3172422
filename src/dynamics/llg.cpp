#include "dynamics/llg.h"

#include <cmath>

#include "dynamics/llg_heun_step.h"
#include "util/constants.h"
#include "util/error.h"

namespace mram::dyn {

using num::Vec3;

double LlgParams::spin_torque_field() const {
  // a_j = hbar * eta * I / (2 e mu0 Ms V)  [A/m]
  return util::kHbar * stt_efficiency * current /
         (2.0 * util::kElementaryCharge * util::kMu0 * ms * volume);
}

void LlgParams::validate() const {
  if (hk <= 0.0) throw util::ConfigError("Hk must be positive");
  if (alpha <= 0.0) throw util::ConfigError("alpha must be positive");
  if (ms <= 0.0) throw util::ConfigError("Ms must be positive");
  if (volume <= 0.0) throw util::ConfigError("volume must be positive");
  if (temperature < 0.0) {
    throw util::ConfigError("temperature must be non-negative");
  }
  if (stt_efficiency <= 0.0) {
    throw util::ConfigError("STT efficiency must be positive");
  }
  const double p2 = num::norm2(spin_polarization);
  if (std::abs(p2 - 1.0) > 1e-6) {
    throw util::ConfigError("spin polarization direction must be a unit vector");
  }
}

namespace {

/// Projects solver stage inputs back onto the unit sphere so that every RHS
/// evaluation sees a unit magnetization (the renormalized RK of the seed
/// implementation, expressed as an RHS wrapper around the solver policies).
struct ProjectedRhs {
  const LlgRhs& f;
  Vec3 operator()(double t, const Vec3& m) const {
    return f(t, num::normalized(m));
  }
};

}  // namespace

MacrospinSim::MacrospinSim(const LlgParams& params) : params_(params) {
  params_.validate();
  rhs_.gamma_prime = util::kGyromagneticRatio * util::kMu0 /
                     (1.0 + params_.alpha * params_.alpha);
  rhs_.alpha = params_.alpha;
  rhs_.hk = params_.hk;
  rhs_.aj = params_.spin_torque_field();
  rhs_.h = params_.h_applied;
  rhs_.p = params_.spin_polarization;
}

Vec3 MacrospinSim::run(const Vec3& m0, double duration, double dt,
                       std::vector<TrajectoryPoint>* trajectory,
                       std::size_t record_every) const {
  MRAM_EXPECTS(dt > 0.0 && duration >= 0.0, "invalid integration window");
  MRAM_EXPECTS(std::abs(num::norm(m0) - 1.0) < 1e-6,
               "m0 must be a unit vector");
  MRAM_EXPECTS(record_every >= 1, "record_every must be >= 1");

  const ProjectedRhs f{rhs_};
  Vec3 m = m0;
  double t = 0.0;
  std::size_t step = 0;
  if (trajectory) trajectory->push_back({0.0, m});
  while (t < duration) {
    const double h = std::min(dt, duration - t);
    // m is unit by invariant: evaluate k1 directly, project only the inner
    // stage inputs (via f).
    m = num::normalized(num::Rk4Solver::step(f, t, m, h, rhs_(t, m)));
    t += h;
    ++step;
    if (trajectory && step % record_every == 0) trajectory->push_back({t, m});
  }
  // The loop records only every record_every-th step; always include the end
  // state so a trajectory never silently drops the final point.
  if (trajectory && step % record_every != 0) trajectory->push_back({t, m});
  return m;
}

double thermal_field_sigma(const LlgParams& params, double dt) {
  if (params.temperature <= 0.0) return 0.0;
  MRAM_EXPECTS(dt > 0.0, "dt must be positive");
  // sigma^2 = 2 alpha kB T / (gamma mu0^2 Ms V dt)  (Brown 1963).
  const double var = 2.0 * params.alpha * util::kBoltzmann *
                     params.temperature /
                     (util::kGyromagneticRatio * util::kMu0 * util::kMu0 *
                      params.ms * params.volume * dt);
  return std::sqrt(var);
}

double MacrospinSim::thermal_field_sigma(double dt) const {
  return dyn::thermal_field_sigma(params_, dt);
}

namespace {

/// The scalar stochastic Heun loop over the canonical shared step
/// (llg_heun_step.h), with the thermal-noise and spin-torque branches
/// hoisted to compile time. Noise is drawn three components per step
/// through Rng::normal_fill -- the same sampler, values and order the
/// batched kernel consumes, which (together with the shared step) keeps
/// the scalar and batched paths bit-identical.
template <bool kHasTorque, bool kHasNoise, bool kHasTilt>
SwitchResult run_switch_loop(const detail::HeunStepCoeffs& coeffs,
                             const Vec3& h_applied, double sigma,
                             const Vec3& m0, double duration, double dt,
                             util::Rng& rng, double mz_stop,
                             const Vec3& tilt) {
  static_assert(kHasNoise || !kHasTilt, "a tilt requires the thermal field");
  const double start_sign = (m0.z >= mz_stop) ? 1.0 : -1.0;
  double mx = m0.x, my = m0.y, mz = m0.z;
  double fx = h_applied.x, fy = h_applied.y, fz = h_applied.z;
  double noise[3];
  const double tilt_arr[3] = {tilt.x, tilt.y, tilt.z};
  const auto wc = detail::TiltWeightCoeffs::from(tilt, h_applied, sigma);
  double logw = 0.0;
  double t = 0.0;
  while (t < duration) {
    if constexpr (kHasNoise) {
      if constexpr (kHasTilt) {
        rng.normal_fill_tilted(noise, 3, tilt_arr, 3);
      } else {
        rng.normal_fill(noise, 3);
      }
      fx = h_applied.x + sigma * noise[0];
      fy = h_applied.y + sigma * noise[1];
      fz = h_applied.z + sigma * noise[2];
    }
    if constexpr (kHasTilt) {
      // Accumulated over *executed* steps only, from the assembled field
      // values, before the step -- the batch kernel does literally the same
      // per lane in step order, keeping the weights bit-identical.
      logw += detail::tilt_log_weight_step(wc, fx, fy, fz);
    }
    // Heun predictor-corrector (Stratonovich-consistent with the frozen
    // thermal field across the step). m is unit by invariant, so k1 needs
    // no projection.
    detail::stochastic_heun_step<kHasTorque>(coeffs, fx, fy, fz, mx, my, mz);
    t += dt;
    if (start_sign * (mz - mz_stop) < 0.0) {
      return {true, t, logw, {mx, my, mz}};
    }
  }
  return {false, duration, logw, {mx, my, mz}};
}

}  // namespace

SwitchResult MacrospinSim::run_until_switch(const Vec3& m0, double duration,
                                            double dt, util::Rng& rng,
                                            double mz_stop,
                                            const Vec3& tilt) const {
  MRAM_EXPECTS(dt > 0.0 && duration > 0.0, "invalid integration window");
  MRAM_EXPECTS(std::abs(num::norm(m0) - 1.0) < 1e-6,
               "m0 must be a unit vector");

  const double sigma = thermal_field_sigma(dt);
  const auto coeffs = detail::HeunStepCoeffs::from(rhs_, dt);
  const Vec3& h = params_.h_applied;
  const bool tilted =
      sigma > 0.0 && (tilt.x != 0.0 || tilt.y != 0.0 || tilt.z != 0.0);
  if (rhs_.aj != 0.0) {
    if (tilted) {
      return run_switch_loop<true, true, true>(coeffs, h, sigma, m0, duration,
                                               dt, rng, mz_stop, tilt);
    }
    return (sigma > 0.0)
               ? run_switch_loop<true, true, false>(coeffs, h, sigma, m0,
                                                    duration, dt, rng, mz_stop,
                                                    tilt)
               : run_switch_loop<true, false, false>(coeffs, h, sigma, m0,
                                                     duration, dt, rng,
                                                     mz_stop, tilt);
  }
  if (tilted) {
    return run_switch_loop<false, true, true>(coeffs, h, sigma, m0, duration,
                                              dt, rng, mz_stop, tilt);
  }
  return (sigma > 0.0)
             ? run_switch_loop<false, true, false>(coeffs, h, sigma, m0,
                                                   duration, dt, rng, mz_stop,
                                                   tilt)
             : run_switch_loop<false, false, false>(coeffs, h, sigma, m0,
                                                    duration, dt, rng, mz_stop,
                                                    tilt);
}

}  // namespace mram::dyn
