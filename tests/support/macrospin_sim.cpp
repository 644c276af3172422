#include "support/macrospin_sim.h"

#include <algorithm>
#include <cmath>

#include "dynamics/llg_heun_step.h"
#include "support/solvers.h"
#include "util/constants.h"
#include "util/error.h"

namespace mram::dyn {

using num::Vec3;

namespace {

/// Projects solver stage inputs back onto the unit sphere so that every RHS
/// evaluation sees a unit magnetization (the renormalized RK, expressed as
/// an RHS wrapper for num::Rk4Solver).
struct ProjectedRhs {
  const LlgRhs& c;
  Vec3 operator()(double /*t*/, const Vec3& m) const {
    return llg_rhs(c, num::normalized(m));
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
    m = num::normalized(num::Rk4Solver::step(f, t, m, h, llg_rhs(rhs_, m)));
    t += h;
    ++step;
    if (trajectory && step % record_every == 0) trajectory->push_back({t, m});
  }
  // The loop records only every record_every-th step; always include the end
  // state so a trajectory never silently drops the final point.
  if (trajectory && step % record_every != 0) trajectory->push_back({t, m});
  return m;
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
template <bool kHasTorque, bool kHasNoise>
SwitchResult run_switch_loop(const detail::HeunStepCoeffs& coeffs,
                             const Vec3& h_applied, double sigma,
                             const Vec3& m0, double duration, double dt,
                             util::Rng& rng, double mz_stop) {
  const double start_sign = (m0.z >= mz_stop) ? 1.0 : -1.0;
  double mx = m0.x, my = m0.y, mz = m0.z;
  double fx = h_applied.x, fy = h_applied.y, fz = h_applied.z;
  double noise[3];
  double t = 0.0;
  while (t < duration) {
    if constexpr (kHasNoise) {
      rng.normal_fill(noise, 3);
      fx = h_applied.x + sigma * noise[0];
      fy = h_applied.y + sigma * noise[1];
      fz = h_applied.z + sigma * noise[2];
    }
    // Heun predictor-corrector (Stratonovich-consistent with the frozen
    // thermal field across the step). m is unit by invariant, so k1 needs
    // no projection.
    detail::stochastic_heun_step<kHasTorque>(coeffs, fx, fy, fz, mx, my, mz);
    t += dt;
    if (start_sign * (mz - mz_stop) < 0.0) {
      return {true, t, {mx, my, mz}};
    }
  }
  return {false, duration, {mx, my, mz}};
}

}  // namespace

SwitchResult MacrospinSim::run_until_switch(const Vec3& m0, double duration,
                                            double dt, util::Rng& rng,
                                            double mz_stop) const {
  MRAM_EXPECTS(dt > 0.0 && duration > 0.0, "invalid integration window");
  MRAM_EXPECTS(std::abs(num::norm(m0) - 1.0) < 1e-6,
               "m0 must be a unit vector");

  const double sigma = thermal_field_sigma(dt);
  const auto coeffs = detail::HeunStepCoeffs::from(rhs_, dt);
  const Vec3& h = params_.h_applied;
  if (rhs_.aj != 0.0) {
    return (sigma > 0.0)
               ? run_switch_loop<true, true>(coeffs, h, sigma, m0, duration,
                                             dt, rng, mz_stop)
               : run_switch_loop<true, false>(coeffs, h, sigma, m0, duration,
                                              dt, rng, mz_stop);
  }
  return (sigma > 0.0)
             ? run_switch_loop<false, true>(coeffs, h, sigma, m0, duration,
                                            dt, rng, mz_stop)
             : run_switch_loop<false, false>(coeffs, h, sigma, m0, duration,
                                             dt, rng, mz_stop);
}

}  // namespace mram::dyn
