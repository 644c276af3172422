#pragma once

#include <cmath>
#include <cstdint>

#include "dynamics/llg.h"

// The one canonical stochastic Heun step, shared by the batched SoA kernel
// (BatchMacrospinSim) and the tests' scalar reference
// (MacrospinSim::run_until_switch, tests/support/macrospin_sim.h). Both
// inline this exact straight-line code, so their per-trial results are
// bit-identical *by construction*: the batch kernel runs it once per lane
// over SoA arrays (where the independent lanes auto-vectorize), the scalar
// loop runs it on three locals.
//
// Normalizations multiply by 1/sqrt(|q|^2) instead of dividing each
// component: one division per projection instead of three, which matters
// most in the vectorized batch clones where division throughput is the
// bottleneck. The step assumes (mx, my, mz) is unit on entry -- the k1
// stage needs no projection, matching the scalar path's historical
// invariant.

namespace mram::dyn::detail {

/// Flops of one stochastic_heun_step<false> evaluation, counted off the
/// straight-line body below (the llg.flops metric and the derived
/// flops/cycle estimate key off these). Each RHS stage is 29 (anisotropy
/// field 2, two cross products 9 each, damping combine 9); the predictor is
/// 16 (euler 6, norm 7 = 3 mul + 2 add + sqrt + div, projection 3); the
/// corrector is 19 (blend 9, norm 7, projection 3). 2*29 + 16 + 19 = 93.
inline constexpr std::uint64_t kHeunStepFlops = 93;
/// stochastic_heun_step<true> adds two spin-torque evaluations of 30 flops
/// each (two cross products + a 4-flop combine per component).
inline constexpr std::uint64_t kHeunStepFlopsTorque = 153;
struct HeunStepCoeffs {
  double alpha = 0.0;
  double hk = 0.0;
  double neg_gp = 0.0;   ///< -gamma'
  double caj = 0.0;      ///< -gamma' * a_j
  double px = 0.0, py = 0.0, pz = 1.0;
  double dt = 0.0;
  double half_dt = 0.0;  ///< 0.5 * dt

  static HeunStepCoeffs from(const LlgRhs& rhs, double dt) {
    HeunStepCoeffs c;
    c.alpha = rhs.alpha;
    c.hk = rhs.hk;
    c.neg_gp = -rhs.gamma_prime;
    c.caj = -rhs.gamma_prime * rhs.aj;
    c.px = rhs.p.x;
    c.py = rhs.p.y;
    c.pz = rhs.p.z;
    c.dt = dt;
    c.half_dt = 0.5 * dt;
    return c;
  }
};

/// One Heun predictor-corrector step with the frozen effective field
/// (fx, fy, fz) = applied + thermal, updating (mx, my, mz) in place.
/// kHasTorque selects the spin-transfer term at compile time so the
/// torque-free loop stays branch-free too.
template <bool kHasTorque>
inline void stochastic_heun_step(const HeunStepCoeffs& c, double fx,
                                 double fy, double fz, double& mx, double& my,
                                 double& mz) {
  const double m0x = mx, m0y = my, m0z = mz;

  // k1 = rhs(m) -- m is unit by invariant, no stage projection.
  double hez = fz + c.hk * m0z;
  double cxx = m0y * hez - m0z * fy;
  double cxy = m0z * fx - m0x * hez;
  double cxz = m0x * fy - m0y * fx;
  double dxx = m0y * cxz - m0z * cxy;
  double dxy = m0z * cxx - m0x * cxz;
  double dxz = m0x * cxy - m0y * cxx;
  double k1x = (cxx + dxx * c.alpha) * c.neg_gp;
  double k1y = (cxy + dxy * c.alpha) * c.neg_gp;
  double k1z = (cxz + dxz * c.alpha) * c.neg_gp;
  if constexpr (kHasTorque) {
    const double sxx = m0y * c.pz - m0z * c.py;
    const double sxy = m0z * c.px - m0x * c.pz;
    const double sxz = m0x * c.py - m0y * c.px;
    const double txx = m0y * sxz - m0z * sxy;
    const double txy = m0z * sxx - m0x * sxz;
    const double txz = m0x * sxy - m0y * sxx;
    k1x = k1x + (txx - sxx * c.alpha) * c.caj;
    k1y = k1y + (txy - sxy * c.alpha) * c.caj;
    k1z = k1z + (txz - sxz * c.alpha) * c.caj;
  }

  // Predictor, projected onto the unit sphere.
  const double qx = m0x + k1x * c.dt;
  const double qy = m0y + k1y * c.dt;
  const double qz = m0z + k1z * c.dt;
  const double qinv = 1.0 / std::sqrt(qx * qx + qy * qy + qz * qz);
  const double ux = qx * qinv, uy = qy * qinv, uz = qz * qinv;

  // k2 = rhs(u) with the same frozen field.
  hez = fz + c.hk * uz;
  cxx = uy * hez - uz * fy;
  cxy = uz * fx - ux * hez;
  cxz = ux * fy - uy * fx;
  dxx = uy * cxz - uz * cxy;
  dxy = uz * cxx - ux * cxz;
  dxz = ux * cxy - uy * cxx;
  double k2x = (cxx + dxx * c.alpha) * c.neg_gp;
  double k2y = (cxy + dxy * c.alpha) * c.neg_gp;
  double k2z = (cxz + dxz * c.alpha) * c.neg_gp;
  if constexpr (kHasTorque) {
    const double sxx = uy * c.pz - uz * c.py;
    const double sxy = uz * c.px - ux * c.pz;
    const double sxz = ux * c.py - uy * c.px;
    const double txx = uy * sxz - uz * sxy;
    const double txy = uz * sxx - ux * sxz;
    const double txz = ux * sxy - uy * sxx;
    k2x = k2x + (txx - sxx * c.alpha) * c.caj;
    k2y = k2y + (txy - sxy * c.alpha) * c.caj;
    k2z = k2z + (txz - sxz * c.alpha) * c.caj;
  }

  // Heun corrector, renormalized.
  const double rx = m0x + (k1x + k2x) * c.half_dt;
  const double ry = m0y + (k1y + k2y) * c.half_dt;
  const double rz = m0z + (k1z + k2z) * c.half_dt;
  const double rinv = 1.0 / std::sqrt(rx * rx + ry * ry + rz * rz);
  mx = rx * rinv;
  my = ry * rinv;
  mz = rz * rinv;
}

}  // namespace mram::dyn::detail
