#pragma once

#include <vector>

#include "dynamics/llg.h"
#include "numerics/vec3.h"
#include "util/rng.h"

// The scalar macrospin s-LLGS integrator, one trial at a time: the tests'
// reference for the batched kernel (dynamics/llg_batch.h), which must equal
// run_until_switch trial for trial, bit for bit. Both inline the one shared
// stochastic Heun step (dynamics/llg_heun_step.h) and draw noise through
// Rng::normal_fill in the same order. run() adds a deterministic RK4
// integrator (support/solvers.h) for the closed-form checks (precession
// period, Ic0, energy decay).

namespace mram::dyn {

/// One trajectory sample.
struct TrajectoryPoint {
  double t;     ///< [s]
  num::Vec3 m;  ///< unit magnetization
};

/// The deterministic LLG right-hand side dm/dt at magnetization m, with the
/// field `c.h` (applied + stray) and the constants of `c`.
inline num::Vec3 llg_rhs(const LlgRhs& c, const num::Vec3& m) {
  const num::Vec3 heff{c.h.x, c.h.y, c.h.z + c.hk * m.z};
  const num::Vec3 mxh = cross(m, heff);
  num::Vec3 dmdt = -c.gamma_prime * (mxh + c.alpha * cross(m, mxh));
  if (c.aj != 0.0) {
    const num::Vec3 mxp = cross(m, c.p);
    dmdt += -c.gamma_prime * c.aj * (cross(m, mxp) - c.alpha * mxp);
  }
  return dmdt;
}

class MacrospinSim {
 public:
  explicit MacrospinSim(const LlgParams& params);

  const LlgParams& params() const { return params_; }

  /// Integrates deterministically (RK4) from m0 for `duration` seconds with
  /// step `dt`, renormalizing |m| every step. Returns the final state;
  /// optionally records the trajectory every `record_every` steps plus the
  /// final point.
  num::Vec3 run(const num::Vec3& m0, double duration, double dt,
                std::vector<TrajectoryPoint>* trajectory = nullptr,
                std::size_t record_every = 1) const;

  /// Stochastic integration (Heun) with the thermal field enabled when
  /// temperature > 0. Stops early once mz crosses `mz_stop`.
  SwitchResult run_until_switch(const num::Vec3& m0, double duration,
                                double dt, util::Rng& rng,
                                double mz_stop = 0.0) const;

  /// Thermal field standard deviation per component for step dt [A/m].
  double thermal_field_sigma(double dt) const;

 private:
  LlgParams params_;
  LlgRhs rhs_;  ///< deterministic RHS constants
};

}  // namespace mram::dyn
