#include "dynamics/llg.h"

#include <cmath>

#include "util/constants.h"
#include "util/error.h"

namespace mram::dyn {

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

}  // namespace mram::dyn
