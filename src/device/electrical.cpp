#include "device/electrical.h"

#include <cmath>

#include "util/constants.h"
#include "util/error.h"

namespace mram::dev {

void ElectricalParams::validate() const {
  if (ra <= 0.0) throw util::ConfigError("RA must be positive");
  if (tmr0 <= 0.0) throw util::ConfigError("TMR0 must be positive");
  if (vh <= 0.0) throw util::ConfigError("Vh must be positive");
  if (read_voltage <= 0.0) {
    throw util::ConfigError("read voltage must be positive");
  }
}

ElectricalModel::ElectricalModel(const ElectricalParams& params, double area)
    : params_(params) {
  params_.validate();
  MRAM_EXPECTS(area > 0.0, "device area must be positive");
  rp_ = params_.ra / area;
}

double ElectricalModel::tmr(double v) const {
  const double x = v / params_.vh;
  return params_.tmr0 / (1.0 + x * x);
}

double ElectricalModel::resistance(MtjState state, double v) const {
  if (state == MtjState::kParallel) return rp_;
  return rp_ * (1.0 + tmr(std::abs(v)));
}

double ElectricalModel::current(MtjState state, double v) const {
  return v / resistance(state, v);
}

double ElectricalModel::ecd_from_rp(double ra, double rp) {
  MRAM_EXPECTS(ra > 0.0 && rp > 0.0, "RA and R_P must be positive");
  return std::sqrt(4.0 / util::kPi * ra / rp);
}

}  // namespace mram::dev
