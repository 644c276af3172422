#include "array/coupling_factor.h"

#include <algorithm>
#include <cmath>

#include "numerics/interp.h"
#include "util/error.h"
#include "util/stats.h"

namespace mram::arr {

double coupling_factor(const InterCellSolver& solver, double hc) {
  MRAM_EXPECTS(hc > 0.0, "coercivity must be positive");
  const auto range = solver.field_range();
  return (range.max - range.min) / hc;
}

double coupling_factor(const InterCellSolver& solver, double hc,
                       PsiDefinition definition) {
  MRAM_EXPECTS(hc > 0.0, "coercivity must be positive");
  switch (definition) {
    case PsiDefinition::kMaxVariation:
      return coupling_factor(solver, hc);
    case PsiDefinition::kMaxMagnitude: {
      const auto range = solver.field_range();
      return std::max(std::abs(range.min), std::abs(range.max)) / hc;
    }
    case PsiDefinition::kStdDev: {
      util::RunningStats stats;
      for (const auto& np : all_np8_patterns()) {
        stats.add(solver.field_for(np));
      }
      return stats.stddev() / hc;
    }
  }
  throw util::ConfigError("unknown Psi definition");
}

double coupling_factor(const dev::StackGeometry& stack, double pitch,
                       double hc) {
  return coupling_factor(InterCellSolver(stack, pitch), hc);
}

double max_density_pitch(const dev::StackGeometry& stack, double threshold,
                         double hc, double pitch_min, double pitch_max) {
  MRAM_EXPECTS(threshold > 0.0, "threshold must be positive");
  const double psi_lo = coupling_factor(stack, pitch_min, hc);
  const double psi_hi = coupling_factor(stack, pitch_max, hc);
  if (psi_lo < threshold) return pitch_min;  // already below at max density
  if (psi_hi > threshold) {
    throw util::NumericalError(
        "Psi threshold not reached within the pitch range");
  }
  return num::bisect(
      [&](double pitch) {
        return coupling_factor(stack, pitch, hc) - threshold;
      },
      pitch_min, pitch_max, 1e-12);
}

}  // namespace mram::arr
