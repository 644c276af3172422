#pragma once

#include "array/intercell.h"

// The inter-cell magnetic coupling factor Psi (paper Sec. IV-B):
//
//   Psi = (max variation of Hz_s_inter over all NP8) / Hc
//
// Psi ~ 2% is the paper's threshold: the largest array density (smallest
// pitch) at which inter-cell coupling has negligible impact on device
// performance.

namespace mram::arr {

/// Psi for a given solver and coercivity Hc [A/m]. Dimensionless ratio
/// (multiply by 100 for the percentage the paper plots).
double coupling_factor(const InterCellSolver& solver, double hc);

/// Alternative coupling-strength definitions, compared against the paper's
/// in the abl_psi_definition scenario:
///  - kMaxVariation: the paper's Psi (max - min over NP8) / Hc.
///  - kMaxMagnitude: max |Hz_s_inter| over NP8 / Hc -- penalizes a large
///    data-independent (HL+RL) component that the paper's definition
///    cancels out.
///  - kStdDev: standard deviation of Hz_s_inter over the 256 equally
///    likely patterns / Hc -- the "typical" rather than worst-case view.
enum class PsiDefinition { kMaxVariation, kMaxMagnitude, kStdDev };

double coupling_factor(const InterCellSolver& solver, double hc,
                       PsiDefinition definition);

/// Convenience: builds the solver internally.
double coupling_factor(const dev::StackGeometry& stack, double pitch,
                       double hc);

/// Smallest pitch (= max density) with Psi <= threshold, found by bisection
/// over [pitch_min, pitch_max]. Psi decreases monotonically with pitch.
/// Throws util::NumericalError when the threshold is not bracketed.
double max_density_pitch(const dev::StackGeometry& stack, double threshold,
                         double hc, double pitch_min, double pitch_max);

}  // namespace mram::arr
