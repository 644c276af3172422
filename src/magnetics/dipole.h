#pragma once

#include "numerics/vec3.h"

// Point-dipole approximation of a magnetized layer. Used (a) as the far-field
// limit every loop/disk evaluator must reproduce (property tests), and (b) as
// a cheap inter-cell field model whose error vs. the full loop model is
// quantified in the abl_dipole scenario.

namespace mram::mag {

/// H-field [A/m] of a point dipole with moment `m` [A*m^2] located at the
/// origin, evaluated at displacement `r` [m] (from dipole to field point):
///   H(r) = (1/4pi) * (3 (m.rhat) rhat - m) / |r|^3.
/// Precondition: |r| > 0.
num::Vec3 dipole_field(const num::Vec3& moment, const num::Vec3& r);

/// Convenience: z-directed dipole of moment mz at `pos`, field at `p`.
num::Vec3 dipole_field_at(double mz, const num::Vec3& pos, const num::Vec3& p);

}  // namespace mram::mag
