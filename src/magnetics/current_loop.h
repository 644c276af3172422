#pragma once

#include <cstddef>

#include "numerics/vec3.h"

// Circular bound-current loop -- the paper's elementary stray-field source
// (Sec. IV-A): a uniformly magnetized thin ferromagnetic layer is equivalent
// to a loop carrying the bound current Ib = Ms * t around its edge.
//
// Two evaluators are provided:
//   * loop_field_biot_savart -- the paper's method: the loop is cut into N
//     straight segments and the Biot--Savart contributions are summed.
//   * loop_fields_exact      -- closed form via complete elliptic integrals
//     (valid for any field point off the wire), for many loops at one point:
//     their K and E come from one batched ellint_ke_n call per block of
//     kLoopBatch loops. This is the ground truth the discretization
//     converges to (see the abl_segments scenario) and the fast path used by
//     the array solvers; loop_field_exact is its one-loop case.
//
// Note on units: the paper's Eq. (1) carries a mu0/(4*pi) prefactor, which
// produces B in tesla. We consistently return the H-field in A/m, i.e. the
// prefactor is 1/(4*pi); convert with util::a_per_m_to_oe for paper units.

namespace mram::mag {

/// A circular loop in a plane parallel to x-y.
/// `current` > 0 flows counterclockwise seen from +z, giving a magnetic
/// moment of current * pi * radius^2 along +z.
struct CurrentLoop {
  num::Vec3 center;     ///< loop center [m]
  double radius = 0.0;  ///< loop radius [m], must be > 0
  double current = 0.0; ///< bound current Ib = Ms*t [A], sign = moment sign
};

/// H-field [A/m] at point `p` by summing `segments` straight Biot--Savart
/// segments (the paper's discretization). Precondition: segments >= 3.
num::Vec3 loop_field_biot_savart(const CurrentLoop& loop, const num::Vec3& p,
                                 int segments);

/// Loops per batched elliptic-kernel call in loop_fields_exact (the size of
/// its stack buffers).
inline constexpr std::size_t kLoopBatch = 32;

/// Exact H-field [A/m] of each of the `n` loops at point `p` into out[i],
/// via complete elliptic integrals. A loop whose axis passes through `p`
/// takes the on-axis closed form and never enters the elliptic kernel; the
/// others get K and E from one num::ellint_ke_n call per kLoopBatch loops.
/// Each out[i] is bitwise the same whatever the other loops of the call.
/// Preconditions: every radius > 0, and `p` lies on no loop's wire.
void loop_fields_exact(std::size_t n, const CurrentLoop* loops,
                       const num::Vec3& p, num::Vec3* out);

/// loop_fields_exact for one loop.
num::Vec3 loop_field_exact(const CurrentLoop& loop, const num::Vec3& p);

/// On-axis closed form Hz = I R^2 / (2 (R^2 + z^2)^(3/2)); used in tests and
/// for fast center-of-FL evaluations.
double loop_field_on_axis(const CurrentLoop& loop, double z_from_center);

}  // namespace mram::mag
