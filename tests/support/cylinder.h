#pragma once

#include "magnetics/disk_source.h"
#include "numerics/vec3.h"

// Closed-form H-field of a uniformly axially magnetized cylinder
// (Derby & Olbert, Am. J. Phys. 78, 229 (2010)), expressed with Bulirsch's
// cel function. This is the *exact* field of the DiskSource geometry, the
// tests' reference: the stacked-sub-loop discretization of disk_field
// converges to it as sub_loops grows (test_magnetics). For a
// layer of thickness t and magnetization Ms, the surface current density is
// Ms and the total bound current Ms*t, matching the disk's ms_t parameter.

namespace mram::mag {

/// Exact H-field [A/m] of the uniformly magnetized cylinder described by
/// `disk` (radius, thickness, |Ms*t|, polarity) at point `p`. Preconditions:
/// thickness > 0 and `p` not on the cylinder's edge ring.
num::Vec3 cylinder_field_exact(const DiskSource& disk, const num::Vec3& p);

}  // namespace mram::mag
