#pragma once

#include "array/neighborhood.h"
#include "device/stack_geometry.h"
#include "magnetics/disk_source.h"
#include "numerics/vec3.h"

// The inter-cell stray field by explicit superposition, the tests' reference
// for arr::InterCellSolver (array/intercell.h): every aggressor layer's
// disk_field summed directly, with no caching and all three components.

namespace mram::arr {

/// Full 3-component inter-cell stray field at the victim FL center for one
/// pattern, via explicit superposition of all 24 aggressor-layer sources.
num::Vec3 intercell_field_vector(const dev::StackGeometry& stack,
                                 double pitch, Np8 np8,
                                 mag::FieldMethod method =
                                     mag::FieldMethod::kExact);

}  // namespace mram::arr
