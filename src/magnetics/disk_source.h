#pragma once

#include <vector>

#include "magnetics/current_loop.h"
#include "numerics/vec3.h"

// A uniformly perpendicularly magnetized cylindrical layer (disk). The bound
// surface current of magnitude |Ms*t| circulates around the edge; for layers
// whose thickness is not negligible compared to the evaluation distance the
// disk is discretized into `sub_loops` thin loops stacked across the
// thickness, each carrying Ms*t / sub_loops. A single sub-loop reduces to the
// paper's thin-layer model.

namespace mram::mag {

/// Field evaluation strategy for loop-based sources.
enum class FieldMethod {
  kExact,       ///< elliptic-integral closed form (default)
  kBiotSavart,  ///< the paper's N-segment discretization
  kDipole,      ///< point-dipole approximation (far-field)
};

struct DiskSource {
  num::Vec3 center;      ///< geometric center of the cylinder [m]
  double radius = 0.0;   ///< disk radius [m]
  double thickness = 0.0;///< layer thickness [m] (0 allowed: thin layer)
  double ms_t = 0.0;     ///< areal moment |Ms*t| [A]; the bound current
  int polarity = +1;     ///< +1: moment along +z, -1: along -z
  int sub_loops = 1;     ///< thickness discretization (>= 1)
};

/// Appends the disk's stack of bound-current loops to `out`, bottom to top.
void append_disk_loops(const DiskSource& disk, std::vector<CurrentLoop>& out);

/// H-field [A/m] of the disk at `p`.
/// `segments` is only used with FieldMethod::kBiotSavart.
num::Vec3 disk_field(const DiskSource& disk, const num::Vec3& p,
                     FieldMethod method = FieldMethod::kExact,
                     int segments = 256);

/// Total magnetic moment [A*m^2] (signed, along z).
double disk_moment(const DiskSource& disk);

}  // namespace mram::mag
