#include "array/intercell.h"

#include <cmath>
#include <vector>

#include "util/error.h"

namespace mram::arr {

using dev::Layer;
using num::Vec3;

InterCellSolver::InterCellSolver(const dev::StackGeometry& stack, double pitch,
                                 mag::FieldMethod method)
    : stack_(stack), pitch_(pitch) {
  stack_.validate();
  MRAM_EXPECTS(pitch >= stack.ecd,
               "pitch must be at least one device diameter");
  // Biot-Savart polygons are not rotation-invariant bit for bit, so one
  // evaluation per ring would not reproduce the per-cell sum.
  MRAM_EXPECTS(method != mag::FieldMethod::kBiotSavart,
               "InterCellSolver supports the exact and dipole methods only");

  // hz[r][l]: the z-field at the victim FL mid-plane (the origin) of layer
  // kLayers[l] of ring r's first cell, FL in the P state. Disk d = 3r + l.
  const auto& offsets = neighbor_offsets();
  constexpr Layer kLayers[3] = {Layer::kReferenceLayer, Layer::kHardLayer,
                                Layer::kFreeLayer};
  auto source = [&](int d) {
    const NeighborOffset& o = offsets[d < 3 ? 0 : 4];
    return stack_.source_for(kLayers[d % 3],
                             Vec3{o.dx * pitch_, o.dy * pitch_, 0.0});
  };
  double hz[2][3];
  if (method == mag::FieldMethod::kExact) {
    // Both rings' loops in one batch: disk d owns loops [begin[d],
    // begin[d + 1]), and its field is their sum from zero, bottom to top,
    // as disk_field adds them.
    std::vector<mag::CurrentLoop> loops;
    std::size_t begin[7] = {};
    for (int d = 0; d < 6; ++d) {
      mag::append_disk_loops(source(d), loops);
      begin[d + 1] = loops.size();
    }
    std::vector<Vec3> fields(loops.size());
    mag::loop_fields_exact(loops.size(), loops.data(), Vec3{}, fields.data());
    for (int d = 0; d < 6; ++d) {
      Vec3 h{};
      for (std::size_t i = begin[d]; i < begin[d + 1]; ++i) h += fields[i];
      hz[d / 3][d % 3] = h.z;
    }
  } else {
    for (int d = 0; d < 6; ++d) {
      hz[d / 3][d % 3] = mag::disk_field(source(d), Vec3{}, method).z;
    }
  }

  // Replay the per-cell sum in paper order so the rounding sequence is that
  // of eight separate evaluations.
  fixed_ = 0.0;
  for (int i = 0; i < 8; ++i) {
    const double* f = hz[offsets[i].diagonal ? 1 : 0];
    fixed_ += f[0] + f[1];
    fl_unit_[i] = f[2];
  }
}

double InterCellSolver::fl_unit_field(int i) const {
  MRAM_EXPECTS(i >= 0 && i < 8, "aggressor index must be 0..7");
  return fl_unit_[i];
}

double InterCellSolver::field_for(Np8 np8) const {
  double hz = fixed_;
  for (int i = 0; i < 8; ++i) {
    // Data 0 (P): +fl_unit; data 1 (AP): FL moment reversed.
    hz += np8.bit(i) ? -fl_unit_[i] : fl_unit_[i];
  }
  return hz;
}

InterCellSolver::Range InterCellSolver::field_range() const {
  double lo = fixed_;
  double hi = fixed_;
  for (double f : fl_unit_) {
    lo -= std::abs(f);
    hi += std::abs(f);
  }
  return {lo, hi};
}

double InterCellSolver::direct_step() const {
  // C0..C3 are symmetric; flipping one P -> AP changes the field by
  // -2 * fl_unit (fl_unit is negative for P aggressors, so the step is up).
  return -2.0 * fl_unit_[0];
}

double InterCellSolver::diagonal_step() const { return -2.0 * fl_unit_[4]; }

}  // namespace mram::arr
