#include "array/intercell.h"

#include <cmath>

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

  // The z-field of each layer of the cell at `o` (FL in the P state), seen
  // from the victim FL mid-plane at the origin.
  struct CellField {
    double rl, hl, fl_p;
  };
  auto cell_field = [&](const NeighborOffset& o) {
    const Vec3 cell{o.dx * pitch_, o.dy * pitch_, 0.0};
    auto hz = [&](Layer layer) {
      return mag::disk_field(stack_.source_for(layer, cell), Vec3{}, method).z;
    };
    return CellField{hz(Layer::kReferenceLayer), hz(Layer::kHardLayer),
                     hz(Layer::kFreeLayer)};
  };
  const auto& offsets = neighbor_offsets();
  const CellField direct = cell_field(offsets[0]);
  const CellField diagonal = cell_field(offsets[4]);

  // Replay the per-cell sum in paper order so the rounding sequence is that
  // of eight separate evaluations.
  fixed_ = 0.0;
  for (int i = 0; i < 8; ++i) {
    const CellField& f = offsets[i].diagonal ? diagonal : direct;
    fixed_ += f.rl + f.hl;
    fl_unit_[i] = f.fl_p;
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

num::Vec3 intercell_field_vector(const dev::StackGeometry& stack,
                                 double pitch, Np8 np8,
                                 mag::FieldMethod method) {
  stack.validate();
  MRAM_EXPECTS(pitch >= stack.ecd,
               "pitch must be at least one device diameter");
  const auto& offsets = neighbor_offsets();
  Vec3 h{};
  const Vec3 victim{};
  for (int i = 0; i < 8; ++i) {
    const Vec3 cell{offsets[i].dx * pitch, offsets[i].dy * pitch, 0.0};
    h += mag::disk_field(stack.source_for(Layer::kReferenceLayer, cell),
                         victim, method);
    h += mag::disk_field(stack.source_for(Layer::kHardLayer, cell), victim,
                         method);
    h += mag::disk_field(
        stack.source_for(Layer::kFreeLayer, cell,
                         dev::bit_to_state(np8.bit(i))),
        victim, method);
  }
  return h;
}

std::vector<ClassField> np8_class_fields(const InterCellSolver& solver) {
  std::vector<ClassField> out;
  out.reserve(25);
  for (const auto& cls : all_np8_classes()) {
    out.push_back({cls, solver.field_for(cls.representative())});
  }
  return out;
}

}  // namespace mram::arr
