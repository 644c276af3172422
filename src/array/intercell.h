#pragma once

#include <array>

#include "array/neighborhood.h"
#include "device/stack_geometry.h"
#include "magnetics/disk_source.h"

// Inter-cell magnetic coupling solver (Sec. IV-B).
//
// The victim sits at the origin; each aggressor cell at lateral offset
// (dx, dy) * pitch contributes the fields of its HL, RL (fixed, data-
// independent) and FL (sign depends on the stored data) evaluated at the
// victim's FL center:
//
//   Hs_inter = sum_i [ Hs_HL(Ci) + Hs_RL(Ci) + Hs_FL(Ci) ]
//
// The solver precomputes the fixed part and the per-aggressor FL unit
// contribution once per (stack, pitch), making the 256-pattern sweep and the
// Monte Carlo loops O(#neighbors) per evaluation.
//
// That precomputation takes 6 disk evaluations, not 24: one RL, HL and FL
// field for the direct ring (C0..C3) and one for the diagonal ring (C4..C7).
// A disk's z-field at the victim depends on the cell offset only through
// rho = sqrt(dx*dx + dy*dy), and rho is bitwise equal within a ring:
// (+-1)*pitch and 0*pitch are exact, squaring drops the sign, and adding an
// exact zero or swapping the operands of + does not round differently. The
// ring values are then summed per cell in paper order, so fixed_field() and
// fl_unit_field() are bitwise what eight separate evaluations give. This
// holds for FieldMethod::kExact and kDipole; a kBiotSavart polygon is not
// rotation-invariant bit for bit, so the constructor rejects that method.
//
// With kExact the six disks' 6 x sub_loops bound-current loops (24 at the
// default 4 sub-loops) go to mag::loop_fields_exact as one batch, so their
// elliptic integrals run in 8-lane blocks; each disk's field is then its
// loops' sum in disk_field's order, bitwise what disk_field returns.

namespace mram::arr {

class InterCellSolver {
 public:
  /// `stack`: common device stack of every cell; `pitch`: center-to-center
  /// spacing [m]. Preconditions: pitch >= eCD (cells must not overlap);
  /// `method` is kExact or kDipole.
  InterCellSolver(const dev::StackGeometry& stack, double pitch,
                  mag::FieldMethod method = mag::FieldMethod::kExact);

  double pitch() const { return pitch_; }
  const dev::StackGeometry& stack() const { return stack_; }

  /// Data-independent part of Hz_s_inter at the victim FL center [A/m]:
  /// the HL + RL fields of all eight aggressors.
  double fixed_field() const { return fixed_; }

  /// FL contribution of aggressor Ci when it stores P (data 0) [A/m].
  /// The AP contribution is the negation.
  double fl_unit_field(int i) const;

  /// Total out-of-plane inter-cell stray field for a neighborhood pattern.
  double field_for(Np8 np8) const;

  /// Extremes over all 256 patterns: {min, max}. The minimum is NP8 = 0
  /// (all P) and the maximum NP8 = 255 (all AP) for this stack orientation.
  struct Range {
    double min;
    double max;
  };
  Range field_range() const;

  /// Per-step increments of Fig. 4a: the field change when one direct
  /// (respectively diagonal) neighbor flips P -> AP.
  double direct_step() const;
  double diagonal_step() const;

 private:
  dev::StackGeometry stack_;
  double pitch_;
  double fixed_ = 0.0;
  std::array<double, 8> fl_unit_{};  // FL field of Ci in P state
};

}  // namespace mram::arr
