#pragma once

#include <vector>

#include "magnetics/disk_source.h"
#include "numerics/vec3.h"

// Geometry of the bottom-pinned perpendicular MTJ stack of the paper
// (Fig. 1a): HL / SAF-spacer / RL / TB(MgO) / FL, all cylindrical with the
// same electrical critical diameter (eCD).
//
// Vertical reference: z = 0 at the FL mid-plane (the paper evaluates all
// stray fields at the FL). The fixed layers sit below the FL.
//
// Magnetostatic convention (see DESIGN.md section 3): the RL is magnetized
// along +z and the HL along -z (SAF); the P state has the FL parallel to
// the RL (+z) and carries data value 0. The HL dominates the net field at
// the FL, so the calibrated intra-cell stray field points along -z.

namespace mram::dev {

/// Which ferromagnetic layer of the stack.
enum class Layer { kFreeLayer, kReferenceLayer, kHardLayer };

/// Binary MTJ state. P = FL parallel to RL (low resistance, data 0).
enum class MtjState { kParallel, kAntiParallel };

/// Data value stored by a state: P -> 0, AP -> 1.
constexpr int state_to_bit(MtjState s) {
  return s == MtjState::kParallel ? 0 : 1;
}
constexpr MtjState bit_to_state(int b) {
  return b == 0 ? MtjState::kParallel : MtjState::kAntiParallel;
}

/// Stack description: thicknesses, vertical placement and areal moments.
/// All lengths in meters, areal moments (Ms*t bound currents) in amperes.
struct StackGeometry {
  double ecd = 35e-9;            ///< electrical critical diameter [m]

  double t_free = 2.0e-9;        ///< FL thickness [m]
  double t_barrier = 1.0e-9;     ///< MgO tunnel barrier thickness [m]
  double t_reference = 1.6e-9;   ///< RL thickness [m]
  double t_spacer = 0.4e-9;      ///< SAF Ru spacer thickness [m]
  double t_hard = 2.4e-9;        ///< HL ([Co/Pt]x) thickness [m]

  // Areal moments from the shipped calibration (characterization/
  // calibration.h: fit_fixed_layer_ms_t against the Fig. 2b/3d anchors,
  // and the FL moment that gives Fig. 4a's 15 Oe direct-neighbor step;
  // tests/characterization asserts both reproduce these).
  double ms_t_free = 2.0619e-3;      ///< |Ms*t| of FL [A]
  double ms_t_reference = 0.4773e-3; ///< |Ms*t| of RL [A]
  double ms_t_hard = 1.7648e-3;      ///< |Ms*t| of HL [A]

  /// RL magnetization sign along z (+1 here; HL is the opposite by SAF).
  int reference_polarity = +1;

  /// Thickness discretization for field evaluation (sub-loops per layer).
  int sub_loops = 4;

  /// FL radius [m].
  double radius() const { return 0.5 * ecd; }
  /// FL cross-sectional area [m^2].
  double area() const;
  /// FL volume [m^3].
  double volume() const;

  /// Signed z of a layer's center relative to the FL mid-plane [m].
  double layer_center_z(Layer layer) const;

  /// Moment polarity (+1/-1 along z) of a layer; for the FL it depends on
  /// the stored state (P = parallel to RL).
  int layer_polarity(Layer layer, MtjState state = MtjState::kParallel) const;

  /// |Ms*t| of a layer [A].
  double layer_ms_t(Layer layer) const;

  /// Magnetostatic source for one layer of a cell whose FL mid-plane center
  /// sits at `cell_center` (z component of `cell_center` = FL mid-plane z).
  mag::DiskSource source_for(Layer layer, const num::Vec3& cell_center,
                             MtjState state = MtjState::kParallel) const;

  /// Validates invariants; throws util::ConfigError when inconsistent.
  void validate() const;
};

}  // namespace mram::dev
