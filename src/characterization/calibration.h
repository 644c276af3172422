#pragma once

#include <string>
#include <vector>

#include "device/mtj_device.h"

// Calibration of the magnetostatic model against the paper's published data
// (the paper's own flow: measure -> calibrate intra-cell model -> extrapolate
// to arrays):
//
//   - fit_fixed_layer_ms_t : (Ms*t)_RL and (Ms*t)_HL from the Hz_s_intra
//     vs. eCD anchors digitized from Fig. 2b / Fig. 3d.
//   - (Ms*t)_FL is set by the Fig. 4a direct-neighbor step (+15 Oe per
//     P->AP flip at eCD = 55 nm, pitch = 90 nm). The step is linear in
//     (Ms*t)_FL, so the shipped value is that target over the step of a
//     unit-moment FL, once.
//
// The fitted values are baked into the defaults of StackGeometry/MtjParams;
// tests/characterization asserts that re-running the fixed-layer fit
// reproduces them, that the shipped (Ms*t)_FL gives the 15 Oe step
// (arr::InterCellSolver::direct_step), and that the shipped Sun-model
// prefactor gives the Fig. 5 switching-time level (tw(AP->P) ~ 20 ns at
// Vp = 0.72 V with intra-cell stray field only).

namespace mram::chr {

/// One digitized anchor of Fig. 2b / Fig. 3d: Hz_s_intra at the FL center.
struct IntraFieldAnchor {
  double ecd;       ///< [m]
  double hz_intra;  ///< [A/m] (negative for this stack)
  double weight = 1.0;
};

/// The anchor set used for the shipped calibration (paper Figs. 2b, 3d).
std::vector<IntraFieldAnchor> fig2b_anchors();

/// Loads anchors from a CSV file with columns `ecd_nm, hz_oe, weight`
/// (the same data ships in data/fig2b_anchors.csv). Throws
/// util::ConfigError on malformed input.
std::vector<IntraFieldAnchor> anchors_from_csv(const std::string& path);

struct FixedLayerFit {
  double ms_t_reference = 0.0;  ///< [A]
  double ms_t_hard = 0.0;       ///< [A]
  double rms_error_oe = 0.0;    ///< RMS anchor residual [Oe]
  bool converged = false;
};

/// Least-squares fit of the two fixed-layer Ms*t products on `geometry`
/// (whose thicknesses define the layer distances; its ms_t values are
/// ignored). Anchors default to fig2b_anchors().
FixedLayerFit fit_fixed_layer_ms_t(
    const dev::StackGeometry& geometry,
    const std::vector<IntraFieldAnchor>& anchors = fig2b_anchors());

/// Hz_s_intra at the FL center for `geometry` resized to `ecd` [A/m].
double intra_field_for_ecd(const dev::StackGeometry& geometry, double ecd);

}  // namespace mram::chr
