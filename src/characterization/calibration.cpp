#include "characterization/calibration.h"

#include <cmath>

#include "magnetics/stray_field.h"
#include "numerics/optimize.h"
#include "util/csv.h"
#include "util/error.h"
#include "util/units.h"

namespace mram::chr {

using util::nm_to_m;
using util::oe_to_a_per_m;

std::vector<IntraFieldAnchor> fig2b_anchors() {
  // Digitized from Fig. 2b (measured points, eCD >= 35 nm) and Fig. 3d
  // (simulated center values, eCD = 20 nm). The 35 nm point is weighted
  // highest because Fig. 4c pins it via the +/-7% Ic shift
  // (|Hz| = 0.07 * Hk = 365.7 Oe <= anchor within the error bar).
  return {
      {nm_to_m(20.0), oe_to_a_per_m(-500.0), 1.0},
      {nm_to_m(35.0), oe_to_a_per_m(-400.0), 2.0},
      {nm_to_m(55.0), oe_to_a_per_m(-280.0), 1.5},
      {nm_to_m(90.0), oe_to_a_per_m(-150.0), 1.0},
      {nm_to_m(120.0), oe_to_a_per_m(-105.0), 1.0},
      {nm_to_m(175.0), oe_to_a_per_m(-60.0), 1.0},
  };
}

std::vector<IntraFieldAnchor> anchors_from_csv(const std::string& path) {
  const auto doc = util::read_numeric_csv(path);
  const auto ecd_col = doc.column("ecd_nm");
  const auto hz_col = doc.column("hz_oe");
  const auto w_col = doc.column("weight");
  std::vector<IntraFieldAnchor> anchors;
  anchors.reserve(doc.rows.size());
  for (std::size_t i = 0; i < doc.rows.size(); ++i) {
    const auto& row = doc.rows[i];
    // The parser already rejects non-finite cells.
    if (row[ecd_col] <= 0.0) {
      throw util::ConfigError(doc.where(i) + ": anchor eCD must be positive");
    }
    if (row[w_col] < 0.0) {
      throw util::ConfigError(doc.where(i) +
                              ": anchor weight must be non-negative");
    }
    anchors.push_back({nm_to_m(row[ecd_col]), oe_to_a_per_m(row[hz_col]),
                       row[w_col]});
  }
  return anchors;
}

double intra_field_for_ecd(const dev::StackGeometry& geometry, double ecd) {
  dev::StackGeometry g = geometry;
  g.ecd = ecd;
  mag::StrayFieldSolver solver;
  const num::Vec3 origin{};
  solver.add_source("RL",
                    g.source_for(dev::Layer::kReferenceLayer, origin));
  solver.add_source("HL", g.source_for(dev::Layer::kHardLayer, origin));
  return solver.field_at({0.0, 0.0, 0.0}).z;
}

FixedLayerFit fit_fixed_layer_ms_t(
    const dev::StackGeometry& geometry,
    const std::vector<IntraFieldAnchor>& anchors) {
  MRAM_EXPECTS(anchors.size() >= 2, "need at least two anchors");

  auto residuals = [&](const std::vector<double>& params) {
    dev::StackGeometry g = geometry;
    // Parameters in mA for conditioning; clamp at zero (physical moments).
    g.ms_t_reference = std::max(params[0], 0.0) * 1e-3;
    g.ms_t_hard = std::max(params[1], 0.0) * 1e-3;
    std::vector<double> res;
    res.reserve(anchors.size());
    for (const auto& a : anchors) {
      const double model = intra_field_for_ecd(g, a.ecd);
      res.push_back(a.weight * util::a_per_m_to_oe(model - a.hz_intra));
    }
    return res;
  };

  num::LevenbergMarquardtOptions opts;
  opts.max_iterations = 200;
  const auto result = num::levenberg_marquardt(residuals, {1.0, 1.5}, opts);

  FixedLayerFit fit;
  fit.ms_t_reference = std::max(result.parameters[0], 0.0) * 1e-3;
  fit.ms_t_hard = std::max(result.parameters[1], 0.0) * 1e-3;
  fit.converged = result.converged;

  // Unweighted RMS residual in Oe for reporting.
  dev::StackGeometry g = geometry;
  g.ms_t_reference = fit.ms_t_reference;
  g.ms_t_hard = fit.ms_t_hard;
  double sum2 = 0.0;
  for (const auto& a : anchors) {
    const double d =
        util::a_per_m_to_oe(intra_field_for_ecd(g, a.ecd) - a.hz_intra);
    sum2 += d * d;
  }
  fit.rms_error_oe = std::sqrt(sum2 / static_cast<double>(anchors.size()));
  return fit;
}

}  // namespace mram::chr
