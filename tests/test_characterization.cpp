// Tests for src/characterization: R-H loop emulation, parameter extraction,
// switching statistics, Hk/Delta0 curve fitting and the Ms*t calibration.

#include <gtest/gtest.h>

#include <cmath>

#include "array/intercell.h"
#include "characterization/calibration.h"
#include "util/csv.h"
#include "characterization/extraction.h"
#include "characterization/fitting.h"
#include "characterization/psw.h"
#include "characterization/rh_loop.h"
#include "numerics/interp.h"
#include "util/error.h"
#include "util/stats.h"
#include "util/units.h"

namespace mram::chr {
namespace {

using dev::MtjDevice;
using dev::MtjParams;
using dev::MtjState;
using util::a_per_m_to_oe;
using util::oe_to_a_per_m;

MtjDevice device55() { return MtjDevice(MtjParams::reference_device(55e-9)); }

RhLoopProtocol fast_protocol() {
  RhLoopProtocol p;
  p.points = 400;  // faster than the paper's 1000, same physics
  return p;
}

// --- field schedule ---------------------------------------------------------

TEST(RhLoop, ScheduleShape) {
  RhLoopProtocol p;
  const auto fields = field_schedule(p);
  ASSERT_GE(fields.size(), p.points);
  EXPECT_DOUBLE_EQ(fields.front(), 0.0);
  EXPECT_DOUBLE_EQ(fields.back(), 0.0);
  const double hmax = *std::max_element(fields.begin(), fields.end());
  const double hmin = *std::min_element(fields.begin(), fields.end());
  EXPECT_DOUBLE_EQ(hmax, p.h_max);
  EXPECT_DOUBLE_EQ(hmin, -p.h_max);
  // The +Hmax peak comes before the -Hmax trough (0 -> + -> - -> 0).
  const auto imax = std::max_element(fields.begin(), fields.end());
  const auto imin = std::min_element(fields.begin(), fields.end());
  EXPECT_LT(imax - fields.begin(), imin - fields.begin());
}

TEST(RhLoop, ProtocolValidation) {
  RhLoopProtocol p;
  p.points = 4;
  EXPECT_THROW(p.validate(), util::ConfigError);
  p = RhLoopProtocol{};
  p.dwell = 0.0;
  EXPECT_THROW(p.validate(), util::ConfigError);
  p = RhLoopProtocol{};
  p.h_max = -1.0;
  EXPECT_THROW(p.validate(), util::ConfigError);
}

// --- loop measurement and extraction ----------------------------------------

TEST(RhLoop, ProducesHystereticSwitching) {
  const auto dev = device55();
  util::Rng rng(1234);
  const auto trace =
      measure_rh_loop(dev, fast_protocol(), dev.intra_stray_field(), rng);
  const auto ex = extract_loop_parameters(trace, dev.params().electrical.ra);
  ASSERT_TRUE(ex.valid);
  EXPECT_GT(ex.hsw_p, 0.0);
  EXPECT_LT(ex.hsw_n, 0.0);
  EXPECT_GT(ex.hc, 0.0);
}

TEST(RhLoop, CoerciveFieldNearPaperValue) {
  // The paper quotes Hc = 2.2 kOe for its devices; the Neel-Brown ramp
  // model with Delta0/Hk of the calibrated device lands in that region.
  const auto dev = device55();
  util::Rng rng(77);
  util::RunningStats hc;
  for (int i = 0; i < 8; ++i) {
    const auto trace =
        measure_rh_loop(dev, fast_protocol(), dev.intra_stray_field(), rng);
    const auto ex = extract_loop_parameters(trace, dev.params().electrical.ra);
    ASSERT_TRUE(ex.valid);
    hc.add(a_per_m_to_oe(ex.hc));
  }
  EXPECT_GT(hc.mean(), 1500.0);
  EXPECT_LT(hc.mean(), 3000.0);
}

TEST(RhLoop, OffsetRecoversStrayField) {
  // Hoffset = -Hs_intra: the loop shifts to the positive side for the
  // negative intra-cell stray field (Fig. 2a).
  const auto dev = device55();
  const double hz = dev.intra_stray_field();
  util::Rng rng(4321);
  util::RunningStats hoffset;
  for (int i = 0; i < 12; ++i) {
    const auto trace = measure_rh_loop(dev, fast_protocol(), hz, rng);
    const auto ex = extract_loop_parameters(trace, dev.params().electrical.ra);
    ASSERT_TRUE(ex.valid);
    hoffset.add(ex.hoffset);
  }
  EXPECT_GT(hoffset.mean(), 0.0);
  EXPECT_NEAR(hoffset.mean(), -hz, std::abs(hz) * 0.25);
}

TEST(RhLoop, ExtractionRecoversResistancesAndEcd) {
  const auto dev = device55();
  util::Rng rng(99);
  const auto trace = measure_rh_loop(dev, fast_protocol(), 0.0, rng);
  const auto ex = extract_loop_parameters(trace, dev.params().electrical.ra);
  ASSERT_TRUE(ex.valid);
  EXPECT_NEAR(ex.rp, dev.electrical().rp(), dev.electrical().rp() * 1e-9);
  EXPECT_GT(ex.rap, ex.rp);
  EXPECT_NEAR(ex.tmr, dev.electrical().tmr(0.02), 0.01);
  // Sec. III worked example: the recovered eCD equals the design size.
  EXPECT_NEAR(ex.ecd, 55e-9, 55e-9 * 1e-6);
}

TEST(RhLoop, ExtractionHandlesNonSwitchingTrace) {
  // A trace that never switches is reported invalid, not an error.
  RhLoopTrace trace;
  for (int i = 0; i < 16; ++i) {
    trace.points.push_back({static_cast<double>(i), 5000.0,
                            MtjState::kAntiParallel});
  }
  const auto ex = extract_loop_parameters(trace, 4.5e-12);
  EXPECT_FALSE(ex.valid);
}

// --- switching statistics ----------------------------------------------------

TEST(Psw, CycleStatisticsSpread) {
  const auto dev = device55();
  util::Rng rng(55);
  const auto stats = measure_switching_statistics(
      dev, fast_protocol(), dev.intra_stray_field(), 60, rng);
  EXPECT_GE(stats.hsw_p.size(), 55u);
  EXPECT_LE(stats.invalid_cycles, 5u);
  util::RunningStats summary;
  for (double h : stats.hsw_p) summary.add(h);
  // Stochastic switching: nonzero spread, but narrow relative to the mean.
  EXPECT_GT(summary.stddev(), 0.0);
  EXPECT_LT(summary.stddev(), 0.2 * std::abs(summary.mean()));
}

TEST(Psw, EmpiricalCurveIsMonotoneCdf) {
  std::vector<double> hsw{1.0, 2.0, 2.0, 3.0, 4.0, 5.0, 5.0, 6.0};
  const auto curve = empirical_psw(hsw, 21);
  ASSERT_EQ(curve.size(), 21u);
  EXPECT_DOUBLE_EQ(curve.front().p, 0.0);
  EXPECT_DOUBLE_EQ(curve.back().p, 1.0);
  for (std::size_t i = 1; i < curve.size(); ++i) {
    EXPECT_GE(curve[i].p, curve[i - 1].p);
    EXPECT_GT(curve[i].h, curve[i - 1].h);
  }
}

// --- Hk / Delta0 fitting ------------------------------------------------------

TEST(Fitting, RampCdfIsMonotone) {
  const std::vector<double> fields = num::linspace(0.0, oe_to_a_per_m(3000.0),
                                                   200);
  const auto cdf = ramp_switching_cdf(fields, 1e-3, 1e-9,
                                      oe_to_a_per_m(4646.8), 45.5, 0.0);
  ASSERT_EQ(cdf.size(), fields.size());
  for (std::size_t i = 1; i < cdf.size(); ++i) {
    EXPECT_GE(cdf[i], cdf[i - 1]);
  }
  EXPECT_NEAR(cdf.front(), 0.0, 1e-12);
  EXPECT_NEAR(cdf.back(), 1.0, 1e-6);
}

TEST(Fitting, RecoversHkAndDelta0FromSyntheticData) {
  // The paper's Sec. V-A flow: 1000 loop cycles -> switching statistics ->
  // fit -> Hk = 4646.8 Oe, Delta0 = 45.5 (median device). We synthesize the
  // statistics from the same device and require the fit to land close.
  dev::MtjParams params = MtjParams::reference_device(35e-9);
  const MtjDevice dev(params);
  RhLoopProtocol protocol = fast_protocol();
  util::Rng rng(2026);
  const auto stats =
      measure_switching_statistics(dev, protocol, 0.0, 400, rng);
  ASSERT_GE(stats.hsw_p.size(), 390u);

  const auto fit =
      fit_hk_delta0(stats.hsw_p, protocol, params.attempt_time);
  EXPECT_NEAR(a_per_m_to_oe(fit.hk), 4646.8, 4646.8 * 0.10);
  EXPECT_NEAR(fit.delta0, 45.5, 45.5 * 0.20);
  EXPECT_LT(fit.rms_error, 0.05);
}

TEST(Fitting, RecoversOffsetUnderStrayField) {
  dev::MtjParams params = MtjParams::reference_device(35e-9);
  const MtjDevice dev(params);
  const double hz = oe_to_a_per_m(-350.0);
  RhLoopProtocol protocol = fast_protocol();
  util::Rng rng(31415);
  const auto stats = measure_switching_statistics(dev, protocol, hz, 300, rng);
  const auto fit = fit_hk_delta0(stats.hsw_p, protocol, params.attempt_time);
  // The fitted offset has the stray field's sign; its magnitude trades off
  // against Hk in the three-parameter fit (the paper reads Hoffset from the
  // loop directly instead), so only a loose band is asserted.
  EXPECT_LT(a_per_m_to_oe(fit.h_offset), -50.0);
  EXPECT_GT(a_per_m_to_oe(fit.h_offset), -700.0);
}

TEST(Fitting, RejectsTinySampleSets) {
  EXPECT_THROW(fit_hk_delta0({1.0, 2.0}, RhLoopProtocol{}, 1e-9),
               util::ContractViolation);
}

// --- calibration --------------------------------------------------------------

TEST(Calibration, AnchorsAreTheDigitizedFigures) {
  const auto anchors = fig2b_anchors();
  ASSERT_EQ(anchors.size(), 6u);
  // All anchors are negative fields, magnitudes growing as eCD shrinks.
  for (std::size_t i = 1; i < anchors.size(); ++i) {
    EXPECT_GT(anchors[i].ecd, anchors[i - 1].ecd);
    EXPECT_LT(anchors[i - 1].hz_intra, anchors[i].hz_intra);
    EXPECT_LT(anchors[i].hz_intra, 0.0);
  }
}

TEST(Calibration, FixedLayerFitReproducesShippedDefaults) {
  // The library ships with the fit baked into StackGeometry's defaults;
  // re-running the calibration must reproduce it.
  const dev::StackGeometry nominal;
  const auto fit = fit_fixed_layer_ms_t(nominal);
  EXPECT_TRUE(fit.converged);
  EXPECT_NEAR(fit.ms_t_reference, nominal.ms_t_reference,
              nominal.ms_t_reference * 0.02);
  EXPECT_NEAR(fit.ms_t_hard, nominal.ms_t_hard, nominal.ms_t_hard * 0.02);
  EXPECT_LT(fit.rms_error_oe, 30.0);
}

TEST(Calibration, ResidualsWithinFigureErrorBars) {
  const dev::StackGeometry nominal;
  for (const auto& a : fig2b_anchors()) {
    const double model_oe = a_per_m_to_oe(intra_field_for_ecd(nominal, a.ecd));
    EXPECT_LT(std::abs(model_oe - a_per_m_to_oe(a.hz_intra)), 40.0)
        << "eCD = " << a.ecd * 1e9 << " nm";
  }
}

TEST(Calibration, ShippedFreeLayerGivesFig4aStep) {
  // Fig. 4a: +15 Oe per direct-neighbor P->AP flip at eCD = 55 nm and
  // pitch = 90 nm, the anchor the shipped (Ms*t)_FL is set from.
  dev::StackGeometry g;
  g.ecd = 55e-9;
  const arr::InterCellSolver solver(g, 90e-9);
  EXPECT_NEAR(a_per_m_to_oe(solver.direct_step()), 15.0, 15.0 * 0.01);
}

TEST(Calibration, DirectStepIsLinearInFreeLayerMoment) {
  // The step is linear in (Ms*t)_FL, which is why one anchor fixes it.
  dev::StackGeometry g;
  g.ecd = 55e-9;
  const double s1 = arr::InterCellSolver(g, 90e-9).direct_step();
  g.ms_t_free *= 2.0;
  const double s2 = arr::InterCellSolver(g, 90e-9).direct_step();
  EXPECT_NEAR(s2, 2.0 * s1, s1 * 1e-9);
}

TEST(Calibration, SunPrefactorReproducesShippedDefault) {
  // The shipped prefactor gives the Fig. 5 level: tw(AP->P) ~ 20 ns at
  // Vp = 0.72 V under the intra-cell stray field alone.
  const MtjDevice device(MtjParams::reference_device(35e-9));
  const double tw = device.switching_time(dev::SwitchDirection::kApToP, 0.72,
                                          device.intra_stray_field());
  EXPECT_NEAR(tw, 20e-9, 20e-9 * 0.01);
}

TEST(Calibration, IntraFieldForEcdMatchesDeviceModel) {
  const dev::StackGeometry nominal;
  const MtjDevice dev(MtjParams::reference_device(35e-9));
  EXPECT_NEAR(intra_field_for_ecd(nominal, 35e-9), dev.intra_stray_field(),
              std::abs(dev.intra_stray_field()) * 1e-9);
}


TEST(Calibration, AnchorsCsvMatchesCompiledAnchors) {
  const auto from_csv = anchors_from_csv(
      std::string(MRAM_SOURCE_DIR) + "/data/fig2b_anchors.csv");
  const auto compiled = fig2b_anchors();
  ASSERT_EQ(from_csv.size(), compiled.size());
  for (std::size_t i = 0; i < compiled.size(); ++i) {
    EXPECT_NEAR(from_csv[i].ecd, compiled[i].ecd, 1e-15);
    EXPECT_NEAR(from_csv[i].hz_intra, compiled[i].hz_intra, 1e-9);
    EXPECT_DOUBLE_EQ(from_csv[i].weight, compiled[i].weight);
  }
}

TEST(Calibration, AnchorsCsvRejectsBadFiles) {
  EXPECT_THROW(anchors_from_csv("/nonexistent.csv"), util::ConfigError);
  const std::string path = ::testing::TempDir() + "/bad_anchors.csv";
  util::write_text_file(path, "ecd_nm, hz_oe, weight\n-5, -100, 1\n");
  EXPECT_THROW(anchors_from_csv(path), util::ConfigError);
}

TEST(Calibration, AnchorsCsvErrorsNameFileAndLine) {
  // A NaN eCD used to pass the `<= 0` check and any weight was accepted.
  const std::string path = ::testing::TempDir() + "/bad_anchor_rows.csv";
  for (const std::string row :
       {"nan, -100, 1", "35, -100, -1", "35, -100, inf", "35, nan, 1",
        "0, -100, 1"}) {
    util::write_text_file(path,
                          "ecd_nm, hz_oe, weight\n20, -500, 1\n" + row + "\n");
    try {
      anchors_from_csv(path);
      ADD_FAILURE() << "accepted '" << row << "'";
    } catch (const util::ConfigError& e) {
      EXPECT_NE(std::string(e.what()).find(path + ":3"), std::string::npos)
          << e.what();
    }
  }
  // A zero weight is allowed: it drops the anchor from the fit.
  util::write_text_file(path, "ecd_nm, hz_oe, weight\n20, -500, 0\n");
  ASSERT_EQ(anchors_from_csv(path).size(), 1u);
}

}  // namespace
}  // namespace mram::chr
