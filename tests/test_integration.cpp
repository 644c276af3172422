// Integration tests: the paper's full analysis pipeline, crossing module
// boundaries exactly the way the scenarios do -- characterize, calibrate,
// extrapolate to arrays, and evaluate the impact on Ic, tw and Delta.

#include <gtest/gtest.h>

#include <cmath>

#include "array/coupling_factor.h"
#include "array/intercell.h"
#include "characterization/calibration.h"
#include "characterization/extraction.h"
#include "characterization/fitting.h"
#include "characterization/psw.h"
#include "mram/retention.h"
#include "mram/wer.h"
#include "util/error.h"
#include "util/units.h"

namespace mram {
namespace {

using dev::MtjDevice;
using dev::MtjParams;
using dev::MtjState;
using dev::SwitchDirection;
using util::a_per_m_to_oe;
using util::oe_to_a_per_m;

// --- the paper's methodology end-to-end --------------------------------------

TEST(Pipeline, MeasureFitExtrapolate) {
  // 1. "Measure" a 55 nm device: R-H loop cycles under its own intra-cell
  //    stray field.
  const MtjDevice device(MtjParams::reference_device(55e-9));
  chr::RhLoopProtocol protocol;
  protocol.points = 400;
  util::Rng rng(20200309);  // DATE 2020 :-)
  const auto stats = chr::measure_switching_statistics(
      device, protocol, device.intra_stray_field(), 200, rng);
  ASSERT_GE(stats.hsw_p.size(), 190u);

  // 2. Extract Hk/Delta0 by curve fitting (Thomas et al. technique).
  const auto fit = chr::fit_hk_delta0(stats.hsw_p, protocol,
                                      device.params().attempt_time);
  EXPECT_NEAR(fit.hk, device.params().hk, device.params().hk * 0.12);
  EXPECT_NEAR(fit.delta0, device.params().delta0,
              device.params().delta0 * 0.25);

  // 3. Extrapolate the calibrated stack to a 3x3 array at the SK hynix
  //    design point and check the Fig. 4a range.
  const arr::InterCellSolver solver(device.params().stack, 90e-9);
  const auto range = solver.field_range();
  EXPECT_NEAR(a_per_m_to_oe(range.max - range.min), 80.0, 2.0);
}

TEST(Pipeline, DensityConclusion) {
  // The paper's headline: Psi = 2 % maximizes density with negligible
  // impact; for eCD = 35 nm that is pitch ~ 2x eCD (paper: ~80 nm).
  dev::StackGeometry g;
  g.ecd = 35e-9;
  const double hc = oe_to_a_per_m(2200.0);
  const double pitch =
      arr::max_density_pitch(g, 0.02, hc, 1.5 * g.ecd, 200e-9);
  EXPECT_GT(pitch / g.ecd, 1.8);
  EXPECT_LT(pitch / g.ecd, 2.6);
}

TEST(Pipeline, Fig4cOrderingAcrossPitch) {
  // At small pitch, Ic(AP->P) is largest for NP8 = 0 and smallest for
  // NP8 = 255; the spread collapses by pitch = 200 nm.
  const MtjDevice device(MtjParams::reference_device(35e-9));
  const double intra = device.intra_stray_field();

  auto spread_at = [&](double pitch) {
    const arr::InterCellSolver solver(device.params().stack, pitch);
    const double ic_np0 = device.ic(
        SwitchDirection::kApToP,
        intra + solver.field_for(arr::Np8::all_parallel()));
    const double ic_np255 = device.ic(
        SwitchDirection::kApToP,
        intra + solver.field_for(arr::Np8::all_antiparallel()));
    EXPECT_GT(ic_np0, ic_np255);
    return ic_np0 - ic_np255;
  };
  const double tight = spread_at(1.5 * 35e-9);
  const double relaxed = spread_at(200e-9);
  EXPECT_GT(tight, 10.0 * relaxed);
  // Intra-only values bracket the pattern-dependent ones.
  EXPECT_GT(device.ic(SwitchDirection::kApToP, intra), device.ic0());
  EXPECT_LT(device.ic(SwitchDirection::kPToAp, intra), device.ic0());
}

TEST(Pipeline, Fig5SwitchingTimeGapAtAggressivePitch) {
  // Fig. 5c: at pitch = 1.5x eCD and Vp = 0.72 V, tw(AP->P) under NP8 = 0
  // is several ns slower than under NP8 = 255 (paper: ~4 ns).
  const MtjDevice device(MtjParams::reference_device(35e-9));
  const double intra = device.intra_stray_field();
  const arr::InterCellSolver solver(device.params().stack, 1.5 * 35e-9);

  const double tw_np0 = device.switching_time(
      SwitchDirection::kApToP, 0.72,
      intra + solver.field_for(arr::Np8::all_parallel()));
  const double tw_np255 = device.switching_time(
      SwitchDirection::kApToP, 0.72,
      intra + solver.field_for(arr::Np8::all_antiparallel()));
  const double gap_ns = util::s_to_ns(tw_np0 - tw_np255);
  // Paper reads ~4 ns off Fig. 5c; Eq. 3 with Psi = 7.6 % and tw ~ 20 ns
  // yields ~1.4 ns (see EXPERIMENTS.md). Assert the order of magnitude.
  EXPECT_GT(gap_ns, 1.0);
  EXPECT_LT(gap_ns, 8.0);

  // And the gap shrinks at 3x eCD (Fig. 5a: negligible).
  const arr::InterCellSolver relaxed(device.params().stack, 3.0 * 35e-9);
  const double tw_np0_r = device.switching_time(
      SwitchDirection::kApToP, 0.72,
      intra + relaxed.field_for(arr::Np8::all_parallel()));
  const double tw_np255_r = device.switching_time(
      SwitchDirection::kApToP, 0.72,
      intra + relaxed.field_for(arr::Np8::all_antiparallel()));
  EXPECT_LT(tw_np0_r - tw_np255_r, 0.35 * (tw_np0 - tw_np255));
}

TEST(Pipeline, Fig6WorstCaseRetention) {
  // Fig. 6: Delta_P(NP8=0) is the worst case; it degrades marginally going
  // from pitch 2x to 1.5x eCD.
  const MtjDevice device(MtjParams::reference_device(35e-9));
  const double intra = device.intra_stray_field();

  auto worst_delta = [&](double pitch_mult) {
    const arr::InterCellSolver solver(device.params().stack,
                                      pitch_mult * 35e-9);
    return device.delta(MtjState::kParallel,
                        intra + solver.field_for(arr::Np8::all_parallel()));
  };
  const double d3 = worst_delta(3.0);
  const double d2 = worst_delta(2.0);
  const double d15 = worst_delta(1.5);
  EXPECT_GT(d3, d2);
  EXPECT_GT(d2, d15);
  // "Marginal" degradation: a few percent between 2x and 1.5x.
  EXPECT_LT((d2 - d15) / d2, 0.08);
  // All well below the intrinsic Delta0 = 45.5 (the intra-cell field does
  // the bulk of the damage).
  EXPECT_LT(d3, 40.0);
}

TEST(Pipeline, DeltaOrderingMatchesFig6a) {
  // At pitch 2x eCD: Delta_AP(NP8=255) > Delta_AP(NP8=0) > ... >
  // Delta_P(NP8=255) > Delta_P(NP8=0)? The figure shows AP curves on top,
  // P curves at the bottom with P(NP8=0) lowest.
  const MtjDevice device(MtjParams::reference_device(35e-9));
  const double intra = device.intra_stray_field();
  const arr::InterCellSolver solver(device.params().stack, 2.0 * 35e-9);
  const double h0 = intra + solver.field_for(arr::Np8::all_parallel());
  const double h255 = intra + solver.field_for(arr::Np8::all_antiparallel());

  const double dap_0 = device.delta(MtjState::kAntiParallel, h0);
  const double dap_255 = device.delta(MtjState::kAntiParallel, h255);
  const double dp_0 = device.delta(MtjState::kParallel, h0);
  const double dp_255 = device.delta(MtjState::kParallel, h255);

  // AP states above P states (stray field stabilizes AP).
  EXPECT_GT(std::min(dap_0, dap_255), std::max(dp_0, dp_255));
  // Within P: NP8 = 0 is the lowest (most destabilized).
  EXPECT_LT(dp_0, dp_255);
  // Within AP: NP8 = 0 is the highest (field most negative).
  EXPECT_GT(dap_0, dap_255);
}

TEST(Pipeline, MemoryLevelWorstCaseMatchesDeviceLevel) {
  // The memory model's worst retention cell under the all-P background must
  // equal the device-level Delta_P(NP8=0) for an interior cell.
  mem::ArrayConfig cfg;
  cfg.device = MtjParams::reference_device(35e-9);
  cfg.pitch = 1.5 * 35e-9;
  cfg.rows = cfg.cols = 5;
  mem::MramArray array(cfg);

  const arr::InterCellSolver solver(cfg.device.stack, cfg.pitch);
  const double expected = array.device().delta(
      MtjState::kParallel, array.device().intra_stray_field() +
                               solver.field_for(arr::Np8::all_parallel()));
  const auto report = mem::analyze_retention(array, 1.0);
  EXPECT_NEAR(report.min_delta, expected, std::abs(expected) * 1e-9);
}

TEST(Pipeline, RetentionTimeDegradationIsMarginal) {
  // Conclusion section: "a marginal degradation of the data retention time"
  // at 1.5x vs 2x eCD -- under an order of magnitude at room temperature.
  const MtjDevice device(MtjParams::reference_device(35e-9));
  const double intra = device.intra_stray_field();
  auto retention = [&](double pitch_mult) {
    const arr::InterCellSolver solver(device.params().stack,
                                      pitch_mult * 35e-9);
    return device.retention_time(
        MtjState::kParallel,
        intra + solver.field_for(arr::Np8::all_parallel()));
  };
  const double r2 = retention(2.0);
  const double r15 = retention(1.5);
  EXPECT_LT(r15, r2);
  EXPECT_GT(r15, r2 / 20.0);
}

TEST(Pipeline, EcdExtractionRoundTripAcrossSizes) {
  // Sec. III: the electrical size extraction must invert the geometry for
  // every device size used in the study.
  for (double ecd : {20e-9, 35e-9, 55e-9, 90e-9, 175e-9}) {
    const MtjDevice device(MtjParams::reference_device(ecd));
    const double recovered = dev::ElectricalModel::ecd_from_rp(
        device.params().electrical.ra, device.electrical().rp());
    EXPECT_NEAR(recovered, ecd, ecd * 1e-9);
  }
}


TEST(Robustness, RandomConfigurationsNeverCrash) {
  // Fuzz the public entry points with random (often nonsensical) parameter
  // combinations: every call must either succeed or throw a library
  // exception -- never crash or corrupt state.
  util::Rng rng(0xF0220);
  int accepted = 0, rejected = 0;
  for (int k = 0; k < 400; ++k) {
    dev::MtjParams p = MtjParams::reference_device(35e-9);
    p.stack.ecd = rng.uniform(-10e-9, 300e-9);
    p.stack.t_free = rng.uniform(-1e-9, 5e-9);
    p.stack.ms_t_free = rng.uniform(-1e-3, 5e-3);
    p.hk = rng.uniform(-1e5, 1e6);
    p.delta0 = rng.uniform(-10.0, 200.0);
    p.electrical.tmr0 = rng.uniform(-0.5, 3.0);
    p.polarization = rng.uniform(-0.2, 1.4);
    try {
      const MtjDevice device(p);
      // Exercise the main queries on the accepted device.
      const double hz = device.intra_stray_field();
      (void)device.ic(SwitchDirection::kApToP, hz);
      (void)device.delta(MtjState::kParallel, hz);
      (void)device.switching_time(SwitchDirection::kApToP, 0.9, hz);
      const arr::InterCellSolver solver(p.stack,
                                        rng.uniform(1.0, 4.0) * p.stack.ecd);
      (void)solver.field_range();
      ++accepted;
    } catch (const util::ConfigError&) {
      ++rejected;
    } catch (const util::ContractViolation&) {
      ++rejected;
    }
  }
  // The fuzz ranges straddle validity: both paths must be exercised.
  EXPECT_GT(accepted, 10);
  EXPECT_GT(rejected, 10);
}

}  // namespace
}  // namespace mram
