// Unit tests for src/device: stack geometry, electrical model, thermal model
// and the paper's Eqs. 2-5 on the calibrated reference device.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "device/electrical.h"
#include "device/mtj_device.h"
#include "device/stack_geometry.h"
#include "device/switching.h"
#include "device/thermal.h"
#include "util/constants.h"
#include "util/error.h"
#include "util/units.h"

namespace mram::dev {
namespace {

using util::a_per_m_to_oe;
using util::ConfigError;
using util::oe_to_a_per_m;

MtjParams reference35() { return MtjParams::reference_device(35e-9); }

// --- states and directions --------------------------------------------------

TEST(Switching, StateBitMapping) {
  EXPECT_EQ(state_to_bit(MtjState::kParallel), 0);
  EXPECT_EQ(state_to_bit(MtjState::kAntiParallel), 1);
  EXPECT_EQ(bit_to_state(0), MtjState::kParallel);
  EXPECT_EQ(bit_to_state(1), MtjState::kAntiParallel);
}

TEST(Switching, DirectionEndpoints) {
  EXPECT_EQ(initial_state(SwitchDirection::kApToP), MtjState::kAntiParallel);
  EXPECT_EQ(final_state(SwitchDirection::kApToP), MtjState::kParallel);
  EXPECT_EQ(initial_state(SwitchDirection::kPToAp), MtjState::kParallel);
  EXPECT_EQ(final_state(SwitchDirection::kPToAp), MtjState::kAntiParallel);
}

TEST(Switching, PaperSignConventions) {
  // Eq. 2: '+' for P->AP, '-' for AP->P; Eq. 5: '+' for Delta_P.
  EXPECT_EQ(stray_sign(SwitchDirection::kPToAp), +1);
  EXPECT_EQ(stray_sign(SwitchDirection::kApToP), -1);
  EXPECT_EQ(stray_sign(MtjState::kParallel), +1);
  EXPECT_EQ(stray_sign(MtjState::kAntiParallel), -1);
}

// --- stack geometry ---------------------------------------------------------

TEST(StackGeometry, LayerPlacement) {
  StackGeometry g;
  EXPECT_DOUBLE_EQ(g.layer_center_z(Layer::kFreeLayer), 0.0);
  // RL center: t_free/2 + t_barrier + t_reference/2 below the FL mid-plane.
  EXPECT_NEAR(g.layer_center_z(Layer::kReferenceLayer),
              -(1.0e-9 + 1.0e-9 + 0.8e-9), 1e-15);
  EXPECT_NEAR(g.layer_center_z(Layer::kHardLayer),
              -(1.0e-9 + 1.0e-9 + 1.6e-9 + 0.4e-9 + 1.2e-9), 1e-15);
  EXPECT_LT(g.layer_center_z(Layer::kHardLayer),
            g.layer_center_z(Layer::kReferenceLayer));
}

TEST(StackGeometry, SafPolarityIsAntiparallel) {
  StackGeometry g;
  EXPECT_EQ(g.layer_polarity(Layer::kReferenceLayer), +1);
  EXPECT_EQ(g.layer_polarity(Layer::kHardLayer), -1);
  EXPECT_EQ(g.layer_polarity(Layer::kFreeLayer, MtjState::kParallel), +1);
  EXPECT_EQ(g.layer_polarity(Layer::kFreeLayer, MtjState::kAntiParallel), -1);
}

TEST(StackGeometry, AreaAndVolume) {
  StackGeometry g;
  g.ecd = 35e-9;
  const double r = 17.5e-9;
  EXPECT_NEAR(g.area(), util::kPi * r * r, 1e-25);
  EXPECT_NEAR(g.volume(), g.area() * g.t_free, 1e-33);
}

TEST(StackGeometry, SourcePlacementFollowsCell) {
  StackGeometry g;
  const num::Vec3 cell{90e-9, -90e-9, 0.0};
  const auto src = g.source_for(Layer::kHardLayer, cell);
  EXPECT_DOUBLE_EQ(src.center.x, 90e-9);
  EXPECT_DOUBLE_EQ(src.center.y, -90e-9);
  EXPECT_NEAR(src.center.z, g.layer_center_z(Layer::kHardLayer), 1e-18);
  EXPECT_EQ(src.polarity, -1);
  EXPECT_DOUBLE_EQ(src.ms_t, g.ms_t_hard);
  EXPECT_DOUBLE_EQ(src.radius, g.radius());
}

TEST(StackGeometry, ValidationRejectsBadConfigs) {
  StackGeometry g;
  g.ecd = 0.0;
  EXPECT_THROW(g.validate(), ConfigError);
  g = StackGeometry{};
  g.t_barrier = -1e-9;
  EXPECT_THROW(g.validate(), ConfigError);
  g = StackGeometry{};
  g.reference_polarity = 0;
  EXPECT_THROW(g.validate(), ConfigError);
  g = StackGeometry{};
  g.sub_loops = 0;
  EXPECT_THROW(g.validate(), ConfigError);
  EXPECT_NO_THROW(StackGeometry{}.validate());
}

// --- electrical model -------------------------------------------------------

TEST(Electrical, RpFromRaAndArea) {
  // eCD = 35 nm, RA = 4.5 Ohm*um^2 -> R_P = RA / A = 4677 Ohm.
  StackGeometry g;
  g.ecd = 35e-9;
  const ElectricalModel em(ElectricalParams{}, g.area());
  EXPECT_NEAR(em.rp(), 4.5e-12 / g.area(), 1e-6);
  EXPECT_NEAR(em.rp(), 4677.0, 5.0);
}

TEST(Electrical, TmrBiasRollOff) {
  StackGeometry g;
  const ElectricalModel em(ElectricalParams{}, g.area());
  EXPECT_NEAR(em.tmr(0.0), 1.0, 1e-12);
  // TMR halves at Vh.
  EXPECT_NEAR(em.tmr(em.params().vh), 0.5, 1e-12);
  EXPECT_GT(em.tmr(0.3), em.tmr(0.9));
}

TEST(Electrical, ResistanceByState) {
  StackGeometry g;
  const ElectricalModel em(ElectricalParams{}, g.area());
  EXPECT_DOUBLE_EQ(em.resistance(MtjState::kParallel, 0.5), em.rp());
  EXPECT_GT(em.resistance(MtjState::kAntiParallel, 0.1), em.rp());
  EXPECT_NEAR(em.resistance(MtjState::kAntiParallel, 0.0), 2.0 * em.rp(),
              1e-9);  // TMR0 = 100 %
  // AP resistance falls with bias; P resistance does not.
  EXPECT_GT(em.resistance(MtjState::kAntiParallel, 0.1),
            em.resistance(MtjState::kAntiParallel, 1.0));
}

TEST(Electrical, CurrentIsOhmic) {
  StackGeometry g;
  const ElectricalModel em(ElectricalParams{}, g.area());
  const double v = 0.8;
  EXPECT_NEAR(em.current(MtjState::kParallel, v), v / em.rp(), 1e-12);
}

TEST(Electrical, EcdRoundTrip) {
  // Sec. III: eCD = sqrt(4/pi * RA/RP). Paper example: RP from a 55 nm dot.
  StackGeometry g;
  g.ecd = 55e-9;
  const ElectricalModel em(ElectricalParams{}, g.area());
  EXPECT_NEAR(ElectricalModel::ecd_from_rp(4.5e-12, em.rp()), 55e-9, 1e-12);
  EXPECT_THROW(ElectricalModel::ecd_from_rp(-1.0, 100.0),
               util::ContractViolation);
}

TEST(Electrical, Validation) {
  ElectricalParams p;
  p.ra = 0.0;
  EXPECT_THROW(p.validate(), ConfigError);
  p = ElectricalParams{};
  p.vh = -0.5;
  EXPECT_THROW(p.validate(), ConfigError);
}

// --- thermal model ----------------------------------------------------------

TEST(Thermal, BlochLawBasics) {
  ThermalModel tm;
  EXPECT_NEAR(tm.ms_scale(300.0), 1.0, 1e-12);
  EXPECT_GT(tm.ms_scale(273.15), 1.0);
  EXPECT_LT(tm.ms_scale(423.15), 1.0);
  EXPECT_THROW(tm.bloch(1000.0), util::ContractViolation);
}

TEST(Thermal, Delta0ScaleCombinesMsAndTemperature) {
  ThermalModel tm;
  const double t = 400.0;
  EXPECT_NEAR(tm.delta0_scale(t), tm.ms_scale(t) * 300.0 / t, 1e-12);
  // Fig. 6a span: Delta0 at 0 C is ~1.1x the RT value, ~0.6x at 150 C.
  EXPECT_NEAR(tm.delta0_scale(273.15), 1.125, 0.03);
  EXPECT_NEAR(tm.delta0_scale(423.15), 0.59, 0.04);
}

TEST(Thermal, Validation) {
  ThermalModel tm;
  tm.curie_temperature = -5.0;
  EXPECT_THROW(tm.validate(), ConfigError);
  tm = ThermalModel{};
  tm.reference_temperature = 1200.0;
  EXPECT_THROW(tm.validate(), ConfigError);
}

// --- MtjParams / reference device -------------------------------------------

TEST(MtjParams, ReferenceDeviceScalesDelta0WithArea) {
  const auto p35 = reference35();
  EXPECT_NEAR(p35.delta0, 45.5, 1e-9);
  // Below the nucleation cap the scaling is quadratic in eCD...
  const auto p40 = MtjParams::reference_device(40e-9);
  EXPECT_NEAR(p40.delta0, 45.5 * (40.0 * 40.0) / (35.0 * 35.0), 1e-6);
  // ...and large devices saturate at the nucleation-limited cap.
  const auto p55 = MtjParams::reference_device(55e-9);
  EXPECT_NEAR(p55.delta0, 60.0, 1e-9);
  EXPECT_DOUBLE_EQ(p55.stack.ecd, 55e-9);
  EXPECT_DOUBLE_EQ(p55.hk, p35.hk);  // Hk is size-independent in this model
}

TEST(MtjParams, ValidationRejectsBadValues) {
  auto p = reference35();
  p.hk = -1.0;
  EXPECT_THROW(p.validate(), ConfigError);
  p = reference35();
  p.polarization = 1.5;
  EXPECT_THROW(p.validate(), ConfigError);
  p = reference35();
  p.sun_prefactor = 0.0;
  EXPECT_THROW(p.validate(), ConfigError);
  p = reference35();
  p.attempt_time = 0.0;
  EXPECT_THROW(p.validate(), ConfigError);
}

// --- intra-cell stray field -------------------------------------------------

TEST(MtjDevice, IntraFieldIsNegativeAndCalibrated) {
  const MtjDevice dev(reference35());
  const double hz = dev.intra_stray_field();
  // Calibrated model: about -393 Oe at eCD = 35 nm (paper-implied -366 Oe,
  // Fig. 2b anchor -400 Oe).
  EXPECT_LT(hz, 0.0);
  EXPECT_NEAR(a_per_m_to_oe(hz), -392.6, 5.0);
}

TEST(MtjDevice, IntraFieldGrowsAsDeviceShrinks) {
  double prev = 0.0;
  for (double ecd : {175e-9, 120e-9, 90e-9, 55e-9, 35e-9, 20e-9}) {
    const MtjDevice dev(MtjParams::reference_device(ecd));
    const double mag = std::abs(dev.intra_stray_field());
    EXPECT_GT(mag, prev) << "eCD = " << ecd;
    prev = mag;
  }
}

TEST(MtjDevice, IntraFieldWeakerAtEdgeThanCenter) {
  // Fig. 3d: |Hz| is smaller at the FL edge than at the center.
  const MtjDevice dev(reference35());
  const double center = std::abs(dev.intra_stray_field_at(0.0));
  const double edge = std::abs(dev.intra_stray_field_at(0.45 * 35e-9));
  EXPECT_LT(edge, center);
}

// --- Eq. 2: critical current ------------------------------------------------

TEST(MtjDevice, IntrinsicIcMatchesPaper) {
  const MtjDevice dev(reference35());
  EXPECT_NEAR(util::a_to_ua(dev.ic0()), 57.2, 0.05);
}

TEST(MtjDevice, IcWithoutStrayIsSymmetric) {
  const MtjDevice dev(reference35());
  EXPECT_DOUBLE_EQ(dev.ic(SwitchDirection::kApToP, 0.0),
                   dev.ic(SwitchDirection::kPToAp, 0.0));
}

TEST(MtjDevice, IntraStrayShiftsIcAsInFig4c) {
  // Paper: Ic(AP->P) = 61.7 uA (+7 %), Ic(P->AP) = 52.8 uA (-7 %) under
  // Hz_s_intra. Our calibrated field gives an 8.5 % shift; assert direction
  // and magnitude band.
  const MtjDevice dev(reference35());
  const double hz = dev.intra_stray_field();
  const double up = util::a_to_ua(dev.ic(SwitchDirection::kApToP, hz));
  const double dn = util::a_to_ua(dev.ic(SwitchDirection::kPToAp, hz));
  EXPECT_GT(up, 60.5);
  EXPECT_LT(up, 63.5);
  EXPECT_GT(dn, 51.0);
  EXPECT_LT(dn, 53.5);
  // Symmetric about the intrinsic value.
  EXPECT_NEAR(up + dn, 2.0 * 57.2, 0.1);
}

TEST(MtjDevice, IcLinearInStrayField) {
  const MtjDevice dev(reference35());
  const double h1 = oe_to_a_per_m(-100.0);
  const double h2 = oe_to_a_per_m(-200.0);
  const double ic0 = dev.ic0();
  const double d1 = dev.ic(SwitchDirection::kApToP, h1) - ic0;
  const double d2 = dev.ic(SwitchDirection::kApToP, h2) - ic0;
  EXPECT_NEAR(d2, 2.0 * d1, std::abs(d1) * 1e-9);
}

// --- Eqs. 3-4: Sun switching time -------------------------------------------

TEST(MtjDevice, SwitchingTimeCalibratedAt072V) {
  // Fig. 5 anchor: tw(AP->P) ~ 20 ns at Vp = 0.72 V with intra-cell stray
  // field only.
  const MtjDevice dev(reference35());
  const double tw =
      dev.switching_time(SwitchDirection::kApToP, 0.72, dev.intra_stray_field());
  EXPECT_NEAR(util::s_to_ns(tw), 20.0, 1.0);
}

TEST(MtjDevice, SwitchingTimeDecreasesWithVoltage) {
  const MtjDevice dev(reference35());
  const double hz = dev.intra_stray_field();
  double prev = std::numeric_limits<double>::infinity();
  for (double vp : {0.7, 0.8, 0.9, 1.0, 1.1, 1.2}) {
    const double tw = dev.switching_time(SwitchDirection::kApToP, vp, hz);
    EXPECT_LT(tw, prev) << "Vp = " << vp;
    prev = tw;
  }
  // Fig. 5 range: about 25 ns at 0.7 V down to about 5 ns at 1.2 V.
  EXPECT_LT(util::s_to_ns(prev), 8.0);
}

TEST(MtjDevice, StrayFieldSlowsApToP) {
  // Fig. 5: tw(AP->P) is larger with Hz_stray < 0 than without.
  const MtjDevice dev(reference35());
  const double hz = dev.intra_stray_field();
  for (double vp : {0.72, 0.9, 1.1}) {
    EXPECT_GT(dev.switching_time(SwitchDirection::kApToP, vp, hz),
              dev.switching_time(SwitchDirection::kApToP, vp, 0.0));
  }
}

TEST(MtjDevice, StrayImpactShrinksAtHighVoltage) {
  // Fig. 5: "the larger the voltage, the smaller the impact of the stray
  // field on tw" (relative gap).
  const MtjDevice dev(reference35());
  const double hz = dev.intra_stray_field();
  auto rel_gap = [&](double vp) {
    const double t0 = dev.switching_time(SwitchDirection::kApToP, vp, 0.0);
    const double t1 = dev.switching_time(SwitchDirection::kApToP, vp, hz);
    return (t1 - t0) / t0;
  };
  EXPECT_GT(rel_gap(0.72), rel_gap(1.2));
}

TEST(MtjDevice, SubCriticalDriveGivesInfiniteTw) {
  const MtjDevice dev(reference35());
  // At a very low voltage the current is below Ic.
  const double tw = dev.switching_time(SwitchDirection::kApToP, 0.3, 0.0);
  EXPECT_TRUE(std::isinf(tw));
  EXPECT_LT(dev.overdrive(SwitchDirection::kApToP, 0.3, 0.0), 0.0);
}

TEST(MtjDevice, OverdriveUsesInitialStateResistance) {
  const MtjDevice dev(reference35());
  const double vp = 1.0;
  const double i_ap = dev.electrical().current(MtjState::kAntiParallel, vp);
  EXPECT_NEAR(dev.overdrive(SwitchDirection::kApToP, vp, 0.0),
              i_ap - dev.ic0(), 1e-12);
}

// --- Eq. 5: thermal stability -----------------------------------------------

TEST(MtjDevice, DeltaWithoutStrayIsDelta0) {
  const MtjDevice dev(reference35());
  EXPECT_NEAR(dev.delta(MtjState::kParallel, 0.0), 45.5, 1e-9);
  EXPECT_NEAR(dev.delta(MtjState::kAntiParallel, 0.0), 45.5, 1e-9);
}

TEST(MtjDevice, IntraStraySplitsDeltaStates) {
  // Fig. 6a: the intra-cell stray field (negative z) destabilizes P and
  // stabilizes AP; the paper reports a ~30 % split.
  const MtjDevice dev(reference35());
  const double hz = dev.intra_stray_field();
  const double dp = dev.delta(MtjState::kParallel, hz);
  const double dap = dev.delta(MtjState::kAntiParallel, hz);
  EXPECT_LT(dp, 45.5);
  EXPECT_GT(dap, 45.5);
  const double split = (dap - dp) / dap;
  EXPECT_GT(split, 0.2);
  EXPECT_LT(split, 0.45);
}

TEST(MtjDevice, DeltaQuadraticInField) {
  const MtjDevice dev(reference35());
  const auto& p = dev.params();
  const double h = oe_to_a_per_m(-300.0);
  const double expected = 45.5 * std::pow(1.0 + h / p.hk, 2.0);
  EXPECT_NEAR(dev.delta(MtjState::kParallel, h), expected, 1e-9);
}

TEST(MtjDevice, DeltaFallsWithTemperature) {
  const MtjDevice dev(reference35());
  double prev = 1e300;
  for (double tc : {0.0, 50.0, 100.0, 150.0}) {
    const double d =
        dev.delta(MtjState::kParallel, 0.0, util::celsius_to_kelvin(tc));
    EXPECT_LT(d, prev);
    prev = d;
  }
  // Fig. 6a: Delta0 drops from ~51 at 0 C to ~27 at 150 C.
  EXPECT_NEAR(dev.delta(MtjState::kParallel, 0.0, 273.15), 51.0, 2.5);
  EXPECT_NEAR(dev.delta(MtjState::kParallel, 0.0, 423.15), 27.0, 2.5);
}

TEST(MtjDevice, RetentionTimeIsArrhenius) {
  const MtjDevice dev(reference35());
  const double d = dev.delta(MtjState::kParallel, 0.0);
  EXPECT_NEAR(dev.retention_time(MtjState::kParallel, 0.0),
              1e-9 * std::exp(d), 1e-9 * std::exp(d) * 1e-9);
  // Retention of the destabilized state is shorter.
  const double hz = dev.intra_stray_field();
  EXPECT_LT(dev.retention_time(MtjState::kParallel, hz),
            dev.retention_time(MtjState::kAntiParallel, hz));
}

// --- stochastic switching ---------------------------------------------------

TEST(MtjDevice, BarrierClampsAtAnisotropyField) {
  const MtjDevice dev(reference35());
  // Beyond |Hk| the barrier for the destabilized state vanishes.
  const double h = -1.5 * dev.params().hk;
  EXPECT_DOUBLE_EQ(dev.barrier(MtjState::kParallel, h), 0.0);
}

TEST(MtjDevice, FlipProbabilityMonotoneInDwellAndField) {
  const MtjDevice dev(reference35());
  const double h1 = oe_to_a_per_m(-1800.0);
  const double h2 = oe_to_a_per_m(-2100.0);
  const double p_short = dev.flip_probability(MtjState::kParallel, h1, 1e-4);
  const double p_long = dev.flip_probability(MtjState::kParallel, h1, 1e-2);
  EXPECT_LE(p_short, p_long);
  const double p_stronger =
      dev.flip_probability(MtjState::kParallel, h2, 1e-4);
  EXPECT_GT(p_stronger, p_short);
  EXPECT_DOUBLE_EQ(dev.flip_probability(MtjState::kParallel, 0.0, 0.0), 0.0);
}

TEST(MtjDevice, WriteSuccessMonotoneInPulseWidth) {
  const MtjDevice dev(reference35());
  const double hz = dev.intra_stray_field();
  double prev = -1.0;
  for (double w : {5e-9, 10e-9, 20e-9, 40e-9, 80e-9}) {
    const double p =
        dev.write_success_probability(SwitchDirection::kApToP, 0.72, w, hz);
    EXPECT_GE(p, prev);
    prev = p;
  }
  // A pulse far beyond tw succeeds almost surely.
  EXPECT_GT(dev.write_success_probability(SwitchDirection::kApToP, 0.72,
                                          200e-9, hz),
            0.999);
  EXPECT_DOUBLE_EQ(dev.write_success_probability(SwitchDirection::kApToP,
                                                 0.72, 0.0, hz),
                   0.0);
}

TEST(MtjDevice, HalfProbabilityNearAverageSwitchingTime) {
  // The log-normal model is centered on tw: P(pulse = tw) = 0.5.
  const MtjDevice dev(reference35());
  const double hz = dev.intra_stray_field();
  const double tw = dev.switching_time(SwitchDirection::kApToP, 0.9, hz);
  EXPECT_NEAR(dev.write_success_probability(SwitchDirection::kApToP, 0.9, tw,
                                            hz),
              0.5, 1e-9);
}

TEST(MtjDevice, SubCriticalWriteSuccessIsTiny) {
  const MtjDevice dev(reference35());
  const double p = dev.write_success_probability(SwitchDirection::kApToP,
                                                 0.3, 10e-9, 0.0);
  EXPECT_LT(p, 1e-6);
}

// Property sweep: Eq. 2 and Eq. 5 consistency across stray fields -- the
// destabilized state has both lower Delta and lower Ic for leaving it.
class StrayFieldProperty : public ::testing::TestWithParam<double> {};

TEST_P(StrayFieldProperty, DeltaAndIcMoveTogether) {
  const MtjDevice dev(reference35());
  const double hz = oe_to_a_per_m(GetParam());
  const double dp = dev.delta(MtjState::kParallel, hz);
  const double dap = dev.delta(MtjState::kAntiParallel, hz);
  const double ic_leave_p = dev.ic(SwitchDirection::kPToAp, hz);
  const double ic_leave_ap = dev.ic(SwitchDirection::kApToP, hz);
  if (hz < 0.0) {
    EXPECT_LT(dp, dap);
    EXPECT_LT(ic_leave_p, ic_leave_ap);
  } else if (hz > 0.0) {
    EXPECT_GT(dp, dap);
    EXPECT_GT(ic_leave_p, ic_leave_ap);
  }
  // Hz -> -Hz swaps the states' roles exactly.
  EXPECT_NEAR(dev.delta(MtjState::kParallel, -hz), dap, 1e-9);
  EXPECT_NEAR(dev.ic(SwitchDirection::kPToAp, -hz), ic_leave_ap, 1e-15);
}

INSTANTIATE_TEST_SUITE_P(FieldSweep, StrayFieldProperty,
                         ::testing::Values(-400.0, -100.0, -16.0, 0.0, 64.0,
                                           200.0, 400.0));


// --- read disturb -------------------------------------------------------------

/// Read-disturb probability at the current an ideal read bias `v_read`
/// drives through `state`.
double disturb_at_bias(const MtjDevice& dev, MtjState state, double v_read,
                       double duration, double hz) {
  return dev.read_disturb_probability_at_current(
      state, dev.electrical().current(state, v_read), duration, hz);
}

TEST(MtjDevice, ReadDisturbTargetsApState) {
  // Positive read bias drives AP->P: the AP state is the vulnerable one.
  const MtjDevice dev(reference35());
  const double hz = dev.intra_stray_field();
  const double p_ap =
      disturb_at_bias(dev, MtjState::kAntiParallel, 0.3, 1e-6, hz);
  const double p_p = disturb_at_bias(dev, MtjState::kParallel, 0.3, 1e-6, hz);
  EXPECT_GT(p_ap, p_p);
}

TEST(MtjDevice, ReadDisturbNegligibleAtPaperReadVoltage) {
  // The paper reads at 20 mV; the disturb rate there must be negligible
  // even over a 1 ms loop dwell.
  const MtjDevice dev(reference35());
  const double p = disturb_at_bias(dev, MtjState::kAntiParallel, 0.02, 1e-3,
                                   dev.intra_stray_field());
  EXPECT_LT(p, 1e-9);
}

TEST(MtjDevice, ReadDisturbGrowsWithVoltageAndDuration) {
  const MtjDevice dev(reference35());
  double prev = 0.0;
  for (double v : {0.1, 0.2, 0.3, 0.4}) {
    const double p = disturb_at_bias(dev, MtjState::kAntiParallel, v, 1e-6,
                                     0.0);
    EXPECT_GE(p, prev);
    prev = p;
  }
  EXPECT_GT(disturb_at_bias(dev, MtjState::kAntiParallel, 0.3, 1e-3, 0.0),
            disturb_at_bias(dev, MtjState::kAntiParallel, 0.3, 1e-6, 0.0));
  EXPECT_DOUBLE_EQ(
      disturb_at_bias(dev, MtjState::kAntiParallel, 0.3, 0.0, 0.0), 0.0);
}


// Property sweep: Fig. 5 orderings must hold at every write voltage.
class SwitchingTimeProperty : public ::testing::TestWithParam<double> {};

TEST_P(SwitchingTimeProperty, Fig5OrderingsHold) {
  const double vp = GetParam();
  const MtjDevice dev(reference35());
  const double intra = dev.intra_stray_field();
  const double t_free = dev.switching_time(SwitchDirection::kApToP, vp, 0.0);
  const double t_intra =
      dev.switching_time(SwitchDirection::kApToP, vp, intra);
  // More negative field -> slower AP->P (paper Fig. 5 solid vs dashed).
  EXPECT_GT(t_intra, t_free);
  const double t_np0 = dev.switching_time(SwitchDirection::kApToP, vp,
                                          intra + oe_to_a_per_m(-34.0));
  const double t_np255 = dev.switching_time(SwitchDirection::kApToP, vp,
                                            intra + oe_to_a_per_m(132.0));
  EXPECT_GT(t_np0, t_intra);
  EXPECT_LT(t_np255, t_intra);
  // tw and overdrive are consistent: tw * Im is voltage-independent up to
  // the slowly varying log(Delta) factor -- check within 5 %.
  const double im = dev.overdrive(SwitchDirection::kApToP, vp, intra);
  const double im_ref = dev.overdrive(SwitchDirection::kApToP, 0.9, intra);
  const double t_ref = dev.switching_time(SwitchDirection::kApToP, 0.9, intra);
  EXPECT_NEAR(t_intra * im, t_ref * im_ref, t_ref * im_ref * 0.05);
}

INSTANTIATE_TEST_SUITE_P(Voltages, SwitchingTimeProperty,
                         ::testing::Values(0.72, 0.8, 0.9, 1.0, 1.1, 1.2));

// Property sweep: retention/Ic/delta consistency across temperatures.
class TemperatureProperty : public ::testing::TestWithParam<double> {};

TEST_P(TemperatureProperty, ThermalScalingConsistent) {
  const double t = GetParam();
  const MtjDevice dev(reference35());
  const auto& thermal = dev.params().thermal;
  // Ic0(T) scales exactly with the Bloch factor.
  EXPECT_NEAR(dev.ic0(t), dev.ic0(300.0) * thermal.ms_scale(t),
              dev.ic0(300.0) * 1e-12);
  // Delta(T) without stray field equals Delta0 * delta0_scale.
  EXPECT_NEAR(dev.delta(MtjState::kParallel, 0.0, t),
              45.5 * thermal.delta0_scale(t), 1e-9);
  // Retention is Arrhenius in that Delta.
  EXPECT_NEAR(dev.retention_time(MtjState::kParallel, 0.0, t),
              1e-9 * std::exp(dev.delta(MtjState::kParallel, 0.0, t)),
              dev.retention_time(MtjState::kParallel, 0.0, t) * 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Temperatures, TemperatureProperty,
                         ::testing::Values(273.15, 300.0, 358.15, 423.15));

}  // namespace
}  // namespace mram::dev
