// Tests for src/sim: process-variation sampling and yield.

#include <gtest/gtest.h>

#include <cmath>

#include "sim/variation.h"
#include "sim/yield.h"
#include "util/error.h"
#include "util/stats.h"
#include "util/units.h"

namespace mram::sim {
namespace {

using dev::MtjParams;

TEST(Variation, ValidationRejectsHugeSigmas) {
  VariationModel v;
  v.sigma_ecd_rel = 0.9;
  EXPECT_THROW(v.validate(), util::ConfigError);
  v = VariationModel{};
  v.sigma_hk_rel = -0.1;
  EXPECT_THROW(v.validate(), util::ConfigError);
  EXPECT_NO_THROW(VariationModel{}.validate());
}

TEST(Variation, SamplesCenterOnNominal) {
  const auto nominal = MtjParams::reference_device(35e-9);
  VariationModel v;
  util::Rng rng(42);
  util::RunningStats ecd, hk, delta0;
  for (int i = 0; i < 4000; ++i) {
    const auto s = v.sample(nominal, rng);
    ecd.add(s.stack.ecd);
    hk.add(s.hk);
    delta0.add(s.delta0);
  }
  EXPECT_NEAR(ecd.mean(), nominal.stack.ecd, nominal.stack.ecd * 0.01);
  EXPECT_NEAR(ecd.stddev() / ecd.mean(), v.sigma_ecd_rel, 0.01);
  EXPECT_NEAR(hk.mean(), nominal.hk, nominal.hk * 0.01);
  EXPECT_NEAR(hk.stddev() / hk.mean(), v.sigma_hk_rel, 0.015);
  // Delta0 inherits the eCD variation (2 sigma_ecd) plus its own spread.
  const double expected_delta_sigma = std::sqrt(
      std::pow(2.0 * v.sigma_ecd_rel, 2.0) + std::pow(v.sigma_delta0_rel, 2.0));
  EXPECT_NEAR(delta0.stddev() / delta0.mean(), expected_delta_sigma, 0.02);
}

TEST(Variation, SampledDevicesAreValid) {
  const auto nominal = MtjParams::reference_device(35e-9);
  VariationModel v;
  util::Rng rng(43);
  for (int i = 0; i < 200; ++i) {
    EXPECT_NO_THROW(v.sample(nominal, rng).validate());
  }
}

TEST(Variation, DeterministicGivenSeed) {
  const auto nominal = MtjParams::reference_device(35e-9);
  VariationModel v;
  util::Rng a(7), b(7);
  for (int i = 0; i < 20; ++i) {
    EXPECT_DOUBLE_EQ(v.sample(nominal, a).stack.ecd,
                     v.sample(nominal, b).stack.ecd);
  }
}

TEST(Variation, ZeroSigmaReproducesNominal) {
  const auto nominal = MtjParams::reference_device(35e-9);
  VariationModel v;
  v.sigma_ecd_rel = v.sigma_hk_rel = v.sigma_ms_t_rel = v.sigma_tmr_rel =
      v.sigma_delta0_rel = 0.0;
  util::Rng rng(44);
  const auto s = v.sample(nominal, rng);
  EXPECT_DOUBLE_EQ(s.stack.ecd, nominal.stack.ecd);
  EXPECT_DOUBLE_EQ(s.hk, nominal.hk);
  EXPECT_DOUBLE_EQ(s.delta0, nominal.delta0);
}

// --- yield ---------------------------------------------------------------------

TEST(Yield, SpecValidation) {
  YieldSpec spec;
  spec.min_delta = -1.0;
  EXPECT_THROW(spec.validate(), util::ConfigError);
  spec = YieldSpec{};
  spec.max_switching_time = 0.0;
  EXPECT_THROW(spec.validate(), util::ConfigError);
  EXPECT_NO_THROW(YieldSpec{}.validate());
}

TEST(Yield, NominalDevicePassesDefaultSpec) {
  // Zero variation: every "sample" is the nominal device, which meets the
  // default spec at 2x eCD.
  const auto nominal = MtjParams::reference_device(35e-9);
  VariationModel none;
  none.sigma_ecd_rel = none.sigma_hk_rel = none.sigma_ms_t_rel =
      none.sigma_tmr_rel = none.sigma_delta0_rel = 0.0;
  util::Rng rng(50);
  eng::MonteCarloRunner runner;
  const auto result = estimate_yield(nominal, none, 2.0 * 35e-9, YieldSpec{},
                                     10, rng, runner);
  EXPECT_EQ(result.pass_both, 10u);
  EXPECT_DOUBLE_EQ(result.yield, 1.0);
}

TEST(Yield, TightSpecFailsEveryone) {
  const auto nominal = MtjParams::reference_device(35e-9);
  VariationModel v;
  util::Rng rng(51);
  YieldSpec spec;
  spec.min_delta = 1000.0;  // unreachable
  eng::MonteCarloRunner runner;
  const auto result =
      estimate_yield(nominal, v, 2.0 * 35e-9, spec, 20, rng, runner);
  EXPECT_EQ(result.pass_retention, 0u);
  EXPECT_DOUBLE_EQ(result.yield, 0.0);
}

TEST(Yield, CouplingPenaltyAtAggressivePitch) {
  // With variation, the worst-case coupling at 1.5x eCD costs yield
  // relative to 3x eCD.
  const auto nominal = MtjParams::reference_device(35e-9);
  VariationModel v;
  util::Rng rng(52);
  eng::MonteCarloRunner runner;
  const auto aggressive =
      estimate_yield(nominal, v, 1.5 * 35e-9, YieldSpec{}, 800, rng, runner);
  const auto relaxed =
      estimate_yield(nominal, v, 3.0 * 35e-9, YieldSpec{}, 800, rng, runner);
  EXPECT_LT(aggressive.yield, relaxed.yield);
}

}  // namespace
}  // namespace mram::sim
