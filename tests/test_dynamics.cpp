// Tests for src/dynamics: macrospin LLG solver physics (norm conservation,
// precession frequency, damping relaxation, STT critical current consistency
// with Eq. 2) and the device-to-LLG bridge.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "device/mtj_device.h"
#include "dynamics/llg.h"
#include "dynamics/llg_batch.h"
#include "dynamics/switching_sim.h"
#include "engine/monte_carlo.h"
#include "obs/metrics.h"
#include "util/constants.h"
#include "util/error.h"
#include "util/stats.h"
#include "util/units.h"

#include "support/macrospin_sim.h"

namespace mram::dyn {
namespace {

using dev::MtjParams;
using dev::SwitchDirection;
using num::Vec3;

LlgParams base_params() {
  LlgParams p;
  p.hk = util::oe_to_a_per_m(4646.8);
  p.alpha = 0.03;
  p.ms = 0.6e6;
  p.volume = 1.3e-24;
  p.temperature = 0.0;
  return p;
}

TEST(Llg, ValidationRejectsBadParams) {
  auto p = base_params();
  p.alpha = 0.0;
  EXPECT_THROW(p.validate(), util::ConfigError);
  p = base_params();
  p.spin_polarization = {0.0, 0.0, 2.0};
  EXPECT_THROW(p.validate(), util::ConfigError);
  p = base_params();
  p.temperature = -1.0;
  EXPECT_THROW(p.validate(), util::ConfigError);
}

TEST(Llg, NormIsConserved) {
  const MacrospinSim sim(base_params());
  const Vec3 m0 = num::normalized({0.3, 0.1, 0.95});
  std::vector<TrajectoryPoint> traj;
  sim.run(m0, 2e-9, 1e-13, &traj, 100);
  for (const auto& pt : traj) {
    EXPECT_NEAR(num::norm(pt.m), 1.0, 1e-9);
  }
}

TEST(Llg, RelaxesToEasyAxis) {
  // With damping and no drive, a tilted moment relaxes to +z (closest well).
  const MacrospinSim sim(base_params());
  const Vec3 m0 = num::normalized({0.5, 0.0, 0.87});
  const Vec3 m1 = sim.run(m0, 20e-9, 1e-13);
  EXPECT_GT(m1.z, 0.999);
}

TEST(Llg, RelaxesToNearestWell) {
  const MacrospinSim sim(base_params());
  const Vec3 m0 = num::normalized({0.5, 0.0, -0.87});
  const Vec3 m1 = sim.run(m0, 20e-9, 1e-13);
  EXPECT_LT(m1.z, -0.999);
}

TEST(Llg, PrecessionFrequencyMatchesKittel) {
  // Small tilt about +z: precession at f = gamma mu0 (Hk + Hext) / 2pi
  // (uniaxial film with the field along the axis).
  auto p = base_params();
  p.alpha = 1e-4;  // nearly undamped so the frequency is clean
  const MacrospinSim sim(p);

  const double theta = 0.05;
  const Vec3 m0{std::sin(theta), 0.0, std::cos(theta)};
  std::vector<TrajectoryPoint> traj;
  const double dt = 1e-14;
  sim.run(m0, 0.5e-9, dt, &traj, 1);

  // Count zero crossings of m_y to estimate the period.
  int crossings = 0;
  double first = -1.0, last = -1.0;
  for (std::size_t i = 1; i < traj.size(); ++i) {
    if (traj[i - 1].m.y * traj[i].m.y < 0.0) {
      ++crossings;
      if (first < 0.0) first = traj[i].t;
      last = traj[i].t;
    }
  }
  ASSERT_GT(crossings, 4);
  const double period = 2.0 * (last - first) / (crossings - 1);
  const double f_measured = 1.0 / period;
  const double f_expected = util::kGyromagneticRatio * util::kMu0 * p.hk *
                            std::cos(theta) / (2.0 * util::kPi);
  EXPECT_NEAR(f_measured, f_expected, f_expected * 0.02);
}

TEST(Llg, SpinTorqueFieldFormula) {
  auto p = base_params();
  p.current = 100e-6;
  const double expected = util::kHbar * p.stt_efficiency * p.current /
                          (2.0 * util::kElementaryCharge * util::kMu0 * p.ms *
                           p.volume);
  EXPECT_NEAR(p.spin_torque_field(), expected, std::abs(expected) * 1e-12);
  p.current = -100e-6;
  EXPECT_LT(p.spin_torque_field(), 0.0);
}

TEST(Llg, SwitchesAboveCriticalTorqueOnly) {
  // Linearized critical spin-torque field: a_j = alpha * Hk. Drive from -z
  // toward +z with p = +z; check bracketing around the threshold.
  auto p = base_params();
  const double aj_crit = p.alpha * p.hk;
  const double i_per_aj = 1.0 / LlgParams{.ms = p.ms, .volume = p.volume,
                                          .stt_efficiency = p.stt_efficiency,
                                          .current = 1.0}
                                    .spin_torque_field();

  const Vec3 m0 = num::normalized({0.02, 0.0, -1.0});
  {
    auto strong = p;
    strong.current = 1.6 * aj_crit * i_per_aj;
    const MacrospinSim sim(strong);
    const Vec3 m1 = sim.run(m0, 60e-9, 2e-13);
    EXPECT_GT(m1.z, 0.9) << "60 % overdrive must switch";
  }
  {
    auto weak = p;
    weak.current = 0.5 * aj_crit * i_per_aj;
    const MacrospinSim sim(weak);
    const Vec3 m1 = sim.run(m0, 60e-9, 2e-13);
    EXPECT_LT(m1.z, -0.9) << "half-critical drive must not switch";
  }
}

TEST(Llg, ThermalSigmaScalesWithTemperatureAndStep) {
  auto p = base_params();
  p.temperature = 300.0;
  const MacrospinSim sim(p);
  const double s1 = sim.thermal_field_sigma(1e-12);
  const double s2 = sim.thermal_field_sigma(4e-12);
  EXPECT_NEAR(s1 / s2, 2.0, 1e-9);  // sigma ~ 1/sqrt(dt)

  auto cold = p;
  cold.temperature = 75.0;
  const MacrospinSim sim_cold(cold);
  EXPECT_NEAR(sim.thermal_field_sigma(1e-12) /
                  sim_cold.thermal_field_sigma(1e-12),
              2.0, 1e-9);  // sigma ~ sqrt(T)

  auto zero = p;
  zero.temperature = 0.0;
  EXPECT_DOUBLE_EQ(MacrospinSim(zero).thermal_field_sigma(1e-12), 0.0);
}

TEST(Llg, RunUntilSwitchDetectsCrossing) {
  auto p = base_params();
  const double aj_crit = p.alpha * p.hk;
  p.current = 2.0 * aj_crit /
              LlgParams{.ms = p.ms, .volume = p.volume,
                        .stt_efficiency = p.stt_efficiency, .current = 1.0}
                  .spin_torque_field();
  const MacrospinSim sim(p);
  util::Rng rng(3);
  const auto result =
      sim.run_until_switch(num::normalized({0.05, 0.0, -1.0}), 100e-9, 2e-13,
                           rng);
  EXPECT_TRUE(result.switched);
  EXPECT_GT(result.time, 0.0);
  EXPECT_LT(result.time, 100e-9);
}

// --- batched SoA kernel vs scalar reference ---------------------------------

LlgParams thermal_driven_params() {
  auto p = base_params();
  p.temperature = 300.0;
  const double aj_crit = p.alpha * p.hk;
  p.current = 1.5 * aj_crit /
              LlgParams{.ms = p.ms, .volume = p.volume,
                        .stt_efficiency = p.stt_efficiency, .current = 1.0}
                  .spin_torque_field();
  return p;
}

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

/// Runs one trial per m0 entry through a (possibly reused) batch sim and
/// the scalar reference on identical per-lane streams, and requires every
/// SwitchResult field bitwise equal. A lane that does not switch reports
/// time = duration whatever its step count, so its m_end is what exposes an
/// off-by-one step budget. More trials than
/// BatchMacrospinSim::preferred_lanes() slots exercise slot refills.
void expect_lanes_match_scalar(BatchMacrospinSim& batch,
                               const std::vector<Vec3>& m0, double duration,
                               double dt, std::uint64_t seed,
                               double mz_stop = 0.0) {
  const MacrospinSim scalar(batch.params());
  const std::size_t lanes = m0.size();

  std::vector<SwitchResult> expected(lanes);
  for (std::size_t l = 0; l < lanes; ++l) {
    util::Rng rng = util::Rng::stream(seed, l);
    expected[l] = scalar.run_until_switch(m0[l], duration, dt, rng, mz_stop);
  }

  std::vector<util::Rng> rngs;
  for (std::size_t l = 0; l < lanes; ++l) {
    rngs.push_back(util::Rng::stream(seed, l));
  }
  std::vector<SwitchResult> got(lanes);
  batch.run_until_switch(lanes, m0.data(), rngs.data(), duration, dt,
                         got.data(), mz_stop);

  for (std::size_t l = 0; l < lanes; ++l) {
    EXPECT_EQ(got[l].switched, expected[l].switched) << "lane " << l;
    EXPECT_EQ(bits(got[l].time), bits(expected[l].time)) << "lane " << l;
    EXPECT_EQ(bits(got[l].m_end.x), bits(expected[l].m_end.x)) << "lane " << l;
    EXPECT_EQ(bits(got[l].m_end.y), bits(expected[l].m_end.y)) << "lane " << l;
    EXPECT_EQ(bits(got[l].m_end.z), bits(expected[l].m_end.z)) << "lane " << l;
  }
}

/// Starts near -z with a small seeded tilt, one per trial.
std::vector<Vec3> tilted_starts(std::size_t lanes, std::uint64_t seed) {
  std::vector<Vec3> m0(lanes);
  util::Rng tilt(seed);
  for (auto& m : m0) {
    m = num::normalized({0.08 * tilt.uniform(-1.0, 1.0),
                         0.08 * tilt.uniform(-1.0, 1.0), -1.0});
  }
  return m0;
}

/// Runs `lanes` trials through both kernels on identical per-lane streams
/// and requires bit-identical SwitchResults.
void expect_batch_matches_scalar(const LlgParams& p, std::size_t lanes,
                                 double duration, double dt,
                                 std::uint64_t seed, double mz_stop = 0.0) {
  BatchMacrospinSim batch(p);
  expect_lanes_match_scalar(batch, tilted_starts(lanes, seed), duration, dt,
                            seed, mz_stop);
}

TEST(BatchLlg, BitIdenticalToScalarThermalDriven) {
  // Thermal field + overcritical STT: a window long enough that most lanes
  // switch (exercising compaction) but short enough that some do not.
  expect_batch_matches_scalar(thermal_driven_params(), 8, 8e-9, 2e-13, 42);
}

TEST(BatchLlg, BitIdenticalAtOddLaneCountsAndB1) {
  const auto p = thermal_driven_params();
  for (std::size_t lanes : {std::size_t{1}, std::size_t{3}, std::size_t{5}}) {
    expect_batch_matches_scalar(p, lanes, 3e-9, 2e-13, 1000 + lanes);
  }
}

TEST(BatchLlg, BitIdenticalAtSixteenLanes) {
  // Full 16-lane blocks route through the AVX-512 clone of the kernel when
  // the host supports it (and the AVX2/default clone otherwise); either way
  // the results must stay bitwise equal to the scalar reference, because
  // lane widening only regroups independent lanes.
  static_assert(BatchMacrospinSim::kAvx512Lanes == 16);
  const auto p = thermal_driven_params();
  expect_batch_matches_scalar(p, BatchMacrospinSim::kAvx512Lanes, 8e-9, 2e-13,
                              42);
  // 17 trials: on an AVX-512 host, 16 slots and one refill in the same
  // call.
  expect_batch_matches_scalar(p, 17, 3e-9, 2e-13, 77);
}

TEST(BatchLlg, BitIdenticalAtLaneFillShapes) {
  // The thermal noise of a block comes from one lane-parallel fill in
  // groups of up to 16 slots. 12 trials fill one group, with a partial
  // second zmm at the AVX-512 level. 33, 40, 64 and 100 trials outnumber
  // the slots: retired slots are refilled mid-block from the queue, the
  // newcomers' partial blocks come from their own streams, and compaction
  // only starts once the queue is empty.
  const auto p = thermal_driven_params();
  for (std::size_t lanes :
       {std::size_t{12}, std::size_t{33}, std::size_t{40}, std::size_t{64},
        std::size_t{100}}) {
    SCOPED_TRACE(lanes);
    expect_batch_matches_scalar(p, lanes, 3e-9, 2e-13, 5000 + lanes);
  }

  // Refills at a window's end: windows shorter than one 64-step noise
  // block (25 and 55 steps at 0.2 ps) retire their trials mid-block by
  // exhausting the budget, and the next trials enter those slots at a
  // nonzero phase.
  for (const double window : {5e-12, 1.1e-11}) {
    SCOPED_TRACE(window);
    expect_batch_matches_scalar(p, 41, window, 2e-13, 6100);
  }

  // Refills at a stop plane below the equator: trials cross it earlier,
  // and each newcomer's crossing sign comes from its own start.
  expect_batch_matches_scalar(p, 40, 3e-9, 2e-13, 6200, /*mz_stop=*/-0.5);
}

TEST(BatchLlg, KernelCallTagsItsChunkLlgWhateverBodiesRun) {
  // 40 trials outnumber the slots: the fixed-width body runs while the
  // queue refills, the generic body once compaction starts. The chunk
  // still carries the one kLlg tag its perf delta is attributed to; the
  // width split lives in the llg.blocks_* counters.
  constexpr std::size_t kTrials = 40;
  BatchMacrospinSim batch(thermal_driven_params());
  const auto m0 = tilted_starts(kTrials, 77);
  std::vector<util::Rng> rngs;
  for (std::size_t l = 0; l < kTrials; ++l) {
    rngs.push_back(util::Rng::stream(77, l));
  }
  std::vector<SwitchResult> out(kTrials);
  obs::MetricsBlock block;
  {
    obs::ChunkScope scope(&block);
    batch.run_until_switch(kTrials, m0.data(), rngs.data(), 3e-9, 2e-13,
                           out.data());
    scope.finish(kTrials);
  }
  const auto count = [&block](obs::Counter c) {
    return block.counters[static_cast<std::size_t>(c)];
  };
  EXPECT_GT(count(obs::Counter::kLlgBlocksW8) +
                count(obs::Counter::kLlgBlocksW16),
            0u);
  EXPECT_GT(count(obs::Counter::kLlgBlocksGeneric), 0u);
  EXPECT_EQ(block.tag, obs::KernelTag::kLlg);
}

TEST(BatchLlg, PreferredLanesIsASupportedWidth) {
  const std::size_t lanes = BatchMacrospinSim::preferred_lanes();
  EXPECT_TRUE(lanes == BatchMacrospinSim::kDefaultLanes ||
              lanes == BatchMacrospinSim::kAvx512Lanes)
      << lanes;
}

TEST(BatchLlg, BitIdenticalDeterministicNoThermalField) {
  // temperature = 0: no rng draws at all; the pure SoA arithmetic must
  // still replay the scalar path exactly.
  auto p = thermal_driven_params();
  p.temperature = 0.0;
  expect_batch_matches_scalar(p, 4, 6e-9, 2e-13, 7);
}

TEST(BatchLlg, NoSwitchLanesReportFullDuration) {
  auto p = base_params();
  p.temperature = 0.0;  // no drive, no noise: nothing may switch
  const Vec3 m0[2] = {num::normalized({0.05, 0.0, 1.0}),
                      num::normalized({0.0, 0.05, 1.0})};
  util::Rng rngs[2] = {util::Rng(1), util::Rng(2)};
  SwitchResult out[2];
  BatchMacrospinSim batch(p);
  batch.run_until_switch(2, m0, rngs, 1e-9, 1e-12, out);
  for (const auto& r : out) {
    EXPECT_FALSE(r.switched);
    EXPECT_DOUBLE_EQ(r.time, 1e-9);
  }
}

/// Steps the scalar loop executes for a window: its floating-point clock
/// replayed, as the batch kernel's step budget must reproduce.
std::size_t replayed_steps(double duration, double dt) {
  std::size_t n = 0;
  for (double t = 0.0; t < duration; ++n) t += dt;
  return n;
}

TEST(BatchLlg, ReusedSimTracksEveryWindowChange) {
  // The step budget is memoised per (duration, dt), so one sim reused
  // across calls must recompute it whenever either changes: here duration,
  // then dt, then back to the first pair. The two windows are ones where no
  // closed form matches the scalar clock.
  EXPECT_EQ(replayed_steps(1e-9, 1e-12), 1000u);
  EXPECT_EQ(std::ceil(1e-9 / 1e-12), 1001.0);
  EXPECT_EQ(replayed_steps(8e-9, 2e-13), 40001u);
  EXPECT_EQ(std::ceil(8e-9 / 2e-13), 40000.0);
  EXPECT_EQ(std::round(8e-9 / 2e-13), 40000.0);

  // Thermal lanes precessing under an in-plane field, no spin torque:
  // none switches, so every lane runs its whole budget.
  auto p = base_params();
  p.temperature = 300.0;
  p.h_applied = {0.2 * p.hk, 0.0, 0.0};
  const std::vector<Vec3> m0 = {
      num::normalized({0.05, 0.0, 1.0}), num::normalized({0.0, 0.05, 1.0}),
      num::normalized({0.03, -0.02, -1.0}),
      num::normalized({-0.04, 0.01, 1.0}),
      num::normalized({0.02, 0.02, -1.0})};

  BatchMacrospinSim batch(p);
  expect_lanes_match_scalar(batch, m0, 1e-9, 1e-12, 11);
  expect_lanes_match_scalar(batch, m0, 8e-9, 1e-12, 12);
  expect_lanes_match_scalar(batch, m0, 8e-9, 2e-13, 13);
  expect_lanes_match_scalar(batch, m0, 1e-9, 1e-12, 14);
}

TEST(BatchLlg, SwitchingStatsBatchedMatchesScalarAcrossThreads) {
  // The full ensemble: batched llg_switching_stats must reproduce one
  // MacrospinSim trajectory per trial bit for bit -- same switch counts and
  // identical RunningStats moments -- at 1 and 4 threads.
  const dev::MtjDevice device(MtjParams::reference_device(35e-9));
  const double vp = 1.1;
  const auto dir = SwitchDirection::kApToP;
  struct Tally {
    util::RunningStats times;
    std::size_t switched = 0;
    void merge(const Tally& o) {
      times.merge(o.times);
      switched += o.switched;
    }
  };
  Tally ref;
  {
    const MacrospinSim sim(llg_from_device(device, dir, vp, 0.0, 300.0));
    const double delta = device.delta(dev::initial_state(dir), 0.0, 300.0);
    eng::MonteCarloRunner runner(eng::RunnerConfig{.threads = 1});
    util::Rng rng(404);
    ref = runner.run<Tally>(
        21, rng(), [&](util::Rng& trial_rng, std::size_t, Tally& acc) {
          const Vec3 m0 = thermal_initial_tilt(trial_rng, delta, -1.0);
          const auto r = sim.run_until_switch(m0, 30e-9, 1e-12, trial_rng);
          if (r.switched) {
            ++acc.switched;
            acc.times.add(r.time);
          }
        });
  }
  EXPECT_GT(ref.switched, 0u);
  for (unsigned threads : {1u, 4u}) {
    eng::MonteCarloRunner runner(eng::RunnerConfig{.threads = threads});
    util::Rng rng(404);
    const auto batched = llg_switching_stats(device, dir, vp, 0.0, 21, rng,
                                             30e-9, 1e-12, 300.0, runner);
    EXPECT_EQ(batched.switched, ref.switched) << threads << " threads";
    EXPECT_EQ(batched.trials, 21u);
    EXPECT_EQ(batched.mean_time, ref.times.mean()) << threads << " threads";
    EXPECT_EQ(batched.stddev_time, ref.times.stddev())
        << threads << " threads";
  }
}

// --- device bridge ----------------------------------------------------------

TEST(SwitchingSim, BridgeMapsDeviceParameters) {
  const dev::MtjDevice device(MtjParams::reference_device(35e-9));
  const auto llg =
      llg_from_device(device, SwitchDirection::kApToP, 1.0, 0.0, 300.0);
  EXPECT_DOUBLE_EQ(llg.hk, device.params().hk);
  EXPECT_DOUBLE_EQ(llg.alpha, device.params().damping);
  // Ms * V equals the thermal moment.
  EXPECT_NEAR(llg.ms * llg.volume, device.thermal_moment(), 1e-30);
  // AP->P drives toward +z: positive current.
  EXPECT_GT(llg.current, 0.0);
  const auto llg_down =
      llg_from_device(device, SwitchDirection::kPToAp, 1.0, 0.0, 300.0);
  EXPECT_LT(llg_down.current, 0.0);
}

TEST(SwitchingSim, BridgeAppliesStrayField) {
  const dev::MtjDevice device(MtjParams::reference_device(35e-9));
  const double hz = util::oe_to_a_per_m(-150.0);
  const auto llg =
      llg_from_device(device, SwitchDirection::kApToP, 1.0, hz, 300.0);
  EXPECT_NEAR(llg.h_applied.z, hz, std::abs(hz) * 1e-12);
}

TEST(SwitchingSim, LlgSwitchingStatisticsReasonable) {
  // At a strong overdrive the stochastic LLG must switch essentially every
  // trial, on a nanosecond scale comparable with Sun's model.
  const dev::MtjDevice device(MtjParams::reference_device(35e-9));
  util::Rng rng(17);
  const double vp = 1.2;
  eng::MonteCarloRunner runner;
  const auto stats = llg_switching_stats(device, SwitchDirection::kApToP, vp,
                                         0.0, 24, rng, 80e-9, 1e-12, 300.0,
                                         runner);
  EXPECT_EQ(stats.trials, 24u);
  EXPECT_GE(stats.switched, 22u);
  const double tw_sun =
      device.switching_time(SwitchDirection::kApToP, vp, 0.0);
  // Same order of magnitude (the analytic model carries a fitted prefactor).
  EXPECT_GT(stats.mean_time, 0.05 * tw_sun);
  EXPECT_LT(stats.mean_time, 20.0 * tw_sun);
}


// --- Stoner-Wohlfarth astroid --------------------------------------------------

TEST(Llg, StonerWohlfarthSwitchingFieldOnAxis) {
  // A field antiparallel to the moment switches it deterministically once
  // |H| exceeds Hk (on-axis astroid point). Bracket the threshold.
  auto p = base_params();
  const Vec3 m0 = num::normalized({0.02, 0.0, 1.0});
  {
    auto strong = p;
    strong.h_applied = {0.0, 0.0, -1.1 * p.hk};
    const Vec3 m1 = MacrospinSim(strong).run(m0, 20e-9, 1e-13);
    EXPECT_LT(m1.z, -0.9);
  }
  {
    auto weak = p;
    weak.h_applied = {0.0, 0.0, -0.9 * p.hk};
    const Vec3 m1 = MacrospinSim(weak).run(m0, 20e-9, 1e-13);
    EXPECT_GT(m1.z, 0.4);  // stays in the upper well (tilted by the field)
  }
}

TEST(Llg, AstroidMinimumAt45Degrees) {
  // The SW astroid: Hsw(psi) = Hk / (cos^{2/3}psi + sin^{2/3}psi)^{3/2},
  // minimal (= Hk/2) at 45 degrees. The static astroid only applies
  // quasi-statically; with realistic damping the ringing after an abrupt
  // field step switches below it (the "dynamic astroid"), so this test
  // uses heavy damping to suppress the transient.
  auto p = base_params();
  p.alpha = 0.8;
  const double c = std::cos(util::kPi / 4.0);
  const Vec3 m0 = num::normalized({0.01, 0.0, 1.0});
  {
    auto strong = p;
    strong.h_applied = {0.55 * p.hk * c, 0.0, -0.55 * p.hk * c};
    const Vec3 m1 = MacrospinSim(strong).run(m0, 30e-9, 1e-13);
    EXPECT_LT(m1.z, 0.0) << "0.55 Hk at 45 deg must switch";
  }
  {
    auto weak = p;
    weak.h_applied = {0.45 * p.hk * c, 0.0, -0.45 * p.hk * c};
    const Vec3 m1 = MacrospinSim(weak).run(m0, 30e-9, 1e-13);
    EXPECT_GT(m1.z, 0.0) << "0.45 Hk at 45 deg must not switch";
  }
}

}  // namespace
}  // namespace mram::dyn
