// Tests for src/mram: the coupling-aware memory array, write-error-rate
// machinery, retention analysis and march testing.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>
#include <vector>

#include "array/intercell.h"
#include "mram/march.h"
#include "mram/mram_array.h"
#include "mram/retention.h"
#include "mram/wer.h"
#include "mram/cell_1t1r.h"
#include "mram/wvw.h"
#include "util/error.h"
#include "util/units.h"

namespace mram::mem {
namespace {

using arr::DataGrid;
using arr::PatternKind;
using dev::MtjParams;
using dev::SwitchDirection;
using util::oe_to_a_per_m;

ArrayConfig small_config(double pitch_mult = 2.0) {
  ArrayConfig cfg;
  cfg.device = MtjParams::reference_device(35e-9);
  cfg.pitch = pitch_mult * 35e-9;
  cfg.rows = 5;
  cfg.cols = 5;
  return cfg;
}

WritePulse strong_pulse() { return {1.2, 100e-9}; }

// --- construction / validation ----------------------------------------------

TEST(MramArray, ValidationRejectsBadConfigs) {
  auto cfg = small_config();
  cfg.pitch = 10e-9;
  EXPECT_THROW(MramArray{cfg}, util::ConfigError);
  cfg = small_config();
  cfg.rows = 0;
  EXPECT_THROW(MramArray{cfg}, util::ConfigError);
  cfg = small_config();
  cfg.coupling_radius = 0;
  EXPECT_THROW(MramArray{cfg}, util::ConfigError);
}

TEST(MramArray, StartsAllParallel) {
  MramArray array(small_config());
  for (std::size_t r = 0; r < array.rows(); ++r) {
    for (std::size_t c = 0; c < array.cols(); ++c) {
      EXPECT_EQ(array.read(r, c), 0);
    }
  }
}

TEST(MramArray, LoadRequiresMatchingShape) {
  MramArray array(small_config());
  EXPECT_THROW(array.load(DataGrid(3, 3, 0)), util::ContractViolation);
  util::Rng rng(1);
  array.load(arr::make_pattern(PatternKind::kCheckerboard, 5, 5, rng));
  std::size_t ones = 0;  // 12 in a 5x5 checkerboard starting at 0
  for (std::size_t r = 0; r < 5; ++r) {
    for (std::size_t c = 0; c < 5; ++c) ones += array.data().at(r, c);
  }
  EXPECT_EQ(ones, 12u);
}

// --- field consistency --------------------------------------------------------

TEST(MramArray, CenterFieldMatchesInterCellSolver) {
  // The 5x5 array's center cell with a radius-1 model sees exactly the 3x3
  // solver's field plus the device's intra-cell field.
  auto cfg = small_config();
  MramArray array(cfg);
  util::Rng rng(2);
  const auto grid = arr::make_pattern(PatternKind::kCheckerboard, 5, 5, rng);
  array.load(grid);

  const arr::InterCellSolver solver(cfg.device.stack, cfg.pitch);
  // Build the NP8 of the center cell (2,2).
  int np = 0;
  const auto& offsets = arr::neighbor_offsets();
  for (int i = 0; i < 8; ++i) {
    np |= grid.at(static_cast<std::size_t>(2 + offsets[i].dy),
                  static_cast<std::size_t>(2 + offsets[i].dx))
          << i;
  }
  const double expected = array.device().intra_stray_field() +
                          solver.field_for(arr::Np8(np));
  EXPECT_NEAR(array.stray_field_at(2, 2), expected,
              std::abs(expected) * 1e-9);
}

// --- writes -------------------------------------------------------------------

TEST(MramArray, StrongWriteSucceedsAndUpdates) {
  MramArray array(small_config());
  util::Rng rng(3);
  const auto result = array.write(2, 2, 1, strong_pulse(), rng);
  EXPECT_TRUE(result.attempted);
  EXPECT_TRUE(result.success);
  EXPECT_GT(result.success_probability, 0.999);
  EXPECT_EQ(array.read(2, 2), 1);
}

TEST(MramArray, RedundantWriteIsNotAttempted) {
  MramArray array(small_config());
  util::Rng rng(4);
  const auto result = array.write(2, 2, 0, strong_pulse(), rng);
  EXPECT_FALSE(result.attempted);
  EXPECT_TRUE(result.success);
  EXPECT_EQ(array.read(2, 2), 0);
}

TEST(MramArray, MarginalWriteCanFailAndKeepsOldValue) {
  MramArray array(small_config());
  util::Rng rng(5);
  // A pulse far shorter than tw at low voltage almost always fails.
  const WritePulse weak{0.75, 1e-9};
  int failures = 0;
  for (int k = 0; k < 50; ++k) {
    array.load(DataGrid(5, 5, 0));
    const auto result = array.write(2, 2, 1, weak, rng);
    EXPECT_TRUE(result.attempted);
    if (!result.success) {
      ++failures;
      EXPECT_EQ(array.read(2, 2), 0);  // old value preserved
    }
  }
  EXPECT_GT(failures, 40);
}

TEST(MramArray, InvalidWriteArgumentsThrow) {
  MramArray array(small_config());
  util::Rng rng(6);
  EXPECT_THROW(array.write(0, 0, 2, strong_pulse(), rng),
               util::ContractViolation);
  EXPECT_THROW(array.write(0, 0, 1, WritePulse{-1.0, 1e-9}, rng),
               util::ConfigError);
  EXPECT_THROW(array.write(9, 0, 1, strong_pulse(), rng),
               util::ContractViolation);
}

TEST(MramArray, SwitchingTimeDependsOnNeighborhood) {
  // Writing AP->P (bit 0) is slowest when the neighborhood is all-P
  // (NP8 = 0, the paper's worst case) and fastest when all-AP.
  auto cfg = small_config(1.5);  // aggressive pitch: visible coupling
  MramArray array(cfg);
  util::Rng rng(7);

  auto grid0 = DataGrid(5, 5, 0);
  grid0.set(2, 2, 1);  // victim AP, neighbors P
  array.load(grid0);
  const double tw_worst = array.cell_switching_time(2, 2, 0, 0.9);

  auto grid1 = DataGrid(5, 5, 1);
  array.load(grid1);  // victim AP, neighbors AP
  const double tw_best = array.cell_switching_time(2, 2, 0, 0.9);

  EXPECT_GT(tw_worst, tw_best);
}

// --- retention ------------------------------------------------------------------

TEST(MramArray, RetentionHoldFlipsUnstableCells) {
  // Run hot with an artificially low Delta so flips actually occur within
  // the simulated hold.
  auto cfg = small_config();
  cfg.device.delta0 = 8.0;
  cfg.temperature = 400.0;
  MramArray array(cfg);
  util::Rng rng(8);
  const std::size_t flips = array.retention_hold(1.0, rng);
  EXPECT_GT(flips, 0u);
}

TEST(MramArray, StableArrayDoesNotFlip) {
  MramArray array(small_config());
  util::Rng rng(9);
  EXPECT_EQ(array.retention_hold(1.0, rng), 0u);  // Delta ~ 38+: no flips
}

TEST(Retention, WorstCaseIsAllParallelBackground) {
  // Fig. 6a: the smallest Delta occurs for a P victim with NP8 = 0, i.e.
  // the all-zero background, among every deterministic pattern.
  auto cfg = small_config(1.5);
  util::Rng rng(10);
  MramArray array(cfg);
  double worst = std::numeric_limits<double>::infinity();
  PatternKind worst_kind = PatternKind::kCheckerboard;
  for (auto kind : arr::deterministic_patterns()) {
    array.load(arr::make_pattern(kind, cfg.rows, cfg.cols, rng));
    const double min_delta = analyze_retention(array, 1.0).min_delta;
    if (min_delta < worst) {
      worst = min_delta;
      worst_kind = kind;
    }
  }
  EXPECT_EQ(worst_kind, PatternKind::kAllZero);
  // And the worst Delta is below the intra-only value.
  const double intra_only = array.device().delta(
      dev::MtjState::kParallel, array.device().intra_stray_field());
  EXPECT_LT(worst, intra_only);
}

TEST(Retention, ReportIsConsistent) {
  auto cfg = small_config();
  MramArray array(cfg);
  const auto report = analyze_retention(array, 3600.0);
  EXPECT_GT(report.min_delta, 0.0);
  EXPECT_NEAR(report.min_retention_time,
              cfg.device.attempt_time * std::exp(report.min_delta),
              report.min_retention_time * 1e-9);
  EXPECT_GE(report.array_fail_probability, 0.0);
  EXPECT_LE(report.array_fail_probability, 1.0);
  // Worst cell is interior (corner cells see fewer destabilizing P
  // aggressors for the all-P background... the interior cell has the full
  // NP8 = 0 neighborhood).
  EXPECT_GT(report.worst_row, 0u);
  EXPECT_LT(report.worst_row, 4u);
}

// --- write error rate -------------------------------------------------------

TEST(Wer, LongerPulseLowersErrorRate) {
  WerConfig cfg;
  cfg.array = small_config(1.5);
  cfg.background = PatternKind::kAllZero;
  cfg.pulse.voltage = 0.9;
  cfg.direction = SwitchDirection::kApToP;
  cfg.trials = 400;
  util::Rng rng(11);

  const double tw = MramArray(cfg.array).cell_switching_time(2, 2, 0, 0.9);
  eng::MonteCarloRunner runner;
  std::vector<double> wer;
  for (const double scale : {0.8, 1.0, 1.5, 3.0}) {
    cfg.pulse.width = scale * tw;
    wer.push_back(measure_wer(cfg, rng, runner).wer);
  }
  EXPECT_GT(wer.front(), 0.5);  // below tw: mostly failing
  EXPECT_LT(wer.back(), 0.05);  // 3x tw: mostly passing
  for (std::size_t i = 1; i < wer.size(); ++i) {
    EXPECT_LE(wer[i], wer[i - 1] + 0.05);
  }
}

TEST(Wer, WorstCaseBackgroundIsAllZeroForApToP) {
  // Paper Fig. 5c: NP8 = 0 needs the largest write margin for AP->P.
  WerConfig cfg;
  cfg.array = small_config(1.5);
  cfg.pulse.voltage = 0.8;
  cfg.direction = SwitchDirection::kApToP;
  cfg.trials = 600;
  // Pulse chosen between the all-0 and all-1 switching times.
  MramArray probe(cfg.array);
  auto g = DataGrid(5, 5, 0);
  g.set(2, 2, 1);
  probe.load(g);
  const double tw_worst = probe.cell_switching_time(2, 2, 0, 0.8);
  probe.load(DataGrid(5, 5, 1));
  const double tw_best = probe.cell_switching_time(2, 2, 0, 0.8);
  cfg.pulse.width = 0.5 * (tw_worst + tw_best);

  util::Rng rng(12);
  eng::MonteCarloRunner runner;
  cfg.background = PatternKind::kAllZero;
  const auto worst = measure_wer(cfg, rng, runner);
  cfg.background = PatternKind::kAllOne;
  const auto best = measure_wer(cfg, rng, runner);
  EXPECT_GT(worst.wer, best.wer);
  EXPECT_GT(worst.trials, 0u);
  EXPECT_LE(worst.confidence.lo, worst.wer);
  EXPECT_GE(worst.confidence.hi, worst.wer);
}

// --- march test ---------------------------------------------------------------

TEST(March, AlgorithmStructure) {
  const auto elements = march_c_minus();
  ASSERT_EQ(elements.size(), 6u);
  EXPECT_EQ(elements[0].ops.size(), 1u);
  EXPECT_EQ(elements[5].ops.size(), 1u);
  std::size_t total_ops = 0;
  for (const auto& e : elements) total_ops += e.ops.size();
  EXPECT_EQ(total_ops, 10u);  // March C-: 10N
}

TEST(March, CleanArrayPassesWithStrongPulse) {
  MramArray array(small_config());
  util::Rng rng(13);
  const auto result = run_march(array, march_c_minus(), strong_pulse(), rng);
  EXPECT_TRUE(result.faults.empty());
  EXPECT_EQ(result.reads, 5u * 25u);   // one read in each of 5 elements
  EXPECT_EQ(result.writes, 5u * 25u);  // w0 + four (r,w) elements
  EXPECT_EQ(result.failed_writes, 0u);
}

TEST(March, MarginalPulseProducesCouplingFaults) {
  auto cfg = small_config(1.5);
  MramArray array(cfg);
  util::Rng rng(14);
  // Pulse around the worst-case switching time: some writes fail and are
  // detected as read faults by the following march element.
  const double tw = array.cell_switching_time(2, 2, 1, 0.85);
  const WritePulse marginal{0.85, tw};
  const auto result = run_march(array, march_c_minus(), marginal, rng);
  EXPECT_GT(result.failed_writes, 0u);
  EXPECT_FALSE(result.faults.empty());
  // Every fault was recorded with a sensible location.
  for (const auto& f : result.faults) {
    EXPECT_LT(f.row, array.rows());
    EXPECT_LT(f.col, array.cols());
    EXPECT_NE(f.expected, f.observed);
  }
}

// --- retention probability table -------------------------------------------

TEST(MramArray, RetentionHoldMatchesPrecomputedProbabilityTable) {
  // retention_hold and the hoisted table + apply_retention_flips path must
  // consume the same draws and produce the same flips for the same stream.
  auto cfg = small_config(1.5);
  cfg.device.delta0 = 10.0;  // weak barrier so flips actually happen
  cfg.temperature = 400.0;
  MramArray direct(cfg);
  MramArray staged(cfg);
  util::Rng rng_pattern(31);
  const auto pattern =
      arr::make_pattern(PatternKind::kCheckerboard, 5, 5, rng_pattern);
  direct.load(pattern);
  staged.load(pattern);

  const auto table = staged.retention_flip_probabilities(1.0);
  ASSERT_EQ(table.size(), 25u);
  util::Rng rng_a(77);
  util::Rng rng_b(77);
  const std::size_t flips_direct = direct.retention_hold(1.0, rng_a);
  const std::size_t flips_staged = staged.apply_retention_flips(table, rng_b);
  EXPECT_EQ(flips_direct, flips_staged);
  EXPECT_GT(flips_direct, 0u);
  for (std::size_t r = 0; r < 5; ++r) {
    for (std::size_t c = 0; c < 5; ++c) {
      EXPECT_EQ(direct.read(r, c), staged.read(r, c));
    }
  }
  EXPECT_THROW(staged.apply_retention_flips(std::vector<double>(3), rng_b),
               util::ContractViolation);
}

// --- write-verify-write --------------------------------------------------------

TEST(Wvw, SkipsPulseWhenDataMatches) {
  MramArray array(small_config());
  util::Rng rng(21);
  WvwConfig cfg;
  cfg.pulse = strong_pulse();
  const auto result = write_verify_write(array, 2, 2, 0, cfg, rng);
  EXPECT_TRUE(result.success);
  EXPECT_EQ(result.attempts, 0u);
  EXPECT_DOUBLE_EQ(result.energy, 0.0);
  EXPECT_GT(result.latency, 0.0);  // the verify read still costs time
}

TEST(Wvw, RetriesUntilSuccess) {
  auto cfg_arr = small_config(1.5);
  MramArray array(cfg_arr);
  util::Rng rng(22);
  // Marginal pulse (~50 % per attempt) with a generous retry budget: the
  // overall success rate must be far above single-pulse.
  const double tw = array.cell_switching_time(2, 2, 1, 0.9);
  WvwConfig cfg;
  cfg.pulse = {0.9, tw};
  cfg.max_attempts = 6;
  int successes = 0;
  util::RunningStats attempts;
  for (int k = 0; k < 200; ++k) {
    array.load(arr::DataGrid(5, 5, 0));
    const auto result = write_verify_write(array, 2, 2, 1, cfg, rng);
    successes += result.success;
    attempts.add(static_cast<double>(result.attempts));
    if (result.success) EXPECT_EQ(array.read(2, 2), 1);
    EXPECT_LE(result.attempts, 6u);
    EXPECT_GT(result.energy, 0.0);
  }
  EXPECT_GT(successes, 195);         // ~1 - 0.5^6 per trial
  EXPECT_GT(attempts.mean(), 1.2);   // retries actually happen
  EXPECT_LT(attempts.mean(), 3.5);
}

TEST(Wvw, EnergyAndLatencyScaleWithAttempts) {
  auto cfg_arr = small_config();
  MramArray array(cfg_arr);
  util::Rng rng(23);
  WvwConfig cfg;
  cfg.pulse = strong_pulse();
  array.load(arr::DataGrid(5, 5, 0));
  const auto result = write_verify_write(array, 2, 2, 1, cfg, rng);
  EXPECT_TRUE(result.success);
  EXPECT_EQ(result.attempts, 1u);
  // Writing 1 into a P cell: the pulse is charged at the P resistance.
  const double r_p = array.device().electrical().resistance(
      dev::MtjState::kParallel, cfg.pulse.voltage);
  EXPECT_NEAR(result.energy,
              cfg.pulse.voltage * cfg.pulse.voltage / r_p * cfg.pulse.width,
              result.energy * 1e-9);
  EXPECT_NEAR(result.latency, cfg.pulse.width + kVerifyReadTime, 1e-15);
}

TEST(Wvw, ComparisonFavorsWvw) {
  WvwConfig cfg;
  auto array_cfg = small_config(1.5);
  const double tw = MramArray(array_cfg).cell_switching_time(2, 2, 0, 0.9);
  cfg.pulse = {0.9, tw};
  cfg.max_attempts = 4;
  WvwEnsembleConfig ensemble;
  ensemble.array = array_cfg;
  ensemble.wvw = cfg;
  ensemble.trials = 400;
  util::Rng rng(24);
  eng::MonteCarloRunner runner;
  const auto cmp = measure_wvw(ensemble, rng, runner);
  EXPECT_GT(cmp.single_pulse_wer, 0.3);
  EXPECT_LT(cmp.wvw_wer, cmp.single_pulse_wer);
  EXPECT_GT(cmp.wvw_mean_attempts, 1.0);
  EXPECT_GT(cmp.wvw_mean_energy, cmp.single_energy);
  EXPECT_LT(cmp.wvw_mean_energy, 4.0 * cmp.single_energy);
}

TEST(Wvw, Validation) {
  WvwConfig cfg;
  cfg.max_attempts = 0;
  EXPECT_THROW(cfg.validate(), util::ConfigError);
}


// --- scrub interval --------------------------------------------------------------

TEST(Retention, ScrubIntervalMeetsTarget) {
  // At 85 degC the calibrated device's worst-case Delta (~28) makes the
  // scrub interval finite and testable.
  auto cfg = small_config(1.5);
  cfg.temperature = 358.15;
  MramArray array(cfg);
  const double target = 1e-6;
  const double interval = max_scrub_interval(array, target);
  ASSERT_TRUE(std::isfinite(interval));
  EXPECT_GT(interval, 0.0);
  // At the returned interval the failure probability meets the target; at
  // 10x the interval it exceeds it.
  EXPECT_LE(analyze_retention(array, interval).array_fail_probability,
            target * 1.01);
  EXPECT_GT(analyze_retention(array, 10.0 * interval).array_fail_probability,
            target);
}

TEST(Retention, StableArrayNeedsNoScrubbing) {
  // A storage-grade device (Delta0 = 70, e.g. a thicker FL) meets a 1e-4
  // array failure budget over 10 years without scrubbing.
  auto cfg = small_config(3.0);
  cfg.device.delta0 = 70.0;
  MramArray array(cfg);
  EXPECT_TRUE(std::isinf(max_scrub_interval(array, 1e-4)));
  EXPECT_THROW(max_scrub_interval(array, 0.0), util::ContractViolation);
  EXPECT_THROW(max_scrub_interval(array, 1.0), util::ContractViolation);
}

// --- fault classification ---------------------------------------------------------

TEST(March, ClassifiesWriteFaults) {
  auto cfg = small_config(1.5);
  MramArray array(cfg);
  util::Rng rng(31);
  const double tw = array.cell_switching_time(2, 2, 1, 0.85);
  const WritePulse marginal{0.85, tw};
  const auto result = run_march(array, march_c_minus(), marginal, rng);
  ASSERT_FALSE(result.faults.empty());
  // Without holds, every fault stems from a failed write.
  EXPECT_EQ(result.count(FaultClass::kWriteFault), result.faults.size());
  EXPECT_EQ(result.count(FaultClass::kRetentionFault), 0u);
}

TEST(March, ClassifiesRetentionFaultsUnderHold) {
  // Unstable cells + long holds between elements: retention faults appear
  // even though every write succeeds (strong pulse).
  auto cfg = small_config(2.0);
  cfg.device.delta0 = 10.0;
  cfg.temperature = 400.0;
  MramArray array(cfg);
  util::Rng rng(32);
  const auto result =
      run_march(array, march_c_minus(), strong_pulse(), rng, 0.05);
  EXPECT_EQ(result.failed_writes, 0u);
  EXPECT_GT(result.count(FaultClass::kRetentionFault), 0u);
  EXPECT_EQ(result.count(FaultClass::kWriteFault), 0u);
}

// --- deterministic fault injection -------------------------------------------------

TEST(March, DetectsInjectedWriteFaults) {
  // Stable array + strong pulse: the only faults are the injected ones.
  MramArray array(small_config());
  util::Rng rng(33);
  FaultInjection injection;
  injection.stuck_cells = {{1, 2}, {3, 0}};
  const auto result = run_march(array, march_c_minus(), strong_pulse(), rng,
                                0.0, &injection);
  // March C- exercises both transitions of every cell, so each stuck cell
  // is detected (twice: once per direction) and classified as a write
  // fault; no fault appears anywhere else.
  EXPECT_EQ(result.count(FaultClass::kWriteFault), 4u);
  EXPECT_EQ(result.count(FaultClass::kRetentionFault), 0u);
  for (const auto& f : result.faults) {
    EXPECT_TRUE(injection.is_stuck(f.row, f.col));
  }
  for (const auto& [r, c] : injection.stuck_cells) {
    const bool detected =
        std::any_of(result.faults.begin(), result.faults.end(),
                    [r = r, c = c](const MarchFault& f) {
                      return f.row == r && f.col == c;
                    });
    EXPECT_TRUE(detected) << "stuck cell (" << r << "," << c
                          << ") escaped detection";
  }
}

TEST(March, DetectsInjectedRetentionFaults) {
  // A nanosecond hold makes physical retention flips vanishingly unlikely
  // but gives the injected volatile cell its window to flip in.
  MramArray array(small_config());
  util::Rng rng(34);
  FaultInjection injection;
  injection.volatile_cells = {{0, 1}};
  const auto result = run_march(array, march_c_minus(), strong_pulse(), rng,
                                1e-9, &injection);
  EXPECT_EQ(result.failed_writes, 0u);
  EXPECT_GT(result.count(FaultClass::kRetentionFault), 0u);
  EXPECT_EQ(result.count(FaultClass::kWriteFault), 0u);
  for (const auto& f : result.faults) {
    EXPECT_EQ(std::make_pair(f.row, f.col), injection.volatile_cells[0]);
  }
}

TEST(March, StuckCellsStayStuckThroughHolds) {
  // Weak, hot array + long holds: thermal flips flood the array with
  // retention faults, but the stuck cell is pinned through every hold, so
  // its faults stay write faults -- the injection contract.
  auto cfg = small_config(2.0);
  cfg.device.delta0 = 10.0;
  cfg.temperature = 400.0;
  MramArray array(cfg);
  util::Rng rng(36);
  FaultInjection injection;
  injection.stuck_cells = {{2, 3}};
  const auto result = run_march(array, march_c_minus(), strong_pulse(), rng,
                                0.05, &injection);
  EXPECT_GT(result.count(FaultClass::kRetentionFault), 0u);
  std::size_t stuck_faults = 0;
  for (const auto& f : result.faults) {
    if (injection.is_stuck(f.row, f.col)) {
      EXPECT_EQ(f.cls, FaultClass::kWriteFault);
      ++stuck_faults;
    }
  }
  // March C- reads the stuck cell against the wrong expectation exactly
  // twice (once per direction), holds or not.
  EXPECT_EQ(stuck_faults, 2u);
}

TEST(March, ClassifiesMixedInjectedFaults) {
  MramArray array(small_config());
  util::Rng rng(35);
  FaultInjection injection;
  injection.stuck_cells = {{2, 2}};
  injection.volatile_cells = {{4, 4}};
  const auto result = run_march(array, march_c_minus(), strong_pulse(), rng,
                                1e-9, &injection);
  EXPECT_GT(result.count(FaultClass::kWriteFault), 0u);
  EXPECT_GT(result.count(FaultClass::kRetentionFault), 0u);
  // Classification matches the injected mechanism cell by cell.
  for (const auto& f : result.faults) {
    if (injection.is_stuck(f.row, f.col)) {
      EXPECT_EQ(f.cls, FaultClass::kWriteFault);
    } else {
      EXPECT_EQ(std::make_pair(f.row, f.col), injection.volatile_cells[0]);
      EXPECT_EQ(f.cls, FaultClass::kRetentionFault);
    }
  }
}

// --- 1T-1R cell -------------------------------------------------------------------

TEST(Cell1T1R, DividerSplitsVoltage) {
  const Cell1T1R cell(MtjParams::reference_device(35e-9),
                      AccessTransistor{});
  const double vdd = 1.4;
  const double v_p = cell.mtj_voltage(dev::MtjState::kParallel, vdd);
  const double v_ap = cell.mtj_voltage(dev::MtjState::kAntiParallel, vdd);
  EXPECT_GT(v_p, 0.0);
  EXPECT_LT(v_p, vdd);
  // The higher-resistance AP state takes the larger share.
  EXPECT_GT(v_ap, v_p);
  // Fixed point is self-consistent: V = Vdd * R(V) / (R(V) + R_on).
  const auto& em = cell.device().electrical();
  const double r = em.resistance(dev::MtjState::kAntiParallel, v_ap);
  EXPECT_NEAR(v_ap, vdd * r / (r + cell.transistor().r_on), 1e-9);
}

TEST(Cell1T1R, SeriesResistanceSlowsWrites) {
  const auto params = MtjParams::reference_device(35e-9);
  const dev::MtjDevice bare(params);
  const Cell1T1R cell(params, AccessTransistor{});
  const double hz = bare.intra_stray_field();
  const double vdd = 1.2;
  // The cell's MTJ sees less than vdd, so the write is slower than a
  // direct-drive write at vdd.
  EXPECT_GT(cell.write_time(SwitchDirection::kApToP, vdd, hz),
            bare.switching_time(SwitchDirection::kApToP, vdd, hz));
  // And a zero-ish transistor recovers the bare device.
  const Cell1T1R ideal(params, AccessTransistor{1e-3, 1e-3});
  EXPECT_NEAR(ideal.write_time(SwitchDirection::kApToP, vdd, hz),
              bare.switching_time(SwitchDirection::kApToP, vdd, hz),
              bare.switching_time(SwitchDirection::kApToP, vdd, hz) * 1e-3);
}

TEST(Cell1T1R, SenseMarginsPositiveAndSymmetric) {
  const Cell1T1R cell(MtjParams::reference_device(35e-9),
                      AccessTransistor{});
  const double m_p = cell.sense_margin(dev::MtjState::kParallel, 0.2);
  const double m_ap = cell.sense_margin(dev::MtjState::kAntiParallel, 0.2);
  EXPECT_GT(m_p, 0.0);
  EXPECT_GT(m_ap, 0.0);
  // Midpoint reference makes the two margins equal by construction.
  EXPECT_NEAR(m_p, m_ap, std::abs(m_p) * 1e-9);
}

TEST(Cell1T1R, SenseMarginShrinksWithSeriesResistance) {
  const auto params = MtjParams::reference_device(35e-9);
  const Cell1T1R tight(params, AccessTransistor{2e3, 10e3});
  const Cell1T1R loose(params, AccessTransistor{2e3, 1e3});
  EXPECT_LT(tight.sense_margin(dev::MtjState::kParallel, 0.2),
            loose.sense_margin(dev::MtjState::kParallel, 0.2));
}

TEST(Cell1T1R, Validation) {
  AccessTransistor bad;
  bad.r_on = 0.0;
  EXPECT_THROW(Cell1T1R(MtjParams::reference_device(35e-9), bad),
               util::ConfigError);
}

}  // namespace
}  // namespace mram::mem
