// Tests for src/readout: the bitline IR-drop ladder (Thevenin reduction
// against closed-form limits), sense-amplifier statistics (sampled outcomes
// vs the analytic probabilities), the composed read-error model, the Monte
// Carlo workloads' bit identity to per-trial references and across
// threads, the analytic read-disturb model validated against the
// stochastic-LLG ensemble, and the march read-path integration.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <thread>
#include <vector>

#include "dynamics/llg.h"
#include "dynamics/switching_sim.h"
#include "engine/monte_carlo.h"
#include "mram/march.h"
#include "mram/mram_array.h"
#include "readout/bitline.h"
#include "readout/march_read.h"
#include "readout/read_error.h"
#include "readout/rer.h"
#include "readout/sense_amp.h"
#include "util/error.h"

#include "support/macrospin_sim.h"

namespace mram::rdo {
namespace {

using dev::MtjState;

dev::ElectricalModel nominal_cell() {
  const auto params = dev::MtjParams::reference_device(35e-9);
  return dev::ElectricalModel(params.electrical, params.stack.area());
}

// --- bitline ladder ---------------------------------------------------------

TEST(Bitline, ValidationRejectsBadConfigs) {
  BitlineParams params;
  params.rows = 0;
  EXPECT_THROW(BitlinePath(params, nominal_cell()), util::ConfigError);
  params = BitlineParams{};
  params.r_driver = 0.0;
  EXPECT_THROW(BitlinePath(params, nominal_cell()), util::ConfigError);
  params = BitlineParams{};
  params.r_leak = -1.0;
  EXPECT_THROW(BitlinePath(params, nominal_cell()), util::ConfigError);
}

TEST(Bitline, NoLeakLimitRecoversSeriesResistance) {
  // With the sneak paths effectively open, the port must reduce to the
  // ideal wire: v_th = v_read exactly (no current flows anywhere when the
  // port is open) and r_th = the series resistance of the row.
  BitlineParams params;
  params.rows = 16;
  params.r_leak = 1e15;
  const BitlinePath path(params, nominal_cell());
  const std::vector<int> column(16, 0);
  for (const std::size_t row : {std::size_t{0}, std::size_t{7},
                                std::size_t{15}}) {
    const ReadPort port = path.port(row, 0.2, column);
    EXPECT_NEAR(port.v_thevenin, 0.2, 0.2 * 1e-9);
    EXPECT_NEAR(port.r_thevenin, path.series_resistance(row),
                path.series_resistance(row) * 1e-6);
  }
}

TEST(Bitline, FarRowsSeeWeakerStifferPort) {
  const BitlinePath path(BitlineParams{}, nominal_cell());
  const std::vector<int> column(BitlineParams{}.rows, 0);
  double last_v = 1e9, last_r = 0.0;
  for (const std::size_t row : {std::size_t{0}, std::size_t{21},
                                std::size_t{42}, std::size_t{63}}) {
    const ReadPort port = path.port(row, 0.2, column);
    EXPECT_LT(port.v_thevenin, last_v);
    EXPECT_GT(port.r_thevenin, last_r);
    last_v = port.v_thevenin;
    last_r = port.r_thevenin;
  }
}

TEST(Bitline, ColumnDataModulatesSneakLoad) {
  // An all-P column leaks more (lower MTJ resistance in every sneak
  // branch), so the port sags slightly against an all-AP column.
  const BitlinePath path(BitlineParams{}, nominal_cell());
  const std::size_t rows = BitlineParams{}.rows;
  const ReadPort p = path.port(rows - 1, 0.2, std::vector<int>(rows, 0));
  const ReadPort ap = path.port(rows - 1, 0.2, std::vector<int>(rows, 1));
  EXPECT_LT(p.v_thevenin, ap.v_thevenin);
  EXPECT_GT(ap.v_thevenin / p.v_thevenin - 1.0, 0.0);
}

TEST(Bitline, PortArithmetic) {
  const ReadPort port{1.0, 1000.0};
  EXPECT_DOUBLE_EQ(port.current_into(1000.0), 0.5e-3);
  EXPECT_DOUBLE_EQ(port.voltage_across(1000.0), 0.5);
}

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

/// BitlinePath::port as it was before the band limit: the same stamping,
/// then Gaussian elimination without pivoting over the full dense matrix.
ReadPort dense_reference_port(const BitlineParams& params,
                              const dev::ElectricalModel& cell,
                              std::size_t row, double v_read,
                              const std::vector<int>& column_data) {
  const double r_leak_p =
      params.r_leak + cell.resistance(MtjState::kParallel, 0.0);
  const double r_leak_ap =
      params.r_leak + cell.resistance(MtjState::kAntiParallel, 0.0);
  const std::size_t n_rows = params.rows;
  const std::size_t n = 2 * n_rows;
  std::vector<double> a(n * n, 0.0);
  std::vector<double> rhs(2 * n, 0.0);
  auto stamp = [&](std::size_t i, std::size_t j, double g) {
    a[i * n + i] += g;
    a[j * n + j] += g;
    a[i * n + j] -= g;
    a[j * n + i] -= g;
  };
  const double g_driver = 1.0 / params.r_driver;
  a[0] += g_driver;
  rhs[0] = v_read * g_driver;
  a[n_rows * n + n_rows] += 1.0 / params.r_sink;
  const double g_bl =
      params.r_bl_segment > 0.0 ? 1.0 / params.r_bl_segment : 1e12;
  const double g_sl =
      params.r_sl_segment > 0.0 ? 1.0 / params.r_sl_segment : 1e12;
  for (std::size_t i = 0; i + 1 < n_rows; ++i) {
    stamp(i, i + 1, g_bl);
    stamp(n_rows + i, n_rows + i + 1, g_sl);
  }
  for (std::size_t i = 0; i < n_rows; ++i) {
    if (i == row) continue;
    stamp(i, n_rows + i, 1.0 / (column_data[i] ? r_leak_ap : r_leak_p));
  }
  rhs[n + row] = 1.0;
  rhs[n + n_rows + row] = -1.0;

  for (std::size_t col = 0; col < n; ++col) {
    const double pivot = a[col * n + col];
    for (std::size_t r = col + 1; r < n; ++r) {
      const double f = a[r * n + col] / pivot;
      if (f == 0.0) continue;
      for (std::size_t c = col; c < n; ++c) a[r * n + c] -= f * a[col * n + c];
      for (std::size_t s = 0; s < 2; ++s) {
        rhs[s * n + r] -= f * rhs[s * n + col];
      }
    }
  }
  for (std::size_t s = 0; s < 2; ++s) {
    for (std::size_t ri = n; ri-- > 0;) {
      double x = rhs[s * n + ri];
      for (std::size_t c = ri + 1; c < n; ++c) {
        x -= a[ri * n + c] * rhs[s * n + c];
      }
      rhs[s * n + ri] = x / a[ri * n + ri];
    }
  }
  return {rhs[row] - rhs[n_rows + row], rhs[n + row] - rhs[n + n_rows + row]};
}

/// The solve levels this host can run.
std::vector<BitlinePath::SolveLevel> supported_levels() {
  std::vector<BitlinePath::SolveLevel> out;
  for (const auto level :
       {BitlinePath::SolveLevel::kPortable, BitlinePath::SolveLevel::kAvx2,
        BitlinePath::SolveLevel::kAvx512}) {
    if (BitlinePath::solve_level_supported(level)) out.push_back(level);
  }
  return out;
}

TEST(Bitline, BandLimitedSolveMatchesDenseEliminationBitwise) {
  // Row counts around the 8-double blocks (vector heads and tails) and the
  // band edge; every level the host supports, and the dispatched port().
  const auto cell = nominal_cell();
  const auto levels = supported_levels();
  ASSERT_FALSE(levels.empty());
  for (const std::size_t rows : {1, 2, 3, 7, 8, 9, 17, 63, 64, 65}) {
    for (const double r_segment : {4.0, 0.0}) {  // 0: the 1e12 strong tie
      BitlineParams params;
      params.rows = rows;
      params.r_bl_segment = r_segment;
      params.r_sl_segment = r_segment;
      const BitlinePath path(params, cell);
      // All-P, all-AP, checkerboard.
      std::vector<std::vector<int>> columns{std::vector<int>(rows, 0),
                                            std::vector<int>(rows, 1),
                                            std::vector<int>(rows)};
      for (std::size_t i = 0; i < rows; ++i) columns[2][i] = i % 2;
      for (std::size_t k = 0; k < columns.size(); ++k) {
        for (std::size_t row = 0; row < rows; ++row) {
          const ReadPort want =
              dense_reference_port(params, cell, row, 0.2, columns[k]);
          std::vector<ReadPort> got{path.port(row, 0.2, columns[k])};
          for (const auto level : levels) {
            got.push_back(path.port(level, row, 0.2, columns[k]));
          }
          for (std::size_t g = 0; g < got.size(); ++g) {
            const bool ok = bits(got[g].v_thevenin) == bits(want.v_thevenin) &&
                            bits(got[g].r_thevenin) == bits(want.r_thevenin);
            ASSERT_TRUE(ok) << "rows " << rows << " r_seg " << r_segment
                            << " pattern " << k << " row " << row << " "
                            << (g == 0 ? "dispatched" : "level ")
                            << (g == 0 ? 0 : static_cast<int>(levels[g - 1]));
          }
        }
      }
    }
  }
}

TEST(Bitline, WorkspaceReuseKeepsBits) {
  // One thread solves columns of changing size back to back, so each solve
  // finds the previous one's fill at other offsets of its row layout; each
  // must give the bits a thread with a fresh workspace gives, so nothing a
  // previous solve left in the workspace can leak into the next. (The
  // 9-row solve leaves nonzero values where the 63- and 65-row solves need
  // +0 past a pivot's band: zeroing too short a range per row fails here.)
  struct Solve {
    std::size_t rows;
    std::size_t row;
    int pattern;  // 0 all-P, 1 all-AP, 2 checkerboard, 3 every third AP
  };
  const std::vector<Solve> solves{
      {64, 63, 1}, {3, 1, 2},  {65, 0, 3},  {64, 17, 0},
      {9, 4, 2},   {63, 62, 1}, {65, 64, 0}};
  const auto cell = nominal_cell();
  auto solve = [&](const Solve& s) {
    BitlineParams params;
    params.rows = s.rows;
    std::vector<int> column(s.rows);
    for (std::size_t i = 0; i < s.rows; ++i) {
      column[i] = s.pattern == 1 || (s.pattern == 2 && i % 2 == 1) ||
                  (s.pattern == 3 && i % 3 == 0);
    }
    return BitlinePath(params, cell).port(s.row, 0.2, column);
  };

  for (const auto& s : solves) {
    ReadPort fresh;
    std::thread([&] { fresh = solve(s); }).join();
    const ReadPort reused = solve(s);
    EXPECT_EQ(bits(reused.v_thevenin), bits(fresh.v_thevenin))
        << "rows " << s.rows << " row " << s.row;
    EXPECT_EQ(bits(reused.r_thevenin), bits(fresh.r_thevenin))
        << "rows " << s.rows << " row " << s.row;
  }
}

// --- sense amplifier --------------------------------------------------------

TEST(SenseAmp, ValidationRejectsNegativeSigmas) {
  SenseAmpParams params;
  params.offset_sigma = -1.0;
  EXPECT_THROW(SenseAmp{params}, util::ConfigError);
  params = SenseAmpParams{};
  params.metastable_band = -1.0;
  EXPECT_THROW(SenseAmp{params}, util::ConfigError);
}

TEST(SenseAmp, NoiselessAmpIsDeterministic) {
  SenseAmpParams params;
  params.offset_sigma = 0.0;
  params.reference_sigma = 0.0;
  params.metastable_band = 0.1e-6;
  const SenseAmp amp(params);
  util::Rng rng(1);
  EXPECT_EQ(amp.sample(10e-6, 5e-6, rng), SenseOutcome::kReadP);
  EXPECT_EQ(amp.sample(1e-6, 5e-6, rng), SenseOutcome::kReadAp);
  EXPECT_EQ(amp.sample(5.01e-6, 5e-6, rng), SenseOutcome::kBlocked);
  EXPECT_DOUBLE_EQ(amp.decision_error_probability(1e-6), 0.0);
  EXPECT_DOUBLE_EQ(amp.decision_error_probability(-1e-6), 1.0);
  EXPECT_DOUBLE_EQ(amp.blocked_probability(0.0), 1.0);
  EXPECT_DOUBLE_EQ(amp.blocked_probability(1e-6), 0.0);
}

TEST(SenseAmp, SampledRatesMatchAnalyticProbabilities) {
  const SenseAmp amp(SenseAmpParams{});
  const double sigma = amp.total_sigma();
  EXPECT_NEAR(sigma, std::hypot(0.4e-6, 0.25e-6), 1e-12);
  // Margin of one sigma: appreciable error and blocked probabilities.
  const double i_ref = 10e-6;
  const double i_cell = i_ref + sigma;
  util::Rng rng(2);
  const int n = 20000;
  int wrong = 0, blocked = 0;
  for (int k = 0; k < n; ++k) {
    const SenseOutcome outcome = amp.sample(i_cell, i_ref, rng);
    wrong += outcome == SenseOutcome::kReadAp;
    blocked += outcome == SenseOutcome::kBlocked;
  }
  const double p_err = amp.decision_error_probability(sigma);
  const double p_blk = amp.blocked_probability(sigma);
  // Within four binomial sigmas.
  EXPECT_NEAR(wrong / static_cast<double>(n), p_err,
              4.0 * std::sqrt(p_err * (1.0 - p_err) / n));
  EXPECT_NEAR(blocked / static_cast<double>(n), p_blk,
              4.0 * std::sqrt(p_blk * (1.0 - p_blk) / n));
  // The analytic pieces are monotone in the margin.
  EXPECT_GT(amp.decision_error_probability(0.0),
            amp.decision_error_probability(sigma));
  EXPECT_GT(amp.blocked_probability(0.0), amp.blocked_probability(sigma));
}

// --- read-error model -------------------------------------------------------

ReadPathConfig small_path(double v_read = 0.2, std::size_t rows = 16) {
  ReadPathConfig path;
  path.v_read = v_read;
  path.bitline.rows = rows;
  return path;
}

TEST(ReadErrorModel, MarginShrinksAlongTheColumn) {
  const auto params = dev::MtjParams::reference_device(35e-9);
  const ReadErrorModel model(params, small_path());
  const std::vector<int> column(16, 0);
  const auto near = model.operating_point(0, column);
  const auto far = model.operating_point(15, column);
  EXPECT_GT(near.margin, far.margin);
  EXPECT_GT(far.margin, 0.0);
  // The midpoint reference sits between the state currents.
  EXPECT_GT(near.i_p, near.i_ref);
  EXPECT_GT(near.i_ref, near.i_ap);
  // And the error budget worsens with the row.
  const auto hz = model.device().intra_stray_field();
  EXPECT_GE(model.error_budget(far, MtjState::kAntiParallel, hz).decision,
            model.error_budget(near, MtjState::kAntiParallel, hz).decision);
}

TEST(ReadErrorModel, CellReadSolvesTheDivider) {
  const auto params = dev::MtjParams::reference_device(35e-9);
  const ReadPathConfig path = small_path();
  const ReadErrorModel model(params, path);
  const auto op = model.operating_point(7, std::vector<int>(16, 0));
  // Self-consistency of the AP fixed point: i * (r_th + r_read) + v = v_th.
  const auto read = model.cell_read(op.port, MtjState::kAntiParallel);
  EXPECT_NEAR(read.i_cell * (op.port.r_thevenin + path.transistor.r_read) +
                  read.v_mtj,
              op.port.v_thevenin, op.port.v_thevenin * 1e-9);
  // A higher TMR multiplier raises the AP resistance, lowering the current.
  const auto high = model.cell_read(op.port, MtjState::kAntiParallel, 1.5);
  EXPECT_LT(high.i_cell, read.i_cell);
  // The P branch is TMR-independent.
  EXPECT_DOUBLE_EQ(model.cell_read(op.port, MtjState::kParallel, 1.5).i_cell,
                   model.cell_read(op.port, MtjState::kParallel, 1.0).i_cell);
}

TEST(ReadErrorModel, DisturbProbabilityPhysics) {
  auto params = dev::MtjParams::reference_device(35e-9);
  params.delta0 = 14.0;
  const ReadErrorModel model(params, small_path());
  const double hz = model.device().intra_stray_field();
  // Zero duration: no disturb. Monotone in current for the AP state.
  EXPECT_DOUBLE_EQ(
      model.disturb_probability(MtjState::kAntiParallel, 10e-6, 0.0, hz), 0.0);
  const double lo =
      model.disturb_probability(MtjState::kAntiParallel, 6e-6, 30e-9, hz);
  const double hi =
      model.disturb_probability(MtjState::kAntiParallel, 12e-6, 30e-9, hz);
  EXPECT_GT(hi, lo);
  EXPECT_GT(lo, 0.0);
  // The read polarity stabilizes P: orders of magnitude below AP.
  EXPECT_LT(model.disturb_probability(MtjState::kParallel, 12e-6, 30e-9, hz),
            1e-6 * hi);
}

TEST(ReadErrorModel, MatchesDeviceReadDisturbAtEqualCurrent) {
  // The device's read-disturb law and the model's agree when fed the same
  // current, here the one an ideal 0.15 V bias drives through AP.
  auto params = dev::MtjParams::reference_device(35e-9);
  params.delta0 = 14.0;
  const ReadErrorModel model(params, small_path());
  const dev::MtjDevice device(params);
  const double hz = device.intra_stray_field();
  const double v = 0.15;
  const double i = device.electrical().current(MtjState::kAntiParallel, v);
  EXPECT_NEAR(device.read_disturb_probability_at_current(
                  MtjState::kAntiParallel, i, 30e-9, hz),
              model.disturb_probability(MtjState::kAntiParallel, i, 30e-9, hz),
              1e-12);
}

// --- measure_rer ------------------------------------------------------------

RerConfig rer_config() {
  RerConfig cfg;
  cfg.path = small_path(0.04);  // starved margin: measurable error rates
  cfg.trials = 600;
  cfg.hz_stray = dev::MtjDevice(cfg.device).intra_stray_field();
  return cfg;
}

/// Read outcomes of an RER ensemble, folded in trial order.
struct RerTally {
  std::size_t decision_errors = 0;
  std::size_t blocked = 0;
  std::size_t disturbs = 0;
  util::RunningStats margin;

  void merge(const RerTally& o) {
    decision_errors += o.decision_errors;
    blocked += o.blocked;
    disturbs += o.disturbs;
    margin.merge(o.margin);
  }
};

TEST(MeasureRer, BatchedMatchesScalarBitwise) {
  // measure_rer hoists the operating point out of its trial loop; counts
  // and the margin moments must equal re-deriving the operating point and
  // sampling one read per trial, bit for bit, at 1 and 4 threads. The
  // reference seeds like measure_rer: column pattern first, then rng().
  auto cfg = rer_config();
  util::Rng rng_ref(11);
  const ReadErrorModel model(cfg.device, cfg.path);
  const auto column =
      make_column_data(cfg.column_pattern, cfg.path.bitline.rows, rng_ref);
  const std::size_t row = resolve_row(cfg.row, cfg.path.bitline);
  eng::MonteCarloRunner runner(eng::RunnerConfig{.threads = 1});
  const auto ref = runner.run<RerTally>(
      cfg.trials, rng_ref(),
      [&](util::Rng& trial_rng, std::size_t, RerTally& acc) {
        const auto op = model.operating_point(row, column);
        const auto read = model.sample_read(op, cfg.stored, cfg.hz_stray,
                                            cfg.temperature, trial_rng);
        acc.decision_errors += read.decision_error;
        acc.blocked += read.blocked;
        acc.disturbs += read.disturbed;
        acc.margin.add(read.margin);
      });
  EXPECT_GT(ref.decision_errors + ref.blocked, 0u);

  for (unsigned threads : {1u, 4u}) {
    eng::MonteCarloRunner threaded(eng::RunnerConfig{.threads = threads});
    util::Rng rng(11);
    const auto r = measure_rer(cfg, rng, threaded);
    EXPECT_EQ(r.decision_errors, ref.decision_errors) << threads;
    EXPECT_EQ(r.blocked, ref.blocked) << threads;
    EXPECT_EQ(r.disturbs, ref.disturbs) << threads;
    // Bitwise: the accumulation order is identical, not just the counts.
    EXPECT_EQ(r.mean_margin, ref.margin.mean()) << threads;
  }
}

TEST(MeasureRer, BitIdenticalAcrossThreadCounts) {
  const auto cfg = rer_config();
  eng::MonteCarloRunner serial_runner(eng::RunnerConfig{.threads = 1});
  util::Rng rng_a(12);
  const auto serial = measure_rer(cfg, rng_a, serial_runner);
  eng::MonteCarloRunner parallel_runner(eng::RunnerConfig{.threads = 4});
  util::Rng rng_b(12);
  const auto parallel = measure_rer(cfg, rng_b, parallel_runner);
  EXPECT_EQ(serial.read_errors, parallel.read_errors);
  EXPECT_EQ(serial.disturbs, parallel.disturbs);
  EXPECT_EQ(serial.mean_margin, parallel.mean_margin);
}

TEST(MeasureRer, MoreReadVoltageFewerDecisionErrors) {
  auto cfg = rer_config();
  util::Rng rng(13);
  eng::MonteCarloRunner runner;
  const auto starved = measure_rer(cfg, rng, runner);
  cfg.path.v_read = 0.2;
  const auto healthy = measure_rer(cfg, rng, runner);
  EXPECT_GT(starved.rer, healthy.rer);
  EXPECT_EQ(healthy.read_errors, 0u);
  EXPECT_GT(starved.op.margin, 0.0);
  EXPECT_LT(starved.op.margin, healthy.op.margin);
}

// --- measure_read_disturb ---------------------------------------------------

ReadDisturbConfig disturb_config() {
  ReadDisturbConfig cfg;
  cfg.device.delta0 = 14.0;  // thermally active: measurable disturb rates
  cfg.path = small_path(0.14);
  cfg.path.t_read = 30e-9;
  cfg.trials = 150;
  cfg.hz_stray = dev::MtjDevice(cfg.device).intra_stray_field();
  return cfg;
}

/// Disturb count and switch times of a read-disturb ensemble.
struct DisturbTally {
  std::size_t disturbed = 0;
  util::RunningStats times;

  void merge(const DisturbTally& o) {
    disturbed += o.disturbed;
    times.merge(o.times);
  }
};

/// Per-trial reference of measure_read_disturb's brute-force path: one
/// scalar MacrospinSim trajectory per trial, seeded like
/// measure_read_disturb (column pattern first, then rng()).
DisturbTally reference_read_disturb(const ReadDisturbConfig& cfg,
                                    util::Rng& rng) {
  const ReadErrorModel model(cfg.device, cfg.path);
  const auto column =
      make_column_data(cfg.column_pattern, cfg.path.bitline.rows, rng);
  const auto op =
      model.operating_point(resolve_row(cfg.row, cfg.path.bitline), column);
  const double i_read =
      cfg.stored == MtjState::kParallel ? op.i_p : op.i_ap;
  const auto llg = dyn::llg_from_device_current(model.device(), i_read,
                                                cfg.hz_stray, cfg.temperature);
  const double delta =
      model.device().delta(cfg.stored, cfg.hz_stray, cfg.temperature);
  const double mz0 = dev::state_direction(cfg.stored);
  const double duration = cfg.duration > 0.0 ? cfg.duration : cfg.path.t_read;
  eng::MonteCarloRunner runner(eng::RunnerConfig{.threads = 1});
  const dyn::MacrospinSim sim(llg);
  return runner.run<DisturbTally>(
      cfg.trials, rng(),
      [&](util::Rng& trial_rng, std::size_t, DisturbTally& acc) {
        const auto m0 = dyn::thermal_initial_tilt(trial_rng, delta, mz0);
        const auto r = sim.run_until_switch(m0, duration, cfg.dt, trial_rng);
        if (r.switched) {
          ++acc.disturbed;
          acc.times.add(r.time);
        }
      });
}

TEST(MeasureReadDisturb, BatchedMatchesScalarBitwise) {
  // The batched kernel shares the scalar path's stochastic Heun step, so
  // switch decisions AND switch times must agree bitwise. Odd trial counts
  // leave remainder lane-blocks; 1100 trials put 18 in a chunk, i.e. more
  // than one lane-block per chunk at every preferred width.
  eng::MonteCarloRunner runner;
  for (const std::size_t trials : {std::size_t{37}, std::size_t{1100}}) {
    auto cfg = disturb_config();
    cfg.trials = trials;
    if (trials > 100) cfg.duration = 3e-9;  // keep the larger run brief
    util::Rng rng_ref(21);
    const auto ref = reference_read_disturb(cfg, rng_ref);
    EXPECT_GT(ref.disturbed, 0u) << trials;
    util::Rng rng(21);
    const auto r = measure_read_disturb(cfg, rng, runner);
    EXPECT_EQ(r.disturbed, ref.disturbed) << trials;
    EXPECT_EQ(r.mean_switch_time, ref.times.mean()) << trials;
  }
}

TEST(MeasureReadDisturb, BitIdenticalAcrossThreadCounts) {
  auto cfg = disturb_config();
  cfg.trials = 64;
  eng::MonteCarloRunner serial_runner(eng::RunnerConfig{.threads = 1});
  util::Rng rng_a(22);
  const auto serial = measure_read_disturb(cfg, rng_a, serial_runner);
  eng::MonteCarloRunner parallel_runner(eng::RunnerConfig{.threads = 4});
  util::Rng rng_b(22);
  const auto parallel = measure_read_disturb(cfg, rng_b, parallel_runner);
  EXPECT_EQ(serial.disturbed, parallel.disturbed);
  EXPECT_EQ(serial.mean_switch_time, parallel.mean_switch_time);
}

TEST(MeasureReadDisturb, LongerStrobesDisturbMore) {
  auto cfg = disturb_config();
  cfg.trials = 150;
  util::Rng rng(23);
  eng::MonteCarloRunner runner;
  cfg.duration = 5e-9;
  const auto brief = measure_read_disturb(cfg, rng, runner);
  cfg.duration = 60e-9;
  const auto lingering = measure_read_disturb(cfg, rng, runner);
  EXPECT_GT(lingering.rate, brief.rate);
}

TEST(MeasureReadDisturb, StoredParallelIsStabilized) {
  auto cfg = disturb_config();
  cfg.stored = MtjState::kParallel;
  cfg.trials = 100;
  util::Rng rng(24);
  eng::MonteCarloRunner runner;
  const auto r = measure_read_disturb(cfg, rng, runner);
  EXPECT_EQ(r.disturbed, 0u);
  EXPECT_LT(r.analytic_probability, 1e-9);
}

TEST(MeasureReadDisturb, AnalyticModelTracksTheLlgEnsemble) {
  // The satellite validation that promoted read_disturb_probability out of
  // its stub: the analytic thermal-activation model with the *quadratic*
  // STT-reduced barrier Delta (1 - I/Ic)^2 tracks the stochastic-LLG
  // ensemble within a factor of 3 across the measurable range. The linear
  // barrier this model shipped with originally under-predicts these points
  // by 1-2 orders of magnitude and fails this bound.
  auto cfg = disturb_config();
  cfg.trials = 400;
  eng::MonteCarloRunner runner;
  for (const double v_read : {0.10, 0.12, 0.14}) {
    cfg.path = small_path(v_read);
    cfg.path.t_read = 30e-9;
    util::Rng rng(25);
    const auto r = measure_read_disturb(cfg, rng, runner);
    ASSERT_GT(r.disturbed, 5u) << v_read;
    ASSERT_LT(r.disturbed, cfg.trials) << v_read;
    EXPECT_GT(r.analytic_probability, r.rate / 3.0) << v_read;
    EXPECT_LT(r.analytic_probability, r.rate * 3.0) << v_read;
  }
}


// --- march integration ------------------------------------------------------

TEST(MarchReadPath, StarvedMarginYieldsTransientReadFaults) {
  // Stable array + strong pulse + a starved sense margin: every fault is a
  // transient read fault (the stored data stays correct throughout).
  mem::ArrayConfig cfg;
  cfg.device = dev::MtjParams::reference_device(35e-9);
  cfg.pitch = 2.0 * 35e-9;
  cfg.rows = cfg.cols = 5;
  mem::MramArray array(cfg);

  ReadPathConfig path;
  path.bitline.rows = cfg.rows;
  path.v_read = 0.02;  // deep starvation: lots of misreads
  const ReadErrorModel model(cfg.device, path);
  const auto hook = make_march_read_hook(model, cfg.temperature);

  util::Rng rng(41);
  const auto result = mem::run_march(array, mem::march_c_minus(),
                                     mem::WritePulse{1.2, 100e-9}, rng, 0.0,
                                     nullptr, hook);
  EXPECT_GT(result.count(mem::FaultClass::kReadFault), 0u);
  EXPECT_EQ(result.count(mem::FaultClass::kWriteFault), 0u);
  EXPECT_EQ(result.count(mem::FaultClass::kRetentionFault), 0u);
  EXPECT_EQ(result.failed_writes, 0u);
  // The stored data survived the whole march: the final element verified
  // every cell reads 0 and the faults were all sense-path transients.
  for (std::size_t r = 0; r < 5; ++r) {
    for (std::size_t c = 0; c < 5; ++c) {
      EXPECT_EQ(array.read(r, c), 0);
    }
  }
}

TEST(MarchReadPath, ReadHammerDetectsDisturbFaults) {
  // March C- masks AP->P read disturbs (each r1 is followed by a healing
  // w0); back-to-back r1 reads catch them as read-disturb faults.
  mem::ArrayConfig cfg;
  cfg.device = dev::MtjParams::reference_device(35e-9);
  cfg.device.delta0 = 16.0;
  cfg.pitch = 2.0 * 35e-9;
  cfg.rows = cfg.cols = 5;
  mem::MramArray array(cfg);

  ReadPathConfig path;
  path.bitline.rows = cfg.rows;
  path.v_read = 0.14;
  path.t_read = 30e-9;
  const ReadErrorModel model(cfg.device, path);
  const auto hook = make_march_read_hook(model, cfg.temperature);

  const std::vector<mem::MarchElement> hammer = {
      {mem::MarchOrder::kAscending, {mem::MarchOp::kW1}},
      {mem::MarchOrder::kAscending,
       {mem::MarchOp::kR1, mem::MarchOp::kR1, mem::MarchOp::kR1}},
  };
  util::Rng rng(42);
  const auto result = mem::run_march(array, hammer,
                                     mem::WritePulse{1.2, 100e-9}, rng, 0.0,
                                     nullptr, hook);
  EXPECT_GT(result.count(mem::FaultClass::kReadDisturbFault), 0u);
  EXPECT_EQ(result.count(mem::FaultClass::kWriteFault), 0u);
}

TEST(MarchReadPath, HookRejectsMismatchedColumnLength) {
  mem::ArrayConfig cfg;
  cfg.device = dev::MtjParams::reference_device(35e-9);
  cfg.pitch = 2.0 * 35e-9;
  cfg.rows = cfg.cols = 5;
  mem::MramArray array(cfg);
  ReadPathConfig path;  // default 64 rows != the 5-row array
  const ReadErrorModel model(cfg.device, path);
  const auto hook = make_march_read_hook(model);
  util::Rng rng(43);
  EXPECT_THROW(hook(array, 0, 0, rng), util::ContractViolation);
}

}  // namespace
}  // namespace mram::rdo
