// Tests for the rare-event acceleration stack: the weighted accumulator and
// probit primitives, the tilted RNG hooks, the generic importance-sampling /
// subset-simulation drivers, and the workload wirings (WER, retention,
// RER) -- including the acceptance contract: overlap-regime agreement with
// brute force and bit identity across thread counts.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <numeric>
#include <string>
#include <vector>

#include "device/mtj_device.h"
#include "engine/monte_carlo.h"
#include "engine/rare_event.h"
#include "mram/retention.h"
#include "mram/wer.h"
#include "readout/read_error.h"
#include "readout/rer.h"
#include "util/error.h"
#include "util/rng.h"
#include "util/stats.h"

namespace mram {
namespace {

double normal_cdf(double x) { return 0.5 * std::erfc(-x / std::sqrt(2.0)); }

// --- util::WeightedStats ----------------------------------------------------

TEST(WeightedStats, MergeInChunkOrderMatchesSerial) {
  // Chunk accumulators merged in chunk order reproduce serial accumulation
  // (up to fp regrouping) for any chunking; counts are exact. Bitwise
  // thread-count invariance comes from the engine fixing the chunk
  // decomposition -- covered by the engine and workload determinism tests.
  util::Rng rng(7);
  std::vector<double> values(257), weights(257);
  for (std::size_t i = 0; i < values.size(); ++i) {
    values[i] = rng.uniform() < 0.3 ? 1.0 : 0.0;
    weights[i] = std::exp(rng.normal());
  }

  util::WeightedStats serial;
  for (std::size_t i = 0; i < values.size(); ++i) {
    serial.add(values[i], weights[i]);
  }

  for (std::size_t chunk : {std::size_t{1}, std::size_t{16}, std::size_t{100},
                            std::size_t{257}}) {
    util::WeightedStats merged;
    for (std::size_t start = 0; start < values.size(); start += chunk) {
      util::WeightedStats part;
      const std::size_t stop = std::min(start + chunk, values.size());
      for (std::size_t i = start; i < stop; ++i) {
        part.add(values[i], weights[i]);
      }
      merged.merge(part);
    }
    EXPECT_EQ(merged.count(), serial.count()) << "chunk " << chunk;
    EXPECT_NEAR(merged.mean(), serial.mean(), 1e-12) << "chunk " << chunk;
    EXPECT_NEAR(merged.variance(), serial.variance(), 1e-9)
        << "chunk " << chunk;
    EXPECT_NEAR(merged.sum_weight(), serial.sum_weight(), 1e-9)
        << "chunk " << chunk;
    EXPECT_NEAR(merged.effective_samples(), serial.effective_samples(), 1e-9)
        << "chunk " << chunk;
  }
}

TEST(WeightedStats, AllZeroWeightsHaveZeroEssAndInfiniteRelError) {
  util::WeightedStats ws;
  for (int i = 0; i < 10; ++i) ws.add(0.0, 0.0);
  EXPECT_EQ(ws.count(), 10u);
  EXPECT_EQ(ws.effective_samples(), 0.0);
  EXPECT_EQ(ws.mean(), 0.0);
  EXPECT_TRUE(std::isinf(ws.rel_error()));
}

TEST(WeightedStats, SingleTrialHasNoSpreadEstimate) {
  util::WeightedStats ws;
  ws.add(1.0, 2.0);
  EXPECT_EQ(ws.count(), 1u);
  EXPECT_EQ(ws.mean(), 2.0);
  EXPECT_EQ(ws.variance(), 0.0);
  EXPECT_EQ(ws.std_error(), 0.0);
  EXPECT_TRUE(std::isinf(ws.rel_error()));  // one sample: quality unknown
  EXPECT_EQ(ws.effective_samples(), 1.0);   // (sum w)^2 / sum w^2
}

TEST(WeightedStats, UnitWeightsReduceToBinomialCounting) {
  util::WeightedStats ws;
  for (int i = 0; i < 60; ++i) ws.add(i < 15 ? 1.0 : 0.0, i < 15 ? 1.0 : 0.0);
  EXPECT_DOUBLE_EQ(ws.mean(), 0.25);
  EXPECT_DOUBLE_EQ(ws.effective_samples(), 15.0);
}

// --- util::probit -----------------------------------------------------------

TEST(Probit, RoundTripsThroughTheNormalCdf) {
  for (double x : {-5.0, -2.0, -0.5, 0.0, 0.5, 2.0, 5.0}) {
    EXPECT_NEAR(util::probit(normal_cdf(x)), x, 1e-9) << x;
  }
  // Deep tails: the roundtrip degrades gracefully, not catastrophically.
  EXPECT_NEAR(util::probit(normal_cdf(-8.0)), -8.0, 1e-2);
  EXPECT_NEAR(util::probit(normal_cdf(8.0)), 8.0, 1e-2);
  EXPECT_EQ(util::probit(0.5), 0.0);
}

TEST(Probit, EndpointsAndMonotonicity) {
  EXPECT_TRUE(std::isinf(util::probit(0.0)));
  EXPECT_LT(util::probit(0.0), 0.0);
  EXPECT_TRUE(std::isinf(util::probit(1.0)));
  EXPECT_GT(util::probit(1.0), 0.0);
  double prev = -std::numeric_limits<double>::infinity();
  for (double p = 1e-12; p < 1.0; p *= 10.0) {
    const double b = util::probit(p);
    EXPECT_GT(b, prev);
    prev = b;
  }
}

// --- tilted RNG hooks -------------------------------------------------------

TEST(RngTilt, ZeroTiltReproducesNormalFillBitwise) {
  util::Rng a(99), b(99);
  double plain[31], tilted[31];
  const double zero[3] = {0.0, 0.0, 0.0};
  a.normal_fill(plain, 31);
  b.normal_fill_tilted(tilted, 31, zero, 3);
  for (std::size_t i = 0; i < 31; ++i) EXPECT_EQ(plain[i], tilted[i]) << i;
  // And the generators stay in lockstep afterwards.
  EXPECT_EQ(a(), b());
}

TEST(RngTilt, TiltAddsExactlyOntoTheSameRawDeviates) {
  util::Rng a(123), b(123);
  double plain[30], tilted[30];
  const double tilt[3] = {0.25, -1.5, 4.0};
  a.normal_fill(plain, 30);
  b.normal_fill_tilted(tilted, 30, tilt, 3);
  for (std::size_t i = 0; i < 30; ++i) {
    EXPECT_EQ(tilted[i], plain[i] + tilt[i % 3]) << i;  // exact fp add
  }
}

// --- generic drivers --------------------------------------------------------

TEST(RareEvent, BruteEquivalentTrialsFormula) {
  // 1e-4 at 10% relative error needs ~(1-p)/(p re^2) ~ 1e6 brute trials.
  EXPECT_NEAR(eng::brute_equivalent_trials(1e-4, 0.1, 0.0), 0.9999e6, 1e2);
  // Degenerate inputs fall back.
  EXPECT_EQ(eng::brute_equivalent_trials(0.0, 0.1, 123.0), 123.0);
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(eng::brute_equivalent_trials(1e-4, inf, 5.0), 5.0);
}

TEST(RareEvent, ImportanceRoundsEstimatesATiltedGaussianTail) {
  // P(z > beta) with draws tilted to the boundary: the canonical analytic
  // check of the weighted estimator and its stopping rule.
  eng::MonteCarloRunner runner;
  const double beta = 4.0;
  const double p_true = normal_cdf(-beta);
  const double tilt[1] = {beta};
  const auto est =
      eng::importance_rounds(2000, 11, [&](std::uint64_t round_seed) {
        return runner.run<util::WeightedStats>(
            2000, round_seed,
            [&](util::Rng& rng, std::size_t, util::WeightedStats& ws) {
              double z[1];
              rng.normal_fill_tilted(z, 1, tilt, 1);
              if (z[0] > beta) {
                ws.add(1.0, std::exp(0.5 * beta * beta - beta * z[0]));
              } else {
                ws.add(0.0, 0.0);
              }
            });
      });
  EXPECT_LE(est.rel_error, eng::kTargetRelError);
  EXPECT_NEAR(est.probability, p_true, 3.0 * est.rel_error * p_true);
  EXPECT_GE(est.confidence.lo, 0.0);
  EXPECT_LE(est.confidence.lo, est.probability);
  EXPECT_GE(est.confidence.hi, est.probability);
  // ~1e8 brute trials of work from a few thousand simulated ones.
  EXPECT_GT(est.effective_trials, 100.0 * est.simulated_trials);
}

TEST(RareEvent, SubsetSimulationEstimatesAGaussianTail) {
  eng::MonteCarloRunner runner;
  const double beta = 4.5;
  const double p_true = normal_cdf(-beta);
  const auto est = eng::subset_simulation(
      runner, 1, 1500, 13,
      [beta](std::size_t n, const double* zs, double* out) {
        for (std::size_t l = 0; l < n; ++l) out[l] = zs[l] - beta;
      });
  EXPECT_FALSE(est.level_probabilities.empty());
  EXPECT_GT(est.probability, 0.0);
  // Subset-simulation error bounds are approximate; a 3x bracket on a
  // 3.4e-6 tail is already far beyond brute-force reach at this cost.
  EXPECT_GT(est.probability, p_true / 3.0);
  EXPECT_LT(est.probability, p_true * 3.0);
}

TEST(RareEvent, DriversAreBitIdenticalAcrossThreadCounts) {
  const double beta = 3.8;
  auto run_both = [&](unsigned threads) {
    eng::MonteCarloRunner runner(eng::RunnerConfig{.threads = threads});
    const double tilt[1] = {beta};
    const auto is =
        eng::importance_rounds(500, 21, [&](std::uint64_t round_seed) {
          return runner.run<util::WeightedStats>(
              500, round_seed,
              [&](util::Rng& rng, std::size_t, util::WeightedStats& ws) {
                double z[1];
                rng.normal_fill_tilted(z, 1, tilt, 1);
                if (z[0] > beta) {
                  ws.add(1.0, std::exp(0.5 * beta * beta - beta * z[0]));
                } else {
                  ws.add(0.0, 0.0);
                }
              });
        });
    const auto split = eng::subset_simulation(
        runner, 2, 400, 22,
        [beta](std::size_t n, const double* zs, double* out) {
          for (std::size_t l = 0; l < n; ++l) {
            const double* z = zs + 2 * l;
            out[l] = 0.5 * (z[0] + z[1]) * 1.41421356 - beta;
          }
        });
    return std::pair{is, split};
  };
  const auto [is1, split1] = run_both(1);
  const auto [is4, split4] = run_both(4);
  EXPECT_EQ(is1.probability, is4.probability);
  EXPECT_EQ(is1.rel_error, is4.rel_error);
  EXPECT_EQ(is1.simulated_trials, is4.simulated_trials);
  EXPECT_EQ(split1.probability, split4.probability);
  EXPECT_EQ(split1.level_probabilities, split4.level_probabilities);
}

// --- lockstep subset simulation vs the per-trial reference -----------------

/// The per-trial subset simulation the lockstep driver replaced, kept as the
/// bitwise oracle: one runner trial per chain, one scalar score call per
/// proposal, and a full sort of every adaptive level.
eng::RareEventEstimate per_trial_subset_simulation(
    eng::MonteCarloRunner& runner, std::size_t dim, std::size_t N,
    std::uint64_t seed, const std::function<double(const double*)>& score) {
  struct Gen {
    std::vector<double> zs;
    std::vector<double> scores;
    void merge(const Gen& o) {
      zs.insert(zs.end(), o.zs.begin(), o.zs.end());
      scores.insert(scores.end(), o.scores.begin(), o.scores.end());
    }
  };
  const double dN = static_cast<double>(N);
  eng::RareEventEstimate est;
  est.method = eng::RareEventMethod::kSplitting;
  Gen gen = runner.run<Gen>(
      N, eng::derive_seed(seed, 0), [&] { return std::vector<double>(dim); },
      [&](std::vector<double>& z, util::Rng& rng, std::size_t, Gen& acc) {
        rng.normal_fill(z.data(), dim);
        acc.zs.insert(acc.zs.end(), z.begin(), z.end());
        acc.scores.push_back(score(z.data()));
      });
  double log_p = 0.0;
  double delta2 = 0.0;
  double evals = dN;
  bool dead = false;
  const auto resample = [&](const std::vector<std::size_t>& parents,
                            double level, std::uint64_t tag) {
    const double rho = eng::kMcmcRho;
    const double beta = std::sqrt(1.0 - rho * rho);
    const std::size_t m = parents.size();
    gen = runner.run<Gen>(
        N, eng::derive_seed(seed, tag),
        [&] { return std::vector<double>(2 * dim); },
        [&](std::vector<double>& buf, util::Rng& rng, std::size_t,
            Gen& acc) {
          double* cur = buf.data();
          double* prop = buf.data() + dim;
          const std::size_t j = parents[rng.below(m)];
          std::copy_n(gen.zs.data() + j * dim, dim, cur);
          double cur_score = gen.scores[j];
          for (std::size_t step = 0; step < eng::kMcmcSteps; ++step) {
            rng.normal_fill(prop, dim);
            for (std::size_t d = 0; d < dim; ++d) {
              prop[d] = rho * cur[d] + beta * prop[d];
            }
            const double s = score(prop);
            if (s >= level) {
              std::copy_n(prop, dim, cur);
              cur_score = s;
            }
          }
          acc.zs.insert(acc.zs.end(), cur, cur + dim);
          acc.scores.push_back(cur_score);
        });
    evals += dN * static_cast<double>(eng::kMcmcSteps);
  };
  const auto count_hits = [&] {
    return static_cast<std::size_t>(
        std::count_if(gen.scores.begin(), gen.scores.end(),
                      [](double s) { return s > 0.0; }));
  };
  const auto record_level = [&](double phat, bool first) {
    log_p += std::log(phat);
    delta2 += (first ? 1.0 : 3.0) * (1.0 - phat) / (dN * phat);
    est.level_probabilities.push_back(phat);
  };
  const std::size_t m = std::max<std::size_t>(
      1, static_cast<std::size_t>(eng::kLevelP0 * dN));
  double prev_level = -std::numeric_limits<double>::infinity();
  for (std::size_t k = 0;; ++k) {
    const std::size_t hits = count_hits();
    if (hits >= m) {
      record_level(static_cast<double>(hits) / dN, k == 0);
      est.ess = static_cast<double>(hits);
      break;
    }
    std::vector<std::size_t> order(N);
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) {
                if (gen.scores[a] != gen.scores[b]) {
                  return gen.scores[a] > gen.scores[b];
                }
                return a < b;
              });
    const double level = gen.scores[order[m - 1]];
    if (k >= eng::kMaxLevels || level <= prev_level) {
      if (hits > 0) {
        record_level(static_cast<double>(hits) / dN, k == 0);
        est.ess = static_cast<double>(hits);
      } else {
        dead = true;
      }
      break;
    }
    prev_level = level;
    record_level(static_cast<double>(m) / dN, k == 0);
    order.resize(m);
    resample(order, level, k + 1);
  }
  est.simulated_trials = evals;
  est.probability = dead ? 0.0 : std::exp(log_p);
  return est;
}

TEST(RareEvent, LockstepSubsetSimulationMatchesPerTrialReferenceBitwise) {
  // Gaussian tails in the dimensions of the shipped drivers (wer 1, rer 3,
  // retention 16, whose score is a max of per-cell deficits like
  // measure_retention_faults'), plus dim-2 quantised scores whose many
  // exact ties make the adaptive level rest on the (score desc, index asc)
  // tie-break that the level selection must reproduce.
  using Scalar = std::function<double(const double*)>;
  struct Case {
    std::size_t dim;
    const char* name;
    Scalar score;
    bool ties;
  };
  const auto sum_tail = [](std::size_t dim, double beta) -> Scalar {
    return [dim, beta](const double* z) {
      double s = 0.0;
      for (std::size_t d = 0; d < dim; ++d) s += z[d];
      return s / std::sqrt(static_cast<double>(dim)) - beta;
    };
  };
  const Scalar max_deficit = [](const double* z) {
    double worst = -std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < 16; ++i) {
      const double b = -4.6 + 0.05 * static_cast<double>(i);
      worst = std::max(worst, b - z[i]);
    }
    return worst;
  };
  const std::vector<Case> cases = {
      {1, "wer-like", sum_tail(1, 4.2), false},
      {2, "gaussian", sum_tail(2, 3.9), false},
      {2, "quantised",
       [](const double* z) {
         return std::floor(4.0 * (z[0] + z[1])) / 4.0 - 4.0;
       },
       true},
      {3, "rer-like", sum_tail(3, 4.0), false},
      {16, "retention-like", max_deficit, false},
  };
  std::size_t runs = 0;
  std::size_t tie_runs = 0;
  for (const Case& c : cases) {
    // Effective chunks of 7, 10, 16 and 64 trials; at 1003 the last span's
    // last lane block holds 43 trials, at 420 (one thread) 6.
    const std::vector<std::size_t> ns =
        c.dim == 2 ? std::vector<std::size_t>{420, 600, 5000}
                   : std::vector<std::size_t>{420, 1003};
    for (const std::size_t n : ns) {
      for (const unsigned threads : {1u, 3u}) {
        const std::string where = "dim=" + std::to_string(c.dim) + " " +
                                  c.name + " n=" + std::to_string(n) +
                                  " threads=" + std::to_string(threads);
        eng::MonteCarloRunner runner(eng::RunnerConfig{.threads = threads});
        const auto want =
            per_trial_subset_simulation(runner, c.dim, n, 41, c.score);
        const auto got = eng::subset_simulation(
            runner, c.dim, n, 41,
            [&c](std::size_t n, const double* zs, double* out) {
              for (std::size_t l = 0; l < n; ++l) {
                out[l] = c.score(zs + c.dim * l);
              }
            });
        EXPECT_EQ(std::bit_cast<std::uint64_t>(got.probability),
                  std::bit_cast<std::uint64_t>(want.probability))
            << where;
        EXPECT_EQ(got.level_probabilities, want.level_probabilities) << where;
        EXPECT_EQ(got.ess, want.ess) << where;
        EXPECT_EQ(got.simulated_trials, want.simulated_trials) << where;
        EXPECT_GT(want.probability, 0.0) << where;
        EXPECT_GE(want.level_probabilities.size(), 3u) << where;
        ++runs;
        if (c.ties) ++tie_runs;
      }
    }
  }
  EXPECT_EQ(runs, 24u);
  EXPECT_EQ(tie_runs, 6u);
}

TEST(RareEvent, SubsetSimulationRejectsNaNScores) {
  // NaN breaks the strict weak ordering of the level comparator (undefined
  // behaviour in any sort), so a NaN score is refused, naming the level.
  eng::MonteCarloRunner runner(eng::RunnerConfig{.threads = 2});
  const auto nan_above_one = [](std::size_t n, const double* zs,
                                double* out) {
    for (std::size_t l = 0; l < n; ++l) {
      out[l] = zs[l] > 1.0 ? std::numeric_limits<double>::quiet_NaN()
                           : zs[l] - 4.0;
    }
  };
  try {
    eng::subset_simulation(runner, 1, 400, 5, nan_above_one);
    ADD_FAILURE() << "a NaN score was accepted";
  } catch (const util::ContractViolation& e) {
    EXPECT_NE(std::string(e.what()).find("NaN at level 0"), std::string::npos)
        << e.what();
  }
}

// --- read-error model hook --------------------------------------------------

TEST(NoiseMargin, AtZeroDeviatesEqualsTheNominalMargin) {
  const auto params = dev::MtjParams::reference_device(35e-9);
  rdo::ReadPathConfig path;
  path.bitline.rows = 16;
  const rdo::ReadErrorModel model(params, path);
  const std::vector<int> column(16, 0);
  const auto op = model.operating_point(15, column);
  const auto margin = [&](dev::MtjState stored, const double z[3]) {
    double out = 0.0;
    model.noise_margin(op, stored, 1, z, &out);
    return out;
  };
  const double z0[3] = {0.0, 0.0, 0.0};
  EXPECT_DOUBLE_EQ(margin(dev::MtjState::kParallel, z0), op.margin);
  EXPECT_DOUBLE_EQ(margin(dev::MtjState::kAntiParallel, z0), op.margin);
  // Comparator offset moves the two stored states in opposite directions.
  const double zo[3] = {0.0, 1.0, 0.0};
  EXPECT_GT(margin(dev::MtjState::kParallel, zo), op.margin);
  EXPECT_LT(margin(dev::MtjState::kAntiParallel, zo), op.margin);
}

/// The one-read noise margin with the AP fixed point as a scalar loop, the
/// bitwise oracle of the lane-parallel solve. Also reports how many
/// fixed-point iterations the read took (0 for stored P) and whether one
/// more iteration would still have moved the bias: a lane-parallel solve
/// that stops a lane late gets such a lane wrong.
struct ScalarMargin {
  double margin = 0.0;
  int iterations = 0;
  bool moves_on = false;
};

ScalarMargin scalar_noise_margin(const rdo::ReadErrorModel& model,
                                 const rdo::ReadErrorModel::OperatingPoint& op,
                                 dev::MtjState stored, const double z[3]) {
  const rdo::ReadPathConfig& path = model.path();
  const auto& ep = model.device().params().electrical;
  const double rp = model.device().electrical().rp();
  const double tmr_mult = std::max(1.0 + path.tmr_sigma_rel * z[0], 0.05);
  const auto r_ap = [&](double v) {
    const double x = v / ep.vh;
    return rp * (1.0 + tmr_mult * ep.tmr0 / (1.0 + x * x));
  };
  const double v_th = op.port.v_thevenin;
  const double r_series = op.port.r_thevenin + path.transistor.r_read;
  ScalarMargin out;
  double i_cell = 0.0;
  if (stored == dev::MtjState::kParallel) {
    i_cell = v_th / (r_series + rp);
  } else {
    double v = v_th * r_ap(0.0) / (r_ap(0.0) + r_series);
    for (int iter = 0; iter < 100; ++iter) {
      ++out.iterations;
      const double r = r_ap(v);
      const double v_next = v_th * r / (r + r_series);
      const bool converged = std::abs(v_next - v) < 1e-15 * v_th;
      v = v_next;
      if (converged) break;
    }
    const double r = r_ap(v);
    out.moves_on = v_th * r / (r + r_series) != v;
    i_cell = v / r_ap(v);
  }
  const double offset = path.sense.offset_sigma * z[1];
  const double ref_error = path.sense.reference_sigma * z[2];
  const double differential = (i_cell + offset) - (op.i_ref + ref_error);
  out.margin =
      stored == dev::MtjState::kParallel ? differential : -differential;
  return out;
}

TEST(NoiseMargin, LaneParallelMatchesScalarFixedPointBitwise) {
  const auto params = dev::MtjParams::reference_device(35e-9);
  // TMR deviates interleaved with ordinary draws: -10.15 (at V_read 0.04)
  // and -18.75 (at 0.18) stop one iteration before the nominal z0 = 0 lane
  // while a further iteration would still move their bias, then ones that
  // hit the 0.05 clamp, and large positive ones.
  const std::vector<double> special = {-10.15, -18.75, -1e3, 0.0,
                                       -40.0,  -32.0,  25.0, 60.0, 1e3};
  for (const double v_read : {0.04, 0.18}) {
    rdo::ReadPathConfig path;
    path.bitline.rows = 16;
    path.v_read = v_read;
    const rdo::ReadErrorModel model(params, path);
    const auto op = model.operating_point(15, std::vector<int>(16, 1));
    for (const auto stored :
         {dev::MtjState::kParallel, dev::MtjState::kAntiParallel}) {
      for (const std::size_t n : {1u, 7u, 64u, 65u, 130u}) {
        util::Rng rng = util::Rng::stream(97, n);
        std::vector<double> zs(3 * n);
        rng.normal_fill(zs.data(), zs.size());
        for (std::size_t l = 0; l < n; l += 2) {
          zs[3 * l] = special[(l / 2) % special.size()];
        }
        std::vector<double> got(n);
        model.noise_margin(op, stored, n, zs.data(), got.data());
        int min_iter = 1000, max_iter = 0, early_moving = 1000;
        for (std::size_t l = 0; l < n; ++l) {
          const auto want =
              scalar_noise_margin(model, op, stored, zs.data() + 3 * l);
          EXPECT_EQ(std::bit_cast<std::uint64_t>(got[l]),
                    std::bit_cast<std::uint64_t>(want.margin))
              << "v_read=" << v_read << " n=" << n << " lane " << l
              << " z0=" << zs[3 * l];
          min_iter = std::min(min_iter, want.iterations);
          max_iter = std::max(max_iter, want.iterations);
          if (want.moves_on) {
            early_moving = std::min(early_moving, want.iterations);
          }
        }
        if (stored == dev::MtjState::kAntiParallel && n >= 7) {
          // The batch has the shape that tells a per-lane stop from a
          // stop at the first or at the last lane's convergence.
          EXPECT_LT(min_iter, max_iter)
              << "lanes of one batch should converge at different "
                 "iterations (v_read=" << v_read << ", n=" << n << ")";
          EXPECT_LT(early_moving, max_iter)
              << "no lane whose bias an extra iteration would move stops "
                 "before the last one (v_read=" << v_read << ", n=" << n
              << ")";
        }
      }
    }
  }
}

// --- workload wirings: overlap-regime agreement -----------------------------

mem::WerConfig overlap_wer_config() {
  mem::WerConfig cfg;
  cfg.array.device = dev::MtjParams::reference_device(35e-9);
  cfg.array.pitch = 1.5 * 35e-9;
  cfg.array.rows = cfg.array.cols = 5;
  cfg.pulse.voltage = 0.9;
  cfg.direction = dev::SwitchDirection::kApToP;
  cfg.trials = 2000;
  const dev::MtjDevice device(cfg.array.device);
  // ~1e-2 analytic WER: resolvable by brute force AND by both drivers.
  cfg.pulse.width = 1.8 * device.switching_time(dev::SwitchDirection::kApToP,
                                                0.9,
                                                device.intra_stray_field());
  return cfg;
}

/// |a - b| within z * sqrt(se_a^2 + se_b^2): the two estimates agree within
/// their combined reported uncertainty.
void expect_agree(double a, double se_a, double b, double se_b, double z) {
  EXPECT_LE(std::abs(a - b), z * std::hypot(se_a, se_b) + 1e-300)
      << a << " +- " << se_a << " vs " << b << " +- " << se_b;
}

TEST(RareEventOverlap, WerDriversAgreeWithBruteForce) {
  auto cfg = overlap_wer_config();
  eng::MonteCarloRunner runner;

  util::Rng rng_b(42);
  const auto brute = mem::measure_wer(cfg, rng_b, runner);
  ASSERT_GT(brute.errors, 10u);  // genuinely in the overlap regime

  cfg.rare.method = eng::RareEventMethod::kImportanceSampling;
  util::Rng rng_i(42);
  const auto is = mem::measure_wer(cfg, rng_i, runner);
  cfg.rare.method = eng::RareEventMethod::kSplitting;
  util::Rng rng_s(42);
  const auto split = mem::measure_wer(cfg, rng_s, runner);

  const double se_b = brute.wer * brute.rare.rel_error;
  expect_agree(is.wer, is.wer * is.rare.rel_error, brute.wer, se_b, 3.0);
  expect_agree(split.wer, split.wer * split.rare.rel_error, brute.wer, se_b,
               3.0);
  // Both accelerated runs actually report quality.
  EXPECT_LT(is.rare.rel_error, 0.5);
  EXPECT_LT(split.rare.rel_error, 0.5);
}

TEST(RareEventOverlap, RetentionDriversMatchTheClosedForm) {
  mem::RetentionEnsembleConfig cfg;
  cfg.array.device = dev::MtjParams::reference_device(35e-9);
  cfg.array.device.delta0 = 18.0;
  cfg.array.pitch = 1.5 * 35e-9;
  cfg.array.rows = cfg.array.cols = 4;
  cfg.array.temperature = 380.0;
  cfg.pattern = arr::PatternKind::kAllZero;
  cfg.hold = 1e-7;  // exact fault probability ~3e-2
  cfg.trials = 2000;
  eng::MonteCarloRunner runner;

  util::Rng rng_b(9);
  const auto brute = mem::measure_retention_faults(cfg, rng_b, runner);
  const double exact = brute.exact_fault_probability;
  ASSERT_GT(exact, 1e-3);
  ASSERT_LT(exact, 0.2);

  cfg.rare.method = eng::RareEventMethod::kImportanceSampling;
  util::Rng rng_i(9);
  const auto is = mem::measure_retention_faults(cfg, rng_i, runner);
  cfg.rare.method = eng::RareEventMethod::kSplitting;
  util::Rng rng_s(9);
  const auto split = mem::measure_retention_faults(cfg, rng_s, runner);

  EXPECT_EQ(is.exact_fault_probability, exact);
  expect_agree(brute.fault_probability, exact * brute.rare.rel_error, exact,
               0.0, 3.0);
  expect_agree(is.fault_probability,
               is.fault_probability * is.rare.rel_error, exact, 0.0, 3.0);
  expect_agree(split.fault_probability,
               split.fault_probability * split.rare.rel_error, exact, 0.0,
               3.5);
}

TEST(RareEventOverlap, RerDriversAgreeWithBruteForce) {
  rdo::RerConfig cfg;
  cfg.path.v_read = 0.05;  // starved margin: measurable error rate
  cfg.trials = 4000;
  cfg.hz_stray = dev::MtjDevice(cfg.device).intra_stray_field();
  eng::MonteCarloRunner runner;

  util::Rng rng_b(17);
  const auto brute = rdo::measure_rer(cfg, rng_b, runner);
  ASSERT_GT(brute.read_errors, 20u);

  cfg.rare.method = eng::RareEventMethod::kImportanceSampling;
  util::Rng rng_i(17);
  const auto is = rdo::measure_rer(cfg, rng_i, runner);
  cfg.rare.method = eng::RareEventMethod::kSplitting;
  util::Rng rng_s(17);
  const auto split = rdo::measure_rer(cfg, rng_s, runner);

  const double se_b = brute.rer * brute.rare.rel_error;
  expect_agree(is.rer, is.rer * is.rare.rel_error, brute.rer, se_b, 3.0);
  expect_agree(split.rer, split.rer * split.rare.rel_error, brute.rer, se_b,
               3.5);
}

// --- workload wirings: deep-regime acceptance -------------------------------

TEST(RareEventDeep, DriversBeatBruteForceByAtLeast100x) {
  // At ~1e-10 brute force would need ~1e12 trials. Each accelerated run must
  // be worth at least 100 brute-force trials per trial it simulates, at its
  // own reported relative error.
  const auto expect_speedup = [](const eng::RareEventEstimate& est) {
    EXPECT_GT(est.probability, 0.0);
    EXPECT_GT(est.simulated_trials, 0.0);
    EXPECT_GE(est.effective_trials, 100.0 * est.simulated_trials)
        << est.effective_trials / est.simulated_trials << "x";
  };
  eng::MonteCarloRunner runner;

  auto wer = overlap_wer_config();
  const dev::MtjDevice device(wer.array.device);
  wer.pulse.width = 4.7 * device.switching_time(dev::SwitchDirection::kApToP,
                                                0.9,
                                                device.intra_stray_field());
  for (auto method : {eng::RareEventMethod::kImportanceSampling,
                      eng::RareEventMethod::kSplitting}) {
    SCOPED_TRACE(static_cast<int>(method));
    wer.rare.method = method;
    util::Rng rng(7);
    expect_speedup(mem::measure_wer(wer, rng, runner).rare);
  }

  rdo::RerConfig rer;
  rer.path.v_read = 0.16;  // ~7 sigma margin, RER ~1e-11
  rer.trials = 2000;
  rer.hz_stray = dev::MtjDevice(rer.device).intra_stray_field();
  rer.rare.method = eng::RareEventMethod::kImportanceSampling;
  util::Rng rng(7);
  expect_speedup(rdo::measure_rer(rer, rng, runner).rare);
}

// --- workload wirings: determinism contract ---------------------------------

template <class Config, class Result, class Measure>
void expect_thread_invariant(Config cfg, Measure measure,
                             double Result::*probability) {
  Result ref;
  for (unsigned threads : {1u, 4u}) {
    eng::MonteCarloRunner runner(eng::RunnerConfig{.threads = threads});
    util::Rng rng(1234);
    const Result r = measure(cfg, rng, runner);
    if (threads == 1) {
      ref = r;
    } else {
      EXPECT_EQ(r.*probability, ref.*probability);  // bitwise
      EXPECT_EQ(r.rare.rel_error, ref.rare.rel_error);
      EXPECT_EQ(r.rare.simulated_trials, ref.rare.simulated_trials);
      EXPECT_EQ(r.rare.level_probabilities, ref.rare.level_probabilities);
    }
  }
}

TEST(RareEventDeterminism, WerDriversAreThreadCountInvariant) {
  auto cfg = overlap_wer_config();
  cfg.trials = 600;
  for (auto method : {eng::RareEventMethod::kImportanceSampling,
                      eng::RareEventMethod::kSplitting}) {
    cfg.rare.method = method;
    expect_thread_invariant<mem::WerConfig, mem::WerResult>(
        cfg,
        [](const mem::WerConfig& c, util::Rng& rng,
           eng::MonteCarloRunner& runner) {
          return mem::measure_wer(c, rng, runner);
        },
        &mem::WerResult::wer);
  }
}

TEST(RareEventDeterminism, RetentionDriversAreThreadCountInvariant) {
  mem::RetentionEnsembleConfig cfg;
  cfg.array.device = dev::MtjParams::reference_device(35e-9);
  cfg.array.device.delta0 = 32.0;
  cfg.array.pitch = 1.5 * 35e-9;
  cfg.array.rows = cfg.array.cols = 4;
  cfg.array.temperature = 380.0;
  cfg.hold = 1e-4;
  cfg.trials = 600;
  for (auto method : {eng::RareEventMethod::kImportanceSampling,
                      eng::RareEventMethod::kSplitting}) {
    cfg.rare.method = method;
    expect_thread_invariant<mem::RetentionEnsembleConfig,
                            mem::RetentionEnsembleResult>(
        cfg,
        [](const mem::RetentionEnsembleConfig& c, util::Rng& rng,
           eng::MonteCarloRunner& runner) {
          return mem::measure_retention_faults(c, rng, runner);
        },
        &mem::RetentionEnsembleResult::fault_probability);
  }
}

TEST(RareEventDeterminism, RerDriversAreThreadCountInvariant) {
  rdo::RerConfig cfg;
  cfg.path.v_read = 0.08;
  cfg.trials = 600;
  cfg.hz_stray = dev::MtjDevice(cfg.device).intra_stray_field();
  for (auto method : {eng::RareEventMethod::kImportanceSampling,
                      eng::RareEventMethod::kSplitting}) {
    cfg.rare.method = method;
    expect_thread_invariant<rdo::RerConfig, rdo::RerResult>(
        cfg,
        [](const rdo::RerConfig& c, util::Rng& rng,
           eng::MonteCarloRunner& runner) {
          return rdo::measure_rer(c, rng, runner);
        },
        &rdo::RerResult::rer);
  }
}

}  // namespace
}  // namespace mram
