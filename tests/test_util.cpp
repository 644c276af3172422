// Unit tests for src/util: RNG, statistics, tables, CSV, units, errors.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "util/constants.h"
#include "util/csv.h"
#include "util/error.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/table.h"
#include "util/units.h"

namespace mram::util {
namespace {

// --- units ------------------------------------------------------------------

TEST(Units, OerstedRoundTrip) {
  EXPECT_NEAR(a_per_m_to_oe(oe_to_a_per_m(123.4)), 123.4, 1e-10);
  EXPECT_NEAR(oe_to_a_per_m(1.0), 79.5774715459, 1e-6);
}

TEST(Units, PaperConstantsInSi) {
  // Hk = 4646.8 Oe and Hc = 2.2 kOe from the paper.
  EXPECT_NEAR(oe_to_a_per_m(4646.8), 369780.6, 1.0);
  EXPECT_NEAR(oe_to_a_per_m(2200.0), 175070.4, 1.0);
}

TEST(Units, TeslaConversion) {
  const double h = oe_to_a_per_m(10000.0);  // 1 T is about 10 kOe
  EXPECT_NEAR(a_per_m_to_tesla(h), 1.0, 0.01);
  EXPECT_NEAR(tesla_to_a_per_m(a_per_m_to_tesla(12345.0)), 12345.0, 1e-6);
}

TEST(Units, LengthTimeCurrent) {
  EXPECT_DOUBLE_EQ(nm_to_m(35.0), 35e-9);
  EXPECT_DOUBLE_EQ(m_to_nm(nm_to_m(35.0)), 35.0);
  EXPECT_DOUBLE_EQ(ns_to_s(20.0), 20e-9);
  EXPECT_DOUBLE_EQ(s_to_ns(ns_to_s(20.0)), 20.0);
  EXPECT_DOUBLE_EQ(ua_to_a(57.2), 57.2e-6);
  EXPECT_DOUBLE_EQ(a_to_ua(ua_to_a(57.2)), 57.2);
}

TEST(Units, TemperatureAndRa) {
  EXPECT_DOUBLE_EQ(celsius_to_kelvin(0.0), 273.15);
  EXPECT_DOUBLE_EQ(kelvin_to_celsius(celsius_to_kelvin(150.0)), 150.0);
  EXPECT_DOUBLE_EQ(ohm_um2_to_ohm_m2(4.5), 4.5e-12);
  EXPECT_DOUBLE_EQ(ohm_m2_to_ohm_um2(ohm_um2_to_ohm_m2(4.5)), 4.5);
}

TEST(Units, Magnetization) {
  EXPECT_DOUBLE_EQ(emu_per_cc_to_a_per_m(1000.0), 1e6);
  EXPECT_DOUBLE_EQ(emu_per_cm2_to_a(1e-4), 1e-3);
}

// --- error machinery --------------------------------------------------------

TEST(Error, ExpectsThrowsWithContext) {
  try {
    MRAM_EXPECTS(1 == 2, "one is not two");
    FAIL() << "expected ContractViolation";
  } catch (const ContractViolation& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("precondition"), std::string::npos);
    EXPECT_NE(what.find("one is not two"), std::string::npos);
  }
}

TEST(Error, EnsuresThrows) {
  EXPECT_THROW(MRAM_ENSURES(false, "bad"), ContractViolation);
}

TEST(Error, PassingChecksDoNotThrow) {
  EXPECT_NO_THROW(MRAM_EXPECTS(true, ""));
  EXPECT_NO_THROW(MRAM_ENSURES(true, ""));
}

// --- RNG --------------------------------------------------------------------

TEST(Rng, DeterministicForSeed) {
  Rng a(7);
  Rng b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a() == b());
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(12);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-3.0, 5.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.0);
  }
  EXPECT_THROW(rng.uniform(2.0, 1.0), ContractViolation);
}

TEST(Rng, UniformMeanAndVariance) {
  Rng rng(13);
  RunningStats s;
  for (int i = 0; i < 200000; ++i) s.add(rng.uniform());
  EXPECT_NEAR(s.mean(), 0.5, 0.005);
  EXPECT_NEAR(s.variance(), 1.0 / 12.0, 0.005);
}

TEST(Rng, NormalMoments) {
  Rng rng(14);
  RunningStats s;
  for (int i = 0; i < 200000; ++i) s.add(rng.normal());
  EXPECT_NEAR(s.mean(), 0.0, 0.01);
  EXPECT_NEAR(s.stddev(), 1.0, 0.01);
}

TEST(Rng, NormalScaled) {
  Rng rng(15);
  RunningStats s;
  for (int i = 0; i < 100000; ++i) s.add(rng.normal(10.0, 2.0));
  EXPECT_NEAR(s.mean(), 10.0, 0.05);
  EXPECT_NEAR(s.stddev(), 2.0, 0.05);
  EXPECT_THROW(rng.normal(0.0, -1.0), ContractViolation);
}

TEST(Rng, BelowIsUnbiased) {
  Rng rng(16);
  std::array<int, 7> counts{};
  const int n = 70000;
  for (int i = 0; i < n; ++i) ++counts[rng.below(7)];
  for (int c : counts) EXPECT_NEAR(c, n / 7.0, 5.0 * std::sqrt(n / 7.0));
  EXPECT_THROW(rng.below(0), ContractViolation);
}

TEST(Rng, BernoulliEdgeCasesAndRate) {
  Rng rng(17);
  EXPECT_FALSE(rng.bernoulli(0.0));
  EXPECT_TRUE(rng.bernoulli(1.0));
  EXPECT_FALSE(rng.bernoulli(-0.5));
  EXPECT_TRUE(rng.bernoulli(1.5));
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.3);
  EXPECT_NEAR(hits / static_cast<double>(n), 0.3, 0.01);
}

TEST(Rng, NormalFillStreamConsistentAcrossFillSizes) {
  // The fill keeps no hidden state between calls: one bulk fill of n values
  // is the identical stream to any split into smaller fills on an engine
  // with the same state -- the property that lets the batched LLG kernel
  // prefetch a lane's thermal history in blocks while the scalar path
  // draws three values per step, and still match it bit for bit.
  constexpr std::size_t kN = 24;
  Rng bulk_rng(101);
  std::vector<double> bulk(kN);
  bulk_rng.normal_fill(bulk.data(), kN);
  for (std::size_t piece : {1u, 2u, 3u, 5u, 8u}) {
    Rng split_rng(101);
    std::vector<double> split(kN);
    for (std::size_t at = 0; at < kN; at += piece) {
      split_rng.normal_fill(split.data() + at, std::min(piece, kN - at));
    }
    EXPECT_EQ(bulk, split) << "piece=" << piece;
    // Engines end in the same state: the next raw draw agrees too.
    EXPECT_EQ(split_rng(), Rng(bulk_rng)());
  }
}

TEST(Rng, NormalFillInterleavesWithNormal) {
  // Mixed usage: fills interleaved with legacy normal() calls leave both
  // samplers deterministic -- each mixed engine stays in lockstep with a
  // twin replaying the same call pattern.
  Rng a(77);
  Rng b(77);
  double buf_a[3], buf_b[3];
  EXPECT_EQ(a.normal(), b.normal());  // leaves a cached spare in both
  a.normal_fill(buf_a, 3);
  b.normal_fill(buf_b, 3);
  for (int i = 0; i < 3; ++i) EXPECT_EQ(buf_a[i], buf_b[i]);
  EXPECT_EQ(a.normal(), b.normal());
}

TEST(Rng, NormalFillIsNotTheLegacyNormalStream) {
  // Documented split: normal() must stay the bit-stable legacy polar
  // sampler (committed goldens depend on its exact draws), while
  // normal_fill is the fast ziggurat. The two value streams differ.
  Rng a(101);
  Rng b(101);
  double filled[8];
  a.normal_fill(filled, 8);
  int same = 0;
  for (double v : filled) same += (v == b.normal());
  EXPECT_LT(same, 8);
}

TEST(Rng, NormalFillLanesMatchesSoloFills) {
  // At every dispatch level the host supports, the lane fill must reproduce
  // each engine's solo normal_fill stream bit for bit and leave every
  // engine in its solo state: partial SIMD vectors, multi-group widths, a
  // permuted lane map over a larger engine pool and a strided output
  // included. Row slots past the lane count must stay untouched.
  constexpr std::size_t kN = 385;  // not a multiple of 3
  constexpr std::size_t kPool = 70;
  constexpr std::uint64_t kSeed = 2024;
  constexpr double kZigR = 3.442619855899;  // the ziggurat's tail cut
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };

  std::vector<std::vector<double>> ref(kPool, std::vector<double>(kN));
  std::vector<std::uint64_t> ref_next(kPool);
  for (std::size_t e = 0; e < kPool; ++e) {
    Rng solo = Rng::stream(kSeed, e);
    solo.normal_fill(ref[e].data(), kN);
    ref_next[e] = solo();
  }

  // The reference draws must exercise both fallback paths, or a broken
  // replay could pass unnoticed: a value beyond r came from the tail, and a
  // value within r whose draw consumed more than one raw output went
  // through the wedge.
  std::size_t tail = 0, wedge = 0;
  for (std::size_t e = 0; e < kPool; ++e) {
    Rng solo = Rng::stream(kSeed, e);
    for (std::size_t k = 0; k < kN; ++k) {
      Rng one_draw = solo;
      one_draw();
      double z;
      solo.normal_fill(&z, 1);
      ASSERT_EQ(bits(z), bits(ref[e][k]));
      if (std::abs(z) > kZigR) {
        ++tail;
      } else if (Rng(one_draw)() != Rng(solo)()) {
        ++wedge;
      }
    }
  }
  EXPECT_GT(tail, 0u);
  EXPECT_GT(wedge, 0u);

  const double kUntouched = -777.0;
  for (auto level : {Rng::LaneFill::kPortable, Rng::LaneFill::kAvx2,
                     Rng::LaneFill::kAvx512}) {
    if (!Rng::lane_fill_supported(level)) continue;
    for (std::size_t lanes : {1u, 2u, 3u, 5u, 8u, 12u, 15u, 16u, 17u, 33u,
                              64u}) {
      SCOPED_TRACE(::testing::Message() << "level "
                                        << static_cast<int>(level)
                                        << ", lanes " << lanes);
      std::vector<Rng> rngs;
      for (std::size_t e = 0; e < kPool; ++e) {
        rngs.push_back(Rng::stream(kSeed, e));
      }
      std::vector<std::size_t> lane_of(lanes);
      for (std::size_t a = 0; a < lanes; ++a) lane_of[a] = (3 * a + 5) % kPool;
      const std::size_t stride = lanes + 3;
      std::vector<double> out(kN * stride, kUntouched);
      Rng::normal_fill_lanes(level, rngs.data(), lane_of.data(), lanes, kN,
                             out.data(), stride);

      std::size_t wrong = 0, touched = 0;
      std::vector<bool> used(kPool, false);
      for (std::size_t a = 0; a < lanes; ++a) {
        used[lane_of[a]] = true;
        for (std::size_t k = 0; k < kN; ++k) {
          wrong += bits(out[k * stride + a]) != bits(ref[lane_of[a]][k]);
        }
      }
      for (std::size_t k = 0; k < kN; ++k) {
        for (std::size_t a = lanes; a < stride; ++a) {
          touched += out[k * stride + a] != kUntouched;
        }
      }
      EXPECT_EQ(wrong, 0u);
      EXPECT_EQ(touched, 0u);
      for (std::size_t e = 0; e < kPool; ++e) {
        const std::uint64_t expected =
            used[e] ? ref_next[e] : Rng::stream(kSeed, e)();
        EXPECT_EQ(rngs[e](), expected) << "engine " << e;
      }
    }
  }

  // The load-time level is one of the supported ones, and the dispatching
  // overload agrees with the reference too.
  EXPECT_TRUE(Rng::lane_fill_supported(Rng::lane_fill_level()));
  std::vector<Rng> rngs;
  for (std::size_t e = 0; e < kPool; ++e) rngs.push_back(Rng::stream(kSeed, e));
  const std::size_t lane_of[2] = {9, 4};
  std::vector<double> out(2 * kN);
  Rng::normal_fill_lanes(rngs.data(), lane_of, 2, kN, out.data(), 2);
  for (std::size_t k = 0; k < kN; ++k) {
    EXPECT_EQ(bits(out[2 * k]), bits(ref[9][k])) << k;
    EXPECT_EQ(bits(out[2 * k + 1]), bits(ref[4][k])) << k;
  }
}

TEST(Rng, NormalFillZeroCountIsANoOp) {
  Rng a(5);
  Rng b(5);
  a.normal_fill(nullptr, 0);
  EXPECT_EQ(a(), b());
}

TEST(Rng, NormalFillMomentsAndTails) {
  Rng rng(19);
  RunningStats s;
  std::size_t beyond_3sigma = 0;
  std::vector<double> buf(1000);
  for (int block = 0; block < 200; ++block) {
    rng.normal_fill(buf.data(), buf.size());
    for (double v : buf) {
      s.add(v);
      beyond_3sigma += (std::abs(v) > 3.0);
    }
  }
  EXPECT_NEAR(s.mean(), 0.0, 0.01);
  EXPECT_NEAR(s.stddev(), 1.0, 0.01);
  // Tail mass: P(|X| > 3) = 2.7e-3, so ~540 of 200k. A ziggurat bug that
  // clips the tail (or doubles it) fails this comfortably.
  EXPECT_GT(beyond_3sigma, 400u);
  EXPECT_LT(beyond_3sigma, 700u);
}

// --- statistics -------------------------------------------------------------

TEST(Stats, RunningStatsBasics) {
  RunningStats s;
  EXPECT_TRUE(s.empty());
  EXPECT_THROW(s.mean(), ContractViolation);
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
}

TEST(Stats, VarianceOfSingleSampleIsZero) {
  RunningStats s;
  s.add(42.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(Stats, QuantileInterpolates) {
  std::vector<double> xs{0.0, 10.0};
  EXPECT_DOUBLE_EQ(quantile_sorted(xs, 0.25), 2.5);
  EXPECT_DOUBLE_EQ(quantile_sorted(xs, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(quantile_sorted(xs, 1.0), 10.0);
  EXPECT_THROW(quantile_sorted(xs, 1.5), ContractViolation);
}

TEST(Stats, MedianOddEven) {
  EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_THROW(median({}), ContractViolation);
}

TEST(Stats, WilsonIntervalProperties) {
  const auto iv = wilson_interval(5, 100);
  EXPECT_GT(iv.lo, 0.0);
  EXPECT_LT(iv.lo, 0.05);
  EXPECT_GT(iv.hi, 0.05);
  EXPECT_LT(iv.hi, 0.15);
  // Zero successes still yields a positive upper bound.
  const auto zero = wilson_interval(0, 50);
  EXPECT_DOUBLE_EQ(zero.lo, 0.0);
  EXPECT_GT(zero.hi, 0.0);
  EXPECT_THROW(wilson_interval(5, 0), ContractViolation);
  EXPECT_THROW(wilson_interval(5, 4), ContractViolation);
}

TEST(Stats, ProbitRoundTripAndSymmetry) {
  // Moderate range: the Halley-refined value inverts the normal CDF to
  // near machine precision.
  for (double p : {0.001, 0.02425, 0.1, 0.5, 0.9, 0.97575, 0.999}) {
    const double x = probit(p);
    EXPECT_NEAR(0.5 * std::erfc(-x / std::sqrt(2.0)), p, 1e-14 + 1e-12 * p)
        << "p=" << p;
    // Near-antisymmetric (the two tail branches differ in the last ulps).
    EXPECT_NEAR(probit(1.0 - p), -x, 1e-13 * (1.0 + std::abs(x)))
        << "p=" << p;
  }
  EXPECT_DOUBLE_EQ(probit(0.5), 0.0);
  EXPECT_TRUE(std::isinf(probit(0.0)));
  EXPECT_TRUE(std::isinf(probit(1.0)));
}

TEST(Stats, ProbitExtremeTailStaysFinite) {
  // Regression: the Halley refinement computes exp(x*x/2), which overflows
  // for |x| >~ 37.6 (p below ~1e-308) and used to turn the deep tail into
  // NaN. Subset-simulation level probabilities land this deep.
  for (double p : {1e-300, 1e-308, 5e-310, 1e-315, 5e-324}) {
    const double x = probit(p);
    EXPECT_TRUE(std::isfinite(x)) << "p=" << p;
    EXPECT_LT(x, -37.0) << "p=" << p;
    EXPECT_GT(x, -45.0) << "p=" << p;
  }
  // Monotonicity must survive the refined/unrefined seam near p ~ 1e-308.
  double prev = probit(1e-320);
  for (double p : {1e-315, 1e-310, 1e-308, 1e-306, 1e-300, 1e-200}) {
    const double x = probit(p);
    EXPECT_LT(prev, x) << "p=" << p;
    prev = x;
  }
}

TEST(Stats, WeightedStatsMomentsAndEffectiveSamples) {
  WeightedStats ws;
  ws.add(0.0, 0.0);  // a miss
  ws.add(1.0, 0.5);  // weighted hits
  ws.add(1.0, 0.25);
  EXPECT_EQ(ws.count(), 3u);
  EXPECT_DOUBLE_EQ(ws.mean(), 0.25);  // (0 + 0.5 + 0.25) / 3
  EXPECT_DOUBLE_EQ(ws.sum_weight(), 0.75);
  EXPECT_GT(ws.effective_samples(), 0.0);
  EXPECT_GT(ws.rel_error(), 0.0);
}

TEST(Stats, WeightedStatsRelErrorIsPositiveForNegativeMean) {
  // Regression: rel_error() used to divide by the signed mean, so a
  // negative estimate (legal for signed integrands) reported a *negative*
  // relative error -- vacuously below every `rel_err < target` stopping
  // threshold, halting estimators that had not converged at all.
  WeightedStats ws;
  ws.add(-1.0, 1.0);
  ws.add(-2.0, 1.0);
  ws.add(-4.0, 1.0);
  ASSERT_LT(ws.mean(), 0.0);
  EXPECT_GT(ws.rel_error(), 0.0);
  EXPECT_TRUE(std::isfinite(ws.rel_error()));
  // Sign-flipped samples give the identical relative error.
  WeightedStats pos;
  pos.add(1.0, 1.0);
  pos.add(2.0, 1.0);
  pos.add(4.0, 1.0);
  EXPECT_DOUBLE_EQ(ws.rel_error(), pos.rel_error());
  // Degenerate cases stay +inf, never negative.
  WeightedStats empty;
  EXPECT_TRUE(std::isinf(empty.rel_error()));
  EXPECT_GT(empty.rel_error(), 0.0);
}

// --- table ------------------------------------------------------------------

TEST(Table, AlignedTextOutput) {
  Table t({"a", "long_header"});
  t.add_row({"1", "2"});
  t.add_numeric_row({3.14159, 2.71828}, 2);
  const std::string text = t.to_text();
  EXPECT_NE(text.find("long_header"), std::string::npos);
  EXPECT_NE(text.find("3.14"), std::string::npos);
  // All lines share the same width.
  std::istringstream is(text);
  std::string line;
  std::set<std::size_t> widths;
  while (std::getline(is, line)) widths.insert(line.size());
  EXPECT_EQ(widths.size(), 1u);
}

TEST(Table, RowWidthMismatchThrows) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), ContractViolation);
  EXPECT_THROW(Table({}), ContractViolation);
}

TEST(Table, CsvEscaping) {
  Table t({"name", "value"});
  t.add_row({"with,comma", "with\"quote"});
  const std::string csv = t.to_csv();
  EXPECT_NE(csv.find("\"with,comma\""), std::string::npos);
  EXPECT_NE(csv.find("\"with\"\"quote\""), std::string::npos);
}

TEST(Table, PrintIncludesTitle) {
  Table t({"x"});
  t.add_row({"1"});
  std::ostringstream os;
  t.print(os, "My Title");
  EXPECT_NE(os.str().find("== My Title =="), std::string::npos);
}

TEST(Table, FormatDoublePrecision) {
  EXPECT_EQ(format_double(1.23456, 2), "1.23");
  EXPECT_EQ(format_double(-0.5, 1), "-0.5");
}

// --- csv --------------------------------------------------------------------

TEST(Csv, ParsesHeaderAndRows) {
  const auto doc = parse_numeric_csv("# comment\n a , b\n1,2\n3.5,-4\n");
  ASSERT_EQ(doc.header.size(), 2u);
  EXPECT_EQ(doc.header[0], "a");
  ASSERT_EQ(doc.rows.size(), 2u);
  EXPECT_DOUBLE_EQ(doc.rows[1][0], 3.5);
  EXPECT_DOUBLE_EQ(doc.rows[1][1], -4.0);
  EXPECT_EQ(doc.column("b"), 1u);
  EXPECT_THROW(doc.column("missing"), ConfigError);
}

TEST(Csv, RejectsMalformedInput) {
  EXPECT_THROW(parse_numeric_csv(""), ConfigError);
  EXPECT_THROW(parse_numeric_csv("a,b\n1\n"), ConfigError);
  EXPECT_THROW(parse_numeric_csv("a,b\n1,notanumber\n"), ConfigError);
}

TEST(Csv, RejectsNonFiniteCellsNamingFileAndLine) {
  const std::string path = ::testing::TempDir() + "/mram_csv_nonfinite.csv";
  for (const std::string cell :
       {"nan", "NaN", "-nan", "inf", "-inf", "infinity", "1e999"}) {
    write_text_file(path, "# comment\nx,y\n1,2\n\n3," + cell + "\n");
    try {
      read_numeric_csv(path);
      ADD_FAILURE() << "accepted '" << cell << "'";
    } catch (const ConfigError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(path + ":5:"), std::string::npos) << what;
      EXPECT_NE(what.find(cell), std::string::npos) << what;
    }
  }
}

TEST(Csv, RecordsSourceLineOfEveryRow) {
  const auto doc = parse_numeric_csv("a\n# skipped\n1\n\n2\n", "in.csv");
  ASSERT_EQ(doc.rows.size(), 2u);
  EXPECT_EQ(doc.where(0), "in.csv:3");
  EXPECT_EQ(doc.where(1), "in.csv:5");
  try {
    doc.column("missing");
    ADD_FAILURE() << "found a missing column";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("in.csv"), std::string::npos);
  }
}

TEST(Csv, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/mram_csv_test.csv";
  write_text_file(path, "x,y\n1,2\n");
  const auto doc = read_numeric_csv(path);
  ASSERT_EQ(doc.rows.size(), 1u);
  EXPECT_DOUBLE_EQ(doc.rows[0][1], 2.0);
  EXPECT_THROW(read_numeric_csv("/nonexistent/nope.csv"), ConfigError);
}

}  // namespace
}  // namespace mram::util
