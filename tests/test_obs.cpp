// Observability layer tests: the metrics registry primitives, the JSON
// parser / metrics-document round trip, the Chrome-trace recorder, the
// serialized progress gate, the perf_event counter groups -- and the
// load-bearing integration contract that none of the four CLI surfaces
// (--metrics, --trace, --progress, --perf) can perturb results: CSV
// payloads stay byte-identical with instrumentation on and off, at 1 and
// 4 threads.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "engine/monte_carlo.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/metrics_io.h"
#include "obs/perfctr.h"
#include "obs/progress.h"
#include "obs/trace.h"
#include "scenario/registry.h"
#include "scenario/run_command.h"
#include "util/error.h"
#include "util/rng.h"
#include "util/stats.h"

#include "support/json_parse.h"
#include "support/metrics_parse.h"

namespace mram::scn {
namespace {

namespace fs = std::filesystem;

fs::path make_temp_dir(const std::string& tag) {
  const fs::path dir = fs::temp_directory_path() / ("mram_obs_" + tag);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

std::string slurp(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// Two Monte Carlo probes: mc_pair makes two runner calls (2000 + 1500
/// trials), mc_solo one (900). Cells carry 17 digits so a
/// single ULP of instrumentation-induced drift breaks the byte compare.
ScenarioRegistry mc_registry() {
  ScenarioRegistry registry;
  Scenario pair;
  pair.info.name = "mc_pair";
  pair.info.figure = "Test";
  pair.info.summary = "two-call Monte Carlo probe";
  pair.run = [](ScenarioContext& ctx) {
    const auto stats = ctx.runner.run<util::RunningStats>(
        ctx.scaled_trials(2000), ctx.seed,
        [](util::Rng& rng, std::size_t, util::RunningStats& acc) {
          acc.add(rng.normal(1.0, 2.0));
        });
    const auto tail = ctx.runner.run<util::WeightedStats>(
        ctx.scaled_trials(1500), ctx.seed + 1,
        [](util::Rng& rng, std::size_t, util::WeightedStats& acc) {
          const double x = rng.normal();
          acc.add(x > 1.5 ? 1.0 : 0.0, rng.uniform(0.5, 1.5));
        });
    ResultSet out;
    out.add("moments", "scalar moments", {"mean", "stddev", "min"})
        .add_row({Cell(stats.mean(), 17), Cell(stats.stddev(), 17),
                  Cell(stats.min(), 17)});
    out.add("tail", "weighted tail estimate", {"mean", "rel_err", "ess"})
        .add_row({Cell(tail.mean(), 17), Cell(tail.rel_error(), 17),
                  Cell(tail.effective_samples(), 17)});
    return out;
  };
  registry.add(pair);

  Scenario solo;
  solo.info.name = "mc_solo";
  solo.info.figure = "Test";
  solo.info.summary = "one-call Monte Carlo probe";
  solo.run = [](ScenarioContext& ctx) {
    const auto stats = ctx.runner.run<util::RunningStats>(
        ctx.scaled_trials(900), ctx.seed,
        [](util::Rng& rng, std::size_t, util::RunningStats& acc) {
          acc.add(rng.uniform(-1.0, 1.0));
        });
    ResultSet out;
    out.add("u", "uniform moments", {"mean", "var"})
        .add_row({Cell(stats.mean(), 17), Cell(stats.variance(), 17)});
    return out;
  };
  registry.add(solo);
  return registry;
}

RunCommandOptions base_options(std::vector<std::string> names,
                               unsigned threads) {
  RunCommandOptions opt;
  opt.names = std::move(names);
  opt.format = "csv";
  opt.threads = threads;
  opt.seed = 2026;
  return opt;
}

/// Runs and returns the CSV payload (stdout), asserting success.
std::string run_csv(const ScenarioRegistry& registry,
                    const RunCommandOptions& opt) {
  std::ostringstream out, err;
  EXPECT_EQ(run_scenarios(registry, opt, out, err), 0) << err.str();
  return out.str();
}

const obs::ScenarioMetrics* find_scenario(const obs::MetricsDoc& doc,
                                          const std::string& name) {
  for (const auto& s : doc.scenarios) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

std::uint64_t counter_of(const obs::ScenarioMetrics& s,
                         const std::string& name) {
  const auto it = s.snapshot.counters.find(name);
  return it == s.snapshot.counters.end() ? 0 : it->second;
}

// --- histogram primitives ---------------------------------------------------

TEST(ObsHistogram, PowerOfTwoBuckets) {
  using obs::Histogram;
  EXPECT_EQ(Histogram::bucket_of(0), 0u);
  EXPECT_EQ(Histogram::bucket_of(1), 0u);
  EXPECT_EQ(Histogram::bucket_of(2), 1u);
  EXPECT_EQ(Histogram::bucket_of(3), 1u);
  EXPECT_EQ(Histogram::bucket_of(4), 2u);
  EXPECT_EQ(Histogram::bucket_of(1023), 9u);
  EXPECT_EQ(Histogram::bucket_of(1024), 10u);
  EXPECT_EQ(Histogram::bucket_of(~std::uint64_t{0}), 63u);
}

TEST(ObsHistogram, MergeIsExactInAnyOrder) {
  obs::Histogram a, b;
  for (const std::uint64_t v : {3ull, 9ull, 1000ull, 12345ull, 0ull}) {
    a.record(v);
  }
  for (const std::uint64_t v : {7ull, 1ull << 40, 42ull}) {
    b.record(v);
  }
  obs::Histogram ab = a, ba = b;
  ab.merge(b);
  ba.merge(a);
  EXPECT_EQ(ab.count, ba.count);
  EXPECT_EQ(ab.total, ba.total);
  EXPECT_EQ(ab.min, ba.min);
  EXPECT_EQ(ab.max, ba.max);
  EXPECT_EQ(ab.buckets, ba.buckets);
  EXPECT_EQ(ab.count, 8u);
  EXPECT_EQ(ab.min, 0u);
  EXPECT_EQ(ab.max, 1ull << 40);
}

TEST(ObsHistogram, QuantileClampsToObservedRangeAndHandlesEdges) {
  obs::Histogram empty;
  EXPECT_EQ(empty.quantile(0.5), 0.0);

  // A single value is exact at every q: the in-bucket interpolation is
  // clamped to [min, max].
  obs::Histogram one;
  one.record(100);
  EXPECT_DOUBLE_EQ(one.quantile(0.0), 100.0);
  EXPECT_DOUBLE_EQ(one.quantile(0.5), 100.0);
  EXPECT_DOUBLE_EQ(one.quantile(1.0), 100.0);

  // q outside (0, 1) returns the matching extreme.
  obs::Histogram two;
  two.record(4);
  two.record(4096);
  EXPECT_DOUBLE_EQ(two.quantile(-1.0), 4.0);
  EXPECT_DOUBLE_EQ(two.quantile(2.0), 4096.0);
}

TEST(ObsHistogram, QuantilesAreMonotoneAndLandInTheRightBucket) {
  obs::Histogram h;
  for (std::uint64_t v = 1; v <= 1000; ++v) h.record(v);
  const double p50 = h.quantile(0.50);
  const double p90 = h.quantile(0.90);
  const double p99 = h.quantile(0.99);
  EXPECT_LE(static_cast<double>(h.min), p50);
  EXPECT_LE(p50, p90);
  EXPECT_LE(p90, p99);
  EXPECT_LE(p99, static_cast<double>(h.max));
  // Uniform 1..1000: the log-linear interpolation puts the median near 500
  // (bucket [256, 512), rank 500 of 1000 -> ~497), not at a bucket edge.
  EXPECT_GT(p50, 400.0);
  EXPECT_LT(p50, 600.0);
  EXPECT_GT(p99, 900.0);
}

// --- chunk-block routing ----------------------------------------------------

TEST(ObsRegistry, ChunkScopeRoutesCountersThroughTheBlock) {
  obs::Registry reg;
  obs::ScopedRegistry guard(&reg);
  obs::MetricsBlock block;
  {
    obs::ChunkScope scope(&block);
    obs::counter_add(obs::Counter::kLlgNoiseBlocks, 5);
    scope.finish(100);
  }
  // Nothing reaches the registry until the caller folds the block.
  EXPECT_TRUE(reg.snapshot().counters.empty());
  reg.merge_block(block);
  const obs::Snapshot snap = reg.snapshot();
  EXPECT_EQ(snap.counters.at("llg.noise_blocks"), 5u);
  EXPECT_EQ(snap.counters.at("engine.chunks"), 1u);
  EXPECT_EQ(snap.counters.at("engine.trials"), 100u);
  ASSERT_EQ(snap.histograms.count("engine.chunk_ns"), 1u);
  EXPECT_EQ(snap.histograms.at("engine.chunk_ns").count, 1u);
}

TEST(ObsRegistry, NullBlockAndNoRegistryAreNoOps) {
  obs::ChunkScope scope(nullptr);  // metrics disabled: arms nothing
  obs::counter_add(obs::Counter::kEngineTrials, 7);
  obs::gauge_set(obs::Gauge::kEngineThreads, 3.0);
  obs::hist_record(obs::Hist::kEngineCallNanos, 9);
  obs::series_append("x", 1.0, 2.0);
  obs::tag_kernel(obs::KernelTag::kReadout);  // no block: also a no-op
  scope.finish(7);
  SUCCEED();  // contract: no registry installed, nothing to crash into
}

TEST(ObsRegistry, KernelTagFirstWinsAndConflictDegradesToMixed) {
  obs::MetricsBlock homogeneous;
  {
    obs::ChunkScope scope(&homogeneous);
    obs::tag_kernel(obs::KernelTag::kLlg);
    obs::tag_kernel(obs::KernelTag::kLlg);  // re-stamping the tag is fine
    scope.finish(3);
  }
  EXPECT_EQ(homogeneous.tag, obs::KernelTag::kLlg);

  obs::MetricsBlock mixed;
  {
    obs::ChunkScope scope(&mixed);
    obs::tag_kernel(obs::KernelTag::kReadout);
    obs::tag_kernel(obs::KernelTag::kRare);  // second kernel: degrade
    scope.finish(3);
  }
  EXPECT_EQ(mixed.tag, obs::KernelTag::kMixed);
}

// --- perf counter groups ----------------------------------------------------

TEST(ObsPerf, RegistryFoldsChunkDeltasUnderTheKernelTag) {
  // Synthetic samples exercise the fold exactly like a PMU would feed it,
  // so the attribution machinery is testable on hosts with no PMU at all.
  obs::MetricsBlock block;
  block.tag = obs::KernelTag::kLlg;
  block.perf_begin.valid = true;
  block.perf_begin.value = {100, 200, 30, 4, 5, 60};
  block.perf_begin.time_enabled = 1000;
  block.perf_begin.time_running = 1000;
  block.perf_end.valid = true;
  block.perf_end.value = {1100, 2200, 130, 29, 21, 560};
  block.perf_end.time_enabled = 3000;
  block.perf_end.time_running = 2000;

  obs::Registry reg;
  reg.merge_block(block);
  const obs::Snapshot snap = reg.snapshot();
  // Per-tag keys and the cross-tag totals, all exact u64 deltas.
  EXPECT_EQ(snap.counters.at("perf.llg.chunks"), 1u);
  EXPECT_EQ(snap.counters.at("perf.llg.cycles"), 1000u);
  EXPECT_EQ(snap.counters.at("perf.llg.instructions"), 2000u);
  EXPECT_EQ(snap.counters.at("perf.cycles"), 1000u);
  EXPECT_EQ(snap.counters.at("perf.cache_refs"), 100u);
  EXPECT_EQ(snap.counters.at("perf.cache_misses"), 25u);
  EXPECT_EQ(snap.counters.at("perf.branch_misses"), 16u);
  EXPECT_EQ(snap.counters.at("perf.stalled_backend"), 500u);
  EXPECT_EQ(snap.counters.at("perf.chunks"), 1u);
  EXPECT_EQ(snap.counters.at("perf.time_enabled_ns"), 2000u);
  EXPECT_EQ(snap.counters.at("perf.time_running_ns"), 1000u);

  // A chunk without valid bracketing samples contributes no perf keys.
  obs::Registry bare;
  bare.merge_block(obs::MetricsBlock{});
  EXPECT_EQ(bare.snapshot().counters.count("perf.chunks"), 0u);
}

TEST(ObsPerf, ProbeClassifiesUnavailabilityInsteadOfFailing) {
  const obs::PerfStatus st = obs::perf_probe();
  if (st.available) {
    EXPECT_EQ(st.fallback, obs::PerfFallback::kNone);
    EXPECT_EQ(st.error, 0);
  } else {
    // Containers/VMs commonly land here (EPERM via perf_event_paranoid or
    // seccomp; ENOENT with the PMU hidden): a classified reason plus a
    // human-readable detail line, never a throw.
    EXPECT_NE(st.fallback, obs::PerfFallback::kNone);
    EXPECT_FALSE(st.detail.empty());
  }
}

TEST(ObsPerf, SoftwareGroupReadsAreMonotone) {
  // The hardware set needs a PMU, but the group machinery (open, group
  // read layout, enable/reset ioctls) is identical for software events,
  // which work even where the PMU is hidden.
  obs::PerfGroup group;
  const obs::PerfStatus st = group.open_software();
  if (!st.available) {
    GTEST_SKIP() << "perf_event_open unavailable here: " << st.detail;
  }
  ASSERT_TRUE(group.is_open());
  ASSERT_EQ(group.n_events(), 3u);

  obs::PerfSample a, b;
  ASSERT_TRUE(group.read(a));
  EXPECT_TRUE(a.valid);
  volatile double sink = 0.0;  // burn task-clock between the two reads
  for (int i = 0; i < 200000; ++i) sink = sink + 0.5;
  ASSERT_TRUE(group.read(b));
  for (std::size_t e = 0; e < group.n_events(); ++e) {
    EXPECT_GE(b.value[e], a.value[e]) << "event " << e;
  }
  EXPECT_GT(b.value[0], a.value[0]);  // task-clock (the leader) advanced
  EXPECT_GT(b.time_enabled, a.time_enabled);

  group.close();
  EXPECT_FALSE(group.is_open());
  obs::PerfSample after;
  EXPECT_FALSE(group.read(after));
  EXPECT_FALSE(after.valid);
}

// --- derived efficiency report ----------------------------------------------

TEST(ObsDerived, RatiosComeFromFoldedTotals) {
  obs::Snapshot s;
  s.counters["engine.trials"] = 1000;
  s.counters["engine.busy_ns"] = 2'000'000;
  s.counters["perf.cycles"] = 4000;
  s.counters["perf.instructions"] = 8000;
  s.counters["perf.cache_refs"] = 100;
  s.counters["perf.cache_misses"] = 25;
  s.counters["perf.branch_misses"] = 16;
  s.counters["perf.stalled_backend"] = 1000;
  s.counters["perf.time_enabled_ns"] = 1000;
  s.counters["perf.time_running_ns"] = 500;
  s.counters["llg.flops"] = 40000;
  s.counters["perf.llg.cycles"] = 4000;

  const auto d = obs::derived_metrics(s);
  EXPECT_DOUBLE_EQ(d.at("perf.ipc"), 2.0);
  EXPECT_DOUBLE_EQ(d.at("perf.cycles_per_trial"), 4.0);
  EXPECT_DOUBLE_EQ(d.at("perf.cache_miss_rate"), 0.25);
  EXPECT_DOUBLE_EQ(d.at("perf.branch_miss_per_kinsn"), 2.0);
  EXPECT_DOUBLE_EQ(d.at("perf.stalled_backend_frac"), 0.25);
  EXPECT_DOUBLE_EQ(d.at("perf.multiplex_frac"), 0.5);
  EXPECT_DOUBLE_EQ(d.at("llg.est_flops_per_cycle"), 10.0);
  EXPECT_DOUBLE_EQ(d.at("engine.ns_per_trial"), 2000.0);
  EXPECT_DOUBLE_EQ(d.at("engine.trials_per_sec"), 5e5);
}

TEST(ObsDerived, SoftwareFallbackRowsNeedNoHardwareCounters) {
  // This IS the efficiency report on hosts where perf_event_open fails:
  // steady-clock busy time over retired trials, nothing hardware-derived.
  obs::Snapshot s;
  s.counters["engine.trials"] = 10;
  s.counters["engine.busy_ns"] = 100;
  const auto d = obs::derived_metrics(s);
  EXPECT_DOUBLE_EQ(d.at("engine.ns_per_trial"), 10.0);
  EXPECT_EQ(d.count("perf.ipc"), 0u);
  EXPECT_EQ(d.count("llg.est_flops_per_cycle"), 0u);

  // And an empty engine (a failed scenario) derives nothing.
  EXPECT_TRUE(obs::derived_metrics(obs::Snapshot{}).empty());
}

// --- JSON parser ------------------------------------------------------------

TEST(ObsJson, ParsesValuesAndKeepsU64Exact) {
  const auto v = obs::json_parse(
      R"({"a": 1, "b": [true, null, "x\nA"], "c": -2.5,
          "big": 9007199254740993, "max": 18446744073709551615})");
  ASSERT_TRUE(v.is(obs::JsonValue::Kind::kObject));
  EXPECT_EQ(v.expect("a", "a").as_u64("a"), 1u);
  const auto& b = v.expect("b", "b");
  ASSERT_EQ(b.array.size(), 3u);
  EXPECT_TRUE(b.array[0].boolean);
  EXPECT_TRUE(b.array[1].is(obs::JsonValue::Kind::kNull));
  EXPECT_EQ(b.array[2].as_string("b[2]"), "x\nA");
  EXPECT_DOUBLE_EQ(v.expect("c", "c").as_number("c"), -2.5);
  EXPECT_FALSE(v.expect("c", "c").is_u64);
  // 2^53 + 1 is not representable as a double; the u64 fast path keeps it.
  EXPECT_TRUE(v.expect("big", "big").is_u64);
  EXPECT_EQ(v.expect("big", "big").as_u64("big"), 9007199254740993ull);
  EXPECT_EQ(v.expect("max", "max").as_u64("max"), ~std::uint64_t{0});
  EXPECT_EQ(v.get("absent"), nullptr);
}

TEST(ObsJson, RejectsMalformedInput) {
  EXPECT_THROW(obs::json_parse("{"), util::ConfigError);
  EXPECT_THROW(obs::json_parse("[1,]"), util::ConfigError);
  EXPECT_THROW(obs::json_parse("{'a': 1}"), util::ConfigError);
  EXPECT_THROW(obs::json_parse(R"({"a": 1 "b": 2})"), util::ConfigError);
  EXPECT_THROW(obs::json_parse("1 trailing"), util::ConfigError);
  EXPECT_THROW(obs::json_parse("\"unterminated"), util::ConfigError);
  EXPECT_THROW(obs::json_parse(""), util::ConfigError);
  EXPECT_THROW(
      obs::json_parse("{\"a\": 1}").expect("a", "a").as_string("a"),
      util::ConfigError);
}

TEST(ObsJson, RejectsDeepNestingWithoutStackOverflow) {
  // The parser recurses once per nesting level: ~100k levels would overflow
  // the stack without the depth cap.
  EXPECT_THROW(obs::json_parse(std::string(100000, '[')), util::ConfigError);
  std::string objects;
  for (int i = 0; i < 100000; ++i) objects += "{\"a\":";
  EXPECT_THROW(obs::json_parse(objects), util::ConfigError);
  // Well-formed but too deep fails as well; a modest depth still parses.
  EXPECT_THROW(obs::json_parse(std::string(300, '[') + std::string(300, ']')),
               util::ConfigError);
  const auto ok = obs::json_parse(std::string(64, '[') + std::string(64, ']'));
  EXPECT_EQ(ok.kind, obs::JsonValue::Kind::kArray);
}

// --- metrics document -------------------------------------------------------

obs::MetricsDoc sample_doc() {
  obs::MetricsDoc doc;
  doc.tool = "mram_scenarios";
  doc.threads = 4;
  doc.seed = 2026;
  auto& s = doc.scenario("sample");
  s.snapshot.counters["engine.trials"] = (1ull << 60) + 3;  // beyond 2^53
  s.snapshot.gauges["engine.threads"] = 4.0;
  obs::Histogram h;
  for (const std::uint64_t v : {1ull, 2ull, 3ull, 1ull << 40}) h.record(v);
  s.snapshot.histograms["engine.chunk_ns"] = h;
  // Two series: the emitter once dropped the comma between series entries,
  // which only a multi-series snapshot can catch.
  s.snapshot.series["rare.is.ess"] = {{1.0, 100.5}, {2.0, 200.25}};
  s.snapshot.series["rare.is.rel_error"] = {{1.0, 0.5}};
  return doc;
}

TEST(ObsMetricsDoc, JsonRoundTripIsLossless) {
  const obs::MetricsDoc doc = sample_doc();
  const obs::MetricsDoc back = obs::parse_metrics_doc(doc.to_json());
  EXPECT_EQ(back.tool, "mram_scenarios");
  EXPECT_EQ(back.threads, 4u);
  EXPECT_EQ(back.seed, 2026u);
  const auto* s = find_scenario(back, "sample");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->snapshot.counters.at("engine.trials"), (1ull << 60) + 3);
  EXPECT_DOUBLE_EQ(s->snapshot.gauges.at("engine.threads"), 4.0);
  const auto& h = s->snapshot.histograms.at("engine.chunk_ns");
  EXPECT_EQ(h.count, 4u);
  EXPECT_EQ(h.total, 6 + (1ull << 40));
  EXPECT_EQ(h.min, 1u);
  EXPECT_EQ(h.max, 1ull << 40);
  EXPECT_EQ(h.buckets[0], 1u);  // 1
  EXPECT_EQ(h.buckets[1], 2u);  // 2, 3
  EXPECT_EQ(h.buckets[40], 1u);
  EXPECT_EQ(s->snapshot.series.at("rare.is.ess"),
            (std::vector<std::pair<double, double>>{{1.0, 100.5},
                                                    {2.0, 200.25}}));
  EXPECT_EQ(s->snapshot.series.at("rare.is.rel_error"),
            (std::vector<std::pair<double, double>>{{1.0, 0.5}}));
}

TEST(ObsMetricsDoc, ParseRejectsWrongSchema) {
  EXPECT_THROW(obs::parse_metrics_doc(
                   R"({"schema": "mram.metrics/999", "scenarios": []})"),
               util::ConfigError);
  EXPECT_THROW(obs::parse_metrics_doc(R"({"scenarios": []})"),
               util::ConfigError);
}

TEST(ObsMetricsDoc, WritesV2AndRejectsV1) {
  // The writer stamps /2, and the reader accepts /2 only: nothing the
  // program reads was ever stamped /1.
  const obs::MetricsDoc doc = sample_doc();
  std::string json = doc.to_json();
  EXPECT_NE(json.find("\"mram.metrics/2\""), std::string::npos);
  EXPECT_NO_THROW(obs::parse_metrics_doc(json));
  const std::string::size_type at = json.find("mram.metrics/2");
  ASSERT_NE(at, std::string::npos);
  json.replace(at, std::string("mram.metrics/2").size(), "mram.metrics/1");
  EXPECT_THROW(obs::parse_metrics_doc(json), util::ConfigError);
}

TEST(ObsMetricsDoc, HistogramJsonCarriesPercentilesAndDerivedSection) {
  obs::MetricsDoc doc = sample_doc();
  // Give the sample enough state for a derived row (busy time + trials).
  doc.scenario("sample").snapshot.counters["engine.busy_ns"] = 1000;
  const std::string json = doc.to_json();
  EXPECT_NE(json.find("\"p50\""), std::string::npos);
  EXPECT_NE(json.find("\"p90\""), std::string::npos);
  EXPECT_NE(json.find("\"p99\""), std::string::npos);
  EXPECT_NE(json.find("\"derived\""), std::string::npos);
  EXPECT_NE(json.find("\"engine.ns_per_trial\""), std::string::npos);
  // Both sections are recomputed at emission time, never parsed back: the
  // round trip through parse() must still succeed and stay lossless.
  const obs::MetricsDoc back = obs::parse_metrics_doc(json);
  const auto* s = find_scenario(back, "sample");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->snapshot.histograms.at("engine.chunk_ns").count, 4u);
}

// --- trace recorder ---------------------------------------------------------

TEST(ObsTrace, EmitsParseableChromeTraceJson) {
  obs::TraceRecorder rec;
  {
    obs::ScopedTrace guard(&rec);
    obs::TraceSpan span("unit", [] { return std::string("hello \"span\""); });
  }
  const auto doc = obs::json_parse(rec.to_json("test_proc"));
  const auto& events = doc.expect("traceEvents", "traceEvents");
  ASSERT_TRUE(events.is(obs::JsonValue::Kind::kArray));
  bool saw_span = false, saw_thread_name = false, saw_process_name = false;
  for (const auto& e : events.array) {
    const std::string& ph = e.expect("ph", "ph").as_string("ph");
    EXPECT_EQ(e.expect("pid", "pid").as_u64("pid"), 1u);
    if (ph == "X" && e.expect("name", "name").as_string("name") ==
                         "hello \"span\"") {
      saw_span = true;
      EXPECT_EQ(e.expect("cat", "cat").as_string("cat"), "unit");
      EXPECT_GE(e.expect("dur", "dur").as_number("dur"), 0.0);
      e.expect("ts", "ts");
      e.expect("tid", "tid");
    }
    if (ph == "M") {
      const std::string& name = e.expect("name", "name").as_string("name");
      if (name == "thread_name") saw_thread_name = true;
      if (name == "process_name") {
        saw_process_name = true;
        EXPECT_EQ(e.expect("args", "args")
                      .expect("name", "args.name")
                      .as_string("args.name"),
                  "test_proc");
      }
    }
  }
  EXPECT_TRUE(saw_span);
  EXPECT_TRUE(saw_thread_name);
  EXPECT_TRUE(saw_process_name);
}

TEST(ObsTrace, CapDropsSpansCountsThemAndKeepsTheJsonValid) {
  obs::Registry reg;
  obs::ScopedRegistry rguard(&reg);
  obs::TraceRecorder rec(/*max_spans_per_thread=*/4);
  for (int i = 0; i < 10; ++i) {
    rec.add_span("unit", "s" + std::to_string(i),
                 static_cast<std::uint64_t>(i), 1);
  }
  EXPECT_EQ(rec.dropped(), 6u);
  // Dropping is loss, never corruption: the document still parses and
  // holds exactly the spans that fit under the cap.
  const auto doc = obs::json_parse(rec.to_json("capped"));
  const auto& events = doc.expect("traceEvents", "traceEvents");
  std::size_t spans = 0;
  for (const auto& e : events.array) {
    if (e.expect("ph", "ph").as_string("ph") == "X") ++spans;
  }
  EXPECT_EQ(spans, 4u);
  // The drops surfaced as a metrics counter (serial context here, so it
  // lands in the registry directly).
  EXPECT_EQ(reg.snapshot().counters.at("trace.spans_dropped"), 6u);
}

TEST(ObsTrace, UncappedRecorderDropsNothing) {
  obs::TraceRecorder rec;
  for (int i = 0; i < 100; ++i) rec.add_span("unit", "s", 0, 1);
  EXPECT_EQ(rec.dropped(), 0u);
}

TEST(ObsTrace, DisabledPathNeverBuildsTheName) {
  bool called = false;
  {
    obs::TraceSpan span("unit", [&] {
      called = true;
      return std::string("never");
    });
  }
  EXPECT_FALSE(called);
}

// --- progress gate ----------------------------------------------------------

TEST(ObsProgress, NonLivePrintIsAPassThrough) {
  std::ostringstream err;
  obs::Progress p(err, /*live=*/false);
  p.begin_scenario("demo", 0, 1);
  p.print("status line\n");
  p.finish();
  EXPECT_EQ(err.str(), "status line\n");  // no escape codes, no live line
}

TEST(ObsProgress, LiveLineIsClearedAroundPrints) {
  std::ostringstream err;
  {
    obs::Progress p(err, /*live=*/true);
    p.begin_scenario("demo", 0, 3);
    p.print("status line\n");
    p.end_scenario();
    p.finish();
  }
  const std::string s = err.str();
  EXPECT_NE(s.find("[1/3] demo"), std::string::npos);
  EXPECT_NE(s.find("status line\n"), std::string::npos);
  EXPECT_NE(s.find("\r\x1b[K"), std::string::npos);
  // The verbatim payload is never broken by the live line: the clear
  // sequence always precedes it on a fresh line start.
  EXPECT_NE(s.find("\x1b[Kstatus line\n"), std::string::npos);
}

std::size_t count_redraws(const std::string& s) {
  std::size_t n = 0;
  for (std::string::size_type at = s.find("\r\x1b[K");
       at != std::string::npos; at = s.find("\r\x1b[K", at + 1)) {
    ++n;
  }
  return n;
}

TEST(ObsProgress, RedrawThrottleCoalescesRapidTicksButCountsAllOfThem) {
  std::ostringstream err;
  obs::Progress p(err, /*live=*/true);
  p.begin_scenario("throttle", 0, 1);
  p.begin_call(100000);
  const std::size_t baseline = count_redraws(err.str());

  // 50k ticks land well inside one ~8 Hz redraw interval: at most one of
  // them can win the CAS on the redraw stamp (slack for a slow machine).
  for (int i = 0; i < 50000; ++i) p.add_trials(1);
  EXPECT_LE(count_redraws(err.str()) - baseline, 1u);
  // Every tick counted even though almost none drew.
  EXPECT_EQ(p.trials_done(), 50000u);

  // Once the interval has elapsed, the next tick redraws (ETA included:
  // enough time has passed for the rate estimate to print).
  std::this_thread::sleep_for(std::chrono::milliseconds(130));
  const std::size_t before = count_redraws(err.str());
  p.add_trials(1);
  EXPECT_EQ(count_redraws(err.str()), before + 1);
  EXPECT_EQ(p.trials_done(), 50001u);
  EXPECT_NE(err.str().find("trials/s"), std::string::npos);
  p.finish();
}

TEST(ObsProgress, RunAnnouncesTheWholeCallAndEndsFull) {
  std::ostringstream err;
  obs::Progress progress(err, /*live=*/false);
  obs::ScopedProgress guard(&progress);
  progress.begin_scenario("probe", 0, 1);

  eng::MonteCarloRunner runner(eng::RunnerConfig{.threads = 2});
  const auto trial = [](util::Rng& rng, std::size_t,
                        util::RunningStats& acc) { acc.add(rng.normal()); };
  constexpr std::uint64_t kTrials = 1000;

  // The bar covers the whole call and ends exactly full.
  runner.run<util::RunningStats>(kTrials, 1, trial);
  EXPECT_EQ(progress.trials_total(), kTrials);
  EXPECT_EQ(progress.trials_done(), kTrials);
  progress.end_scenario();
}

// --- integration: instrumentation cannot perturb results --------------------

TEST(ObsRun, MetricsTraceProgressKeepCsvByteIdentical) {
  const auto registry = mc_registry();
  const std::vector<std::string> names{"mc_pair", "mc_solo"};
  const fs::path dir = make_temp_dir("identity");
  const std::string reference = run_csv(registry, base_options(names, 1));
  ASSERT_NE(reference.find("# mc_pair/moments"), std::string::npos);

  for (const unsigned threads : {1u, 4u}) {
    auto opt = base_options(names, threads);
    opt.metrics_file =
        (dir / ("metrics_t" + std::to_string(threads) + ".json")).string();
    opt.trace_file =
        (dir / ("trace_t" + std::to_string(threads) + ".json")).string();
    opt.progress = true;
    opt.perf = true;  // chunk-boundary hardware sampling (or its fallback)
    std::ostringstream out, err;
    ASSERT_EQ(run_scenarios(registry, opt, out, err), 0) << err.str();
    EXPECT_EQ(out.str(), reference) << "threads=" << threads;
    // The live line animated on err but never leaked into the payload.
    EXPECT_NE(err.str().find("\x1b[K"), std::string::npos);
    EXPECT_NE(err.str().find("[1/2] mc_pair"), std::string::npos);
  }
}

TEST(ObsRun, PerfRunReportsHardwareCountersOrTheDocumentedFallback) {
  const auto registry = mc_registry();
  const fs::path dir = make_temp_dir("perfrun");
  auto opt = base_options({"mc_pair"}, 2);
  opt.metrics_file = (dir / "metrics.json").string();
  opt.perf = true;
  std::ostringstream out, err;
  // Unavailability is a reported state, never a failure: exit 0 either way.
  ASSERT_EQ(run_scenarios(registry, opt, out, err), 0) << err.str();

  const std::string raw = slurp(opt.metrics_file);
  EXPECT_NE(raw.find("\"mram.metrics/2\""), std::string::npos);
  EXPECT_NE(raw.find("\"p50\""), std::string::npos);
  EXPECT_NE(raw.find("\"derived\""), std::string::npos);
  // The software efficiency rows are derivable on every host.
  EXPECT_NE(raw.find("\"engine.ns_per_trial\""), std::string::npos);
  // And the summary gained the chunk-latency percentile columns.
  EXPECT_NE(err.str().find("chunk p50"), std::string::npos);

  const auto doc = obs::load_metrics_doc(opt.metrics_file);
  const auto* s = find_scenario(doc, "mc_pair");
  ASSERT_NE(s, nullptr);
  ASSERT_EQ(s->snapshot.gauges.count("perf.active"), 1u);
  if (s->snapshot.gauges.at("perf.active") == 1.0) {
    // Live PMU: real cycle counts and a hardware-derived IPC row.
    EXPECT_GT(counter_of(*s, "perf.cycles"), 0u);
    EXPECT_GT(counter_of(*s, "perf.chunks"), 0u);
    EXPECT_NE(raw.find("\"perf.ipc\""), std::string::npos);
  } else {
    // Degraded host (container/VM): the reason is recorded as a gauge and
    // the console said why, but nothing failed.
    EXPECT_GT(s->snapshot.gauges.at("perf.fallback_reason"), 0.0);
    EXPECT_NE(err.str().find("hardware counters unavailable"),
              std::string::npos);
    EXPECT_EQ(counter_of(*s, "perf.chunks"), 0u);
  }
}

TEST(ObsRun, MetricsDashStreamsOneParseableDocumentToStdout) {
  const auto registry = mc_registry();
  const fs::path dir = make_temp_dir("metrics_dash");
  auto opt = base_options({"mc_solo"}, 2);
  opt.out_dir = (dir / "csv").string();  // results go to files...
  opt.metrics_file = "-";                // ...stdout is the metrics JSON
  std::ostringstream out, err;
  ASSERT_EQ(run_scenarios(registry, opt, out, err), 0) << err.str();
  // The whole stdout payload parses as one document -- pipeable into
  // json.tool with no temp file.
  const auto doc = obs::parse_metrics_doc(out.str());
  ASSERT_NE(find_scenario(doc, "mc_solo"), nullptr);
  // The one-line scenario status moved to the stderr gate to keep it so.
  EXPECT_NE(err.str().find("ok   mc_solo"), std::string::npos);
}

TEST(ObsRun, TraceDashStreamsTheTraceToStdout) {
  const auto registry = mc_registry();
  const fs::path dir = make_temp_dir("trace_dash");
  auto opt = base_options({"mc_solo"}, 2);
  opt.out_dir = (dir / "csv").string();
  opt.trace_file = "-";
  std::ostringstream out, err;
  ASSERT_EQ(run_scenarios(registry, opt, out, err), 0) << err.str();
  const auto doc = obs::json_parse(out.str());
  EXPECT_TRUE(doc.expect("traceEvents", "traceEvents")
                  .is(obs::JsonValue::Kind::kArray));
}

TEST(ObsRun, PerfWithoutMetricsIsAConfigError) {
  const auto registry = mc_registry();
  auto opt = base_options({"mc_solo"}, 1);
  opt.perf = true;  // no metrics_file: nowhere for the efficiency report
  std::ostringstream out, err;
  EXPECT_THROW(run_scenarios(registry, opt, out, err), util::ConfigError);
}

TEST(ObsRun, MetricsFileMatchesTheSchemaAndTheTrialCounts) {
  const auto registry = mc_registry();
  const fs::path dir = make_temp_dir("metrics");
  auto opt = base_options({"mc_pair", "mc_solo"}, 4);
  opt.metrics_file = (dir / "metrics.json").string();
  run_csv(registry, opt);

  const auto doc = obs::load_metrics_doc(opt.metrics_file);
  EXPECT_EQ(doc.tool, "mram_scenarios");
  EXPECT_EQ(doc.threads, 4u);
  EXPECT_EQ(doc.seed, 2026u);
  const auto* pair = find_scenario(doc, "mc_pair");
  const auto* solo = find_scenario(doc, "mc_solo");
  ASSERT_NE(pair, nullptr);
  ASSERT_NE(solo, nullptr);
  // Extensive counters are exact regardless of the thread count.
  EXPECT_EQ(counter_of(*pair, "engine.trials"), 3500u);
  EXPECT_EQ(counter_of(*pair, "engine.calls"), 2u);
  EXPECT_EQ(counter_of(*solo, "engine.trials"), 900u);
  EXPECT_EQ(counter_of(*solo, "engine.calls"), 1u);
  // Per-chunk wall times fold one histogram entry per chunk.
  const auto& chunk_hist = pair->snapshot.histograms.at("engine.chunk_ns");
  EXPECT_EQ(chunk_hist.count, counter_of(*pair, "engine.chunks"));
  EXPECT_GT(counter_of(*pair, "engine.busy_ns"), 0u);
  EXPECT_DOUBLE_EQ(pair->snapshot.gauges.at("engine.threads"), 4.0);
}

TEST(ObsRun, LadderSolvesCountEveryOperatingPointAndKeepCsvByteIdentical) {
  // sense_margin_ir_drop takes one operating point, one ladder solve each,
  // per (grid row, column pattern) -- 5 x 3 -- and per (row, device) of
  // its margin distribution -- 2 x 100 at trial scale 0.25.
  const auto& registry = ScenarioRegistry::global();
  auto plain = base_options({"sense_margin_ir_drop"}, 2);
  plain.trial_scale = 0.25;
  const std::string reference = run_csv(registry, plain);

  const fs::path dir = make_temp_dir("ladder");
  auto opt = plain;
  opt.metrics_file = (dir / "metrics.json").string();
  EXPECT_EQ(run_csv(registry, opt), reference);

  const auto doc = obs::load_metrics_doc(opt.metrics_file);
  const auto* s = find_scenario(doc, "sense_margin_ir_drop");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(counter_of(*s, "engine.trials"), 200u);
  EXPECT_EQ(counter_of(*s, "readout.ladder_solves"), 5u * 3u + 2u * 100u);
  EXPECT_GT(counter_of(*s, "readout.ladder_ns"), 0u);
}

TEST(ObsRun, TraceFileHoldsScenarioAndChunkSpans) {
  const auto registry = mc_registry();
  const fs::path dir = make_temp_dir("trace");
  auto opt = base_options({"mc_pair"}, 2);
  opt.trace_file = (dir / "trace.json").string();
  run_csv(registry, opt);

  const auto doc = obs::json_parse(slurp(opt.trace_file));
  const auto& events = doc.expect("traceEvents", "traceEvents");
  ASSERT_TRUE(events.is(obs::JsonValue::Kind::kArray));
  bool saw_scenario = false, saw_chunk = false, saw_process = false;
  for (const auto& e : events.array) {
    const std::string& ph = e.expect("ph", "ph").as_string("ph");
    if (ph == "X") {
      const std::string& cat = e.expect("cat", "cat").as_string("cat");
      const std::string& name = e.expect("name", "name").as_string("name");
      if (cat == "scenario" && name == "mc_pair") saw_scenario = true;
      if (cat == "engine" && name.rfind("chunk ", 0) == 0) saw_chunk = true;
    } else if (ph == "M" &&
               e.expect("name", "name").as_string("name") == "process_name") {
      saw_process =
          e.expect("args", "args").expect("name", "n").as_string("n") ==
          "mram_scenarios";
    }
  }
  EXPECT_TRUE(saw_scenario);
  EXPECT_TRUE(saw_chunk);
  EXPECT_TRUE(saw_process);
}

TEST(ObsRun, QuietSuppressesTheSummaryButNotTheExitCode) {
  const auto registry = mc_registry();
  {
    auto opt = base_options({"mc_solo"}, 1);
    std::ostringstream out, err;
    ASSERT_EQ(run_scenarios(registry, opt, out, err), 0);
    EXPECT_NE(err.str().find("run summary"), std::string::npos);
  }
  {
    auto opt = base_options({"mc_solo"}, 1);
    opt.quiet = true;
    std::ostringstream out, err;
    ASSERT_EQ(run_scenarios(registry, opt, out, err), 0);
    EXPECT_EQ(err.str(), "");  // success is silent on stderr
    EXPECT_NE(out.str().find("# mc_solo/u"), std::string::npos);
  }
  {
    auto opt = base_options({"missing"}, 1);
    opt.quiet = true;
    std::ostringstream out, err;
    EXPECT_THROW(run_scenarios(registry, opt, out, err), util::ConfigError);
  }
}

}  // namespace
}  // namespace mram::scn
