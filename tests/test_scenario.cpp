// Tests for src/scenario: registry lookup/describe, grid expansion edge
// cases, CSV/JSON writer round-trips, and serial-vs-parallel bit identity
// of seeded scenario runs.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include "characterization/calibration.h"
#include "scenario/registry.h"
#include "scenario/result_sink.h"
#include "scenario/run_command.h"
#include "scenario/sweep.h"
#include "util/csv.h"
#include "util/error.h"

namespace mram::scn {
namespace {

// --- registry ---------------------------------------------------------------

TEST(ScenarioRegistry, GlobalHoldsTheBuiltinCatalog) {
  const auto& registry = ScenarioRegistry::global();
  EXPECT_GE(registry.size(), 15u);
  const auto names = registry.names();
  EXPECT_EQ(names.size(), registry.size());
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
  // The flagship figures are present.
  for (const char* name : {"fig2a_rh_loop", "fig2b_intra_vs_ecd", "fig5_tw",
                           "wer_pulse_width", "yield_vs_pitch"}) {
    EXPECT_NE(registry.find(name), nullptr) << name;
  }
}

TEST(ScenarioRegistry, DescribeMetadataIsComplete) {
  const auto& registry = ScenarioRegistry::global();
  for (const auto& name : registry.names()) {
    const auto& info = registry.at(name).info;
    EXPECT_EQ(info.name, name);
    EXPECT_FALSE(info.figure.empty()) << name;
    EXPECT_FALSE(info.summary.empty()) << name;
    EXPECT_FALSE(info.details.empty()) << name;
    EXPECT_FALSE(info.params.empty()) << name << " has no parameter schema";
  }
}

TEST(ScenarioRegistry, LookupErrors) {
  const auto& registry = ScenarioRegistry::global();
  EXPECT_EQ(registry.find("no_such_scenario"), nullptr);
  EXPECT_THROW(registry.at("no_such_scenario"), util::ConfigError);
}

TEST(ScenarioRegistry, RejectsDuplicatesAndInvalid) {
  ScenarioRegistry registry;
  Scenario s;
  s.info.name = "dup";
  s.run = [](ScenarioContext&) { return ResultSet{}; };
  registry.add(s);
  EXPECT_THROW(registry.add(s), util::ConfigError);

  Scenario unnamed;
  unnamed.run = s.run;
  EXPECT_THROW(registry.add(unnamed), util::ConfigError);

  Scenario runless;
  runless.info.name = "runless";
  EXPECT_THROW(registry.add(runless), util::ConfigError);
}

TEST(ScenarioRegistry, ReadoutScenariosAreRegistered) {
  const auto& registry = ScenarioRegistry::global();
  for (const char* name :
       {"rer_vs_read_voltage", "rer_vs_tmr", "sense_margin_ir_drop",
        "read_disturb_vs_pulse", "read_retention_word", "march_read_path"}) {
    ASSERT_NE(registry.find(name), nullptr) << name;
    EXPECT_EQ(registry.at(name).info.figure, "Readout") << name;
  }
}

TEST(ScenarioRegistry, FiltersByFigureTag) {
  const auto& registry = ScenarioRegistry::global();
  // Case-insensitive substring: "readout", "Readout" and "READ" all match.
  const auto lower = registry.names_by_figure("readout");
  EXPECT_EQ(lower.size(), 6u);
  EXPECT_EQ(registry.names_by_figure("Readout"), lower);
  EXPECT_GE(registry.names_by_figure("READ").size(), lower.size());
  for (const auto& name : lower) {
    EXPECT_EQ(registry.at(name).info.figure, "Readout") << name;
  }
  // Unmatched tags select nothing; the empty tag selects everything.
  EXPECT_TRUE(registry.names_by_figure("no_such_figure").empty());
  EXPECT_EQ(registry.names_by_figure("").size(), registry.size());
}

// --- grid expansion ---------------------------------------------------------

TEST(Grid, StepAxisHasExactCount) {
  // The former floating-point loop `for (vp = 0.70; vp <= 1.205; vp += 0.05)`
  // as an integer-indexed axis: exactly 11 points, each computed by index
  // multiplication, on every platform.
  const auto axis = GridAxis::step("vp", 0.70, 0.05, 11);
  ASSERT_EQ(axis.size(), 11u);
  EXPECT_DOUBLE_EQ(axis.values.front(), 0.70);
  EXPECT_DOUBLE_EQ(axis.values.back(), 0.70 + 10 * 0.05);
  for (std::size_t i = 0; i < axis.size(); ++i) {
    EXPECT_DOUBLE_EQ(axis.values[i], 0.70 + static_cast<double>(i) * 0.05);
  }
}

TEST(Grid, SinglePointAxes) {
  EXPECT_EQ(GridAxis::step("x", 2.0, 0.5, 1).values,
            std::vector<double>{2.0});
  const Grid grid(GridAxis::list("x", {42.0}));
  ASSERT_EQ(grid.size(), 1u);
  EXPECT_DOUBLE_EQ(grid.point(0).x, 42.0);
}

TEST(Grid, EmptyRangeYieldsEmptyGrid) {
  EXPECT_EQ(GridAxis::step("x", 0.0, 1.0, 0).size(), 0u);

  const Grid empty(GridAxis::list("x", {}));
  EXPECT_EQ(empty.size(), 0u);
  // A 2-D grid with one empty axis is empty as a whole.
  const Grid half_empty(GridAxis::list("x", {1.0, 2.0}),
                        GridAxis::list("y", {}));
  EXPECT_EQ(half_empty.size(), 0u);

  // Sweeping an empty grid produces a well-formed table with no rows.
  eng::MonteCarloRunner runner(eng::RunnerConfig{.threads = 1});
  SweepDriver driver(runner, 1);
  const auto table = driver.sweep(
      "empty", "empty", {"x"}, empty,
      [](const SweepPoint&) -> std::vector<Cell> { return {Cell(0.0)}; });
  EXPECT_EQ(table.rows.size(), 0u);
  EXPECT_EQ(table.columns.size(), 1u);
}

TEST(Grid, TwoDimensionalRowMajorOrder) {
  const Grid grid(GridAxis::list("outer", {10.0, 20.0}),
                  GridAxis::list("inner", {1.0, 2.0, 3.0}));
  ASSERT_EQ(grid.size(), 6u);
  EXPECT_DOUBLE_EQ(grid.point(0).x, 10.0);
  EXPECT_DOUBLE_EQ(grid.point(0).y, 1.0);
  EXPECT_DOUBLE_EQ(grid.point(2).y, 3.0);
  EXPECT_DOUBLE_EQ(grid.point(3).x, 20.0);
  EXPECT_DOUBLE_EQ(grid.point(3).y, 1.0);
  EXPECT_DOUBLE_EQ(grid.point(5).y, 3.0);
  EXPECT_THROW(grid.point(6), util::ContractViolation);
}

TEST(SweepDriver, PointSeedsAreDeterministicAndDistinct) {
  eng::MonteCarloRunner runner(eng::RunnerConfig{.threads = 1});
  const SweepDriver a(runner, 99), b(runner, 99), c(runner, 100);
  EXPECT_EQ(a.point_seed(0), b.point_seed(0));
  EXPECT_EQ(a.point_seed(7), b.point_seed(7));
  EXPECT_NE(a.point_seed(0), a.point_seed(1));
  EXPECT_NE(a.point_seed(0), c.point_seed(0));
}

// --- result tables and sinks ------------------------------------------------

ResultSet numeric_results() {
  ResultSet results;
  auto& t = results.add("series", "a numeric series", {"x", "y", "z"});
  t.add_row({Cell(1.0, 4), Cell(-2.5, 4), Cell(0.125, 4)});
  t.add_row({Cell(2.0, 4), Cell(3.75, 4), Cell(-0.0625, 4)});
  results.notes.push_back("note");
  return results;
}

TEST(ResultTable, RowWidthIsChecked) {
  ResultTable t;
  t.name = "t";
  t.columns = {"a", "b"};
  EXPECT_THROW(t.add_row({Cell(1.0)}), util::ConfigError);
}

TEST(ResultSink, CsvRoundTripsThroughTheRepoParser) {
  const auto results = numeric_results();
  const auto doc = util::parse_numeric_csv(results.tables[0].to_csv());
  ASSERT_EQ(doc.header.size(), 3u);
  EXPECT_EQ(doc.header[1], "y");
  ASSERT_EQ(doc.rows.size(), 2u);
  EXPECT_DOUBLE_EQ(doc.rows[0][1], -2.5);
  EXPECT_DOUBLE_EQ(doc.rows[1][2], -0.0625);
}

TEST(ResultSink, CsvQuotesSpecialCells) {
  ResultSet results;
  auto& t = results.add("q", "quoting", {"name", "value"});
  t.add_row({Cell("comma, inside"), Cell(1.0, 2)});
  t.add_row({Cell("quote \" inside"), Cell(2.0, 2)});
  const std::string csv = t.to_csv();
  EXPECT_NE(csv.find("\"comma, inside\""), std::string::npos);
  EXPECT_NE(csv.find("\"quote \"\" inside\""), std::string::npos);
}

TEST(ResultSink, JsonEscapesAndTypesCells) {
  const std::string escaped = json_escape("a\"b\\c\nd\te");
  EXPECT_EQ(escaped, "a\\\"b\\\\c\\nd\\te");

  ResultSet results;
  auto& t = results.add("mixed", "mixed cells", {"label", "v"});
  t.add_row({Cell("say \"hi\""), Cell(2.5, 2)});
  const ScenarioInfo info{"unit", "Test", "summary", "details", {}};
  const RunMeta meta{7, 2, 1.0};
  const std::string doc = to_json(info, meta, results);

  // Numeric cells are bare JSON numbers; strings are escaped and quoted.
  EXPECT_NE(doc.find("[\"say \\\"hi\\\"\", 2.50]"), std::string::npos) << doc;
  EXPECT_NE(doc.find("\"scenario\": \"unit\""), std::string::npos);
  EXPECT_NE(doc.find("\"seed\": 7"), std::string::npos);
  EXPECT_NE(doc.find("\"threads\": 2"), std::string::npos);

  // Balanced braces/brackets (a cheap structural sanity check).
  EXPECT_EQ(std::count(doc.begin(), doc.end(), '{'),
            std::count(doc.begin(), doc.end(), '}'));
  EXPECT_EQ(std::count(doc.begin(), doc.end(), '['),
            std::count(doc.begin(), doc.end(), ']'));
}

TEST(ResultSink, StreamSinksEmitEveryTable) {
  const auto results = numeric_results();
  const ScenarioInfo info{"unit", "Test", "summary", "details", {}};
  const RunMeta meta{1, 1, 1.0};

  std::ostringstream text;
  TextSink(text).write(info, meta, results);
  EXPECT_NE(text.str().find("a numeric series"), std::string::npos);
  EXPECT_NE(text.str().find("note"), std::string::npos);

  std::ostringstream csv;
  CsvSink(csv).write(info, meta, results);
  EXPECT_NE(csv.str().find("# unit/series"), std::string::npos);
  EXPECT_NE(csv.str().find("x,y,z"), std::string::npos);

  EXPECT_THROW(make_sink("yaml", std::cout, ""), util::ConfigError);
}

// --- scaled trials ----------------------------------------------------------

TEST(ScenarioContext, ScaledTrialsFloorsAtOne) {
  eng::MonteCarloRunner runner(eng::RunnerConfig{.threads = 1});
  ScenarioContext ctx{runner};
  EXPECT_EQ(ctx.scaled_trials(100), 100u);
  ctx.trial_scale = 0.25;
  EXPECT_EQ(ctx.scaled_trials(100), 25u);
  ctx.trial_scale = 1e-9;
  EXPECT_EQ(ctx.scaled_trials(100), 1u);
}

// --- anchor data directory ---------------------------------------------------

TEST(ScenarioContext, AnchorsFallBackOnlyWhenTheFileIsMissing) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() / "mram_scenario_anchors";
  fs::remove_all(dir);
  fs::create_directories(dir);
  eng::MonteCarloRunner runner(eng::RunnerConfig{.threads = 1});
  ScenarioContext ctx{runner};
  ctx.data_dir = dir.string();

  // No anchor file in the data directory: the compiled-in set.
  const auto builtin = chr::fig2b_anchors();
  const auto fallback = ctx.fig2b_anchor_set();
  ASSERT_EQ(fallback.size(), builtin.size());
  for (std::size_t i = 0; i < builtin.size(); ++i) {
    EXPECT_EQ(fallback[i].ecd, builtin[i].ecd);
    EXPECT_EQ(fallback[i].hz_intra, builtin[i].hz_intra);
    EXPECT_EQ(fallback[i].weight, builtin[i].weight);
  }

  // A present but malformed file is an input error naming path:line.
  const std::string path = (dir / "fig2b_anchors.csv").string();
  util::write_text_file(path, "ecd_nm, hz_oe, weight\n20, -500, 1\n"
                              "35, -100, -1\n");
  try {
    ctx.fig2b_anchor_set();
    ADD_FAILURE() << "malformed anchors fell back to the built-ins";
  } catch (const util::ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find(path + ":3"), std::string::npos)
        << e.what();
  }

  // A well-formed file is what the scenarios use.
  util::write_text_file(path, "ecd_nm, hz_oe, weight\n20, -500, 1\n");
  ASSERT_EQ(ctx.fig2b_anchor_set().size(), 1u);
  fs::remove_all(dir);
}

// --- serial vs parallel bit identity ----------------------------------------

std::string run_to_csv(const std::string& name, unsigned threads,
                       std::uint64_t seed) {
  eng::RunnerConfig cfg;
  cfg.threads = threads;
  eng::MonteCarloRunner runner(cfg);
  ScenarioContext ctx{runner};
  ctx.seed = seed;
  ctx.trial_scale = 0.25;  // keep the stochastic scenarios test-sized
  const auto& scenario = ScenarioRegistry::global().at(name);
  const ResultSet results = scenario.run(ctx);
  std::string csv;
  for (const auto& table : results.tables) csv += table.to_csv();
  return csv;
}

TEST(ScenarioDeterminism, SeededRunsAreBitIdenticalAcrossThreadCounts) {
  // The acceptance contract: a seeded scenario emits byte-identical CSV on
  // 1 thread and on 4. Covers the heaviest runner users, including the
  // batched stochastic-LLG read-disturb path.
  for (const char* name : {"wer_pulse_width", "fig2b_intra_vs_ecd",
                           "rer_vs_read_voltage", "read_disturb_vs_pulse"}) {
    const std::string serial = run_to_csv(name, 1, 31337);
    const std::string parallel = run_to_csv(name, 4, 31337);
    EXPECT_EQ(serial, parallel) << name;
    EXPECT_FALSE(serial.empty()) << name;
  }
}

TEST(ScenarioDeterminism, DifferentSeedsChangeStochasticResults) {
  const std::string a = run_to_csv("wer_pulse_width", 2, 1);
  const std::string b = run_to_csv("wer_pulse_width", 2, 2);
  EXPECT_NE(a, b);
}

// --- run command (the CLI's run pipeline) ------------------------------------

/// Lines of `text` that render a table row holding `cell` (the aligned-text
/// sink pads cells, so match " cell |" inside a '|'-framed line).
std::size_t table_rows_mentioning(const std::string& text,
                                  const std::string& cell) {
  std::size_t rows = 0;
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    rows += !line.empty() && line.front() == '|' &&
            line.find(" " + cell + " |") != std::string::npos;
  }
  return rows;
}

ScenarioRegistry tiny_registry() {
  ScenarioRegistry registry;
  auto make = [](const char* name) {
    Scenario s;
    s.info.name = name;
    s.info.figure = "Test";
    s.info.summary = "tiny";
    s.run = [](ScenarioContext&) {
      ResultSet out;
      out.add("t", "tiny table", {"x"}).add_row({Cell(1.0, 1)});
      return out;
    };
    return s;
  };
  registry.add(make("tiny_alpha"));
  registry.add(make("tiny_beta"));
  Scenario failing;
  failing.info.name = "tiny_failing";
  failing.info.figure = "Test";
  failing.info.summary = "always throws";
  failing.run = [](ScenarioContext&) -> ResultSet {
    throw util::ConfigError("deliberate test failure");
  };
  registry.add(failing);
  return registry;
}

TEST(RunCommand, SummaryTableHasOneRowPerScenario) {
  // The stderr per-scenario timing table: parses as one row per scenario
  // with its status.
  const auto registry = tiny_registry();
  RunCommandOptions opt;
  opt.names = {"tiny_alpha", "tiny_beta"};
  opt.format = "csv";
  std::ostringstream out, err;
  EXPECT_EQ(run_scenarios(registry, opt, out, err), 0);
  const std::string log = err.str();
  EXPECT_NE(log.find("run summary"), std::string::npos);
  EXPECT_NE(log.find("scenario |"), std::string::npos);
  EXPECT_NE(log.find("wall (s)"), std::string::npos);
  EXPECT_EQ(table_rows_mentioning(log, "tiny_alpha"), 1u);
  EXPECT_EQ(table_rows_mentioning(log, "tiny_beta"), 1u);
  // Results (CSV with per-table comment separators) went to `out`,
  // untouched by the summary.
  EXPECT_NE(out.str().find("# tiny_alpha/t"), std::string::npos);
  EXPECT_EQ(out.str().find("run summary"), std::string::npos);
}

TEST(RunCommand, SummaryReportsEstimatorQualityColumns) {
  // Scenarios that fill ResultSet::effective_trials / rel_error get them
  // rendered in the stderr summary; the others show "-" placeholders.
  ScenarioRegistry registry = tiny_registry();
  Scenario deep;
  deep.info.name = "tiny_deep";
  deep.info.figure = "Test";
  deep.info.summary = "reports estimator quality";
  deep.run = [](ScenarioContext&) {
    ResultSet out;
    out.add("t", "tiny table", {"x"}).add_row({Cell(1.0, 1)});
    out.effective_trials = 2.5e9;
    out.rel_error = 0.073;
    return out;
  };
  registry.add(deep);

  RunCommandOptions opt;
  opt.names = {"tiny_alpha", "tiny_deep"};
  opt.format = "csv";
  std::ostringstream out, err;
  EXPECT_EQ(run_scenarios(registry, opt, out, err), 0);
  const std::string log = err.str();
  EXPECT_NE(log.find("eff. trials"), std::string::npos);
  EXPECT_NE(log.find("rel err"), std::string::npos);
  EXPECT_NE(log.find("2.50e+09"), std::string::npos);
  EXPECT_NE(log.find("7.30e-02"), std::string::npos);
  EXPECT_EQ(table_rows_mentioning(log, "-"), 1u);  // only tiny_alpha's row
}

TEST(RunCommand, SingleScenarioStillPrintsTheSummary) {
  // Regression: the summary used to be gated on names.size() > 1, silently
  // dropping eff. trials / rel err / wall-clock for single-scenario runs --
  // the common case when iterating on one scenario.
  const auto registry = tiny_registry();
  RunCommandOptions opt;
  opt.names = {"tiny_alpha"};
  opt.format = "csv";
  std::ostringstream out, err;
  EXPECT_EQ(run_scenarios(registry, opt, out, err), 0);
  const std::string log = err.str();
  EXPECT_NE(log.find("run summary"), std::string::npos);
  EXPECT_EQ(table_rows_mentioning(log, "tiny_alpha"), 1u);
}

TEST(RunCommand, FailuresSetTheExitCodeAndSummaryStatus) {
  const auto registry = tiny_registry();
  RunCommandOptions opt;
  opt.names = {"tiny_alpha", "tiny_failing"};
  opt.format = "csv";
  std::ostringstream out, err;
  EXPECT_EQ(run_scenarios(registry, opt, out, err), 1);
  const std::string log = err.str();
  EXPECT_NE(log.find("FAIL tiny_failing: deliberate test failure"),
            std::string::npos);
  EXPECT_EQ(table_rows_mentioning(log, "tiny_failing"), 1u);
  EXPECT_NE(log.find("1 of 2 scenarios failed"), std::string::npos);
}

TEST(RunCommand, EmptySelectionIsAUsageError) {
  const auto registry = tiny_registry();
  RunCommandOptions opt;
  std::ostringstream out, err;
  EXPECT_EQ(run_scenarios(registry, opt, out, err), 2);
  EXPECT_NE(err.str().find("no scenarios selected"), std::string::npos);
}

}  // namespace
}  // namespace mram::scn
