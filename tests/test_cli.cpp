// Exit-code and stderr contract of the scenario command-line tool, driven
// through scenarios_main with stream doubles (no subprocesses).
// The convention under test: 0 ok, 1 bad value / scenario failure
// (ConfigError), 2 structural misuse (unknown command/option, run-only flag
// on list/describe) with the usage text.

#include <gtest/gtest.h>

#include <filesystem>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "scenario/cli.h"
#include "util/error.h"

namespace {

using namespace mram;
using namespace mram::scn;

/// Runs scenarios_main and returns {code, stdout, stderr}.
struct CliResult {
  int code;
  std::string out;
  std::string err;
};

CliResult scenarios(std::vector<std::string> args) {
  std::ostringstream out, err;
  const int code = cli::scenarios_main(args, out, err);
  return {code, out.str(), err.str()};
}

// --- parse helpers ----------------------------------------------------------

TEST(CliParse, U64AcceptsDigitsOnly) {
  EXPECT_EQ(cli::parse_u64("--seed", "0"), 0u);
  EXPECT_EQ(cli::parse_u64("--seed", "18446744073709551615"),
            18446744073709551615ull);
  for (const char* bad : {"", "-3", "+3", "12a", "0x10", " 7",
                          "99999999999999999999999"}) {
    EXPECT_THROW(cli::parse_u64("--seed", bad), util::ConfigError) << bad;
  }
}

TEST(CliParse, DoubleRejectsTrailingJunkAndNonFinite) {
  EXPECT_DOUBLE_EQ(cli::parse_double("--trial-scale", "2.5"), 2.5);
  EXPECT_DOUBLE_EQ(cli::parse_double("--trial-scale", "1e-3"), 1e-3);
  EXPECT_DOUBLE_EQ(cli::parse_double("--trial-scale", "-0.5"), -0.5);
  // Regression: std::stod silently accepted every one of these -- "1.5x"
  // parsed as 1.5, "inf"/"nan"/"1e999" became non-finite trial scales.
  for (const char* bad :
       {"1.5x", "x1.5", "", " 2", "2 ", "inf", "-inf", "nan", "1e999"}) {
    EXPECT_THROW(cli::parse_double("--trial-scale", bad), util::ConfigError)
        << bad;
  }
}

TEST(CliParse, DoubleErrorsNameTheFlag) {
  try {
    cli::parse_double("--trial-scale", "1.5x");
    FAIL() << "expected ConfigError";
  } catch (const util::ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("--trial-scale"),
              std::string::npos);
    EXPECT_NE(std::string(e.what()).find("1.5x"), std::string::npos);
  }
}

TEST(CliParse, ThreadsCapped) {
  EXPECT_EQ(cli::parse_threads("0"), 0u);
  EXPECT_EQ(cli::parse_threads("1024"), 1024u);
  EXPECT_THROW(cli::parse_threads("1025"), util::ConfigError);
}

// --- mram_scenarios exit codes ----------------------------------------------

TEST(ScenariosCli, NoArgsIsUsageError) {
  const auto r = scenarios({});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("usage:"), std::string::npos);
}

TEST(ScenariosCli, HelpPrintsUsageToStdoutAndSucceeds) {
  for (const char* h : {"help", "--help", "-h"}) {
    const auto r = scenarios({h});
    EXPECT_EQ(r.code, 0) << h;
    EXPECT_NE(r.out.find("usage:"), std::string::npos) << h;
    EXPECT_TRUE(r.err.empty()) << h;
  }
}

TEST(ScenariosCli, UnknownCommandIsUsageError) {
  const auto r = scenarios({"frobnicate"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("unknown command 'frobnicate'"), std::string::npos);
}

TEST(ScenariosCli, UnknownOptionIsUsageError) {
  const auto r = scenarios({"run", "--frobnicate"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("unknown option --frobnicate"), std::string::npos);
  EXPECT_NE(r.err.find("usage:"), std::string::npos);
  // No sharding, merge or checkpoint flags: each is a usage error.
  for (const char* flag : {"--shard", "--partials", "--checkpoint",
                           "--resume", "--shards", "--metrics-in"}) {
    const auto old = scenarios({"run", "wer_deep", flag, "x"});
    EXPECT_EQ(old.code, 2) << flag;
    EXPECT_NE(old.err.find(std::string("unknown option ") + flag),
              std::string::npos)
        << flag;
  }
}

TEST(ScenariosCli, ListWithPositionalNameIsUsageError) {
  EXPECT_EQ(scenarios({"list", "wer_deep"}).code, 2);
}

TEST(ScenariosCli, RunOnlyFlagsRejectedOnListAndDescribe) {
  // Regression: list/describe used to silently ignore run options, so
  // `list --out dir` looked like it worked while writing nothing.
  for (const char* flag : {"--out", "--threads", "--seed"}) {
    const auto r = scenarios({"list", flag, "2"});
    EXPECT_EQ(r.code, 2) << flag;
    EXPECT_NE(r.err.find(std::string(flag) + " is only valid for `run`"),
              std::string::npos)
        << flag;
  }
  const auto r = scenarios({"describe", "wer_deep", "--trial-scale", "2"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("--trial-scale is only valid for `run`"),
            std::string::npos);
}

TEST(ScenariosCli, DescribeWithoutSelectionIsUsageError) {
  EXPECT_EQ(scenarios({"describe"}).code, 2);
}

TEST(ScenariosCli, ListSucceedsAndNamesScenarios) {
  const auto r = scenarios({"list"});
  EXPECT_EQ(r.code, 0);
  EXPECT_NE(r.out.find("registered scenarios"), std::string::npos);
  EXPECT_NE(r.out.find("wer_deep"), std::string::npos);
}

TEST(ScenariosCli, MissingOptionValueIsAnError) {
  const auto r = scenarios({"run", "wer_deep", "--seed"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("missing value after --seed"), std::string::npos);
}

TEST(ScenariosCli, BadTrialScaleIsAnError) {
  // Regression: these all slipped through std::stod before parse_double.
  for (const char* bad : {"1.5x", "inf", "nan", "1e999"}) {
    const auto r = scenarios({"run", "wer_deep", "--trial-scale", bad});
    EXPECT_EQ(r.code, 1) << bad;
    EXPECT_NE(r.err.find("--trial-scale"), std::string::npos) << bad;
  }
  const auto r = scenarios({"run", "wer_deep", "--trial-scale", "-1"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("--trial-scale must be positive"), std::string::npos);
  EXPECT_EQ(scenarios({"run", "wer_deep", "--trial-scale", "0"}).code, 1);
  // Finite but huge: the scaled trial count overflowed its size_t cast (or
  // died allocating) instead of being rejected as an input error.
  for (const char* huge : {"1e300", "1e20", "1e16"}) {
    const auto h =
        scenarios({"run", "wer_pulse_width", "--trial-scale", huge});
    EXPECT_EQ(h.code, 1) << huge;
    EXPECT_NE(h.err.find("--trial-scale"), std::string::npos) << huge;
    EXPECT_EQ(h.err.find("precondition"), std::string::npos) << huge;
  }
  // Tiny: the splitting drivers need kSplittingMinTrials per level; a scale
  // that drops a deep scenario below that floor is an input error too, not
  // a failed precondition inside the driver.
  for (const auto& [name, tiny] :
       {std::pair{"wer_deep", "0.002"}, std::pair{"retention_deep", "0.003"}}) {
    const auto t = scenarios({"run", name, "--trial-scale", tiny, "--quiet"});
    EXPECT_EQ(t.code, 1) << name;
    EXPECT_NE(t.err.find("--trial-scale"), std::string::npos) << t.err;
    EXPECT_NE(t.err.find("minimum of 4"), std::string::npos) << t.err;
    EXPECT_EQ(t.err.find("precondition"), std::string::npos) << t.err;
  }
  EXPECT_EQ(scenarios({"run", "wer_pulse_width", "--trial-scale", "20",
                       "--quiet"})
                .code,
            0);
}

TEST(ScenariosCli, UnknownScenarioNameIsAnError) {
  const auto r = scenarios({"run", "no_such_scenario"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("unknown scenario 'no_such_scenario'"),
            std::string::npos);
}

TEST(ScenariosCli, AllCannotCombineWithNames) {
  const auto r = scenarios({"run", "--all", "wer_deep"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("--all cannot be combined"), std::string::npos);
}

// --- observability flags ----------------------------------------------------

TEST(ScenariosCli, ObservabilityFlagsAreRunOnly) {
  for (const char* flag : {"--metrics", "--trace"}) {
    const auto r = scenarios({"list", flag, "/tmp/x.json"});
    EXPECT_EQ(r.code, 2) << flag;
    EXPECT_NE(r.err.find(std::string(flag) + " is only valid for `run`"),
              std::string::npos)
        << flag;
  }
  for (const char* flag : {"--progress", "--quiet", "--perf"}) {
    const auto r = scenarios({"list", flag});
    EXPECT_EQ(r.code, 2) << flag;
    EXPECT_NE(r.err.find(std::string(flag) + " is only valid for `run`"),
              std::string::npos)
        << flag;
  }
}

TEST(ScenariosCli, PerfNeedsAMetricsFile) {
  const auto r = scenarios({"run", "wer_deep", "--perf"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("--perf needs --metrics"), std::string::npos);
}

TEST(ScenariosCli, MetricsDashKeepsStdoutParseableAndExitsZero) {
  // The exit-code contract of "-": a real (cheap) scenario run streaming
  // the metrics document to stdout still exits 0, with the CSV payload
  // routed to --out files so stdout is exactly one JSON document.
  const auto dir = std::filesystem::temp_directory_path() / "mram_cli_dash";
  std::filesystem::remove_all(dir);
  const auto r = scenarios({"run", "march_cminus", "--trial-scale", "0.01",
                            "--format", "csv", "--out", dir.string(),
                            "--metrics", "-", "--quiet"});
  EXPECT_EQ(r.code, 0) << r.err;
  ASSERT_FALSE(r.out.empty());
  EXPECT_EQ(r.out.front(), '{');  // no status lines ahead of the document
  EXPECT_NE(r.out.find("\"mram.metrics/2\""), std::string::npos);
  EXPECT_NE(r.out.find("\"march_cminus\""), std::string::npos);
}

TEST(ScenariosCli, MetricsFlagNeedsAValue) {
  const auto r = scenarios({"run", "wer_deep", "--metrics"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("missing value after --metrics"), std::string::npos);
}

}  // namespace
