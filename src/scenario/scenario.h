#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "engine/monte_carlo.h"

// Declarative scenario layer. A scenario is a named, registered, seeded
// workload that regenerates one paper figure (or an ablation / extension
// study) as a set of machine-readable result tables. Scenarios run their
// parameter grids through scn::SweepDriver, dispatch their stochastic
// trials through eng::MonteCarloRunner (bit-identical across thread counts
// for a fixed seed), and emit scn::ResultSet, which the sinks in
// result_sink.h render as aligned text, CSV or JSON.
//
// Lifecycle: scenarios_*.cpp define run functions and register them via
// register_builtin_scenarios() (see registry.h); the mram_scenarios CLI
// and the perfbench runner look them up by name.

namespace mram::chr {
struct IntraFieldAnchor;
}

namespace mram::scn {

/// One table cell: a formatted text plus, for numeric cells, the value it
/// was formatted from. Keeping both lets the text/CSV sinks stay
/// byte-stable (fixed precision) while the JSON sink and the golden-output
/// tests see real numbers.
struct Cell {
  std::string text;
  double value = 0.0;
  bool numeric = false;

  Cell() = default;
  Cell(double v, int precision = 4);
  Cell(std::string s) : text(std::move(s)) {}
  Cell(const char* s) : text(s) {}

  /// Integer-formatted numeric cell (no decimal point).
  static Cell integer(long long v);
};

/// A named series table: the machine-readable unit of a scenario's output.
struct ResultTable {
  std::string name;   ///< slug used in file names ([a-z0-9_]+)
  std::string title;  ///< human caption printed above the text rendering
  std::vector<std::string> columns;
  std::vector<std::vector<Cell>> rows;

  /// Appends a row. Throws util::ConfigError when the width mismatches.
  void add_row(std::vector<Cell> cells);

  /// Renders as CSV (header + formatted cells, RFC-4180-ish quoting).
  std::string to_csv() const;

  /// Renders as an aligned text table via util::Table.
  std::string to_text() const;
};

/// Everything a scenario produces: tables plus free-form footer notes.
struct ResultSet {
  std::vector<ResultTable> tables;
  std::vector<std::string> notes;

  /// Estimator quality of the scenario's headline stochastic result, shown
  /// in the run-summary table: brute-force-equivalent trial count and
  /// estimator relative error (see eng::RareEventEstimate). Left at the
  /// defaults (<= 0 / < 0) by scenarios that don't report them.
  double effective_trials = 0.0;
  double rel_error = -1.0;

  /// Starts a new table and returns a reference to fill in.
  ResultTable& add(std::string name, std::string title,
                   std::vector<std::string> columns);

  /// Finds a table by name; nullptr when absent.
  const ResultTable* find(const std::string& name) const;
};

/// Runtime environment handed to a scenario: the shared Monte Carlo runner
/// (thread pool), the master seed, and the data directory for file-backed
/// inputs (e.g. the Fig. 2b anchor CSV).
struct ScenarioContext {
  eng::MonteCarloRunner& runner;
  std::uint64_t seed = kDefaultSeed;
  std::string data_dir;      ///< where anchor CSVs live; "" = built-ins only
  double trial_scale = 1.0;  ///< multiplies stochastic trial counts

  static constexpr std::uint64_t kDefaultSeed = 2020;

  /// Trial count scaled by trial_scale, at least 1. Throws a ConfigError
  /// naming --trial-scale when the scaled count exceeds 1e9 or falls below
  /// `min_trials` (the floor of the driver the count feeds, e.g.
  /// eng::kSplittingMinTrials).
  std::size_t scaled_trials(std::size_t trials,
                            std::size_t min_trials = 1) const;

  /// The Fig. 2b / 3d intra-field anchors: loaded from
  /// `<data_dir>/fig2b_anchors.csv` when that file exists, else the
  /// compiled-in set. A present but malformed file throws the loader's
  /// ConfigError (naming path:line) instead of falling back.
  std::vector<chr::IntraFieldAnchor> fig2b_anchor_set() const;
};

/// One entry of a scenario's parameter schema (for `describe`).
struct ParamInfo {
  std::string name;
  std::string value;        ///< default / fixed value, human formatted
  std::string description;
};

/// Static metadata of a registered scenario.
struct ScenarioInfo {
  std::string name;     ///< registry key, e.g. "fig5_tw"
  std::string figure;   ///< paper tag: "Fig. 5a-c", "Ablation", "Memory", ...
  std::string summary;  ///< one line for `list`
  std::string details;  ///< paragraph for `describe`
  std::vector<ParamInfo> params;  ///< parameter schema
};

}  // namespace mram::scn
