#include "scenario/scenario.h"

#include <cmath>
#include <filesystem>

#include "characterization/calibration.h"
#include "util/csv.h"
#include "util/error.h"
#include "util/table.h"
#include "util/units.h"

namespace mram::scn {

Cell::Cell(double v, int precision)
    : text(util::format_double(v, precision)), value(v), numeric(true) {}

Cell Cell::integer(long long v) {
  Cell c;
  c.text = std::to_string(v);
  c.value = static_cast<double>(v);
  c.numeric = true;
  return c;
}

void ResultTable::add_row(std::vector<Cell> cells) {
  if (cells.size() != columns.size()) {
    throw util::ConfigError("table '" + name + "' expects " +
                            std::to_string(columns.size()) +
                            " cells per row, got " +
                            std::to_string(cells.size()));
  }
  rows.push_back(std::move(cells));
}

namespace {

util::Table as_util_table(const ResultTable& t) {
  util::Table table(t.columns);
  for (const auto& row : t.rows) {
    std::vector<std::string> cells;
    cells.reserve(row.size());
    for (const auto& cell : row) cells.push_back(cell.text);
    table.add_row(std::move(cells));
  }
  return table;
}

}  // namespace

std::string ResultTable::to_csv() const { return as_util_table(*this).to_csv(); }

std::string ResultTable::to_text() const {
  return as_util_table(*this).to_text();
}

ResultTable& ResultSet::add(std::string name, std::string title,
                            std::vector<std::string> columns) {
  ResultTable t;
  t.name = std::move(name);
  t.title = std::move(title);
  t.columns = std::move(columns);
  tables.push_back(std::move(t));
  return tables.back();
}

const ResultTable* ResultSet::find(const std::string& name) const {
  for (const auto& t : tables) {
    if (t.name == name) return &t;
  }
  return nullptr;
}

std::size_t ScenarioContext::scaled_trials(std::size_t trials,
                                           std::size_t min_trials) const {
  // A fixed ceiling keeps the cast below defined and turns a scale no run
  // could finish (or allocate for) into an input error; 1e9 trials is far
  // above any scenario that finishes in hours.
  constexpr double kMaxTrials = 1e9;
  const double scaled = std::max(1.0, std::floor(trials * trial_scale));
  if (!(scaled <= kMaxTrials)) {
    throw util::ConfigError("--trial-scale " +
                            util::format_scientific(trial_scale, 2) +
                            " scales " + std::to_string(trials) +
                            " trials past the limit of 1e9");
  }
  const auto n = static_cast<std::size_t>(scaled);
  if (n < min_trials) {
    throw util::ConfigError("--trial-scale " +
                            util::format_scientific(trial_scale, 2) +
                            " scales " + std::to_string(trials) +
                            " trials to " + std::to_string(n) +
                            ", below this scenario's minimum of " +
                            std::to_string(min_trials));
  }
  return n;
}

std::vector<chr::IntraFieldAnchor> ScenarioContext::fig2b_anchor_set() const {
  if (!data_dir.empty()) {
    // Only a missing file falls back to the compiled-in anchors (so
    // scenarios stay runnable from any working directory); a present but
    // malformed one is an input error and reports its path:line.
    const std::string path = data_dir + "/fig2b_anchors.csv";
    if (std::filesystem::exists(path)) return chr::anchors_from_csv(path);
  }
  return chr::fig2b_anchors();
}

}  // namespace mram::scn
