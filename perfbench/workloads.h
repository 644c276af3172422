#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "engine/monte_carlo.h"
#include "obs/metrics.h"
#include "scenario/registry.h"

// The benchmark's workloads: named groups of registered scenarios, each run
// back to back through the scenario layer's public run functions (the same
// ones `mram_scenarios run` calls), plus the physics checks that decide
// whether a pass produced correct output. The checks test physical
// properties and closed forms rather than pinned CSV bytes, so a legitimate
// re-pin of the scenario outputs does not trip them.

namespace mram::perfbench {

/// Worker threads of the shared runner in every workload.
inline constexpr unsigned kThreads = 2;

/// One scenario's outcome within a pass.
struct ScenarioRun {
  std::string name;
  scn::ResultSet results;
  std::string error;       ///< what() of a thrown scenario error; "" = ok
  obs::Snapshot snapshot;  ///< registry snapshot (instrumented passes only)
};

/// One pass of a workload: its scenarios in workload order.
using Pass = std::vector<ScenarioRun>;

/// Every result table of the pass rendered as CSV, concatenated in order:
/// the byte string two passes must agree on.
std::string tables_bytes(const Pass& pass);

/// Counts the checks a run attempts and the ones that fail, and keeps the
/// failure descriptions for the report.
class Checks {
 public:
  void expect(bool ok, const std::string& what);

  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failures_.size(); }
  const std::vector<std::string>& failures() const { return failures_; }

 private:
  std::uint64_t attempted_ = 0;
  std::vector<std::string> failures_;
};

/// Median of `v` (0 when empty).
double median(std::vector<double> v);

/// Reference data the checks compare against, read from the data directory
/// during set-up.
struct Reference {
  std::vector<std::vector<std::string>> fig5_golden;  ///< header + rows
};

/// Loads the reference data; throws util::ConfigError when a file is
/// missing or empty.
Reference load_reference(const std::string& data_dir);

struct Workload {
  std::string name;
  std::vector<std::string> scenarios;
  double trial_scale;  ///< ScenarioContext::trial_scale of every scenario
  void (*check)(const Pass&, const Reference&, Checks&);
};

const std::vector<Workload>& workloads();

/// nullptr when no workload has that name.
const Workload* find_workload(const std::string& name);

/// Runs every scenario of `w` once, in order, on `runner`. With `metrics`
/// non-null (and installed by the caller) the registry is reset before each
/// scenario and snapshotted after it. Each scenario call is wrapped in a
/// "scenario" trace span (recorded only when a recorder is installed).
Pass run_pass(const Workload& w, const scn::ScenarioRegistry& registry,
              eng::MonteCarloRunner& runner, std::uint64_t seed,
              const std::string& data_dir, double scale,
              obs::Registry* metrics);

/// One check per scenario of the pass: it ran without throwing.
void check_ran(const Pass& pass, Checks& checks);

/// check_ran plus the workload's physics checks.
void check_pass(const Workload& w, const Pass& pass, const Reference& ref,
                Checks& checks);

}  // namespace mram::perfbench
