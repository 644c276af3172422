#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "scenario/registry.h"

// The `run` command of the scenario CLI, factored out of the binary so the
// whole pipeline -- scenario selection, the shared-runner execution loop,
// sink dispatch, the per-scenario wall-clock summary table and the exit
// code -- is testable against stream doubles (tests/test_scenario.cpp
// smoke-checks the summary table) and reusable by other tools.

namespace mram::scn {

struct RunCommandOptions {
  std::vector<std::string> names;  ///< explicit scenario selection
  bool all = false;                ///< run every registered scenario
  unsigned threads = 0;            ///< worker threads; 0 = hardware concurrency
  std::uint64_t seed = ScenarioContext::kDefaultSeed;
  std::string format = "table";    ///< table | csv | json
  std::string out_dir;             ///< "" = stream results to `out`
  std::string data_dir = "data";   ///< anchor CSV directory
  double trial_scale = 1.0;        ///< multiplies stochastic trial counts

  // Observability surfaces (src/obs/; all off by default, and none of them
  // can change results -- pinned by tests/test_obs.cpp's byte-identity
  // checks).
  std::string metrics_file;  ///< non-empty => write the per-scenario metrics
                             ///< JSON snapshot (schema mram.metrics/2) here;
                             ///< "-" streams it to `out` instead
  std::string trace_file;    ///< non-empty => write Chrome trace-event JSON
                             ///< (Perfetto-loadable) here; "-" = `out`
  bool perf = false;         ///< hardware-counter profiling (perf_event
                             ///< groups read at chunk boundaries); needs
                             ///< metrics_file, degrades to the software
                             ///< fallback when the PMU is unavailable
  bool progress = false;     ///< live progress/ETA line on stderr
  bool quiet = false;        ///< suppress the stderr summary and progress
                             ///< (failure diagnostics still print; exit
                             ///< codes are unchanged)
};

/// Runs the selected scenarios of `registry` on one shared runner. Results
/// go to `out` (or into opt.out_dir with one-line statuses on `out`);
/// failures and the per-scenario wall-clock summary table go to `err`, so
/// piped csv/json output is never corrupted. Returns the process exit code:
/// 0 on success, 1 when any scenario failed, 2 on an empty selection.
int run_scenarios(const ScenarioRegistry& registry,
                  const RunCommandOptions& opt, std::ostream& out,
                  std::ostream& err);

}  // namespace mram::scn
