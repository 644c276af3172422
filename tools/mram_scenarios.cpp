// mram_scenarios: the scenario CLI. One binary lists, describes and runs
// every registered scenario -- the whole figure-reproduction evaluation as
// a parallel, seed-reproducible, scriptable pipeline.
//
//   mram_scenarios list [--figure TAG]
//   mram_scenarios describe <name> [<name>...] | --figure TAG
//   mram_scenarios run <name> [<name>...] | --all
//                  [--threads N] [--seed S] [--format table|csv|json]
//                  [--out DIR] [--data DIR] [--trial-scale X]
//                  [--metrics FILE] [--trace FILE] [--perf]
//                  [--progress] [--quiet]
//
// `--figure TAG` filters by the figure tag, case-insensitive substring
// (e.g. `list --figure readout`, `describe --figure Memory`), keeping the
// growing registry navigable. `run` executes each scenario on a shared
// MonteCarloRunner (scn::run_scenarios); for a fixed --seed the emitted
// tables are bit-identical at any --threads. With --out, results go to
// files (csv: one per table; json/table: one per scenario) and a one-line
// status per scenario goes to stdout. The exit code is non-zero when any
// requested scenario fails. The implementation lives in
// src/scenario/cli.cpp so tests can drive it without spawning processes.

#include <iostream>
#include <string>
#include <vector>

#include "scenario/cli.h"

int main(int argc, char** argv) {
  const std::vector<std::string> args(argv + 1, argv + argc);
  return mram::scn::cli::scenarios_main(args, std::cout, std::cerr);
}
