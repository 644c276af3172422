#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "engine/monte_carlo.h"

// Layer probes of the traced run: direct calls into single layers' public
// functions on fixed, seed-derived inputs, each timed by the benchmark's own
// spans. They give every layer a per-call cost that reads the same way on
// every workload, beside the workload's own registry counts:
//
//   * the LLG kernel ceiling: BatchMacrospinSim::run_until_switch on full
//     16- and 8-lane blocks with read_disturb's LLG parameters and no lane
//     ever retiring, i.e. the full-occupancy cost per lane-step;
//   * per-call set-up costs (MtjDevice, InterCellSolver, disk_field,
//     ReadErrorModel, switching_time) on parameter sets drawn from
//     pitch_yield's VariationModel at its pitches, and sim::estimate_yield
//     per sample;
//   * replays of the deep_tail drivers (measure_wer, measure_retention_faults,
//     measure_rer, importance sampling and splitting) at the deep scenarios'
//     operating points and default budgets.

namespace mram::perfbench {

/// Metric name -> value, in the units BENCHMARK.json lists.
using MetricValues = std::map<std::string, double>;

/// Runs every probe once and adds its metrics to `out`.
void run_layer_probes(std::uint64_t seed, eng::MonteCarloRunner& runner,
                      MetricValues& out);

}  // namespace mram::perfbench
