#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/metrics.h"

// Metrics snapshot persistence: the schema-versioned JSON document
// `mram_scenarios run --metrics FILE` writes and the CI observability smoke
// checks. The program only emits it; the reference reader the tests check
// the emitted files against is tests/support/metrics_parse.h.
//
// Schema "mram.metrics/2" (a strict, additive superset of /1 -- readers of
// /1 ignore the new keys; the tests' reader accepts /2 only):
//   {
//     "schema": "mram.metrics/2",
//     "tool": "mram_scenarios",
//     "threads": 4, "seed": 2020,
//     "scenarios": [
//       { "name": "wer_deep",
//         "counters":   { "engine.trials": 131072,
//                         "perf.cycles": N, "perf.llg.cycles": N, ... },
//         "gauges":     { "engine.threads": 4.0, "perf.active": 1, ... },
//         "histograms": { "engine.chunk_ns": {
//             "count": N, "total": T, "min": m, "max": M,
//             "p50": v, "p90": v, "p99": v,          // new in /2
//             "buckets": [[lo, hi, count], ...] } },  // power-of-2 bounds
//         "derived":    { "perf.ipc": 2.31, ... },    // new in /2
//         "series":     { "rare.is.ess": [[x, y], ...] } }
//     ]
//   }
//
// Everything integer-valued is emitted as a JSON integer literal (exact up
// to 2^64 via the parser's u64 fast path); gauges and series are doubles.
// The "derived" section and histogram percentiles are recomputed from the
// snapshot at emission time and never parsed back.

namespace mram::obs {

struct ScenarioMetrics {
  std::string name;
  Snapshot snapshot;
};

struct MetricsDoc {
  static constexpr const char* kSchema = "mram.metrics/2";

  std::string tool;
  unsigned threads = 0;
  std::uint64_t seed = 0;
  std::vector<ScenarioMetrics> scenarios;

  /// Finds the entry for `name`, appending an empty one when absent.
  ScenarioMetrics& scenario(const std::string& name);

  /// Renders the schema-versioned JSON document.
  std::string to_json() const;
};

/// The derived efficiency report: pure function of a snapshot, emitted as
/// the "derived" JSON section and never parsed back.
/// With hardware counters present it reports IPC, miss rates, backend-stall
/// and multiplexing fractions, cycles/trial, and -- for the LLG kernels,
/// using the documented per-step flop count -- estimated flops/cycle. The
/// software fallback rows (engine.ns_per_trial, engine.trials_per_sec, from
/// steady-clock busy time and retired trials) are present whenever the
/// engine ran, hardware or not.
std::map<std::string, double> derived_metrics(const Snapshot& s);

/// Writes `doc` to `path` (error-checked; throws util::ConfigError).
void write_metrics_file(const std::string& path, const MetricsDoc& doc);

}  // namespace mram::obs
