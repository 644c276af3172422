#include "scenario/run_command.h"

#include <exception>
#include <filesystem>
#include <memory>
#include <optional>
#include <ostream>
#include <sstream>

#include "obs/metrics.h"
#include "obs/metrics_io.h"
#include "obs/perfctr.h"
#include "obs/progress.h"
#include "obs/stopwatch.h"
#include "obs/trace.h"
#include "scenario/result_sink.h"
#include "util/error.h"
#include "util/table.h"

namespace mram::scn {

namespace {

/// Human-readable nanoseconds for the summary percentile columns.
std::string format_ns(double ns) {
  const char* unit = "ns";
  double v = ns;
  if (v >= 1e9) {
    v /= 1e9;
    unit = "s";
  } else if (v >= 1e6) {
    v /= 1e6;
    unit = "ms";
  } else if (v >= 1e3) {
    v /= 1e3;
    unit = "us";
  }
  return util::format_double(v, v >= 100.0 ? 0 : (v >= 10.0 ? 1 : 2)) + unit;
}

}  // namespace

int run_scenarios(const ScenarioRegistry& registry,
                  const RunCommandOptions& opt, std::ostream& out,
                  std::ostream& err) {
  const std::vector<std::string> names =
      opt.all ? registry.names() : opt.names;
  if (names.empty()) {
    err << "run: no scenarios selected (name them or pass --all)\n";
    return 2;
  }
  for (const auto& name : names) registry.at(name);  // fail fast on typos
  if (opt.perf && opt.metrics_file.empty()) {
    throw util::ConfigError(
        "--perf needs --metrics FILE (the efficiency report is part of the "
        "metrics document)");
  }

  if (!opt.out_dir.empty()) {
    std::filesystem::create_directories(opt.out_dir);
  }
  const auto sink = make_sink(opt.format, out, opt.out_dir);

  // "-" streams a JSON document to `out`; the one-line scenario statuses
  // then move to the stderr gate so stdout stays a single parseable
  // document (pipeable into json.tool without temp files).
  const bool json_on_out = opt.metrics_file == "-" || opt.trace_file == "-";

  // One pool for the whole run.
  eng::MonteCarloRunner runner(eng::RunnerConfig{.threads = opt.threads});

  // Observability sinks. The progress gate is always installed -- it is the
  // single serialized writer for every stderr diagnostic, so the summary,
  // FAIL lines and the live line can never interleave mid-row -- but the
  // live display only animates with --progress (and never under --quiet).
  obs::Progress progress(err, opt.progress && !opt.quiet);
  obs::ScopedProgress progress_guard(&progress);

  const bool want_metrics = !opt.metrics_file.empty();
  obs::Registry metrics_registry;
  std::optional<obs::ScopedRegistry> metrics_guard;
  if (want_metrics) metrics_guard.emplace(&metrics_registry);
  obs::MetricsDoc doc;
  doc.tool = "mram_scenarios";
  doc.threads = runner.threads();
  doc.seed = opt.seed;

  std::unique_ptr<obs::TraceRecorder> tracer;
  std::optional<obs::ScopedTrace> trace_guard;
  if (!opt.trace_file.empty()) {
    tracer = std::make_unique<obs::TraceRecorder>();
    trace_guard.emplace(tracer.get());
  }

  // Hardware-counter profiling: one probe decides for the whole run, and
  // unavailability is a reported state (the fallback gauges below), never a
  // failure -- containers routinely deny perf_event_open or hide the PMU.
  obs::PerfStatus perf_status;
  std::optional<obs::ScopedPerfProfiling> perf_guard;
  if (opt.perf) {
    perf_status = obs::perf_probe();
    if (perf_status.available) {
      perf_guard.emplace();
    } else if (!opt.quiet) {
      progress.print("perf: hardware counters unavailable (" +
                     perf_status.detail +
                     "); reporting software timers only\n");
    }
  }

  int failures = 0;
  double total_secs = 0.0;
  std::vector<std::string> columns{"scenario", "status",  "tables",
                                   "eff. trials", "rel err", "wall (s)"};
  if (want_metrics) {
    // Chunk wall-time percentiles from the power-of-2 histogram: the tail
    // (p99 vs p50) is the load-imbalance / frequency-throttling signal.
    columns.insert(columns.end(), {"chunk p50", "p90", "p99"});
  }
  util::Table summary(columns);
  for (std::size_t idx = 0; idx < names.size(); ++idx) {
    const auto& name = names[idx];
    const auto& scenario = registry.at(name);
    if (want_metrics) {
      metrics_registry.reset();  // per-scenario snapshots
      if (opt.perf) {
        metrics_registry.set(obs::Gauge::kPerfActive,
                             perf_status.available ? 1.0 : 0.0);
        if (!perf_status.available) {
          metrics_registry.set(
              obs::Gauge::kPerfFallbackReason,
              static_cast<double>(perf_status.fallback));
        }
      }
    }
    progress.begin_scenario(name, idx, names.size());
    obs::Stopwatch watch;
    std::vector<std::string> row;
    try {
      obs::TraceSpan scenario_span("scenario", [&] { return name; });
      ScenarioContext ctx{.runner = runner,
                          .seed = opt.seed,
                          .data_dir = opt.data_dir,
                          .trial_scale = opt.trial_scale};
      const ResultSet results = scenario.run(ctx);
      const double secs = watch.seconds();
      total_secs += secs;
      // The live line is cleared before anything else of this scenario is
      // printed (sink output included), so result streams stay clean.
      progress.end_scenario();
      const RunMeta meta{opt.seed, runner.threads(), opt.trial_scale};
      sink->write(scenario.info, meta, results);
      row = {name, "ok", std::to_string(results.tables.size()),
             results.effective_trials > 0.0
                 ? util::format_scientific(results.effective_trials)
                 : "-",
             results.rel_error >= 0.0
                 ? util::format_scientific(results.rel_error)
                 : "-",
             util::format_double(secs, 2)};
      if (!opt.out_dir.empty()) {
        std::ostringstream status;
        status << "ok   " << name << " (" << results.tables.size()
               << " tables, " << util::format_double(secs, 2) << " s)\n";
        if (json_on_out) {
          progress.print(status.str());
        } else {
          out << status.str();
        }
      }
    } catch (const std::exception& e) {
      ++failures;
      const double secs = watch.seconds();
      total_secs += secs;
      progress.end_scenario();
      row = {name, "FAIL", "-", "-", "-", util::format_double(secs, 2)};
      progress.print("FAIL " + name + ": " + e.what() + "\n");
    }
    if (want_metrics) {
      const obs::Snapshot snap = metrics_registry.snapshot();
      doc.scenario(name).snapshot = snap;
      const auto chunk_ns = snap.histograms.find("engine.chunk_ns");
      if (chunk_ns != snap.histograms.end() && chunk_ns->second.count > 0) {
        row.push_back(format_ns(chunk_ns->second.quantile(0.50)));
        row.push_back(format_ns(chunk_ns->second.quantile(0.90)));
        row.push_back(format_ns(chunk_ns->second.quantile(0.99)));
      } else {
        row.insert(row.end(), {"-", "-", "-"});
      }
    }
    summary.add_row(row);
  }
  progress.finish();
  // Per-scenario wall-clock summary, always on `err` (through the gate) so
  // it never corrupts piped csv/json output: scenario-level perf
  // regressions show up here without rerunning the microbenches. Printed
  // for single-scenario runs too -- their eff. trials / rel err /
  // wall-clock used to be silently dropped, and one scenario is the common
  // case when iterating. --quiet drops it (and only it): failure
  // diagnostics and exit codes are unaffected.
  if (!opt.quiet) {
    std::ostringstream block;
    summary.print(block,
                  "run summary (" + util::format_double(total_secs, 2) +
                      " s total, " + std::to_string(runner.threads()) +
                      " threads)");
    progress.print(block.str());
  }
  if (want_metrics) {
    // "-" streams the document to `out` (pipeable into json.tool) instead
    // of a file; the summary and diagnostics go to `err` either way, so
    // the JSON on stdout stays parseable.
    if (opt.metrics_file == "-") {
      out << doc.to_json();
    } else {
      obs::write_metrics_file(opt.metrics_file, doc);
    }
  }
  if (tracer) {
    trace_guard.reset();  // stop recording before serializing
    if (tracer->dropped() > 0) {
      progress.print("warning: trace dropped " +
                     std::to_string(tracer->dropped()) +
                     " spans past the per-thread buffer cap\n");
    }
    if (opt.trace_file == "-") {
      out << tracer->to_json(doc.tool);
    } else {
      tracer->write_file(opt.trace_file, doc.tool);
    }
  }
  if (failures > 0) {
    progress.print(std::to_string(failures) + " of " +
                   std::to_string(names.size()) + " scenarios failed\n");
    return 1;
  }
  return 0;
}

}  // namespace mram::scn
