// perfbench_runner: runs one benchmark workload in one process and prints
// its metrics. perfbench/run.py builds it and is the command to use:
//
//   python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
//
// --trace 0 measures the end-to-end metrics with instrumentation off: one
// instrumented reference pass (registry on, for the exact trial counts and
// the reference tables), then uninstrumented passes back to back (a closed
// loop with one caller) until --seconds have passed; timings are medians
// over those passes. --trace 1 alternates untraced and traced passes (the
// obs::Registry plus a trace recorder) for --seconds, reports the per-layer
// metrics from the traced passes and the tracing overhead, then runs the
// layer probes (probes.h). Every pass must reproduce the first pass's
// tables byte for byte; that and the physics checks (workloads.h) are the
// correctness record. The last stdout line is one JSON object.

#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "characterization/calibration.h"
#include "dynamics/llg_batch.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/stopwatch.h"
#include "obs/trace.h"
#include "probes.h"
#include "workloads.h"

namespace pb = mram::perfbench;
namespace obs = mram::obs;
namespace scn = mram::scn;

namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json (perfbench/selftest.py checks it). setup_s is
// measured by run.py across process launches and is not listed here.
constexpr MetricSpec kEndToEnd[] = {
    {"wall_s", "s"},          {"trials_per_s", "1/s"},
    {"eff_trials_per_s", "1/s"}, {"cpu_s", "s"},
    {"peak_rss_mb", "MB"},
};

constexpr MetricSpec kPerLayer[] = {
    {"engine.trials", "count"},
    {"engine.calls", "count"},
    {"engine.chunks", "count"},
    {"engine.busy_frac", "ratio"},
    {"engine.chunk_p50_us", "us"},
    {"engine.chunk_p99_us", "us"},
    {"engine.ns_per_trial", "ns"},
    {"llg.lane_steps", "count"},
    {"llg.lane_occupancy", "ratio"},
    {"llg.w16_share", "ratio"},
    {"llg.generic_share", "ratio"},
    {"llg.early_exit_frac", "ratio"},
    {"llg.ns_per_lane_step", "ns"},
    {"llg.gflops", "GFLOP/s"},
    {"llg.probe_ns_per_lane_step", "ns"},
    {"llg.probe8_ns_per_lane_step", "ns"},
    {"llg.flops_per_lane_step", "flop"},
    {"llg.preferred_lanes", "count"},
    {"rare.is_rounds", "count"},
    {"rare.split_levels", "count"},
    {"rare.simulated_trials", "count"},
    {"rare.mcmc_accept_frac", "ratio"},
    {"rare.eff_per_simulated", "ratio"},
    {"rare.max_rel_error", "ratio"},
    {"mram.wer_s", "s"},
    {"mram.retention_s", "s"},
    {"readout.rer_s", "s"},
    {"device.build_us", "us"},
    {"array.intercell_build_us", "us"},
    {"array.intercell_builds", "count"},
    {"magnetics.disk_field_ns", "ns"},
    {"readout.model_build_us", "us"},
    {"readout.model_builds", "count"},
    {"device.switching_time_us", "us"},
    {"sim.us_per_sample", "us"},
    {"trace_overhead_frac", "ratio"},
};

/// The benchmark runs from the checkout root; anchors and goldens live here.
constexpr const char* kDataDir = "data";

/// Passes a measurement makes at least, whatever --seconds says.
constexpr std::size_t kMinPasses = 3;

struct Args {
  std::string workload;
  std::uint64_t seed = scn::ScenarioContext::kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  double scale = 1.0;  ///< multiplies every trial scale (self-test only)
  std::string trace_out;
  bool setup_only = false;
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench_runner: " << why << "\n"
            << "usage: perfbench_runner --workload NAME [--seed N] "
               "[--seconds S] [--trace 0|1] [--scale X] "
               "[--trace-out FILE] [--setup-only]\n";
  std::exit(2);
}

template <class T>
T parse_number(const std::string& flag, const std::string& s) {
  T v{};
  const auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc() || end != s.data() + s.size()) {
    usage("bad value for " + flag + ": '" + s + "'");
  }
  return v;
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--setup-only") {
      a.setup_only = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string v = argv[++i];
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = parse_number<std::uint64_t>(flag, v);
    } else if (flag == "--seconds") {
      a.seconds = parse_number<double>(flag, v);
    } else if (flag == "--trace") {
      if (v != "0" && v != "1") usage("--trace takes 0 or 1");
      a.trace = v == "1";
    } else if (flag == "--scale") {
      a.scale = parse_number<double>(flag, v);
    } else if (flag == "--trace-out") {
      a.trace_out = v;
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  if (!(a.seconds > 0.0) || !(a.scale > 0.0)) {
    usage("--seconds and --scale must be positive");
  }
  return a;
}

std::string quote(const std::string& s) {
  return "\"" + obs::json_escape(s) + "\"";
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + 1e-6 * tv.tv_usec;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

/// Everything a workload needs before its first pass: the scenario table,
/// the shared runner's thread pool, the metrics registry and the data
/// directory's anchors and reference tables.
struct Env {
  const pb::Workload& workload;
  const Args& args;
  const scn::ScenarioRegistry& scenarios;
  mram::eng::MonteCarloRunner runner;
  obs::Registry metrics;
  pb::Reference reference;
  std::size_t anchors = 0;  ///< Fig. 2b anchors loaded from the data dir

  Env(const pb::Workload& w, const Args& a)
      : workload(w),
        args(a),
        scenarios(scn::ScenarioRegistry::global()),
        runner(mram::eng::RunnerConfig{.threads = pb::kThreads}),
        reference(pb::load_reference(kDataDir)) {
    for (const auto& name : w.scenarios) scenarios.at(name);
    const scn::ScenarioContext ctx{.runner = runner,
                                   .seed = a.seed,
                                   .data_dir = kDataDir,
                                   .trial_scale = 1.0};
    anchors = ctx.fig2b_anchor_set().size();
  }

  pb::Pass pass(obs::Registry* registry) {
    return pb::run_pass(workload, scenarios, runner, args.seed, kDataDir,
                        args.scale, registry);
  }
};

/// The pass's registry snapshots folded into one: counters add, histograms
/// merge, gauges keep the last value.
obs::Snapshot fold(const pb::Pass& pass) {
  obs::Snapshot total;
  for (const auto& run : pass) {
    for (const auto& [k, v] : run.snapshot.counters) total.counters[k] += v;
    for (const auto& [k, v] : run.snapshot.gauges) total.gauges[k] = v;
    for (const auto& [k, h] : run.snapshot.histograms) {
      total.histograms[k].merge(h);
    }
  }
  return total;
}

double counter(const obs::Snapshot& s, const std::string& name) {
  const auto it = s.counters.find(name);
  return it == s.counters.end() ? 0.0 : static_cast<double>(it->second);
}

/// The exact counts of a snapshot: every counter except the timers.
std::map<std::string, std::uint64_t> exact_counts(const obs::Snapshot& s) {
  std::map<std::string, std::uint64_t> out;
  for (const auto& [k, v] : s.counters) {
    if (!k.ends_with("_ns")) out[k] = v;
  }
  return out;
}

/// Per-layer metrics of one traced pass, from its folded registry snapshot.
pb::MetricValues layer_metrics(const obs::Snapshot& s) {
  const auto c = [&](const char* name) { return counter(s, name); };
  pb::MetricValues m;
  const double busy = c("engine.busy_ns");
  const double trials = c("engine.trials");
  m["engine.trials"] = trials;
  m["engine.calls"] = c("engine.calls");
  m["engine.chunks"] = c("engine.chunks");
  m["engine.busy_frac"] = ratio(busy, c("engine.wall_ns") * pb::kThreads);
  const auto chunk = s.histograms.find("engine.chunk_ns");
  const bool has_chunks =
      chunk != s.histograms.end() && chunk->second.count > 0;
  m["engine.chunk_p50_us"] = has_chunks ? chunk->second.quantile(0.5) / 1e3 : 0;
  m["engine.chunk_p99_us"] =
      has_chunks ? chunk->second.quantile(0.99) / 1e3 : 0;
  m["engine.ns_per_trial"] = ratio(busy, trials);

  const double lane_steps = c("llg.lane_steps");
  const double blocks =
      c("llg.blocks_w8") + c("llg.blocks_w16") + c("llg.blocks_generic");
  m["llg.lane_steps"] = lane_steps;
  m["llg.lane_occupancy"] = ratio(lane_steps, c("llg.lane_step_capacity"));
  m["llg.w16_share"] = ratio(c("llg.blocks_w16"), blocks);
  m["llg.generic_share"] = ratio(c("llg.blocks_generic"), blocks);
  m["llg.early_exit_frac"] =
      ratio(c("llg.lanes_early_exit"), c("llg.lanes_entered"));
  // Busy time of every chunk over the LLG lane-steps: on the LLG workloads
  // the kernel is nearly all of the chunk time. Flops per busy nanosecond
  // is GFLOP/s per busy worker.
  m["llg.ns_per_lane_step"] = ratio(busy, lane_steps);
  m["llg.gflops"] = ratio(c("llg.flops"), busy);

  m["rare.is_rounds"] = c("rare.is.rounds");
  m["rare.split_levels"] = c("rare.split.levels");
  m["rare.mcmc_accept_frac"] =
      ratio(c("rare.mcmc.accepts"), c("rare.mcmc.proposals"));
  return m;
}

/// --trace 0: the end-to-end metrics, instrumentation off.
pb::MetricValues measure_end_to_end(Env& env, pb::Checks& checks) {
  pb::Pass first;
  {
    obs::ScopedRegistry guard(&env.metrics);
    first = env.pass(&env.metrics);
  }
  pb::check_pass(env.workload, first, env.reference, checks);
  // Brute-force-equivalent trials: a scenario's reported effective trials,
  // or its executed trial count when it reports none (brute force).
  double trials = 0.0, effective = 0.0;
  for (const auto& run : first) {
    const double t = counter(run.snapshot, "engine.trials");
    trials += t;
    effective += run.results.effective_trials > 0.0
                     ? run.results.effective_trials
                     : t;
  }
  const std::string want = pb::tables_bytes(first);

  std::vector<double> walls, cpus;
  const obs::Stopwatch budget;
  while (walls.size() < kMinPasses || budget.seconds() < env.args.seconds) {
    const double cpu0 = cpu_seconds();
    const obs::Stopwatch watch;
    const pb::Pass pass = env.pass(nullptr);
    walls.push_back(watch.seconds());
    cpus.push_back(cpu_seconds() - cpu0);
    pb::check_ran(pass, checks);
    checks.expect(pb::tables_bytes(pass) == want,
                  "timed pass " + std::to_string(walls.size()) +
                      ": tables differ from the instrumented reference pass");
  }
  const double wall = pb::median(walls);
  std::cout << "passes " << walls.size() << " after 1 instrumented; wall s "
            << "min " << *std::min_element(walls.begin(), walls.end())
            << " median " << wall << " max "
            << *std::max_element(walls.begin(), walls.end()) << "\n";
  return {{"wall_s", wall},
          {"trials_per_s", trials / wall},
          {"eff_trials_per_s", effective / wall},
          {"cpu_s", pb::median(cpus)},
          {"peak_rss_mb", peak_rss_mb()}};
}

/// --trace 1: the per-layer metrics from traced passes, the tracing
/// overhead against interleaved untraced passes, then the layer probes.
pb::MetricValues measure_layers(Env& env, pb::Checks& checks) {
  // A fresh recorder per traced pass keeps memory bounded and no span is
  // dropped; the trace file holds the last traced pass and the probes.
  std::unique_ptr<obs::TraceRecorder> recorder;
  std::vector<double> untraced, traced;
  std::vector<pb::MetricValues> per_pass;
  std::string want;
  std::map<std::string, std::uint64_t> want_counts;
  const obs::Stopwatch budget;
  for (std::size_t i = 0;
       traced.size() < kMinPasses - 1 || budget.seconds() < env.args.seconds;
       ++i) {
    const bool is_traced = i % 2 == 1;
    pb::Pass pass;
    double wall = 0.0;
    if (is_traced) {
      recorder = std::make_unique<obs::TraceRecorder>();
      obs::ScopedRegistry registry_guard(&env.metrics);
      obs::ScopedTrace trace_guard(recorder.get());
      const obs::Stopwatch watch;
      pass = env.pass(&env.metrics);
      wall = watch.seconds();
    } else {
      const obs::Stopwatch watch;
      pass = env.pass(nullptr);
      wall = watch.seconds();
    }
    if (i == 0) {
      pb::check_pass(env.workload, pass, env.reference, checks);
      want = pb::tables_bytes(pass);
      untraced.push_back(wall);
      continue;
    }
    pb::check_ran(pass, checks);
    checks.expect(pb::tables_bytes(pass) == want,
                  std::string(is_traced ? "traced" : "untraced") + " pass " +
                      std::to_string(i) +
                      ": tables differ from the first untraced pass");
    if (!is_traced) {
      untraced.push_back(wall);
      continue;
    }
    traced.push_back(wall);
    const obs::Snapshot total = fold(pass);
    const auto counts = exact_counts(total);
    if (want_counts.empty()) {
      want_counts = counts;
    } else {
      checks.expect(counts == want_counts,
                    "traced pass " + std::to_string(i) +
                        ": registry counts differ from the first traced pass");
    }
    per_pass.push_back(layer_metrics(total));
  }
  std::cout << "passes " << untraced.size() << " untraced, " << traced.size()
            << " traced\n";

  pb::MetricValues out;
  for (const auto& [name, _] : per_pass.front()) {
    std::vector<double> v;
    for (const auto& m : per_pass) v.push_back(m.at(name));
    out[name] = pb::median(v);
  }
  out["trace_overhead_frac"] = pb::median(traced) / pb::median(untraced) - 1.0;
  out["llg.preferred_lanes"] = static_cast<double>(
      mram::dyn::BatchMacrospinSim::preferred_lanes());
  {
    obs::ScopedTrace trace_guard(recorder.get());
    pb::run_layer_probes(env.args.seed, env.runner, out);
  }
  if (!env.args.trace_out.empty()) {
    recorder->write_file(env.args.trace_out, "perfbench " + env.workload.name);
  }
  return out;
}

/// All 17 significant digits, always with a '.' or an exponent so that a
/// JSON reader parses it as a float: %.17g prints 2.5e16 as a bare integer.
std::string number(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  std::string s = buf;
  if (s.find_first_of(".e") == std::string::npos) s += ".0";
  return s;
}

void print_host() {
  const bool avx512 =
#if defined(__x86_64__) && defined(__GNUC__)
      __builtin_cpu_supports("avx512f");
#else
      false;
#endif
  std::cout << "host {\"cpu\": " << quote(cpu_model())
            << ", \"nproc\": " << std::thread::hardware_concurrency()
            << ", \"avx512f\": " << (avx512 ? "true" : "false")
            << ", \"llg.preferred_lanes\": "
            << mram::dyn::BatchMacrospinSim::preferred_lanes()
            << ", \"compiler\": " << quote(__VERSION__)
            << ", \"build_type\": " << quote(PERFBENCH_BUILD_TYPE)
            << ", \"lto\": " << (PERFBENCH_LTO ? "true" : "false")
            << ", \"threads\": " << pb::kThreads << "}\n";
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  const pb::Workload* workload = pb::find_workload(args.workload);
  if (!workload) usage("unknown workload '" + args.workload + "'");
  try {
    Env env(*workload, args);
    if (args.setup_only) {
      // run.py times process launch to here: the workload is ready to run.
      const auto now = std::chrono::steady_clock::now().time_since_epoch();
      std::cout << "ready_ns "
                << std::chrono::duration_cast<std::chrono::nanoseconds>(now)
                       .count()
                << "\n";
      return 0;
    }

    print_host();
    std::cout << "workload " << workload->name << ", seed " << args.seed
              << ", trial scale " << workload->trial_scale * args.scale
              << ", " << env.anchors << " Fig. 2b anchors"
              << ", " << pb::kThreads << " threads, trace "
              << (args.trace ? 1 : 0) << "\n";
    pb::Checks checks;
    const pb::MetricValues values = args.trace
                                        ? measure_layers(env, checks)
                                        : measure_end_to_end(env, checks);

    std::string metrics;
    const std::span<const MetricSpec> specs =
        args.trace ? std::span<const MetricSpec>(kPerLayer)
                   : std::span<const MetricSpec>(kEndToEnd);
    for (const auto& spec : specs) {
      const auto it = values.find(spec.name);
      double v = it == values.end() ? 0.0 : it->second;
      checks.expect(it != values.end() && std::isfinite(v),
                    std::string("metric ") + spec.name + " not measured");
      if (!std::isfinite(v)) v = 0.0;
      std::cout << "  " << spec.name << " " << number(v) << " " << spec.unit
                << "\n";
      if (!metrics.empty()) metrics += ", ";
      metrics += quote(spec.name) + ": {\"value\": " + number(v) +
                 ", \"unit\": " + quote(spec.unit) + "}";
    }
    for (const auto& f : checks.failures()) std::cerr << "FAIL " << f << "\n";
    std::cout << "checks " << checks.attempted() << " attempted, "
              << checks.failed() << " failed (failed_frac "
              << number(ratio(static_cast<double>(checks.failed()),
                              static_cast<double>(checks.attempted())))
              << ")\n";
    std::cout << "{\"correct\": " << (checks.failed() == 0 ? "true" : "false")
              << ", \"attempted\": " << checks.attempted()
              << ", \"failed\": " << checks.failed() << ", \"metrics\": {"
              << metrics << "}}" << std::endl;
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "perfbench_runner: " << e.what() << "\n";
    return 1;
  }
}
