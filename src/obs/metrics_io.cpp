#include "obs/metrics_io.h"

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "obs/json.h"
#include "util/error.h"

namespace mram::obs {

namespace {

std::string u64_str(std::uint64_t v) { return std::to_string(v); }

/// Round-trip double formatting: %.17g, exact but not the shortest form.
std::string dbl_str(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string histogram_json(const Histogram& h) {
  std::ostringstream os;
  os << "{\"count\": " << u64_str(h.count) << ", \"total\": "
     << u64_str(h.total) << ", \"min\": " << u64_str(h.count ? h.min : 0)
     << ", \"max\": " << u64_str(h.max);
  if (h.count > 0) {
    // Percentile estimates, recomputed here from the bucket tallies; the
    // parser ignores them, so they survive a /1 reader and are always
    // consistent with the buckets they sit next to.
    os << ", \"p50\": " << dbl_str(h.quantile(0.50))
       << ", \"p90\": " << dbl_str(h.quantile(0.90))
       << ", \"p99\": " << dbl_str(h.quantile(0.99));
  }
  os << ", \"buckets\": [";
  bool first = true;
  for (std::size_t b = 0; b < Histogram::kBuckets; ++b) {
    if (h.buckets[b] == 0) continue;
    if (!first) os << ", ";
    first = false;
    const std::uint64_t lo = b == 0 ? 0 : (std::uint64_t{1} << b);
    // Bucket 63 is open-ended; report its lower bound twice rather than
    // overflow the upper one.
    const std::uint64_t hi =
        b >= 63 ? ~std::uint64_t{0} : (std::uint64_t{1} << (b + 1));
    os << "[" << u64_str(lo) << ", " << u64_str(hi) << ", "
       << u64_str(h.buckets[b]) << "]";
  }
  os << "]}";
  return os.str();
}

std::string snapshot_json(const Snapshot& s, const std::string& indent) {
  std::ostringstream os;
  const auto emit_map = [&](const char* key, auto&& body, bool& first_sec) {
    if (!first_sec) os << ",\n";
    first_sec = false;
    os << indent << "\"" << key << "\": {";
    body();
    os << "}";
  };
  bool first_sec = true;
  emit_map("counters", [&] {
    bool first = true;
    for (const auto& [name, v] : s.counters) {
      os << (first ? "" : ", ") << "\"" << json_escape(name)
         << "\": " << u64_str(v);
      first = false;
    }
  }, first_sec);
  emit_map("gauges", [&] {
    bool first = true;
    for (const auto& [name, v] : s.gauges) {
      os << (first ? "" : ", ") << "\"" << json_escape(name)
         << "\": " << dbl_str(v);
      first = false;
    }
  }, first_sec);
  emit_map("histograms", [&] {
    bool first = true;
    for (const auto& [name, h] : s.histograms) {
      os << (first ? "" : ", ") << "\"" << json_escape(name)
         << "\": " << histogram_json(h);
      first = false;
    }
  }, first_sec);
  if (const auto derived = derived_metrics(s); !derived.empty()) {
    emit_map("derived", [&] {
      bool first = true;
      for (const auto& [name, v] : derived) {
        os << (first ? "" : ", ") << "\"" << json_escape(name)
           << "\": " << dbl_str(v);
        first = false;
      }
    }, first_sec);
  }
  emit_map("series", [&] {
    bool first = true;
    for (const auto& [name, pts] : s.series) {
      os << (first ? "" : ", ") << "\"" << json_escape(name) << "\": [";
      bool fp = true;
      for (const auto& [x, y] : pts) {
        os << (fp ? "" : ", ") << "[" << dbl_str(x) << ", " << dbl_str(y)
           << "]";
        fp = false;
      }
      os << "]";
      first = false;
    }
  }, first_sec);
  return os.str();
}

}  // namespace

std::map<std::string, double> derived_metrics(const Snapshot& s) {
  const auto counter = [&](const char* name) -> double {
    const auto it = s.counters.find(name);
    return it == s.counters.end() ? 0.0 : static_cast<double>(it->second);
  };

  std::map<std::string, double> d;
  const double trials = counter("engine.trials");
  const double busy_ns = counter("engine.busy_ns");

  // Software fallback rows: steady-clock busy time over retired trials.
  // Always derivable when the engine ran; these ARE the efficiency report
  // on hosts where perf_event_open is unavailable.
  if (trials > 0.0 && busy_ns > 0.0) {
    d["engine.ns_per_trial"] = busy_ns / trials;
    d["engine.trials_per_sec"] = 1e9 * trials / busy_ns;
  }

  const double cycles = counter("perf.cycles");
  const double instructions = counter("perf.instructions");
  const double cache_refs = counter("perf.cache_refs");
  const double cache_misses = counter("perf.cache_misses");
  const double branch_misses = counter("perf.branch_misses");
  const double stalled = counter("perf.stalled_backend");
  const double enabled_ns = counter("perf.time_enabled_ns");
  const double running_ns = counter("perf.time_running_ns");

  if (cycles > 0.0) {
    if (instructions > 0.0) d["perf.ipc"] = instructions / cycles;
    if (stalled > 0.0) d["perf.stalled_backend_frac"] = stalled / cycles;
    if (trials > 0.0) d["perf.cycles_per_trial"] = cycles / trials;
  }
  if (cache_refs > 0.0) d["perf.cache_miss_rate"] = cache_misses / cache_refs;
  if (instructions > 0.0 && branch_misses > 0.0) {
    d["perf.branch_miss_per_kinsn"] = 1e3 * branch_misses / instructions;
  }
  // running < enabled means the kernel multiplexed the group onto an
  // oversubscribed PMU and the raw counts are extrapolations.
  if (enabled_ns > 0.0) {
    d["perf.multiplex_frac"] =
        running_ns >= enabled_ns ? 0.0 : 1.0 - running_ns / enabled_ns;
  }

  // Estimated flops/cycle for the batched LLG kernel: the llg.flops
  // counter (executed lane-steps times the documented per-step flop count,
  // accumulated lock-free next to the occupancy counters) over the cycles
  // of the chunks tagged llg. An estimate -- the chunk cycles also cover
  // the span's set-up and fold -- but exact enough to read SIMD occupancy
  // off.
  const double flops = counter("llg.flops");
  const double llg_cycles = counter("perf.llg.cycles");
  if (flops > 0.0 && llg_cycles > 0.0) {
    d["llg.est_flops_per_cycle"] = flops / llg_cycles;
  }
  return d;
}

ScenarioMetrics& MetricsDoc::scenario(const std::string& name) {
  for (auto& s : scenarios) {
    if (s.name == name) return s;
  }
  scenarios.push_back(ScenarioMetrics{name, {}});
  return scenarios.back();
}

std::string MetricsDoc::to_json() const {
  std::ostringstream os;
  os << "{\n  \"schema\": \"" << kSchema << "\",\n  \"tool\": \""
     << json_escape(tool) << "\",\n  \"threads\": " << threads
     << ",\n  \"seed\": " << u64_str(seed) << ",\n  \"scenarios\": [";
  bool first = true;
  for (const auto& s : scenarios) {
    os << (first ? "\n" : ",\n");
    first = false;
    os << "    {\n      \"name\": \"" << json_escape(s.name) << "\",\n"
       << snapshot_json(s.snapshot, "      ") << "\n    }";
  }
  os << (scenarios.empty() ? "]" : "\n  ]") << "\n}\n";
  return os.str();
}

void write_metrics_file(const std::string& path, const MetricsDoc& doc) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  if (!os) {
    throw util::ConfigError("cannot open metrics output file " + path);
  }
  os << doc.to_json();
  os.flush();
  if (!os) {
    throw util::ConfigError("failed writing metrics file " + path);
  }
}

}  // namespace mram::obs
