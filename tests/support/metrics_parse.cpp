#include "support/metrics_parse.h"

#include <fstream>
#include <sstream>

#include "support/json_parse.h"
#include "util/error.h"

namespace mram::obs {

namespace {

Histogram histogram_from_json(const JsonValue& v, const std::string& what) {
  Histogram h;
  h.count = v.expect("count", what.c_str()).as_u64(what.c_str());
  h.total = v.expect("total", what.c_str()).as_u64(what.c_str());
  h.min = v.expect("min", what.c_str()).as_u64(what.c_str());
  if (h.count == 0) h.min = ~std::uint64_t{0};
  h.max = v.expect("max", what.c_str()).as_u64(what.c_str());
  const JsonValue& buckets = v.expect("buckets", what.c_str());
  if (!buckets.is(JsonValue::Kind::kArray)) {
    throw util::ConfigError(what + ": buckets must be an array");
  }
  for (const auto& entry : buckets.array) {
    if (!entry.is(JsonValue::Kind::kArray) || entry.array.size() != 3) {
      throw util::ConfigError(what + ": bucket entries are [lo, hi, count]");
    }
    const std::uint64_t lo = entry.array[0].as_u64(what.c_str());
    const std::uint64_t n = entry.array[2].as_u64(what.c_str());
    h.buckets[Histogram::bucket_of(lo)] += n;
  }
  return h;
}

Snapshot snapshot_from_json(const JsonValue& v, const std::string& what) {
  Snapshot s;
  if (const JsonValue* counters = v.get("counters")) {
    for (const auto& [name, val] : counters->object) {
      s.counters[name] = val.as_u64((what + ".counters").c_str());
    }
  }
  if (const JsonValue* gauges = v.get("gauges")) {
    for (const auto& [name, val] : gauges->object) {
      s.gauges[name] = val.as_number((what + ".gauges").c_str());
    }
  }
  if (const JsonValue* hists = v.get("histograms")) {
    for (const auto& [name, val] : hists->object) {
      s.histograms[name] =
          histogram_from_json(val, what + ".histograms." + name);
    }
  }
  if (const JsonValue* series = v.get("series")) {
    for (const auto& [name, val] : series->object) {
      auto& pts = s.series[name];
      if (!val.is(JsonValue::Kind::kArray)) {
        throw util::ConfigError(what + ".series." + name +
                                ": expected an array of [x, y] pairs");
      }
      for (const auto& pt : val.array) {
        if (!pt.is(JsonValue::Kind::kArray) || pt.array.size() != 2) {
          throw util::ConfigError(what + ".series." + name +
                                  ": entries are [x, y] pairs");
        }
        pts.emplace_back(pt.array[0].as_number("series x"),
                         pt.array[1].as_number("series y"));
      }
    }
  }
  return s;
}

}  // namespace

MetricsDoc parse_metrics_doc(const std::string& json_text) {
  const JsonValue root = json_parse(json_text);
  if (!root.is(JsonValue::Kind::kObject)) {
    throw util::ConfigError("metrics document: expected a JSON object");
  }
  const std::string& schema =
      root.expect("schema", "metrics document").as_string("schema");
  if (schema != MetricsDoc::kSchema) {
    throw util::ConfigError("metrics document: unsupported schema '" +
                            schema + "' (this build reads '" +
                            MetricsDoc::kSchema + "')");
  }
  MetricsDoc doc;
  if (const JsonValue* tool = root.get("tool")) {
    doc.tool = tool->as_string("tool");
  }
  if (const JsonValue* threads = root.get("threads")) {
    doc.threads = static_cast<unsigned>(threads->as_u64("threads"));
  }
  if (const JsonValue* seed = root.get("seed")) {
    doc.seed = seed->as_u64("seed");
  }
  const JsonValue& scenarios =
      root.expect("scenarios", "metrics document");
  if (!scenarios.is(JsonValue::Kind::kArray)) {
    throw util::ConfigError("metrics document: scenarios must be an array");
  }
  for (const auto& s : scenarios.array) {
    ScenarioMetrics sm;
    sm.name = s.expect("name", "scenario entry").as_string("name");
    sm.snapshot = snapshot_from_json(s, "scenario '" + sm.name + "'");
    doc.scenarios.push_back(std::move(sm));
  }
  return doc;
}

MetricsDoc load_metrics_doc(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) {
    throw util::ConfigError("cannot open metrics file " + path);
  }
  std::ostringstream buf;
  buf << is.rdbuf();
  try {
    return parse_metrics_doc(buf.str());
  } catch (const util::ConfigError& e) {
    throw util::ConfigError(path + ": " + e.what());
  }
}

}  // namespace mram::obs
