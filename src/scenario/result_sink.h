#pragma once

#include <iosfwd>
#include <memory>
#include <string>

#include "scenario/scenario.h"

// Result sinks: render a scenario's ResultSet as aligned text, CSV or
// JSON. Every sink can write either to a stream (stdout mode) or into a
// directory (one file per scenario: `<name>.txt` / `<name>.json`, and one
// file per table for CSV: `<name>__<table>.csv`), so the same run can feed
// a terminal, a plotting script or a CI artifact store.

namespace mram::scn {

/// Provenance of one scenario run, recorded alongside the results.
struct RunMeta {
  std::uint64_t seed = ScenarioContext::kDefaultSeed;
  unsigned threads = 1;
  double trial_scale = 1.0;
};

class ResultSink {
 public:
  virtual ~ResultSink() = default;

  /// Emits the results of one scenario run.
  virtual void write(const ScenarioInfo& info, const RunMeta& meta,
                     const ResultSet& results) = 0;
};

/// Aligned text tables with a header/footer block.
class TextSink : public ResultSink {
 public:
  explicit TextSink(std::ostream& os) : os_(&os) {}
  explicit TextSink(std::string out_dir) : out_dir_(std::move(out_dir)) {}

  void write(const ScenarioInfo& info, const RunMeta& meta,
             const ResultSet& results) override;

 private:
  std::ostream* os_ = nullptr;
  std::string out_dir_;
};

/// CSV, one header + body per table. Stream mode separates tables with
/// `# scenario/table` comment lines (the repo's CSV reader skips them);
/// directory mode writes `<scenario>__<table>.csv` files.
class CsvSink : public ResultSink {
 public:
  explicit CsvSink(std::ostream& os) : os_(&os) {}
  explicit CsvSink(std::string out_dir) : out_dir_(std::move(out_dir)) {}

  void write(const ScenarioInfo& info, const RunMeta& meta,
             const ResultSet& results) override;

 private:
  std::ostream* os_ = nullptr;
  std::string out_dir_;
};

/// One JSON document per scenario: metadata, tables (numeric cells as JSON
/// numbers, everything else as strings) and notes.
class JsonSink : public ResultSink {
 public:
  explicit JsonSink(std::ostream& os) : os_(&os) {}
  explicit JsonSink(std::string out_dir) : out_dir_(std::move(out_dir)) {}

  void write(const ScenarioInfo& info, const RunMeta& meta,
             const ResultSet& results) override;

 private:
  std::ostream* os_ = nullptr;
  std::string out_dir_;
};

/// Renders one scenario result as a JSON document (the JsonSink payload).
std::string to_json(const ScenarioInfo& info, const RunMeta& meta,
                    const ResultSet& results);

/// JSON string escaping (quotes, backslashes, control characters).
std::string json_escape(const std::string& s);

/// Builds the sink for a CLI format name ("table", "csv", "json").
/// `out_dir` empty selects stream mode on `os`. Throws util::ConfigError on
/// an unknown format.
std::unique_ptr<ResultSink> make_sink(const std::string& format,
                                      std::ostream& os,
                                      const std::string& out_dir);

}  // namespace mram::scn
