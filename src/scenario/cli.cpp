#include "scenario/cli.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <iostream>
#include <string>
#include <vector>

#include "scenario/registry.h"
#include "scenario/run_command.h"
#include "util/error.h"
#include "util/table.h"

namespace mram::scn::cli {

namespace {

/// Structural misuse of the command line (unknown option) -- exit code 2
/// with the usage text, distinct from ConfigError (bad value, exit 1).
struct UsageError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

int usage(std::ostream& os, int code) {
  os << "usage:\n"
        "  mram_scenarios list [--figure TAG]\n"
        "  mram_scenarios describe <name> [<name>...] | --figure TAG\n"
        "  mram_scenarios run <name> [<name>...] | --all\n"
        "                 [--threads N] [--seed S]\n"
        "                 [--format table|csv|json] [--out DIR]\n"
        "                 [--data DIR] [--trial-scale X]\n"
        "                 [--metrics FILE] [--trace FILE] [--perf]\n"
        "                 [--progress] [--quiet]\n"
        "\n"
        "Observability (none of these can change results):\n"
        "  --metrics FILE  per-scenario metrics snapshot (JSON, schema\n"
        "                  mram.metrics/2): trial/chunk counts, wall and\n"
        "                  busy time, lane occupancy, rare-event rounds,\n"
        "                  chunk-time percentiles... FILE '-' = stdout\n"
        "  --trace FILE    Chrome trace-event JSON; open in Perfetto\n"
        "                  (ui.perfetto.dev) to see scenario > sweep-point\n"
        "                  > chunk spans on per-thread tracks; '-' = stdout\n"
        "  --perf          hardware-counter profiling (needs --metrics):\n"
        "                  per-kernel cycles/IPC/miss rates via perf_event\n"
        "                  groups read at chunk boundaries; falls back to\n"
        "                  software timers where perf_event is unavailable\n"
        "  --progress      live progress/ETA line on stderr\n"
        "  --quiet         suppress the stderr summary and progress\n";
  return code;
}

/// Scenario names selected by explicit list and/or --figure tag, sorted
/// and deduplicated (a scenario both matching the tag and named explicitly
/// is selected once). An unknown figure tag (no match) is an error so
/// typos do not silently select nothing.
std::vector<std::string> select_names(const ScenarioRegistry& registry,
                                      const std::vector<std::string>& names,
                                      const std::string& figure,
                                      bool default_all) {
  std::vector<std::string> selected = names;
  if (!figure.empty()) {
    const auto matched = registry.names_by_figure(figure);
    if (matched.empty()) {
      throw util::ConfigError("no scenario has a figure tag matching '" +
                              figure + "' (see `mram_scenarios list`)");
    }
    selected.insert(selected.end(), matched.begin(), matched.end());
  }
  std::sort(selected.begin(), selected.end());
  selected.erase(std::unique(selected.begin(), selected.end()),
                 selected.end());
  if (selected.empty() && default_all) return registry.names();
  return selected;
}

int cmd_list(const std::string& figure, std::ostream& out) {
  const auto& registry = ScenarioRegistry::global();
  const auto names = select_names(registry, {}, figure, true);
  util::Table t({"name", "figure", "summary"});
  for (const auto& name : names) {
    const auto& info = registry.at(name).info;
    t.add_row({info.name, info.figure, info.summary});
  }
  const std::string caption =
      figure.empty()
          ? std::to_string(registry.size()) + " registered scenarios"
          : std::to_string(names.size()) + " of " +
                std::to_string(registry.size()) +
                " scenarios matching figure '" + figure + "'";
  t.print(out, caption);
  return 0;
}

int cmd_describe(const std::vector<std::string>& names,
                 const std::string& figure, std::ostream& out,
                 std::ostream& err) {
  const auto& registry = ScenarioRegistry::global();
  const auto selected = select_names(registry, names, figure, false);
  if (selected.empty()) return usage(err, 2);
  bool first = true;
  for (const auto& name : selected) {
    const auto& info = registry.at(name).info;
    if (!first) out << "\n";
    first = false;
    out << info.name << " (" << info.figure << ")\n"
        << info.summary << "\n\n"
        << info.details << "\n";
    if (!info.params.empty()) {
      util::Table t({"parameter", "value", "description"});
      for (const auto& p : info.params) {
        t.add_row({p.name, p.value, p.description});
      }
      t.print(out, "parameters");
    }
  }
  return 0;
}

/// Names, --figure and the `run` options of one command line.
struct ParsedArgs {
  std::vector<std::string> names;
  std::string figure;
  std::string run_only_option;  ///< last run-only flag seen ("" if none)
  RunCommandOptions opt;
};

/// Parses args[1..] (everything after the subcommand).
ParsedArgs parse_common(const std::vector<std::string>& args) {
  ParsedArgs p;
  for (std::size_t i = 1; i < args.size(); ++i) {
    const std::string& a = args[i];
    auto value = [&]() -> const std::string& {
      if (++i >= args.size()) {
        throw util::ConfigError("missing value after " + a);
      }
      return args[i];
    };
    if (a == "--figure") {
      p.figure = value();
      continue;
    }
    if (!a.empty() && a[0] == '-') p.run_only_option = a;
    if (a == "--all") {
      p.opt.all = true;
    } else if (a == "--threads") {
      p.opt.threads = parse_threads(value());
    } else if (a == "--seed") {
      p.opt.seed = parse_u64("--seed", value());
    } else if (a == "--format") {
      p.opt.format = value();
    } else if (a == "--out") {
      p.opt.out_dir = value();
    } else if (a == "--data") {
      p.opt.data_dir = value();
    } else if (a == "--trial-scale") {
      p.opt.trial_scale = parse_double("--trial-scale", value());
      if (!(p.opt.trial_scale > 0.0)) {
        throw util::ConfigError("--trial-scale must be positive");
      }
    } else if (a == "--metrics") {
      p.opt.metrics_file = value();
    } else if (a == "--trace") {
      p.opt.trace_file = value();
    } else if (a == "--perf") {
      p.opt.perf = true;
    } else if (a == "--progress") {
      p.opt.progress = true;
    } else if (a == "--quiet") {
      p.opt.quiet = true;
    } else if (!a.empty() && a[0] == '-') {
      throw UsageError("unknown option " + a);
    } else {
      p.names.push_back(a);
    }
  }
  return p;
}

}  // namespace

std::uint64_t parse_u64(const std::string& flag, const std::string& s) {
  if (s.empty() ||
      s.find_first_not_of("0123456789") != std::string::npos) {
    throw util::ConfigError(flag + " expects a non-negative integer, got '" +
                            s + "'");
  }
  try {
    return std::stoull(s);
  } catch (const std::exception&) {
    throw util::ConfigError(flag + " value '" + s + "' is out of range");
  }
}

double parse_double(const std::string& flag, const std::string& s) {
  double v = 0.0;
  const char* begin = s.data();
  const char* end = begin + s.size();
  const auto [ptr, ec] = std::from_chars(begin, end, v);
  if (ec == std::errc::result_out_of_range) {
    throw util::ConfigError(flag + " value '" + s +
                            "' is out of range for a double");
  }
  if (ec != std::errc{} || ptr != end || s.empty()) {
    throw util::ConfigError(flag + " expects a number, got '" + s + "'");
  }
  // from_chars accepts "inf"/"nan" spellings; neither is a usable value for
  // any flag this CLI has, so reject them here instead of in every caller.
  if (!std::isfinite(v)) {
    throw util::ConfigError(flag + " must be finite, got '" + s + "'");
  }
  return v;
}

unsigned parse_threads(const std::string& s) {
  const std::uint64_t n = parse_u64("--threads", s);
  if (n > 1024) {
    throw util::ConfigError("--threads " + s +
                            " is absurd (max 1024; 0 = all cores)");
  }
  return static_cast<unsigned>(n);
}

int scenarios_main(const std::vector<std::string>& args, std::ostream& out,
                   std::ostream& err) {
  try {
    if (args.empty()) return usage(err, 2);
    const std::string& command = args[0];
    if (command == "help" || command == "--help" || command == "-h") {
      return usage(out, 0);
    }

    // Shared trailing-argument parsing: positional names plus options.
    // Run-only options are remembered so list/describe can reject them
    // instead of silently ignoring them.
    ParsedArgs p;
    try {
      p = parse_common(args);
    } catch (const UsageError& e) {
      err << e.what() << "\n";
      return usage(err, 2);
    }
    if (command != "run" && !p.run_only_option.empty()) {
      err << p.run_only_option << " is only valid for `run`\n";
      return usage(err, 2);
    }

    if (command == "list") {
      if (!p.names.empty()) return usage(err, 2);
      return cmd_list(p.figure, out);
    }
    if (command == "describe") {
      if (p.names.empty() && p.figure.empty()) return usage(err, 2);
      return cmd_describe(p.names, p.figure, out, err);
    }
    if (command == "run") {
      if (p.opt.all && (!p.names.empty() || !p.figure.empty())) {
        throw util::ConfigError(
            "--all cannot be combined with scenario names or --figure");
      }
      const auto& registry = ScenarioRegistry::global();
      p.opt.names = select_names(registry, p.names, p.figure, false);
      return run_scenarios(registry, p.opt, out, err);
    }
    err << "unknown command '" << command << "'\n";
    return usage(err, 2);
  } catch (const std::exception& e) {
    err << "error: " << e.what() << "\n";
    return 1;
  }
}

}  // namespace mram::scn::cli
