#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <sstream>

#include "obs/trace.h"
#include "util/error.h"
#include "util/table.h"

namespace mram::perfbench {

namespace {

// --- table access ------------------------------------------------------------

const scn::ResultTable* find_table(const Pass& pass, const std::string& scenario,
                                   const std::string& table, Checks& checks) {
  for (const auto& run : pass) {
    if (run.name != scenario) continue;
    if (const auto* t = run.results.find(table)) return t;
  }
  checks.expect(false, scenario + ": table " + table + " missing");
  return nullptr;
}

int column(const scn::ResultTable& t, const std::string& name) {
  for (std::size_t c = 0; c < t.columns.size(); ++c) {
    if (t.columns[c] == name) return static_cast<int>(c);
  }
  return -1;
}

/// Full-precision value of a numeric cell; NaN when the column is missing or
/// the cell is text, so every comparison against it fails.
double value(const scn::ResultTable& t, std::size_t row,
             const std::string& col) {
  const int c = column(t, col);
  if (c < 0 || !t.rows[row][c].numeric) return std::nan("");
  return t.rows[row][c].value;
}

std::string text(const scn::ResultTable& t, std::size_t row,
                 const std::string& col) {
  const int c = column(t, col);
  return c < 0 ? std::string() : t.rows[row][c].text;
}

std::string at(const scn::ResultTable& t, std::size_t row,
               const std::string& col) {
  return t.name + " row " + std::to_string(row) + " (" + col + " = " +
         text(t, row, col) + ")";
}

/// |estimate - truth| within 4 standard errors, the standard error read back
/// from the reported 95% interval.
bool within_4se(double estimate, double lo, double hi, double truth) {
  const double se = (hi - lo) / (2.0 * 1.96);
  return std::abs(estimate - truth) <= 4.0 * se;
}

bool parse_number(const std::string& s, double* out) {
  if (s.empty()) return false;
  char* end = nullptr;
  *out = std::strtod(s.c_str(), &end);
  return end == s.c_str() + s.size();
}

// --- read_disturb ------------------------------------------------------------

void check_read_disturb(const Pass& pass, const Reference&, Checks& checks) {
  const auto* t =
      find_table(pass, "read_disturb_vs_pulse", "disturb_vs_pulse", checks);
  if (!t) return;
  for (std::size_t r = 0; r < t->rows.size(); ++r) {
    const double rate = value(*t, r, "disturb rate");
    const double analytic = value(*t, r, "analytic");
    if (r > 0) {
      checks.expect(rate >= value(*t, r - 1, "disturb rate"),
                    "disturb rate decreases with pulse width at " +
                        at(*t, r, "pulse (ns)"));
    }
    checks.expect(rate > 0.0 && analytic > 0.0 && analytic <= 3.0 * rate &&
                      rate <= 3.0 * analytic,
                  "analytic disturb rate not within 3x of the LLG rate at " +
                      at(*t, r, "pulse (ns)"));
  }
}

// --- write_switching ---------------------------------------------------------

void check_write_switching(const Pass& pass, const Reference&,
                           Checks& checks) {
  const auto* t = find_table(pass, "abl_llg_vs_sun", "llg_vs_sun", checks);
  if (!t) return;
  for (std::size_t r = 0; r < t->rows.size(); ++r) {
    const std::string frac = text(*t, r, "switched/trials");
    const auto slash = frac.find('/');
    checks.expect(slash != std::string::npos && slash > 0 &&
                      frac.substr(0, slash) == frac.substr(slash + 1),
                  "not every LLG trial switched at " + at(*t, r, "Vp (V)"));
    if (r > 0) {
      checks.expect(value(*t, r, "LLG mean (ns)") <
                        value(*t, r - 1, "LLG mean (ns)"),
                    "LLG mean switching time does not fall with Vp at " +
                        at(*t, r, "Vp (V)"));
    }
  }
}

// --- pitch_yield -------------------------------------------------------------

void check_pitch_yield(const Pass& pass, const Reference& ref,
                       Checks& checks) {
  // Fig. 5 against the committed golden series, with the tolerance of the
  // golden-output test (1e-4 absolute + 2e-3 relative; text cells exact).
  if (const auto* t = find_table(pass, "fig5_tw", "tw_vs_vp", checks)) {
    const auto& golden = ref.fig5_golden;
    const bool shape = !golden.empty() && golden[0] == t->columns &&
                       golden.size() == t->rows.size() + 1;
    checks.expect(shape, "fig5_tw header or row count differs from golden");
    for (std::size_t r = 0; shape && r < t->rows.size(); ++r) {
      const auto& want = golden[r + 1];
      bool ok = want.size() == t->rows[r].size();
      for (std::size_t c = 0; ok && c < want.size(); ++c) {
        const std::string& got = t->rows[r][c].text;
        double w = 0.0, g = 0.0;
        if (parse_number(want[c], &w) && parse_number(got, &g)) {
          ok = std::abs(g - w) <= 1e-4 + 2e-3 * std::abs(w);
        } else {
          ok = got == want[c];
        }
      }
      checks.expect(ok, "fig5_tw differs from golden at row " +
                            std::to_string(r));
    }
  }

  // The density-optimal pitch (Psi = 2 %) of the 35 nm device: ~80 nm.
  if (const auto* t = find_table(pass, "fig4b_psi", "optimal_pitch", checks)) {
    bool found = false;
    for (std::size_t r = 0; r < t->rows.size(); ++r) {
      if (std::abs(value(*t, r, "eCD (nm)") - 35.0) > 0.5) continue;
      found = true;
      const double pitch = value(*t, r, "pitch @ Psi=2% (nm)");
      checks.expect(std::abs(pitch - 80.0) <= 5.0,
                    "Psi = 2 % pitch for eCD = 35 nm outside 80 +- 5 nm: " +
                        at(*t, r, "pitch @ Psi=2% (nm)"));
    }
    checks.expect(found, "fig4b_psi has no eCD = 35 nm row");
  }

  // Coupling only costs yield: the yield at 4 x eCD is at least the yield at
  // 1.5 x eCD, up to one binomial standard error of their difference (both
  // are Monte Carlo estimates over independent samples).
  if (const auto* t =
          find_table(pass, "yield_vs_pitch", "yield_vs_pitch", checks)) {
    double y15 = std::nan(""), y4 = std::nan("");
    for (std::size_t r = 0; r < t->rows.size(); ++r) {
      const double mult = value(*t, r, "pitch/eCD");
      if (mult == 1.5) y15 = value(*t, r, "yield (%)") / 100.0;
      if (mult == 4.0) y4 = value(*t, r, "yield (%)") / 100.0;
    }
    // The title leads with the per-pitch sample count.
    const double n = std::strtod(t->title.c_str(), nullptr);
    const double sigma =
        n > 0.0 ? std::sqrt((y15 * (1.0 - y15) + y4 * (1.0 - y4)) / n) : 0.0;
    checks.expect(y4 >= y15 - sigma,
                  "yield at 4 x eCD below yield at 1.5 x eCD (" +
                      util::format_double(100.0 * y4, 2) + " % vs " +
                      util::format_double(100.0 * y15, 2) + " %)");
  }
}

// --- deep_tail ---------------------------------------------------------------

/// Every row of `t`: the estimate within 4 reported standard errors of the
/// closed form, and (importance-sampling rows) relative error <= 0.1.
void check_against_closed_form(const scn::ResultTable& t,
                               const std::string& estimate,
                               const std::string& truth,
                               const std::string& rel_err,
                               const std::string& method_col,
                               Checks& checks) {
  for (std::size_t r = 0; r < t.rows.size(); ++r) {
    checks.expect(within_4se(value(t, r, estimate), value(t, r, "95% lo"),
                             value(t, r, "95% hi"), value(t, r, truth)),
                  t.name + ": estimate more than 4 standard errors from the "
                           "closed form at row " + std::to_string(r) + " (" +
                      text(t, r, estimate) + " vs " + text(t, r, truth) +
                      ")");
    const bool importance =
        method_col.empty() || text(t, r, method_col) == "importance";
    if (importance) {
      checks.expect(value(t, r, rel_err) <= 0.1,
                    "IS relative error above 0.1 at " + at(t, r, rel_err));
    }
  }
}

void check_deep_tail(const Pass& pass, const Reference&, Checks& checks) {
  if (const auto* t =
          find_table(pass, "wer_deep", "wer_deep_vs_width", checks)) {
    check_against_closed_form(*t, "IS WER", "analytic WER", "rel err", "",
                              checks);
  }
  if (const auto* t = find_table(pass, "retention_deep",
                                 "retention_deep_vs_delta", checks)) {
    check_against_closed_form(*t, "IS estimate", "exact", "rel err", "",
                              checks);
  }
  if (const auto* t = find_table(pass, "rare_event_overlap",
                                 "overlap_validation", checks)) {
    check_against_closed_form(*t, "estimate", "analytic", "rel err", "method",
                              checks);
  }
  // rer_deep's analytic column omits the per-read TMR variation the
  // estimates include, so it is no closed form; only the IS stopping
  // criterion is checked.
  if (const auto* t =
          find_table(pass, "rer_deep", "rer_deep_vs_vread", checks)) {
    for (std::size_t r = 0; r < t->rows.size(); ++r) {
      checks.expect(value(*t, r, "rel err") <= 0.1,
                    "IS relative error above 0.1 at " +
                        at(*t, r, "rel err"));
    }
  }
}

std::vector<std::vector<std::string>> read_csv(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw util::ConfigError("cannot open " + path);
  std::vector<std::vector<std::string>> rows;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;
    std::vector<std::string> cells;
    std::stringstream ss(line);
    std::string cell;
    while (std::getline(ss, cell, ',')) cells.push_back(cell);
    if (line.back() == ',') cells.push_back("");
    rows.push_back(std::move(cells));
  }
  if (rows.size() < 2) throw util::ConfigError(path + " has no data rows");
  return rows;
}

}  // namespace

std::string tables_bytes(const Pass& pass) {
  std::string out;
  for (const auto& run : pass) {
    out += "## " + run.name + "\n";
    for (const auto& t : run.results.tables) {
      out += "# " + t.name + "\n" + t.to_csv();
    }
  }
  return out;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n == 0 ? 0.0 : (n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]));
}

void Checks::expect(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) failures_.push_back(what);
}

Reference load_reference(const std::string& data_dir) {
  return {read_csv(data_dir + "/golden_fig5_tw.csv")};
}

// Each workload stresses a different layer; the trial scales make one pass
// take about a second on 2 worker threads of a 4-core x86-64 host.
const std::vector<Workload>& workloads() {
  static const std::vector<Workload> kWorkloads{
      // Stochastic-LLG read disturb: the batched dynamics kernel, lanes
      // mostly running their full window.
      {"read_disturb", {"read_disturb_vs_pulse"}, 3.0, check_read_disturb},
      // LLG AP->P write switching: the same kernel with every lane retiring
      // at its own switching time.
      {"write_switching", {"abl_llg_vs_sun"}, 800.0, check_write_switching},
      // The paper's coupling pipeline: per-sample device, inter-cell solver
      // and read-model set-up; no LLG.
      {"pitch_yield",
       {"yield_vs_pitch", "sense_margin_ir_drop", "fig4b_psi", "fig4c_ic",
        "fig5_tw", "fig6b_delta_worst"},
       4.0,
       check_pitch_yield},
      // Adaptive rare-event estimation: many short runner calls, dominated
      // by fan-out, fold and stopping control.
      {"deep_tail",
       {"wer_deep", "rer_deep", "retention_deep", "rare_event_overlap"},
       6.0,
       check_deep_tail},
  };
  return kWorkloads;
}

const Workload* find_workload(const std::string& name) {
  for (const auto& w : workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

Pass run_pass(const Workload& w, const scn::ScenarioRegistry& registry,
              eng::MonteCarloRunner& runner, std::uint64_t seed,
              const std::string& data_dir, double scale,
              obs::Registry* metrics) {
  Pass pass;
  for (const auto& name : w.scenarios) {
    ScenarioRun run{name, {}, {}, {}};
    if (metrics) metrics->reset();
    {
      obs::TraceSpan span("scenario", [&] { return name; });
      try {
        scn::ScenarioContext ctx{.runner = runner,
                                 .seed = seed,
                                 .data_dir = data_dir,
                                 .trial_scale = w.trial_scale * scale};
        run.results = registry.at(name).run(ctx);
      } catch (const std::exception& e) {
        run.error = e.what();
      }
    }
    if (metrics) run.snapshot = metrics->snapshot();
    pass.push_back(std::move(run));
  }
  return pass;
}

void check_ran(const Pass& pass, Checks& checks) {
  for (const auto& run : pass) {
    checks.expect(run.error.empty(), run.name + " threw: " + run.error);
  }
}

void check_pass(const Workload& w, const Pass& pass, const Reference& ref,
                Checks& checks) {
  check_ran(pass, checks);
  w.check(pass, ref, checks);
}

}  // namespace mram::perfbench
