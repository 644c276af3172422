#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "scenario/scenario.h"
#include "util/rng.h"

// Parameter-grid expansion and the sweep driver.
//
// Grids are integer-indexed: an axis is an explicit vector of values, and
// the generator computes point i as start + i * step instead of
// accumulating a floating-point loop variable. A
// sweep like `for (vp = 0.70; vp <= 1.205; vp += 0.05)` -- whose point
// count depends on rounding of the accumulated sum -- becomes
// GridAxis::step("Vp", 0.70, 0.05, 11): exactly 11 points on every
// platform.
//
// SweepDriver walks a 1-D or 2-D grid in flat index order (deterministic),
// hands each point a per-point seed derived only from (master seed, flat
// index), and shares one MonteCarloRunner across all points so a whole
// sweep pays thread-pool creation once. Stochastic per-point work goes
// through the runner's counter-based trial streams, which keeps every
// sweep bit-identical across thread counts.

namespace mram::scn {

/// One named sweep axis: an explicit, exact set of parameter values.
struct GridAxis {
  std::string name;
  std::vector<double> values;

  std::size_t size() const { return values.size(); }

  /// Axis from an explicit value list.
  static GridAxis list(std::string name, std::vector<double> values);

  /// `count` points start, start + step, ..., start + (count-1) * step.
  /// Each computed by index multiplication, never by accumulation.
  static GridAxis step(std::string name, double start, double step,
                       std::size_t count);
};

/// A 1-D or 2-D cross-product grid. 2-D grids iterate row-major: the outer
/// axis varies slowest. An empty axis yields an empty grid (size() == 0),
/// which sweeps handle by producing a table with no rows.
class Grid {
 public:
  explicit Grid(GridAxis axis);
  Grid(GridAxis outer, GridAxis inner);

  std::size_t size() const;

  struct Point {
    std::size_t index = 0;  ///< flat index in iteration order
    double x = 0.0;         ///< outer-axis value
    double y = 0.0;         ///< inner-axis value (0 for 1-D grids)
  };

  /// The i-th point in row-major order. Precondition: i < size().
  Point point(std::size_t i) const;

 private:
  std::vector<GridAxis> axes_;
};

/// Everything a sweep body sees at one grid point.
struct SweepPoint {
  Grid::Point at;
  eng::MonteCarloRunner& runner;
  std::uint64_t seed;  ///< deterministic per-point master seed

  /// A fresh RNG seeded from the per-point seed.
  util::Rng rng() const { return util::Rng(seed); }
};

/// Expands grids into result tables. Rows are evaluated in flat-index
/// order; fn returns the full row (including any coordinate cells, so the
/// scenario controls formatting).
class SweepDriver {
 public:
  SweepDriver(eng::MonteCarloRunner& runner, std::uint64_t seed)
      : runner_(runner), seed_(seed) {}

  eng::MonteCarloRunner& runner() const { return runner_; }
  std::uint64_t master_seed() const { return seed_; }

  /// Per-point master seed: depends only on (master seed, flat index).
  std::uint64_t point_seed(std::size_t index) const;

  /// Runs fn(const SweepPoint&) -> std::vector<Cell> at every grid point
  /// and collects the rows into a table.
  template <class Fn>
  ResultTable sweep(std::string name, std::string title,
                    std::vector<std::string> columns, const Grid& grid,
                    Fn&& fn) const {
    ResultTable table;
    table.name = std::move(name);
    table.title = std::move(title);
    table.columns = std::move(columns);
    const std::size_t n = grid.size();
    for (std::size_t i = 0; i < n; ++i) {
      SweepPoint pt{grid.point(i), runner_, point_seed(i)};
      obs::TraceSpan span("sweep", [&] {
        return table.name + " point " + std::to_string(i) + "/" +
               std::to_string(n);
      });
      obs::ScopedHist point_timer(obs::Hist::kSweepPointNanos);
      obs::counter_add(obs::Counter::kSweepPoints);
      table.add_row(fn(static_cast<const SweepPoint&>(pt)));
    }
    return table;
  }

 private:
  eng::MonteCarloRunner& runner_;
  std::uint64_t seed_;
};

}  // namespace mram::scn
