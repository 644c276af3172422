#include "readout/bitline.h"

#include <algorithm>
#include <cmath>

#include "util/error.h"

namespace mram::rdo {

void BitlineParams::validate() const {
  if (r_driver <= 0.0 || r_sink <= 0.0) {
    throw util::ConfigError("driver and sink resistances must be positive");
  }
  if (r_bl_segment < 0.0 || r_sl_segment < 0.0) {
    throw util::ConfigError("segment resistances must be non-negative");
  }
  if (r_leak <= 0.0) throw util::ConfigError("leak resistance must be positive");
  if (rows == 0) throw util::ConfigError("a column needs at least one row");
}

BitlinePath::BitlinePath(const BitlineParams& params,
                         const dev::ElectricalModel& cell)
    : params_(params) {
  params_.validate();
  // Sneak-path drops across off cells are millivolts, so the zero-bias
  // resistances are accurate and keep the leak branches linear (the network
  // solve stays a single linear system).
  r_leak_p_ = params_.r_leak + cell.resistance(dev::MtjState::kParallel, 0.0);
  r_leak_ap_ =
      params_.r_leak + cell.resistance(dev::MtjState::kAntiParallel, 0.0);
}

double BitlinePath::series_resistance(std::size_t row) const {
  MRAM_EXPECTS(row < params_.rows, "row out of range");
  const double hops = static_cast<double>(row);
  return params_.r_driver + params_.r_sink +
         hops * (params_.r_bl_segment + params_.r_sl_segment);
}

namespace {

/// In-place Gaussian elimination without pivoting of the dense n x n matrix
/// `a`, whose nonzeros lie within `band` of the diagonal. The read-column
/// conductance matrix is symmetric strictly diagonally dominant, for which
/// elimination without pivoting is numerically stable; `rhs` holds k
/// right-hand sides column-major and receives the solutions.
///
/// Elimination without pivoting keeps fill-in inside the band: the update of
/// row r from pivot row col touches only columns where row col is nonzero,
/// all within col + band <= r + band. Entries outside the band therefore
/// start at +0 and stay +0, and the work skipped by bounding every loop to
/// col + band is exactly the updates x -= f * (+0). Those leave x unchanged
/// bitwise, because no entry is ever -0 (stamps and differences of nonzero
/// values give nonzero values or +0), so the solution is bit-identical to
/// the full dense elimination.
///
/// It is the hot loop of every read-model build. Kept out of line at a
/// 64-byte boundary, its loops keep one cache-line offset whatever code
/// around it changes; inlined, its speed moved by 10-21% with unrelated
/// layout shifts of the LTO build.
[[gnu::noinline, gnu::aligned(64)]] void eliminate_banded(
    std::vector<double>& a, std::vector<double>& rhs, std::size_t n,
    std::size_t band, std::size_t k) {
  for (std::size_t col = 0; col < n; ++col) {
    const double pivot = a[col * n + col];
    MRAM_ENSURES(std::abs(pivot) > 0.0, "singular read-column network");
    const std::size_t end = std::min(n, col + band + 1);
    for (std::size_t r = col + 1; r < end; ++r) {
      const double f = a[r * n + col] / pivot;
      if (f == 0.0) continue;
      for (std::size_t c = col; c < end; ++c) {
        a[r * n + c] -= f * a[col * n + c];
      }
      for (std::size_t s = 0; s < k; ++s) {
        rhs[s * n + r] -= f * rhs[s * n + col];
      }
    }
  }
  for (std::size_t s = 0; s < k; ++s) {
    for (std::size_t ri = n; ri-- > 0;) {
      const std::size_t end = std::min(n, ri + band + 1);
      double x = rhs[s * n + ri];
      for (std::size_t c = ri + 1; c < end; ++c) {
        x -= a[ri * n + c] * rhs[s * n + c];
      }
      rhs[s * n + ri] = x / a[ri * n + ri];
    }
  }
}

}  // namespace

ReadPort BitlinePath::port(std::size_t row, double v_read,
                           const std::vector<int>& column_data) const {
  MRAM_EXPECTS(row < params_.rows, "selected row out of range");
  MRAM_EXPECTS(v_read > 0.0, "read voltage must be positive");
  MRAM_EXPECTS(column_data.size() == params_.rows,
               "column data must cover every row");

  // Nodes: bitline node of row i at index i, source-line node at N + i.
  const std::size_t n_rows = params_.rows;
  const std::size_t n = 2 * n_rows;
  std::vector<double> g(n * n, 0.0);
  // Two right-hand sides through one factorization: (a) the driver forcing
  // v_read (open-circuit port voltage), (b) a unit test current into the
  // port with the driver shorted (port resistance).
  std::vector<double> rhs(2 * n, 0.0);

  auto stamp = [&](std::size_t i, std::size_t j, double conductance) {
    g[i * n + i] += conductance;
    g[j * n + j] += conductance;
    g[i * n + j] -= conductance;
    g[j * n + i] -= conductance;
  };
  auto stamp_ground = [&](std::size_t i, double conductance) {
    g[i * n + i] += conductance;
  };

  // Driver into the head bitline node; sink from the head source-line node.
  const double g_driver = 1.0 / params_.r_driver;
  stamp_ground(0, g_driver);
  rhs[0] = v_read * g_driver;  // only in the voltage solve
  stamp_ground(n_rows, 1.0 / params_.r_sink);

  // Wire segments. A zero-resistance segment collapses to a strong tie so
  // the matrix stays nonsingular without special-casing ideal wires.
  const double g_bl = params_.r_bl_segment > 0.0
                          ? 1.0 / params_.r_bl_segment
                          : 1e12;
  const double g_sl = params_.r_sl_segment > 0.0
                          ? 1.0 / params_.r_sl_segment
                          : 1e12;
  for (std::size_t i = 0; i + 1 < n_rows; ++i) {
    stamp(i, i + 1, g_bl);
    stamp(n_rows + i, n_rows + i + 1, g_sl);
  }

  // Unselected rows: sneak branch bitline -> source line through the off
  // access transistor in series with that row's MTJ state resistance.
  for (std::size_t i = 0; i < n_rows; ++i) {
    if (i == row) continue;  // the port; its branch is the unknown cell
    const double r_branch = column_data[i] ? r_leak_ap_ : r_leak_p_;
    stamp(i, n_rows + i, 1.0 / r_branch);
  }

  // Test-current solve: +1 A into the bitline port node, -1 A out of the
  // source-line port node, driver shorted (rhs[0] stays 0 in this column).
  rhs[n + row] = 1.0;
  rhs[n + n_rows + row] = -1.0;

  // Node i couples only to i +- 1 and i +- n_rows: bandwidth n_rows.
  eliminate_banded(g, rhs, n, n_rows, 2);

  ReadPort port;
  port.v_thevenin = rhs[row] - rhs[n_rows + row];
  port.r_thevenin = rhs[n + row] - rhs[n + n_rows + row];
  MRAM_ENSURES(port.r_thevenin > 0.0, "port resistance must be positive");
  return port;
}

}  // namespace mram::rdo
