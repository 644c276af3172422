#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "device/stack_geometry.h"
#include "magnetics/disk_source.h"

// Generalized N x M array field model. The paper truncates the neighborhood
// to the 3x3 window (radius 1); this model supports any truncation radius so
// that the abl_array_size scenario can quantify the truncation error, and it
// powers the memory-level simulations where every cell is simultaneously a
// victim of its own neighborhood.
//
// The per-(dr, dc) layer fields are evaluated once at construction (the
// expensive elliptic-integral dipole sums) and stored in dense
// (2R+1) x (2R+1) kernel tables, so every field query is a small table
// convolution over the data grid -- no magnetics evaluation ever happens in
// a Monte Carlo loop. The data-independent part can additionally be
// precomputed per cell for a fixed grid shape (fixed_field_map), which the
// memory model exploits to answer stray-field queries with one table lookup
// plus the data-dependent convolution.

namespace mram::arr {

/// Data stored in an array: row-major bits (0 = P, 1 = AP).
class DataGrid {
 public:
  DataGrid(std::size_t rows, std::size_t cols, int fill = 0);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }

  int at(std::size_t r, std::size_t c) const;
  void set(std::size_t r, std::size_t c, int bit);

  /// Unchecked pointer to row `r` (hot paths; bounds are the caller's
  /// contract).
  const std::uint8_t* row(std::size_t r) const { return bits_.data() + r * cols_; }

 private:
  std::size_t rows_;
  std::size_t cols_;
  std::vector<std::uint8_t> bits_;
};

/// Precomputed per-offset field contributions at a victim's FL center from a
/// cell displaced by (dr, dc) within the truncation radius.
class ArrayFieldModel {
 public:
  /// `radius`: neighborhood truncation in cells (1 = paper's 3x3 window).
  ArrayFieldModel(const dev::StackGeometry& stack, double pitch, int radius,
                  mag::FieldMethod method = mag::FieldMethod::kExact);

  double pitch() const { return pitch_; }
  int radius() const { return radius_; }

  /// Kernel side length 2 * radius + 1.
  int kernel_side() const { return 2 * radius_ + 1; }

  /// Dense (2R+1)^2 row-major tables indexed by (dr + R) * side + (dc + R);
  /// the center entry is zero. kernel_fixed() holds the HL + RL contribution
  /// of the offset cell [A/m]; kernel_fl_unit() its FL contribution when the
  /// aggressor stores P (negated for AP).
  const std::vector<double>& kernel_fixed() const { return kernel_fixed_; }
  const std::vector<double>& kernel_fl_unit() const { return kernel_fl_; }

  /// Edge-aware data-independent field for every cell of a rows x cols grid
  /// [A/m], row-major. Build once per grid shape and reuse: together with
  /// fl_field_at this splits field_at into a table lookup plus the
  /// data-dependent convolution.
  std::vector<double> fixed_field_map(std::size_t rows,
                                      std::size_t cols) const;

  /// Data-dependent (FL-only) part of the inter-cell field at (r, c) [A/m].
  double fl_field_at(const DataGrid& grid, std::size_t r, std::size_t c) const;

  /// Hz_s_inter at cell (r, c) of `grid` [A/m]. Edge cells see fewer
  /// aggressors (open boundary).
  double field_at(const DataGrid& grid, std::size_t r, std::size_t c) const;

 private:
  double field_at_unchecked(const DataGrid& grid, std::size_t r,
                            std::size_t c) const;

  /// Clamps the kernel window to a rows x cols grid around victim (r, c) and
  /// invokes visit(kernel_row_center, grid_row, dc_lo, dc_hi) for each
  /// in-bounds kernel row, where kernel_row_center indexes the (dr, dc = 0)
  /// entry of the dense tables. Single home of the boundary clamping so the
  /// three convolution paths cannot diverge.
  template <class RowVisitor>
  void visit_kernel_rows(std::size_t rows, std::size_t cols, std::size_t r,
                         std::size_t c, RowVisitor&& visit) const {
    const auto irows = static_cast<long>(rows);
    const auto icols = static_cast<long>(cols);
    const auto lr = static_cast<long>(r);
    const auto lc = static_cast<long>(c);
    const int dr_lo = static_cast<int>(std::max<long>(-radius_, -lr));
    const int dr_hi =
        static_cast<int>(std::min<long>(radius_, irows - 1 - lr));
    const int dc_lo = static_cast<int>(std::max<long>(-radius_, -lc));
    const int dc_hi =
        static_cast<int>(std::min<long>(radius_, icols - 1 - lc));
    const int side = kernel_side();
    for (int dr = dr_lo; dr <= dr_hi; ++dr) {
      const std::size_t kernel_row_center =
          static_cast<std::size_t>(dr + radius_) * side + radius_;
      visit(kernel_row_center, static_cast<std::size_t>(lr + dr), dc_lo,
            dc_hi);
    }
  }

  dev::StackGeometry stack_;
  double pitch_;
  int radius_;
  std::vector<double> kernel_fixed_;  ///< dense (2R+1)^2, center = 0
  std::vector<double> kernel_fl_;     ///< dense (2R+1)^2, center = 0
};

}  // namespace mram::arr
