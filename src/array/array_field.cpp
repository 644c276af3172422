#include "array/array_field.h"

#include <algorithm>

#include "util/error.h"

namespace mram::arr {

using dev::Layer;
using dev::MtjState;
using num::Vec3;

DataGrid::DataGrid(std::size_t rows, std::size_t cols, int fill)
    : rows_(rows), cols_(cols), bits_(rows * cols) {
  MRAM_EXPECTS(rows > 0 && cols > 0, "grid dimensions must be positive");
  MRAM_EXPECTS(fill == 0 || fill == 1, "fill bit must be 0 or 1");
  std::fill(bits_.begin(), bits_.end(), static_cast<std::uint8_t>(fill));
}

int DataGrid::at(std::size_t r, std::size_t c) const {
  MRAM_EXPECTS(r < rows_ && c < cols_, "grid index out of range");
  return bits_[r * cols_ + c];
}

void DataGrid::set(std::size_t r, std::size_t c, int bit) {
  MRAM_EXPECTS(r < rows_ && c < cols_, "grid index out of range");
  MRAM_EXPECTS(bit == 0 || bit == 1, "bit must be 0 or 1");
  bits_[r * cols_ + c] = static_cast<std::uint8_t>(bit);
}

ArrayFieldModel::ArrayFieldModel(const dev::StackGeometry& stack, double pitch,
                                 int radius, mag::FieldMethod method)
    : stack_(stack), pitch_(pitch), radius_(radius) {
  stack_.validate();
  MRAM_EXPECTS(pitch >= stack.ecd, "pitch must be at least one diameter");
  MRAM_EXPECTS(radius >= 1, "truncation radius must be >= 1");

  // One dipole-sum evaluation per offset, cached for the lifetime of the
  // model; everything downstream is table convolution.
  const int side = kernel_side();
  kernel_fixed_.assign(static_cast<std::size_t>(side) * side, 0.0);
  kernel_fl_.assign(static_cast<std::size_t>(side) * side, 0.0);
  const Vec3 victim{};
  for (int dr = -radius; dr <= radius; ++dr) {
    for (int dc = -radius; dc <= radius; ++dc) {
      if (dr == 0 && dc == 0) continue;
      const Vec3 cell{dc * pitch_, dr * pitch_, 0.0};
      const auto rl = stack_.source_for(Layer::kReferenceLayer, cell);
      const auto hl = stack_.source_for(Layer::kHardLayer, cell);
      const auto fl =
          stack_.source_for(Layer::kFreeLayer, cell, MtjState::kParallel);
      const std::size_t k =
          static_cast<std::size_t>(dr + radius) * side + (dc + radius);
      kernel_fixed_[k] = mag::disk_field(rl, victim, method).z +
                         mag::disk_field(hl, victim, method).z;
      kernel_fl_[k] = mag::disk_field(fl, victim, method).z;
    }
  }
}

std::vector<double> ArrayFieldModel::fixed_field_map(std::size_t rows,
                                                     std::size_t cols) const {
  MRAM_EXPECTS(rows > 0 && cols > 0, "grid dimensions must be positive");
  std::vector<double> out(rows * cols, 0.0);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      double hz = 0.0;
      visit_kernel_rows(rows, cols, r, c,
                        [&](std::size_t k, std::size_t, int dc_lo,
                            int dc_hi) {
                          const double* kf = &kernel_fixed_[k];
                          for (int dc = dc_lo; dc <= dc_hi; ++dc) {
                            hz += kf[dc];
                          }
                        });
      out[r * cols + c] = hz;
    }
  }
  return out;
}

double ArrayFieldModel::fl_field_at(const DataGrid& grid, std::size_t r,
                                    std::size_t c) const {
  MRAM_EXPECTS(r < grid.rows() && c < grid.cols(), "cell index out of range");
  double hz = 0.0;
  visit_kernel_rows(
      grid.rows(), grid.cols(), r, c,
      [&](std::size_t k, std::size_t gr, int dc_lo, int dc_hi) {
        const std::uint8_t* bits = grid.row(gr) + c;
        const double* ku = &kernel_fl_[k];
        for (int dc = dc_lo; dc <= dc_hi; ++dc) {
          // P aggressor (bit 0) adds +u, AP (bit 1) adds -u; the center
          // entry is zero so the victim never couples to itself.
          hz += bits[dc] ? -ku[dc] : ku[dc];
        }
      });
  return hz;
}

double ArrayFieldModel::field_at_unchecked(const DataGrid& grid, std::size_t r,
                                           std::size_t c) const {
  double hz = 0.0;
  visit_kernel_rows(
      grid.rows(), grid.cols(), r, c,
      [&](std::size_t k, std::size_t gr, int dc_lo, int dc_hi) {
        const std::uint8_t* bits = grid.row(gr) + c;
        const double* kf = &kernel_fixed_[k];
        const double* ku = &kernel_fl_[k];
        for (int dc = dc_lo; dc <= dc_hi; ++dc) {
          hz += kf[dc] + (bits[dc] ? -ku[dc] : ku[dc]);
        }
      });
  return hz;
}

double ArrayFieldModel::field_at(const DataGrid& grid, std::size_t r,
                                 std::size_t c) const {
  MRAM_EXPECTS(r < grid.rows() && c < grid.cols(), "cell index out of range");
  return field_at_unchecked(grid, r, c);
}

}  // namespace mram::arr
