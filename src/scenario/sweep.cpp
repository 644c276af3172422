#include "scenario/sweep.h"

#include "util/error.h"

namespace mram::scn {

GridAxis GridAxis::list(std::string name, std::vector<double> values) {
  return GridAxis{std::move(name), std::move(values)};
}

GridAxis GridAxis::step(std::string name, double start, double step,
                        std::size_t count) {
  GridAxis axis;
  axis.name = std::move(name);
  axis.values.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    axis.values.push_back(start + static_cast<double>(i) * step);
  }
  return axis;
}

Grid::Grid(GridAxis axis) { axes_.push_back(std::move(axis)); }

Grid::Grid(GridAxis outer, GridAxis inner) {
  axes_.push_back(std::move(outer));
  axes_.push_back(std::move(inner));
}

std::size_t Grid::size() const {
  std::size_t n = 1;
  for (const auto& axis : axes_) n *= axis.size();
  return n;
}

Grid::Point Grid::point(std::size_t i) const {
  MRAM_EXPECTS(i < size(), "grid point index out of range");
  Point p;
  p.index = i;
  if (axes_.size() == 1) {
    p.x = axes_[0].values[i];
  } else {
    const std::size_t inner = axes_[1].size();
    p.x = axes_[0].values[i / inner];
    p.y = axes_[1].values[i % inner];
  }
  return p;
}

std::uint64_t SweepDriver::point_seed(std::size_t index) const {
  // One draw of the index-th counter-based stream of the master seed: the
  // same decorrelation the Monte Carlo runner uses for its trial streams.
  return util::Rng::stream(seed_, index)();
}

}  // namespace mram::scn
