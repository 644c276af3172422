#include "magnetics/disk_source.h"

#include "magnetics/dipole.h"
#include "util/constants.h"
#include "util/error.h"

namespace mram::mag {

using num::Vec3;

namespace {

/// Validates `disk` and hands each of its bound-current sub-loops to
/// `visit`, bottom to top. The one home of the sub-loop placement, so
/// disk_loops and disk_field agree without disk_field allocating.
template <typename Visit>
void for_each_loop(const DiskSource& disk, Visit&& visit) {
  MRAM_EXPECTS(disk.radius > 0.0, "disk radius must be positive");
  MRAM_EXPECTS(disk.ms_t >= 0.0, "disk Ms*t must be non-negative");
  MRAM_EXPECTS(disk.polarity == 1 || disk.polarity == -1,
               "disk polarity must be +1 or -1");
  MRAM_EXPECTS(disk.sub_loops >= 1, "disk needs at least one sub-loop");
  MRAM_EXPECTS(disk.thickness >= 0.0, "disk thickness must be non-negative");

  const int n = (disk.thickness == 0.0) ? 1 : disk.sub_loops;
  const double i_per_loop =
      disk.polarity * disk.ms_t / static_cast<double>(n);
  for (int k = 0; k < n; ++k) {
    // Midpoint placement of sub-loops across the thickness.
    const double frac =
        (static_cast<double>(k) + 0.5) / static_cast<double>(n) - 0.5;
    visit(CurrentLoop{
        {disk.center.x, disk.center.y, disk.center.z + frac * disk.thickness},
        disk.radius,
        i_per_loop});
  }
}

}  // namespace

std::vector<CurrentLoop> disk_loops(const DiskSource& disk) {
  std::vector<CurrentLoop> loops;
  for_each_loop(disk, [&](const CurrentLoop& loop) { loops.push_back(loop); });
  return loops;
}

Vec3 disk_field(const DiskSource& disk, const Vec3& p, FieldMethod method,
                int segments) {
  if (method == FieldMethod::kDipole) {
    return dipole_field_at(disk_moment(disk), disk.center, p);
  }
  Vec3 h{};
  for_each_loop(disk, [&](const CurrentLoop& loop) {
    h += (method == FieldMethod::kExact)
             ? loop_field_exact(loop, p)
             : loop_field_biot_savart(loop, p, segments);
  });
  return h;
}

double disk_moment(const DiskSource& disk) {
  return disk.polarity * disk.ms_t * util::kPi * disk.radius * disk.radius;
}

}  // namespace mram::mag
