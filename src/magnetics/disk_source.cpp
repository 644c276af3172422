#include "magnetics/disk_source.h"

#include "magnetics/dipole.h"
#include "numerics/elliptic.h"
#include "util/constants.h"
#include "util/error.h"

namespace mram::mag {

using num::Vec3;

namespace {

/// Validates `disk` and hands each of its bound-current sub-loops to
/// `visit`, bottom to top. The one home of the sub-loop placement, so
/// append_disk_loops and disk_field agree without disk_field allocating.
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

void append_disk_loops(const DiskSource& disk, std::vector<CurrentLoop>& out) {
  for_each_loop(disk, [&](const CurrentLoop& loop) { out.push_back(loop); });
}

Vec3 disk_field(const DiskSource& disk, const Vec3& p, FieldMethod method,
                int segments) {
  if (method == FieldMethod::kDipole) {
    return dipole_field_at(disk_moment(disk), disk.center, p);
  }
  Vec3 h{};
  if (method == FieldMethod::kBiotSavart) {
    for_each_loop(disk, [&](const CurrentLoop& loop) {
      h += loop_field_biot_savart(loop, p, segments);
    });
    return h;
  }
  // Exact: the sub-loops go to the batched evaluator one kernel block
  // (num::kKeLanes loops) at a time, and their fields are summed bottom to
  // top, the order of a loop-by-loop sum. The buffers are that small
  // because they are zeroed on every call, and most disks have 4 sub-loops.
  CurrentLoop loops[num::kKeLanes];
  Vec3 fields[num::kKeLanes];
  std::size_t n = 0;
  const auto flush = [&] {
    loop_fields_exact(n, loops, p, fields);
    for (std::size_t i = 0; i < n; ++i) h += fields[i];
    n = 0;
  };
  for_each_loop(disk, [&](const CurrentLoop& loop) {
    loops[n++] = loop;
    if (n == num::kKeLanes) flush();
  });
  flush();
  return h;
}

double disk_moment(const DiskSource& disk) {
  return disk.polarity * disk.ms_t * util::kPi * disk.radius * disk.radius;
}

}  // namespace mram::mag
