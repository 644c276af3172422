#include "magnetics/current_loop.h"

#include <algorithm>
#include <cmath>

#include "numerics/elliptic.h"
#include "obs/metrics.h"
#include "util/constants.h"
#include "util/error.h"

namespace mram::mag {

using num::Vec3;

num::Vec3 loop_field_biot_savart(const CurrentLoop& loop, const Vec3& p,
                                 int segments) {
  MRAM_EXPECTS(loop.radius > 0.0, "loop radius must be positive");
  MRAM_EXPECTS(segments >= 3, "need at least 3 segments");

  // Polygonal approximation of the loop: vertices at angles 2*pi*k/N. Each
  // segment contributes (I/4pi) * dl x r / |r|^3 evaluated at the segment
  // midpoint. The vertex radius is inflated so the polygon's magnetic moment
  // equals the circle's (area pi R^2 = N/2 r^2 sin(2pi/N)), which removes the
  // leading O(1/N^2) inscribed-polygon bias of the plain discretization.
  const double dphi = 2.0 * util::kPi / static_cast<double>(segments);
  const double r_eff = loop.radius * std::sqrt(dphi / std::sin(dphi));
  Vec3 h{};
  double x_prev = loop.center.x + r_eff;
  double y_prev = loop.center.y;
  const double z = loop.center.z;
  for (int k = 1; k <= segments; ++k) {
    const double phi = dphi * static_cast<double>(k);
    const double x_next = loop.center.x + r_eff * std::cos(phi);
    const double y_next = loop.center.y + r_eff * std::sin(phi);

    const Vec3 dl{x_next - x_prev, y_next - y_prev, 0.0};
    const Vec3 mid{0.5 * (x_prev + x_next), 0.5 * (y_prev + y_next), z};
    const Vec3 r = p - mid;
    const double r3 = std::pow(num::norm2(r), 1.5);
    MRAM_EXPECTS(r3 > 0.0, "field point coincides with the wire");
    h += cross(dl, r) / r3;

    x_prev = x_next;
    y_prev = y_next;
  }
  return h * (loop.current / (4.0 * util::kPi));
}

void loop_fields_exact(std::size_t n, const CurrentLoop* loops, const Vec3& p,
                       Vec3* out) {
  // What a loop needs after its K and E: a, the offsets and the squared
  // distances to the nearest and farthest point of the wire.
  struct OffAxis {
    std::size_t index;
    double a, dx, dy, z, rho, d_outer, d_inner;
  };
  for (std::size_t first = 0; first < n; first += kLoopBatch) {
    const std::size_t count = std::min(kLoopBatch, n - first);
    OffAxis off[kLoopBatch];
    double m[kLoopBatch], kk[kLoopBatch], ee[kLoopBatch];
    std::size_t n_off = 0;
    for (std::size_t i = first; i < first + count; ++i) {
      const CurrentLoop& loop = loops[i];
      MRAM_EXPECTS(loop.radius > 0.0, "loop radius must be positive");

      const double a = loop.radius;
      const double dx = p.x - loop.center.x;
      const double dy = p.y - loop.center.y;
      const double z = p.z - loop.center.z;
      const double rho = std::sqrt(dx * dx + dy * dy);

      const double d_outer = (a + rho) * (a + rho) + z * z;
      const double d_inner = (a - rho) * (a - rho) + z * z;
      MRAM_EXPECTS(d_inner > 0.0, "field point lies on the wire");

      // On-axis: closed form, avoids 0/0 in the radial term.
      if (rho < 1e-15 * a) {
        out[i] = {0.0, 0.0, loop_field_on_axis(loop, z)};
        continue;
      }
      off[n_off] = {i, a, dx, dy, z, rho, d_outer, d_inner};
      m[n_off] = 4.0 * a * rho / d_outer;  // elliptic parameter k^2
      ++n_off;
    }
    if (n_off == 0) continue;
    num::ellint_ke_n(n_off, m, kk, ee);
    obs::counter_add(obs::Counter::kMagneticsKeValues, n_off);
    obs::counter_add(obs::Counter::kMagneticsKeLaneSlots,
                     n_off / num::kKeLanes * num::kKeLanes);

    for (std::size_t j = 0; j < n_off; ++j) {
      const OffAxis& o = off[j];
      const double current = loops[o.index].current;
      const double sqrt_outer = std::sqrt(o.d_outer);
      const double hz =
          current / (2.0 * util::kPi * sqrt_outer) *
          (kk[j] + ee[j] * (o.a * o.a - o.rho * o.rho - o.z * o.z) / o.d_inner);
      const double hrho =
          current * o.z / (2.0 * util::kPi * o.rho * sqrt_outer) *
          (-kk[j] + ee[j] * (o.a * o.a + o.rho * o.rho + o.z * o.z) / o.d_inner);

      const double inv_rho = 1.0 / o.rho;
      out[o.index] = {hrho * o.dx * inv_rho, hrho * o.dy * inv_rho, hz};
    }
  }
}

num::Vec3 loop_field_exact(const CurrentLoop& loop, const Vec3& p) {
  Vec3 h;
  loop_fields_exact(1, &loop, p, &h);
  return h;
}

double loop_field_on_axis(const CurrentLoop& loop, double z_from_center) {
  MRAM_EXPECTS(loop.radius > 0.0, "loop radius must be positive");
  const double a2 = loop.radius * loop.radius;
  const double denom = std::pow(a2 + z_from_center * z_from_center, 1.5);
  return loop.current * a2 / (2.0 * denom);
}

}  // namespace mram::mag
