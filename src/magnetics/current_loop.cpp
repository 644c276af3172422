#include "magnetics/current_loop.h"

#include <cmath>

#include "numerics/elliptic.h"
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

num::Vec3 loop_field_exact(const CurrentLoop& loop, const Vec3& p) {
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
    return {0.0, 0.0, loop_field_on_axis(loop, z)};
  }

  const double m = 4.0 * a * rho / d_outer;  // elliptic parameter k^2
  const auto [kk, ee] = num::ellint_ke(m);
  const double sqrt_outer = std::sqrt(d_outer);

  const double hz = loop.current / (2.0 * util::kPi * sqrt_outer) *
                    (kk + ee * (a * a - rho * rho - z * z) / d_inner);
  const double hrho = loop.current * z /
                      (2.0 * util::kPi * rho * sqrt_outer) *
                      (-kk + ee * (a * a + rho * rho + z * z) / d_inner);

  const double inv_rho = 1.0 / rho;
  return {hrho * dx * inv_rho, hrho * dy * inv_rho, hz};
}

double loop_field_on_axis(const CurrentLoop& loop, double z_from_center) {
  MRAM_EXPECTS(loop.radius > 0.0, "loop radius must be positive");
  const double a2 = loop.radius * loop.radius;
  const double denom = std::pow(a2 + z_from_center * z_from_center, 1.5);
  return loop.current * a2 / (2.0 * denom);
}

double loop_moment(const CurrentLoop& loop) {
  return loop.current * util::kPi * loop.radius * loop.radius;
}

}  // namespace mram::mag
