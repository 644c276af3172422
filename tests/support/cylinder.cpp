#include "support/cylinder.h"

#include <cmath>

#include "support/cel.h"
#include "util/constants.h"
#include "util/error.h"

namespace mram::mag {

using num::Vec3;

Vec3 cylinder_field_exact(const DiskSource& disk, const Vec3& p) {
  MRAM_EXPECTS(disk.radius > 0.0, "cylinder radius must be positive");
  MRAM_EXPECTS(disk.thickness > 0.0,
               "cylinder_field_exact requires a finite thickness");
  MRAM_EXPECTS(disk.polarity == 1 || disk.polarity == -1,
               "cylinder polarity must be +1 or -1");

  const double a = disk.radius;
  const double b = 0.5 * disk.thickness;  // half-length
  const double m_s = disk.polarity * disk.ms_t / disk.thickness;  // M [A/m]

  const double dx = p.x - disk.center.x;
  const double dy = p.y - disk.center.y;
  const double z = p.z - disk.center.z;
  const double rho = std::sqrt(dx * dx + dy * dy);

  const double zp = z + b;
  const double zm = z - b;
  const double sum = a + rho;
  const double dif = a - rho;

  const double dp = std::sqrt(zp * zp + sum * sum);
  const double dm = std::sqrt(zm * zm + sum * sum);
  MRAM_EXPECTS(dp > 0.0 && dm > 0.0, "degenerate cylinder geometry");

  const double alpha_p = a / dp;
  const double alpha_m = a / dm;
  const double beta_p = zp / dp;
  const double beta_m = zm / dm;

  const double kp2 = (zp * zp + dif * dif) / (zp * zp + sum * sum);
  const double km2 = (zm * zm + dif * dif) / (zm * zm + sum * sum);
  const double kp = std::sqrt(std::max(kp2, 0.0));
  const double km = std::sqrt(std::max(km2, 0.0));
  MRAM_EXPECTS(kp > 0.0 && km > 0.0,
               "field point lies on the cylinder edge ring");

  // Derby & Olbert Eq. (13)-(14), B in tesla; we return B/mu0 [A/m], the
  // field of the bound currents treated as free currents -- identical to
  // what the stacked-loop disk_field computes, so the two evaluators are
  // interchangeable in the superposition solvers.
  // B0 = mu0 M / pi; alpha and beta already carry the a/d geometry factors.
  const double b_rho =
      (util::kMu0 * m_s / util::kPi) *
      (alpha_p * num::cel(kp, 1.0, 1.0, -1.0) -
       alpha_m * num::cel(km, 1.0, 1.0, -1.0));

  double b_z;
  if (sum == 0.0) {
    b_z = 0.0;  // on the axis of a zero-radius cylinder: unreachable
  } else {
    const double gamma = dif / sum;
    const double g2 = std::max(gamma * gamma, 1e-300);
    b_z = (util::kMu0 * m_s / util::kPi) * (a / sum) *
          (beta_p * num::cel(kp, g2, 1.0, gamma) -
           beta_m * num::cel(km, g2, 1.0, gamma));
  }

  Vec3 h{0.0, 0.0, b_z / util::kMu0};
  if (rho > 0.0) {
    const double h_rho = b_rho / util::kMu0;
    h.x = h_rho * dx / rho;
    h.y = h_rho * dy / rho;
  }
  return h;
}

}  // namespace mram::mag
