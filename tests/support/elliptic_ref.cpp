#include "support/elliptic_ref.h"

#include <algorithm>
#include <cmath>

#include "numerics/elliptic.h"
#include "util/error.h"

namespace mram::num {

double carlson_rf(double x, double y, double z) {
  MRAM_EXPECTS(x >= 0.0 && y >= 0.0 && z >= 0.0,
               "carlson_rf requires non-negative arguments");
  MRAM_EXPECTS((x > 0.0) + (y > 0.0) + (z > 0.0) >= 2,
               "carlson_rf allows at most one zero argument");
  double xt = x, yt = y, zt = z;
  double avg = 0.0, dx = 0.0, dy = 0.0, dz = 0.0;
  for (int iter = 0; iter < kCarlsonMaxIter; ++iter) {
    const double sx = std::sqrt(xt);
    const double sy = std::sqrt(yt);
    const double sz = std::sqrt(zt);
    const double lambda = sx * (sy + sz) + sy * sz;
    xt = 0.25 * (xt + lambda);
    yt = 0.25 * (yt + lambda);
    zt = 0.25 * (zt + lambda);
    avg = (xt + yt + zt) / 3.0;
    dx = (avg - xt) / avg;
    dy = (avg - yt) / avg;
    dz = (avg - zt) / avg;
    if (std::max({std::abs(dx), std::abs(dy), std::abs(dz)}) < kCarlsonTol) break;
  }
  const double e2 = dx * dy - dz * dz;
  const double e3 = dx * dy * dz;
  return (1.0 + (e2 / 24.0 - 0.1 - 3.0 * e3 / 44.0) * e2 + e3 / 14.0) /
         std::sqrt(avg);
}

double carlson_rd(double x, double y, double z) {
  MRAM_EXPECTS(x >= 0.0 && y >= 0.0 && z > 0.0,
               "carlson_rd requires x,y >= 0 and z > 0");
  MRAM_EXPECTS(x + y > 0.0, "carlson_rd requires x + y > 0");
  double xt = x, yt = y, zt = z;
  double sum = 0.0;
  double factor = 1.0;
  double avg = 0.0, dx = 0.0, dy = 0.0, dz = 0.0;
  for (int iter = 0; iter < kCarlsonMaxIter; ++iter) {
    const double sx = std::sqrt(xt);
    const double sy = std::sqrt(yt);
    const double sz = std::sqrt(zt);
    const double lambda = sx * (sy + sz) + sy * sz;
    sum += factor / (sz * (zt + lambda));
    factor *= 0.25;
    xt = 0.25 * (xt + lambda);
    yt = 0.25 * (yt + lambda);
    zt = 0.25 * (zt + lambda);
    avg = (xt + yt + 3.0 * zt) / 5.0;
    dx = (avg - xt) / avg;
    dy = (avg - yt) / avg;
    dz = (avg - zt) / avg;
    if (std::max({std::abs(dx), std::abs(dy), std::abs(dz)}) < kCarlsonTol) break;
  }
  const double ea = dx * dy;
  const double eb = dz * dz;
  const double ec = ea - eb;
  const double ed = ea - 6.0 * eb;
  const double ee = ed + ec + ec;
  return 3.0 * sum +
         factor *
             (1.0 + ed * (-3.0 / 14.0 + 9.0 / 88.0 * ed - 4.5 / 26.0 * dz * ee) +
              dz * (1.0 / 6.0 * ee + dz * (-9.0 / 22.0 * ec + 3.0 / 26.0 * dz * ea))) /
             (avg * std::sqrt(avg));
}

double ellint_k(double m) {
  MRAM_EXPECTS(m >= 0.0 && m < 1.0, "ellint_k requires m in [0,1)");
  return carlson_rf(0.0, 1.0 - m, 1.0);
}

double ellint_e(double m) {
  MRAM_EXPECTS(m >= 0.0 && m <= 1.0, "ellint_e requires m in [0,1]");
  if (m == 1.0) return 1.0;
  return carlson_rf(0.0, 1.0 - m, 1.0) -
         m / 3.0 * carlson_rd(0.0, 1.0 - m, 1.0);
}

}  // namespace mram::num
