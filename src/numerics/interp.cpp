#include "numerics/interp.h"

#include <cmath>

#include "util/error.h"

namespace mram::num {

std::vector<double> linspace(double lo, double hi, std::size_t count) {
  MRAM_EXPECTS(count >= 1, "linspace requires count >= 1");
  std::vector<double> out;
  out.reserve(count);
  if (count == 1) {
    out.push_back(lo);
    return out;
  }
  const double step = (hi - lo) / static_cast<double>(count - 1);
  for (std::size_t i = 0; i < count; ++i) {
    out.push_back(lo + step * static_cast<double>(i));
  }
  out.back() = hi;  // avoid accumulation error on the endpoint
  return out;
}

double bisect(const std::function<double(double)>& f, double lo, double hi,
              double tol, int max_iter) {
  MRAM_EXPECTS(lo < hi, "bisect requires lo < hi");
  double flo = f(lo);
  double fhi = f(hi);
  MRAM_EXPECTS(flo * fhi <= 0.0, "bisect requires a sign change over [lo,hi]");
  if (flo == 0.0) return lo;
  if (fhi == 0.0) return hi;
  for (int i = 0; i < max_iter && (hi - lo) > tol; ++i) {
    const double mid = 0.5 * (lo + hi);
    const double fmid = f(mid);
    if (fmid == 0.0) return mid;
    if (flo * fmid < 0.0) {
      hi = mid;
      fhi = fmid;
    } else {
      lo = mid;
      flo = fmid;
    }
  }
  return 0.5 * (lo + hi);
}

Crossing first_crossing(std::span<const double> xs, std::span<const double> ys,
                        double target) {
  MRAM_EXPECTS(xs.size() == ys.size(), "first_crossing size mismatch");
  for (std::size_t i = 1; i < xs.size(); ++i) {
    const double a = ys[i - 1] - target;
    const double b = ys[i] - target;
    if (a == 0.0) return {true, xs[i - 1]};
    if (a * b < 0.0) {
      const double t = a / (a - b);
      return {true, xs[i - 1] + t * (xs[i] - xs[i - 1])};
    }
  }
  if (!ys.empty() && ys.back() == target) return {true, xs.back()};
  return {};
}

}  // namespace mram::num
