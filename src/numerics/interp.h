#pragma once

#include <functional>
#include <span>
#include <vector>

// Interpolation and root bracketing helpers used by scenarios (locating the
// pitch where Psi crosses 2%, crossover points in figure series) and by the
// characterization fits.

namespace mram::num {

/// Piecewise-linear interpolation of y(x) at `x`, with xs strictly
/// increasing. Values outside the range are clamped to the end values.
double lerp_lookup(std::span<const double> xs, std::span<const double> ys,
                   double x);

/// Generates `count` evenly spaced values over [lo, hi] inclusive.
/// Precondition: count >= 2 (or count == 1, returning {lo}).
std::vector<double> linspace(double lo, double hi, std::size_t count);

/// Finds a root of f in [lo, hi] by bisection; f(lo) and f(hi) must bracket
/// (opposite signs). Tolerance is on the x interval width.
double bisect(const std::function<double(double)>& f, double lo, double hi,
              double tol = 1e-12, int max_iter = 200);

/// Locates the first x where the linearly interpolated series crosses
/// `target` (scanning in order of xs). Returns nullopt-like behavior via
/// the `found` flag in the result.
struct Crossing {
  bool found = false;
  double x = 0.0;
};
Crossing first_crossing(std::span<const double> xs, std::span<const double> ys,
                        double target);

}  // namespace mram::num
