#pragma once

#include <functional>
#include <vector>

// Least-squares optimizer used by the characterization module (Hk/Delta0
// extraction, Ms*t calibration against digitized figure anchors).

namespace mram::num {

/// Residual function for least squares: maps parameters to a residual vector.
using ResidualFn =
    std::function<std::vector<double>(const std::vector<double>&)>;

struct OptimizeResult {
  std::vector<double> parameters;
  double cost = 0.0;
  int iterations = 0;
  bool converged = false;
};

struct LevenbergMarquardtOptions {
  int max_iterations = 200;
  double tolerance = 1e-12;        ///< relative cost-decrease stop criterion
  double initial_lambda = 1e-3;
  double finite_diff_step = 1e-6;  ///< relative step for numeric Jacobian
};

/// Levenberg--Marquardt least squares: minimizes sum of squared residuals.
/// The Jacobian is computed by forward finite differences.
OptimizeResult levenberg_marquardt(const ResidualFn& residuals,
                                   const std::vector<double>& x0,
                                   const LevenbergMarquardtOptions& opts = {});

/// Solves the dense symmetric positive-definite system A*x = b in place via
/// Cholesky. Throws NumericalError when A is not SPD. A is row-major n*n.
std::vector<double> solve_spd(std::vector<double> a, std::vector<double> b);

}  // namespace mram::num
