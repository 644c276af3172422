#include "numerics/optimize.h"

#include <algorithm>
#include <cmath>

#include "util/error.h"

namespace mram::num {

std::vector<double> solve_spd(std::vector<double> a, std::vector<double> b) {
  const std::size_t n = b.size();
  MRAM_EXPECTS(a.size() == n * n, "solve_spd: matrix/vector size mismatch");

  // Cholesky decomposition A = L L^T, in place (lower triangle).
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      double sum = a[i * n + j];
      for (std::size_t k = 0; k < j; ++k) sum -= a[i * n + k] * a[j * n + k];
      if (i == j) {
        if (sum <= 0.0) {
          throw util::NumericalError("solve_spd: matrix not positive definite");
        }
        a[i * n + j] = std::sqrt(sum);
      } else {
        a[i * n + j] = sum / a[j * n + j];
      }
    }
  }
  // Forward substitution: L y = b.
  for (std::size_t i = 0; i < n; ++i) {
    double sum = b[i];
    for (std::size_t k = 0; k < i; ++k) sum -= a[i * n + k] * b[k];
    b[i] = sum / a[i * n + i];
  }
  // Back substitution: L^T x = y.
  for (std::size_t ii = n; ii-- > 0;) {
    double sum = b[ii];
    for (std::size_t k = ii + 1; k < n; ++k) sum -= a[k * n + ii] * b[k];
    b[ii] = sum / a[ii * n + ii];
  }
  return b;
}

OptimizeResult levenberg_marquardt(const ResidualFn& residuals,
                                   const std::vector<double>& x0,
                                   const LevenbergMarquardtOptions& opts) {
  MRAM_EXPECTS(!x0.empty(), "levenberg_marquardt requires parameters");

  std::vector<double> x = x0;
  std::vector<double> r = residuals(x);
  const std::size_t m = r.size();
  const std::size_t n = x.size();
  MRAM_EXPECTS(m >= n, "levenberg_marquardt requires #residuals >= #params");

  auto cost_of = [](const std::vector<double>& res) {
    double c = 0.0;
    for (double v : res) c += v * v;
    return 0.5 * c;
  };

  double cost = cost_of(r);
  double lambda = opts.initial_lambda;

  OptimizeResult result;
  result.parameters = x;
  result.cost = cost;

  for (int iter = 0; iter < opts.max_iterations; ++iter) {
    result.iterations = iter + 1;

    // Numeric Jacobian J (m x n), forward differences.
    std::vector<double> jac(m * n);
    for (std::size_t j = 0; j < n; ++j) {
      double step = opts.finite_diff_step * std::abs(x[j]);
      if (step == 0.0) step = opts.finite_diff_step;
      auto xp = x;
      xp[j] += step;
      const auto rp = residuals(xp);
      MRAM_ENSURES(rp.size() == m, "residual size changed during optimization");
      for (std::size_t i = 0; i < m; ++i) {
        jac[i * n + j] = (rp[i] - r[i]) / step;
      }
    }

    // Normal equations: (J^T J + lambda diag(J^T J)) dx = -J^T r.
    std::vector<double> jtj(n * n, 0.0);
    std::vector<double> jtr(n, 0.0);
    for (std::size_t i = 0; i < m; ++i) {
      for (std::size_t a1 = 0; a1 < n; ++a1) {
        jtr[a1] += jac[i * n + a1] * r[i];
        for (std::size_t a2 = 0; a2 <= a1; ++a2) {
          jtj[a1 * n + a2] += jac[i * n + a1] * jac[i * n + a2];
        }
      }
    }
    for (std::size_t a1 = 0; a1 < n; ++a1) {
      for (std::size_t a2 = a1 + 1; a2 < n; ++a2) {
        jtj[a1 * n + a2] = jtj[a2 * n + a1];
      }
    }

    bool step_accepted = false;
    for (int attempt = 0; attempt < 30 && !step_accepted; ++attempt) {
      auto damped = jtj;
      for (std::size_t d = 0; d < n; ++d) {
        damped[d * n + d] += lambda * std::max(jtj[d * n + d], 1e-30);
      }
      std::vector<double> rhs(n);
      for (std::size_t d = 0; d < n; ++d) rhs[d] = -jtr[d];

      std::vector<double> dx;
      try {
        dx = solve_spd(std::move(damped), std::move(rhs));
      } catch (const util::NumericalError&) {
        lambda *= 10.0;
        continue;
      }

      auto x_new = x;
      for (std::size_t d = 0; d < n; ++d) x_new[d] += dx[d];
      const auto r_new = residuals(x_new);
      const double cost_new = cost_of(r_new);
      if (cost_new < cost) {
        const double rel_decrease = (cost - cost_new) / std::max(cost, 1e-30);
        x = std::move(x_new);
        r = r_new;
        cost = cost_new;
        lambda = std::max(lambda * 0.3, 1e-12);
        step_accepted = true;
        if (rel_decrease < opts.tolerance) {
          result.converged = true;
        }
      } else {
        lambda *= 10.0;
      }
    }

    result.parameters = x;
    result.cost = cost;
    if (!step_accepted || result.converged) {
      result.converged = true;
      break;
    }
  }
  return result;
}

}  // namespace mram::num
