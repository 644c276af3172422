#include "util/stats.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/error.h"

namespace mram::util {

void RunningStats::add(double x) {
  min_ = (n_ == 0) ? x : std::min(min_, x);
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

void RunningStats::merge(const RunningStats& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double na = static_cast<double>(n_);
  const double nb = static_cast<double>(other.n_);
  const double n = na + nb;
  const double delta = other.mean_ - mean_;
  m2_ += other.m2_ + delta * delta * (na * nb / n);
  mean_ += delta * (nb / n);
  min_ = std::min(min_, other.min_);
  n_ += other.n_;
}

double RunningStats::mean() const {
  MRAM_EXPECTS(n_ > 0, "mean of empty sample");
  return mean_;
}

double RunningStats::variance() const {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

double RunningStats::min() const {
  MRAM_EXPECTS(n_ > 0, "min of empty sample");
  return min_;
}

void WeightedStats::add(double value, double weight) {
  ++n_;
  const double x = value * weight;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
  sum_w_ += weight;
  sum_w2_ += weight * weight;
}

void WeightedStats::merge(const WeightedStats& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double na = static_cast<double>(n_);
  const double nb = static_cast<double>(other.n_);
  const double n = na + nb;
  const double delta = other.mean_ - mean_;
  m2_ += other.m2_ + delta * delta * (na * nb / n);
  mean_ += delta * (nb / n);
  sum_w_ += other.sum_w_;
  sum_w2_ += other.sum_w2_;
  n_ += other.n_;
}

double WeightedStats::mean() const {
  MRAM_EXPECTS(n_ > 0, "mean of empty weighted sample");
  return mean_;
}

double WeightedStats::variance() const {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_ - 1);
}

double WeightedStats::std_error() const {
  return std::sqrt(variance() / static_cast<double>(n_ == 0 ? 1 : n_));
}

double WeightedStats::rel_error() const {
  if (n_ < 2 || mean_ == 0.0) return std::numeric_limits<double>::infinity();
  // |mean|: a negative estimate (perfectly legal for signed integrands)
  // must not yield a negative relative error, which would trivially satisfy
  // any `rel_err < target` stopping rule and halt an estimator that has not
  // converged at all.
  return std_error() / std::abs(mean_);
}

double WeightedStats::effective_samples() const {
  if (sum_w2_ <= 0.0) return 0.0;
  return sum_w_ * sum_w_ / sum_w2_;
}

double probit(double p) {
  MRAM_EXPECTS(p >= 0.0 && p <= 1.0, "probit argument must be in [0,1]");
  if (p == 0.0) return -std::numeric_limits<double>::infinity();
  if (p == 1.0) return std::numeric_limits<double>::infinity();

  // Acklam's rational approximation (|rel err| < 1.15e-9)...
  static constexpr double a[] = {-3.969683028665376e+01, 2.209460984245205e+02,
                                 -2.759285104469687e+02, 1.383577518672690e+02,
                                 -3.066479806614716e+01, 2.506628277459239e+00};
  static constexpr double b[] = {-5.447609879822406e+01, 1.615858368580409e+02,
                                 -1.556989798598866e+02, 6.680131188771972e+01,
                                 -1.328068155288572e+01};
  static constexpr double c[] = {-7.784894002430293e-03, -3.223964580411365e-01,
                                 -2.400758277161838e+00, -2.549732539343734e+00,
                                 4.374664141464968e+00,  2.938163982698783e+00};
  static constexpr double d[] = {7.784695709041462e-03, 3.224671290700398e-01,
                                 2.445134137142996e+00, 3.754408661907416e+00};
  constexpr double p_low = 0.02425;

  double x;
  if (p < p_low) {
    const double q = std::sqrt(-2.0 * std::log(p));
    x = (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) /
        ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  } else if (p <= 1.0 - p_low) {
    const double q = p - 0.5;
    const double r = q * q;
    x = (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) *
        q /
        (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0);
  } else {
    const double q = std::sqrt(-2.0 * std::log1p(-p));
    x = -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) /
        ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  }

  // ...then one Halley refinement against erfc brings it to ~1e-15. Skipped
  // in the extreme tails (|x| >~ 37.6, i.e. p below ~1e-308): exp(x*x/2)
  // overflows to inf there and the erfc residual underflows, so the update
  // degenerates to inf/NaN and poisons the result. Subset-simulation level
  // probabilities do land this deep; Acklam's approximation alone is
  // accurate to ~1e-9 relative, the best meaningfully representable that
  // far out.
  if (x * x < 1416.0) {
    const double e = 0.5 * std::erfc(-x / std::sqrt(2.0)) - p;
    const double u = e * std::sqrt(2.0 * 3.14159265358979323846) *
                     std::exp(x * x / 2.0);
    x -= u / (1.0 + x * u / 2.0);
  }
  return x;
}

double quantile_sorted(std::span<const double> sorted, double q) {
  MRAM_EXPECTS(!sorted.empty(), "quantile of empty sample");
  MRAM_EXPECTS(q >= 0.0 && q <= 1.0, "quantile q must be in [0,1]");
  if (sorted.size() == 1) return sorted[0];
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const auto hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

double median(std::vector<double> xs) {
  MRAM_EXPECTS(!xs.empty(), "median of empty sample");
  std::sort(xs.begin(), xs.end());
  return quantile_sorted(xs, 0.5);
}

Interval wilson_interval(std::size_t successes, std::size_t trials, double z) {
  MRAM_EXPECTS(trials > 0, "wilson_interval requires trials > 0");
  MRAM_EXPECTS(successes <= trials, "successes cannot exceed trials");
  const double n = static_cast<double>(trials);
  const double p = static_cast<double>(successes) / n;
  const double z2 = z * z;
  const double denom = 1.0 + z2 / n;
  const double center = (p + z2 / (2.0 * n)) / denom;
  const double half =
      z * std::sqrt(p * (1.0 - p) / n + z2 / (4.0 * n * n)) / denom;
  return {std::max(0.0, center - half), std::min(1.0, center + half)};
}

}  // namespace mram::util
