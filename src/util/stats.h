#pragma once

#include <cstddef>
#include <span>
#include <vector>

// Lightweight descriptive statistics used by characterization (device-to-device
// spread, switching-probability estimation) and Monte Carlo result summaries.

namespace mram::util {

/// Streaming accumulator for mean / variance (Welford) and the minimum.
class RunningStats {
 public:
  void add(double x);

  /// Folds another accumulator into this one (Chan et al. pairwise update),
  /// as if every sample of `other` had been add()ed here. The parallel
  /// Monte Carlo reduction merges per-chunk accumulators in chunk order, so
  /// results do not depend on the thread count.
  void merge(const RunningStats& other);

  std::size_t count() const { return n_; }
  bool empty() const { return n_ == 0; }

  /// Mean of the accumulated samples. Precondition: !empty().
  double mean() const;

  /// Unbiased sample variance. Returns 0 for fewer than two samples.
  double variance() const;

  /// Sample standard deviation (sqrt of variance()).
  double stddev() const;

  double min() const;

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
};

/// Streaming accumulator for weighted samples, built for importance-sampled
/// Monte Carlo: trial i contributes x_i = value_i * weight_i to the estimator
/// mean (so a rare-event run records misses as add(0, 0) and hits as
/// add(1, likelihood_ratio), making mean() the unbiased probability
/// estimate). Tracks the Welford mean/variance of the x_i for the estimator
/// standard error plus sum(w) and sum(w^2) for the Kish effective sample
/// size. merge() follows the same chunk-ordered-reduction contract as
/// RunningStats, so weighted runs stay bit-identical across thread counts.
class WeightedStats {
 public:
  void add(double value, double weight);

  /// Folds another accumulator into this one as if its samples had been
  /// add()ed here, provided merges happen in chunk order (Chan et al.).
  void merge(const WeightedStats& other);

  std::size_t count() const { return n_; }
  bool empty() const { return n_ == 0; }

  double sum_weight() const { return sum_w_; }
  double sum_weight_sq() const { return sum_w2_; }

  /// Mean of the weighted contributions x_i = value_i * weight_i -- the
  /// unbiased importance-sampling estimate. Precondition: !empty().
  double mean() const;

  /// Unbiased sample variance of the x_i. Returns 0 for fewer than two
  /// samples.
  double variance() const;

  /// Standard error of mean(): sqrt(variance() / n). Returns 0 for fewer
  /// than two samples.
  double std_error() const;

  /// Relative error std_error()/|mean()|; +infinity when the mean is zero
  /// (no weighted hits yet) or fewer than two samples were recorded. The
  /// absolute value keeps the error positive for negative means, so
  /// `rel_error() < target` stopping rules cannot be satisfied vacuously.
  double rel_error() const;

  /// Kish effective sample size (sum w)^2 / sum w^2. Zero when every weight
  /// is zero; equals the hit count for unit-weight (brute-force) recording.
  double effective_samples() const;

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_w_ = 0.0;
  double sum_w2_ = 0.0;
};

/// Linearly interpolated quantile q in [0,1] of `sorted` (ascending).
/// Precondition: !sorted.empty(), 0 <= q <= 1.
double quantile_sorted(std::span<const double> sorted, double q);

/// Median helper that sorts a copy.
double median(std::vector<double> xs);

/// Wilson score interval for a binomial proportion (successes/trials) at the
/// given z (default 1.96 ~ 95%). Returns {lo, hi}. Used for write-error-rate
/// confidence bounds.
struct Interval {
  double lo = 0.0;
  double hi = 0.0;
};
Interval wilson_interval(std::size_t successes, std::size_t trials,
                         double z = 1.96);

/// Inverse standard-normal CDF (Acklam's rational approximation refined by
/// one Halley step; |relative error| < 1e-15 over (0,1)). probit(0) = -inf,
/// probit(1) = +inf. Precondition: 0 <= p <= 1. Used by the rare-event
/// drivers to place importance-sampling tilts and splitting levels.
double probit(double p);

}  // namespace mram::util
