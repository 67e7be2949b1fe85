// Streaming statistics, empirical CDFs and histograms.
//
// These are the analysis primitives behind every figure in the paper:
// Figures 2, 4 and 5 are CDFs of sampled series; Figures 3 and 6 are
// mean +/- stddev bars.
#pragma once

#include <cmath>
#include <cstddef>
#include <span>
#include <string>
#include <vector>

namespace blab::util {

/// Compensated (Kahan–Neumaier) summation. Multi-hour captures accumulate
/// tens of millions of float samples; a naive accumulator loses low-order
/// bits long before that, a compensated one stays within one ulp of the
/// exact sum regardless of length.
class KahanSum {
 public:
  void add(double x) {
    const double t = sum_ + x;
    if (std::abs(sum_) >= std::abs(x)) {
      compensation_ += (sum_ - t) + x;
    } else {
      compensation_ += (x - t) + sum_;
    }
    sum_ = t;
  }
  double value() const { return sum_ + compensation_; }

 private:
  double sum_ = 0.0;
  double compensation_ = 0.0;
};

/// Welford-style running mean/variance plus min/max.
class RunningStats {
 public:
  void add(double x);
  void merge(const RunningStats& other);

  std::size_t count() const { return n_; }
  double mean() const { return n_ > 0 ? mean_ : 0.0; }
  double variance() const;  ///< Sample variance (n-1 denominator).
  double stddev() const;
  double min() const { return n_ > 0 ? min_ : 0.0; }
  double max() const { return n_ > 0 ? max_ : 0.0; }
  double sum() const { return mean_ * static_cast<double>(n_); }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Empirical distribution over a collected sample set.
class Cdf {
 public:
  Cdf() = default;
  explicit Cdf(std::vector<double> samples);

  void add(double x);
  /// Pre-size the sample buffer when the count is known (capture CDFs).
  void reserve(std::size_t n) { samples_.reserve(n); }

  std::size_t count() const { return samples_.size(); }
  bool empty() const { return samples_.empty(); }

  /// Quantile q in [0, 1]; linear interpolation between order statistics.
  double quantile(double q) const;
  double median() const { return quantile(0.5); }
  double mean() const;
  double min() const;
  double max() const;
  /// Empirical CDF value at x: P[X <= x].
  double at(double x) const;
  /// Fraction of samples strictly above x.
  double fraction_above(double x) const { return 1.0 - at(x); }

  /// Evenly spaced (value, cumulative-probability) points, ready to plot.
  std::vector<std::pair<double, double>> curve(std::size_t points = 100) const;

  const std::vector<double>& samples() const { return samples_; }

 private:
  void ensure_sorted() const;
  mutable std::vector<double> samples_;
  mutable bool sorted_ = true;
};

/// Cdf{values}.quantile(q) for each of the ascending quantiles `qs`, found
/// by selection instead of a sort: std::nth_element places the lower order
/// statistic of the quantile's rank, and the upper one is the least value
/// of the partition above it. Each quantile is selected inside the upper
/// partition the one before it left, so p99 after p95 searches the top 5%
/// only. The rank and interpolation rule is Cdf::quantile's own, so each
/// result has the sort's bits for NaN-free values (a pool that mixes -0.0
/// and +0.0 may differ in the sign of a zero result). A free function on a
/// buffer the caller owns, not a Cdf method: it permutes `values`, while
/// Cdf::mean() sums in storage order. Throws std::logic_error if `values` is
/// empty or `qs` is not ascending.
std::vector<double> select_quantiles(std::vector<double>& values,
                                     std::span<const double> qs);

/// Fixed-width histogram over [lo, hi).
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t bins);

  void add(double x);
  std::size_t bin_count(std::size_t bin) const { return counts_.at(bin); }
  std::size_t bins() const { return counts_.size(); }
  std::size_t total() const { return total_; }
  double bin_lo(std::size_t bin) const;
  double bin_hi(std::size_t bin) const;
  std::size_t underflow() const { return underflow_; }
  std::size_t overflow() const { return overflow_; }

 private:
  double lo_;
  double hi_;
  std::vector<std::size_t> counts_;
  std::size_t total_ = 0;
  std::size_t underflow_ = 0;
  std::size_t overflow_ = 0;
};

/// Trapezoidal integral of y(t) over irregularly spaced points; used to turn
/// current samples into charge (mAh) and power samples into energy.
double trapezoid_integral(const std::vector<double>& t,
                          const std::vector<double>& y);

}  // namespace blab::util
