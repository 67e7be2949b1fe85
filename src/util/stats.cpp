#include "util/stats.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>
#include <utility>

namespace blab::util {

namespace {

/// The one quantile rule behind Cdf::quantile and select_quantiles: rank
/// pos = q * (n - 1) lies between the order statistics lo = floor(pos) and
/// hi = min(lo + 1, n - 1), and the quantile interpolates linearly between
/// them. `order_stats(lo, hi)` returns that pair of values.
template <typename OrderStats>
double quantile_at_rank(double q, std::size_t n, OrderStats&& order_stats) {
  q = std::clamp(q, 0.0, 1.0);
  const double pos = q * static_cast<double>(n - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const auto hi = std::min(lo + 1, n - 1);
  const double frac = pos - static_cast<double>(lo);
  const auto [a, b] = order_stats(lo, hi);
  return a * (1.0 - frac) + b * frac;
}

}  // namespace

void RunningStats::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
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
  const auto n1 = static_cast<double>(n_);
  const auto n2 = static_cast<double>(other.n_);
  const double delta = other.mean_ - mean_;
  const double total = n1 + n2;
  mean_ += delta * n2 / total;
  m2_ += other.m2_ + delta * delta * n1 * n2 / total;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
  n_ += other.n_;
}

double RunningStats::variance() const {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

Cdf::Cdf(std::vector<double> samples) : samples_{std::move(samples)}, sorted_{false} {}

void Cdf::add(double x) {
  samples_.push_back(x);
  sorted_ = false;
}

void Cdf::ensure_sorted() const {
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }
}

double Cdf::quantile(double q) const {
  if (samples_.empty()) throw std::logic_error{"quantile of empty Cdf"};
  ensure_sorted();
  return quantile_at_rank(q, samples_.size(),
                          [&](std::size_t lo, std::size_t hi) {
                            return std::pair{samples_[lo], samples_[hi]};
                          });
}

std::vector<double> select_quantiles(std::vector<double>& values,
                                     std::span<const double> qs) {
  if (values.empty()) throw std::logic_error{"quantile of empty sample set"};
  std::vector<double> out;
  out.reserve(qs.size());
  // Everything before `first` is no greater than anything from it on.
  auto first = values.begin();
  for (const double q : qs) {
    out.push_back(quantile_at_rank(
        q, values.size(), [&](std::size_t lo, std::size_t hi) {
          const auto nth = values.begin() + static_cast<std::ptrdiff_t>(lo);
          if (nth < first) {
            throw std::logic_error{"select_quantiles needs ascending qs"};
          }
          std::nth_element(first, nth, values.end());
          first = nth;
          const double upper =
              hi == lo ? *nth : *std::min_element(nth + 1, values.end());
          return std::pair{*nth, upper};
        }));
  }
  return out;
}

double Cdf::mean() const {
  if (samples_.empty()) return 0.0;
  double s = 0.0;
  for (double x : samples_) s += x;
  return s / static_cast<double>(samples_.size());
}

double Cdf::min() const {
  ensure_sorted();
  return samples_.empty() ? 0.0 : samples_.front();
}

double Cdf::max() const {
  ensure_sorted();
  return samples_.empty() ? 0.0 : samples_.back();
}

double Cdf::at(double x) const {
  if (samples_.empty()) return 0.0;
  ensure_sorted();
  const auto it = std::upper_bound(samples_.begin(), samples_.end(), x);
  return static_cast<double>(it - samples_.begin()) /
         static_cast<double>(samples_.size());
}

std::vector<std::pair<double, double>> Cdf::curve(std::size_t points) const {
  std::vector<std::pair<double, double>> out;
  if (samples_.empty() || points < 2) return out;
  out.reserve(points);
  for (std::size_t i = 0; i < points; ++i) {
    const double q = static_cast<double>(i) / static_cast<double>(points - 1);
    out.emplace_back(quantile(q), q);
  }
  return out;
}

Histogram::Histogram(double lo, double hi, std::size_t bins)
    : lo_{lo}, hi_{hi}, counts_(bins, 0) {
  assert(hi > lo && bins > 0);
}

void Histogram::add(double x) {
  ++total_;
  if (x < lo_) {
    ++underflow_;
    return;
  }
  if (x >= hi_) {
    ++overflow_;
    return;
  }
  const double w = (hi_ - lo_) / static_cast<double>(counts_.size());
  auto bin = static_cast<std::size_t>((x - lo_) / w);
  bin = std::min(bin, counts_.size() - 1);
  ++counts_[bin];
}

double Histogram::bin_lo(std::size_t bin) const {
  const double w = (hi_ - lo_) / static_cast<double>(counts_.size());
  return lo_ + w * static_cast<double>(bin);
}

double Histogram::bin_hi(std::size_t bin) const { return bin_lo(bin + 1); }

double trapezoid_integral(const std::vector<double>& t,
                          const std::vector<double>& y) {
  assert(t.size() == y.size());
  double acc = 0.0;
  for (std::size_t i = 1; i < t.size(); ++i) {
    acc += 0.5 * (y[i] + y[i - 1]) * (t[i] - t[i - 1]);
  }
  return acc;
}

}  // namespace blab::util
