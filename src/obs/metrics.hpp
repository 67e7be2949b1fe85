// Deterministic, sim-time-aware metrics registry (DESIGN.md §9).
//
// Counters, gauges and fixed-boundary histograms, named and optionally
// labelled. Design constraints, in order:
//
//   * Cheap on hot paths. Components resolve their instruments ONCE (at
//     construction) and keep raw pointers; an increment is a single relaxed
//     atomic op — no locks, no map lookups, no allocation. Only the
//     registration path takes the registry mutex.
//   * Deterministic. Nothing here reads a wall clock or consumes randomness,
//     so registering and hitting metrics cannot perturb a DST run; two runs
//     of the same seed produce byte-identical snapshots (series are keyed and
//     emitted in sorted order, and every value is accumulated in a fixed
//     arithmetic order on the single simulator thread).
//   * Safe under the pooled corpus runner. Each scenario owns its Simulator
//     and therefore its registry, so workers never share instruments; the
//     atomics make even a shared registry (tests, dashboards) race-free.
//
// Naming convention: `blab_<component>_<what>[_total]` — counters end in
// `_total`, gauges and histograms do not. Label values are free-form but low
// cardinality; the registry warns once per metric name when a name exceeds
// kSeriesWarnCardinality series (a typo'd per-sample label would otherwise
// grow the registry without bound).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/logging.hpp"

namespace blab::obs {

/// One metric label; series identity is (name, sorted labels).
struct Label {
  std::string key;
  std::string value;

  bool operator==(const Label&) const = default;
};
using Labels = std::vector<Label>;

class Counter {
 public:
  void inc(std::uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  std::uint64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

class Gauge {
 public:
  void set(double v) { v_.store(v, std::memory_order_relaxed); }
  void add(double d) {
    double cur = v_.load(std::memory_order_relaxed);
    while (!v_.compare_exchange_weak(cur, cur + d,
                                     std::memory_order_relaxed)) {
    }
  }
  double value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
};

/// Trace reference attached to a histogram observation: the trace that
/// produced the value and the sim timestamp it was observed at. trace 0
/// means "no exemplar".
struct Exemplar {
  std::uint64_t trace = 0;
  std::int64_t ts_us = 0;
  double value = 0.0;

  bool valid() const { return trace != 0; }
  bool operator==(const Exemplar&) const = default;
};

/// Fixed-boundary histogram. `bounds` are ascending inclusive upper bounds
/// (Prometheus `le` semantics); an implicit +Inf bucket catches the rest.
/// Buckets are stored non-cumulative; the text encoder accumulates.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void observe(double v);
  /// Observe and, when the value is an outlier, keep `ex` as that bucket's
  /// exemplar. An observation qualifies when the histogram is empty or the
  /// fraction of prior observations in buckets strictly below its own is at
  /// least kExemplarQuantile — so exemplars point at the slow tail, not the
  /// bulk. The latest qualifying exemplar per bucket wins.
  void observe(double v, const Exemplar& ex);

  static constexpr double kExemplarQuantile = 0.90;
  /// Exemplar of bucket i; !valid() when the bucket has none yet.
  Exemplar exemplar(std::size_t i) const;

  const std::vector<double>& bounds() const { return bounds_; }
  std::size_t bucket_count() const { return bounds_.size() + 1; }
  std::uint64_t bucket(std::size_t i) const {
    return counts_[i].load(std::memory_order_relaxed);
  }
  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }

 private:
  std::size_t bucket_index(double v) const;

  std::vector<double> bounds_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> counts_;
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  // Exemplars are cold (outliers only) and carry two fields, so a small
  // mutex beats widening the hot-path atomics.
  mutable std::mutex ex_mu_;
  std::unique_ptr<Exemplar[]> exemplars_;
};

enum class MetricKind { kCounter, kGauge, kHistogram };

/// Point-in-time copy of one series, detached from the live instruments.
struct SeriesSnapshot {
  std::string name;
  Labels labels;
  MetricKind kind = MetricKind::kCounter;
  double value = 0.0;                  ///< counter / gauge
  std::vector<double> bounds;          ///< histogram upper bounds
  std::vector<std::uint64_t> buckets;  ///< non-cumulative, +Inf last
  std::vector<Exemplar> exemplars;     ///< per bucket; empty when none set
  std::uint64_t count = 0;
  double sum = 0.0;
};

struct MetricsSnapshot {
  std::vector<SeriesSnapshot> series;  ///< sorted by (name, labels)

  const SeriesSnapshot* find(std::string_view name,
                             const Labels& labels = {}) const;
  /// Counter/gauge value, or `fallback` when the series does not exist.
  double value_or(std::string_view name, const Labels& labels = {},
                  double fallback = 0.0) const;
  bool empty() const { return series.empty(); }
};

class MetricsRegistry {
 public:
  /// Series-per-name ceiling before the one-shot cardinality warning fires.
  static constexpr std::size_t kSeriesWarnCardinality = 256;

  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Find-or-create. Returned references stay valid for the registry's
  /// lifetime (instruments are heap-allocated and never destroyed early), so
  /// callers cache them at construction and hit them lock-free. A kind
  /// mismatch against an existing series logs an error and returns a
  /// process-wide dummy instrument so the caller never dereferences null.
  Counter& counter(std::string_view name, Labels labels = {});
  Gauge& gauge(std::string_view name, Labels labels = {});
  Histogram& histogram(std::string_view name, std::vector<double> bounds,
                       Labels labels = {});

  /// Collectors run (in registration order) at the start of every snapshot,
  /// to publish values that live outside the registry — e.g. the simulator
  /// kernel's counters or a container's current size — into gauges.
  void add_collector(std::function<void()> fn);

  /// Deterministic point-in-time copy: runs collectors, then copies every
  /// series in sorted key order.
  MetricsSnapshot snapshot();

  std::size_t series_count() const;

 private:
  struct Series {
    std::string name;
    Labels labels;
    MetricKind kind = MetricKind::kCounter;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  Series* find_or_create(std::string_view name, Labels labels,
                         MetricKind kind, std::vector<double> bounds);

  mutable std::mutex mu_;
  // std::map keeps snapshot iteration in sorted key order — the determinism
  // contract rides on it.
  std::map<std::string, Series> series_;
  std::map<std::string, std::size_t, std::less<>> cardinality_;
  util::OncePerKey cardinality_warned_;
  std::vector<std::function<void()>> collectors_;
};

/// Canonical series key: name plus sorted rendered labels. Exposed for the
/// encoders and tests.
std::string series_key(std::string_view name, const Labels& labels);

}  // namespace blab::obs
