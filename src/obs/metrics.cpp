#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

namespace blab::obs {
namespace {

// Fallback instruments returned on kind mismatch so callers never hold a
// dangling or null reference. Shared process-wide; their values are garbage
// by definition and never exported.
Counter& dummy_counter() {
  static Counter c;
  return c;
}
Gauge& dummy_gauge() {
  static Gauge g;
  return g;
}
Histogram& dummy_histogram() {
  static Histogram h{{1.0}};
  return h;
}

Labels sorted_labels(Labels labels) {
  std::sort(labels.begin(), labels.end(),
            [](const Label& a, const Label& b) { return a.key < b.key; });
  return labels;
}

}  // namespace

std::string series_key(std::string_view name, const Labels& labels) {
  std::string key{name};
  if (!labels.empty()) {
    key += '{';
    bool sep = false;
    for (const Label& l : labels) {
      if (sep) key += ',';
      sep = true;
      key += l.key;
      key += "=\"";
      key += l.value;
      key += '"';
    }
    key += '}';
  }
  return key;
}

Histogram::Histogram(std::vector<double> bounds) : bounds_{std::move(bounds)} {
  std::sort(bounds_.begin(), bounds_.end());
  bounds_.erase(std::unique(bounds_.begin(), bounds_.end()), bounds_.end());
  counts_ = std::make_unique<std::atomic<std::uint64_t>[]>(bounds_.size() + 1);
  for (std::size_t i = 0; i <= bounds_.size(); ++i) counts_[i].store(0);
}

std::size_t Histogram::bucket_index(double v) const {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  return static_cast<std::size_t>(it - bounds_.begin());
}

void Histogram::observe(double v) {
  if (std::isnan(v)) return;
  counts_[bucket_index(v)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  double cur = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(cur, cur + v,
                                     std::memory_order_relaxed)) {
  }
}

void Histogram::observe(double v, const Exemplar& ex) {
  if (std::isnan(v)) return;
  const std::size_t idx = bucket_index(v);
  // Attach when the observation sits in the upper (1 - q) tail of what the
  // histogram has seen so far: the fraction of prior observations in buckets
  // strictly below this one reaches the quantile. The first observation
  // always qualifies (an empty histogram has no bulk to compare against).
  const std::uint64_t total = count_.load(std::memory_order_relaxed);
  std::uint64_t below = 0;
  for (std::size_t i = 0; i < idx; ++i) {
    below += counts_[i].load(std::memory_order_relaxed);
  }
  const bool attach =
      total == 0 || static_cast<double>(below) >=
                        kExemplarQuantile * static_cast<double>(total);
  observe(v);
  if (!attach || !ex.valid()) return;
  std::lock_guard<std::mutex> lock{ex_mu_};
  if (exemplars_ == nullptr) {
    exemplars_ = std::make_unique<Exemplar[]>(bucket_count());
  }
  Exemplar stamped = ex;
  stamped.value = v;
  exemplars_[idx] = stamped;
}

Exemplar Histogram::exemplar(std::size_t i) const {
  std::lock_guard<std::mutex> lock{ex_mu_};
  if (exemplars_ == nullptr || i >= bucket_count()) return {};
  return exemplars_[i];
}

const SeriesSnapshot* MetricsSnapshot::find(std::string_view name,
                                            const Labels& labels) const {
  const Labels want = [&] {
    Labels copy = labels;
    std::sort(copy.begin(), copy.end(),
              [](const Label& a, const Label& b) { return a.key < b.key; });
    return copy;
  }();
  for (const SeriesSnapshot& s : series) {
    if (s.name == name && s.labels == want) return &s;
  }
  return nullptr;
}

double MetricsSnapshot::value_or(std::string_view name, const Labels& labels,
                                 double fallback) const {
  const SeriesSnapshot* s = find(name, labels);
  return s != nullptr ? s->value : fallback;
}

MetricsRegistry::Series* MetricsRegistry::find_or_create(
    std::string_view name, Labels labels, MetricKind kind,
    std::vector<double> bounds) {
  labels = sorted_labels(std::move(labels));
  std::string key = series_key(name, labels);
  std::lock_guard<std::mutex> lock{mu_};
  auto it = series_.find(key);
  if (it != series_.end()) {
    if (it->second.kind != kind) {
      BLAB_ERROR("obs", "metric kind mismatch for " << key
                                                    << "; returning dummy");
      return nullptr;
    }
    return &it->second;
  }
  Series s;
  s.name = std::string{name};
  s.labels = std::move(labels);
  s.kind = kind;
  switch (kind) {
    case MetricKind::kCounter: s.counter = std::make_unique<Counter>(); break;
    case MetricKind::kGauge: s.gauge = std::make_unique<Gauge>(); break;
    case MetricKind::kHistogram:
      s.histogram = std::make_unique<Histogram>(std::move(bounds));
      break;
  }
  auto [pos, inserted] = series_.emplace(std::move(key), std::move(s));
  const std::size_t n = ++cardinality_[pos->second.name];
  if (n > kSeriesWarnCardinality &&
      cardinality_warned_.first(pos->second.name)) {
    BLAB_WARN("obs", "metric " << pos->second.name << " exceeded "
                               << kSeriesWarnCardinality
                               << " label combinations; check label values");
  }
  return &pos->second;
}

Counter& MetricsRegistry::counter(std::string_view name, Labels labels) {
  Series* s =
      find_or_create(name, std::move(labels), MetricKind::kCounter, {});
  return s != nullptr ? *s->counter : dummy_counter();
}

Gauge& MetricsRegistry::gauge(std::string_view name, Labels labels) {
  Series* s = find_or_create(name, std::move(labels), MetricKind::kGauge, {});
  return s != nullptr ? *s->gauge : dummy_gauge();
}

Histogram& MetricsRegistry::histogram(std::string_view name,
                                      std::vector<double> bounds,
                                      Labels labels) {
  Series* s = find_or_create(name, std::move(labels), MetricKind::kHistogram,
                             std::move(bounds));
  return s != nullptr ? *s->histogram : dummy_histogram();
}

void MetricsRegistry::add_collector(std::function<void()> fn) {
  std::lock_guard<std::mutex> lock{mu_};
  collectors_.push_back(std::move(fn));
}

MetricsSnapshot MetricsRegistry::snapshot() {
  // Collectors may register/update series, so run them before taking the
  // lock (they call back into the registry).
  std::vector<std::function<void()>> collectors;
  {
    std::lock_guard<std::mutex> lock{mu_};
    collectors = collectors_;
  }
  for (const auto& fn : collectors) fn();

  MetricsSnapshot snap;
  std::lock_guard<std::mutex> lock{mu_};
  snap.series.reserve(series_.size());
  for (const auto& [key, s] : series_) {
    SeriesSnapshot out;
    out.name = s.name;
    out.labels = s.labels;
    out.kind = s.kind;
    switch (s.kind) {
      case MetricKind::kCounter:
        out.value = static_cast<double>(s.counter->value());
        break;
      case MetricKind::kGauge: out.value = s.gauge->value(); break;
      case MetricKind::kHistogram: {
        out.bounds = s.histogram->bounds();
        out.buckets.resize(s.histogram->bucket_count());
        bool any_exemplar = false;
        std::vector<Exemplar> exemplars(out.buckets.size());
        for (std::size_t i = 0; i < out.buckets.size(); ++i) {
          out.buckets[i] = s.histogram->bucket(i);
          exemplars[i] = s.histogram->exemplar(i);
          any_exemplar = any_exemplar || exemplars[i].valid();
        }
        if (any_exemplar) out.exemplars = std::move(exemplars);
        out.count = s.histogram->count();
        out.sum = s.histogram->sum();
        break;
      }
    }
    snap.series.push_back(std::move(out));
  }
  return snap;
}

std::size_t MetricsRegistry::series_count() const {
  std::lock_guard<std::mutex> lock{mu_};
  return series_.size();
}

}  // namespace blab::obs
