// Shared plumbing for the end-to-end benchmark: run options, the result
// report every workload fills in, the outcome digest, and the host-clock
// layer ledger used by traced runs.
//
// The ledger is a benchmark-owned obs::Tracer whose clock is steady_clock
// microseconds (not simulated time). Workloads open obs::ScopedSpans around
// each call they make into a platform module; in untraced runs the tracer
// pointer is null and every span is a no-op. After each operation the
// ledger folds the finished spans through obs::build_flame into running
// per-(component, name) totals and self times, then clears the tracer, so a
// long run never reaches the tracer's span cap.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "obs/aggregate.hpp"
#include "obs/span.hpp"
#include "util/stats.hpp"

namespace blab::bench::e2e {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  /// Length of the timed phase in host seconds. Every workload also runs a
  /// fixed minimum number of operations (the digest prefix) regardless.
  double seconds = 10.0;
  bool trace = false;
  /// Smallest sizes, correctness only (the ctest smoke run).
  bool smoke = false;
  /// Scratch root for persistence directories; removed on exit.
  std::string work_dir;
  /// Traced runs write the ledger and a Perfetto trace here ("" = don't).
  std::string artifact_dir;
};

/// Host seconds on the steady clock (arbitrary origin).
double now_s();

/// Shortest text that reads back as exactly `v`, and a quoted JSON string.
std::string number(double v);
std::string json_string(std::string_view s);

/// Rolling 64-bit hash of simulated outcomes (FNV-1a over 8-byte words).
class Digest {
 public:
  void add(std::uint64_t v);
  void add(double v);
  void add(std::string_view s);
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

std::uint64_t splitmix64(std::uint64_t& state);

/// Spans a platform tracer has ended so far: buffered, dropped at the cap,
/// sampled out, or still awaiting a tail-sampling decision.
std::uint64_t spans_ended(const obs::Tracer& tracer);

/// Everything one workload run reports. Workloads record operations and
/// checks; main() renders the result line.
class Report {
 public:
  /// One attempted operation. A failed one (an error, or a wrong answer)
  /// counts toward the failed total and fails the run; `why` is kept.
  void op(bool ok, const std::string& why = {});
  /// A correctness check that is not an operation of its own. Only a
  /// failure counts, as one more failed attempt.
  void check(bool ok, const std::string& what) {
    if (!ok) op(false, what);
  }

  void metric(std::string name, double value, std::string unit);
  /// Informational "name value unit" line (not part of the result object).
  void info(std::string name, double value, std::string unit);

  /// Call when the workload's fixed operation prefix is done. peak_rss_mb is
  /// read here, after a fixed amount of work: memory that grows with every
  /// operation must not make a faster build, which fits more operations in
  /// the window, read as using more.
  void prefix_done();

  /// The five end-to-end metrics every workload reports.
  void end_to_end(const std::vector<double>& setup_s, const util::Cdf& ops_s,
                  double timed_wall_s, double tail_quantile);

  Digest& digest() { return digest_; }

  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  const std::vector<Metric>& metrics() const { return metrics_; }
  const std::vector<Metric>& infos() const { return infos_; }
  const std::vector<std::string>& failures() const { return failures_; }
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  bool correct() const { return failed_ == 0; }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> failures_;
  std::vector<Metric> metrics_;
  std::vector<Metric> infos_;
  Digest digest_;
  double prefix_rss_mb_ = 0.0;
};

/// Host-clock layer ledger (see the file comment).
class Ledger {
 public:
  explicit Ledger(bool traced);

  /// The benchmark-owned tracer, or nullptr in untraced runs.
  obs::Tracer* tracer() { return tracer_.get(); }
  bool traced() const { return tracer_ != nullptr; }

  /// Fold every finished span into the totals and clear the tracer. Call
  /// between operations, when no span is open.
  void fold();
  /// Forget everything folded so far (end of set-up).
  void reset();

  /// Sums over every span named (component, name), in seconds.
  double total_s(std::string_view component, std::string_view name) const;
  double self_s(std::string_view component, std::string_view name) const;

  /// Every (component/name) row as JSON, and the first spans of the run as
  /// Chrome trace-event JSON for Perfetto.
  std::string rows_json() const;
  std::string perfetto_json() const;

 private:
  struct Row {
    std::uint64_t count = 0;
    std::int64_t total_us = 0;
    std::int64_t self_us = 0;
  };
  void walk(const obs::FlameNode& node);
  const Row* row(std::string_view component, std::string_view name) const;

  std::chrono::steady_clock::time_point origin_;
  std::unique_ptr<obs::Tracer> tracer_;
  std::map<std::string, Row, std::less<>> rows_;
  /// Perfetto prefix, ids shifted so spans from successive folds (the
  /// tracer restarts its ids on clear) stay distinct.
  std::vector<obs::SpanRecord> kept_;
  std::uint64_t id_offset_ = 0;
  std::uint64_t trace_offset_ = 0;
};

/// Call `fn` inside a ledger span and return its result.
template <typename F>
auto in_span(obs::Tracer* tracer, const char* component, const char* name,
             F&& fn) {
  obs::ScopedSpan span{tracer, component, name};
  return fn();
}

/// Per-layer metric names and units. Every traced run reports all of them;
/// a layer the workload never calls reads 0.
struct LayerMetric {
  const char* name;
  const char* unit;
};
const std::vector<LayerMetric>& layer_metrics();

/// Traced runs: write <workload>-ledger.json (span rows + layer metrics) and
/// <workload>-trace.json (Perfetto) into opts.artifact_dir, if set.
void write_artifacts(const Options& opts, const Ledger& ledger,
                     const Report& report);

/// Scratch directory helpers (std::filesystem, errors are fatal).
std::string make_dir(const std::string& parent, const std::string& name);
void remove_dir(const std::string& path);

}  // namespace blab::bench::e2e
