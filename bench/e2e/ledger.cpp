#include "bench/e2e/ledger.hpp"

#include <algorithm>
#include <charconv>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <sys/resource.h>

#include "obs/export.hpp"

namespace blab::bench::e2e {

namespace {

/// Spans kept for the Perfetto artifact; enough for the first few dozen
/// operations of any workload.
constexpr std::size_t kPerfettoSpans = 20000;
/// Failure reasons kept for the error report; the count is always exact.
constexpr std::size_t kMaxFailureMessages = 20;

std::string row_key(std::string_view component, std::string_view name) {
  std::string key{component};
  key += '/';
  key += name;
  return key;
}

}  // namespace

std::string number(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string{buf, res.ptr};
}

std::string json_string(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += (c == '\n') ? ' ' : c;
  }
  return out + "\"";
}

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void Digest::add(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h_ ^= (v >> (8 * i)) & 0xffu;
    h_ *= 0x100000001b3ULL;
  }
}

void Digest::add(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  add(bits);
}

void Digest::add(std::string_view s) {
  for (const char c : s) {
    h_ ^= static_cast<unsigned char>(c);
    h_ *= 0x100000001b3ULL;
  }
  add(static_cast<std::uint64_t>(s.size()));
}

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::uint64_t spans_ended(const obs::Tracer& tracer) {
  return tracer.spans().size() + tracer.dropped() + tracer.sampled_out() +
         tracer.tail_pending();
}

void Report::op(bool ok, const std::string& why) {
  ++attempted_;
  if (ok) return;
  ++failed_;
  if (failures_.size() < kMaxFailureMessages) failures_.push_back(why);
}

void Report::metric(std::string name, double value, std::string unit) {
  metrics_.push_back({std::move(name), value, std::move(unit)});
}

void Report::info(std::string name, double value, std::string unit) {
  infos_.push_back({std::move(name), value, std::move(unit)});
}

void Report::prefix_done() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  prefix_rss_mb_ = static_cast<double>(usage.ru_maxrss) / 1024.0;
}

void Report::end_to_end(const std::vector<double>& setup_s,
                        const util::Cdf& ops_s, double timed_wall_s,
                        double tail_quantile) {
  metric("setup_s", util::Cdf{setup_s}.median(), "s");
  metric("peak_rss_mb", prefix_rss_mb_, "MB");
  metric("ops_per_s", static_cast<double>(ops_s.count()) / timed_wall_s, "1/s");
  metric("op_p50_s", ops_s.median(), "s");
  metric("op_tail_s", ops_s.quantile(tail_quantile), "s");
  info("ops", static_cast<double>(ops_s.count()), "count");
  info("op_mean_s", ops_s.mean(), "s");
  info("op_tail_quantile", tail_quantile, "q");
}

Ledger::Ledger(bool traced) : origin_{std::chrono::steady_clock::now()} {
  if (!traced) return;
  tracer_ = std::make_unique<obs::Tracer>([origin = origin_] {
    return std::chrono::duration_cast<std::chrono::microseconds>(
               std::chrono::steady_clock::now() - origin)
        .count();
  });
}

void Ledger::fold() {
  if (tracer_ == nullptr) return;
  const std::vector<obs::SpanRecord>& spans = tracer_->spans();
  walk(obs::build_flame(spans));
  std::uint64_t max_id = 0;
  std::uint64_t max_trace = 0;
  for (const obs::SpanRecord& span : spans) {
    max_id = std::max(max_id, span.id);
    max_trace = std::max(max_trace, span.trace);
    if (kept_.size() >= kPerfettoSpans) continue;
    obs::SpanRecord copy = span;
    copy.id += id_offset_;
    if (copy.parent != 0) copy.parent += id_offset_;
    copy.trace += trace_offset_;
    kept_.push_back(std::move(copy));
  }
  id_offset_ += max_id;
  trace_offset_ += max_trace;
  tracer_->clear();
}

void Ledger::reset() {
  if (tracer_ != nullptr) tracer_->clear();
  rows_.clear();
  kept_.clear();
  id_offset_ = 0;
  trace_offset_ = 0;
}

void Ledger::walk(const obs::FlameNode& node) {
  for (const obs::FlameNode& child : node.children) {
    Row& r = rows_[row_key(child.component, child.name)];
    r.count += child.count;
    r.total_us += child.total_us;
    r.self_us += child.self_us;
    walk(child);
  }
}

const Ledger::Row* Ledger::row(std::string_view component,
                               std::string_view name) const {
  const auto it = rows_.find(row_key(component, name));
  return it == rows_.end() ? nullptr : &it->second;
}

double Ledger::total_s(std::string_view component,
                       std::string_view name) const {
  const Row* r = row(component, name);
  return r == nullptr ? 0.0 : static_cast<double>(r->total_us) / 1e6;
}

double Ledger::self_s(std::string_view component, std::string_view name) const {
  const Row* r = row(component, name);
  return r == nullptr ? 0.0 : static_cast<double>(r->self_us) / 1e6;
}

std::string Ledger::rows_json() const {
  std::string out = "[";
  bool sep = false;
  for (const auto& [key, r] : rows_) {
    if (sep) out += ',';
    sep = true;
    out += "{\"span\":" + json_string(key) +
           ",\"count\":" + std::to_string(r.count) +
           ",\"total_us\":" + std::to_string(r.total_us) +
           ",\"self_us\":" + std::to_string(r.self_us) + "}";
  }
  out += "]";
  return out;
}

std::string Ledger::perfetto_json() const {
  return obs::encode_trace_json(kept_);
}

const std::vector<LayerMetric>& layer_metrics() {
  static const std::vector<LayerMetric> kMetrics = {
      // Every workload: the benchmark's own share and the traced op time.
      {"bench.op_s", "s"},
      {"bench.unattributed_s", "s"},
      // paper_job, per job.
      {"server.submit_s", "s"},
      {"server.dispatch_s", "s"},
      {"automation.workload_s", "s"},
      {"hw.synth_s", "s"},
      {"store.append_s", "s"},
      {"persist.append_s", "s"},
      {"persist.checkpoint_s", "s"},
      {"store.retention_s", "s"},
      {"health.evaluate_s", "s"},
      {"automation.self_s", "s"},
      {"store.answer_s", "s"},
      {"hw.synth_samples_per_s", "1/s"},
      {"store.encoded_bytes_per_sample", "B/sample"},
      {"persist.checkpoints_per_job", "count"},
      {"sim.events_per_job", "count"},
      {"obs.spans_per_job", "count"},
      // usability_session.
      {"api.session_setup_s", "s"},
      {"api.session_teardown_s", "s"},
      {"mirror.probe_s", "s"},
      {"sim.pacing_s", "s"},
      {"sim.events_per_probe", "count"},
      {"sim.host_ns_per_event", "ns"},
      {"obs.spans_per_probe", "count"},
      {"mirror.sim_latency_s", "s"},
      // fleet_query.
      {"persist.open_s", "s"},
      {"store.summary_s", "s"},
      {"store.energy_s", "s"},
      {"store.aggregate_s", "s"},
      {"store.percentiles_s", "s"},
      {"store.range_s", "s"},
      {"store.cache_hit_ratio", "ratio"},
      {"persist.disk_loads", "count"},
      {"health.rollup_compute_s", "s"},
      {"controller.rollup_call_s", "s"},
      {"controller.health_call_s", "s"},
      {"obs.metrics_call_s", "s"},
      {"health.captures_scanned_per_s", "1/s"},
      // scenario_corpus.
      {"testing.scenario_s", "s"},
      {"sim.events_per_scenario", "count"},
      {"server.jobs_dispatched_per_scenario", "count"},
      {"hw.captures_per_scenario", "count"},
      {"testing.faults_per_scenario", "count"},
      {"obs.spans_per_scenario", "count"},
  };
  return kMetrics;
}

void write_artifacts(const Options& opts, const Ledger& ledger,
                     const Report& report) {
  if (opts.artifact_dir.empty()) return;
  std::filesystem::create_directories(opts.artifact_dir);
  const std::filesystem::path dir{opts.artifact_dir};
  std::ofstream ledger_out{dir / (opts.workload + "-ledger.json")};
  ledger_out << "{\"workload\": " << json_string(opts.workload)
             << ", \"seed\": " << opts.seed << ", \"metrics\": {";
  bool sep = false;
  for (const Report::Metric& m : report.metrics()) {
    ledger_out << (sep ? ", " : "") << json_string(m.name) << ": "
               << number(m.value);
    sep = true;
  }
  ledger_out << "}, \"spans\": " << ledger.rows_json() << "}\n";
  std::ofstream trace_out{dir / (opts.workload + "-trace.json")};
  trace_out << ledger.perfetto_json();
  if (!ledger_out || !trace_out) {
    throw std::runtime_error{"cannot write artifacts to " + opts.artifact_dir};
  }
}

std::string make_dir(const std::string& parent, const std::string& name) {
  const std::filesystem::path path = std::filesystem::path{parent} / name;
  std::filesystem::remove_all(path);
  std::filesystem::create_directories(path);
  return path.string();
}

void remove_dir(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove_all(path, ec);
}

}  // namespace blab::bench::e2e
