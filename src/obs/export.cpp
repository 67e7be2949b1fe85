#include "obs/export.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>

#include "util/strings.hpp"

namespace blab::obs {
namespace {

const char* kind_name(MetricKind kind) {
  switch (kind) {
    case MetricKind::kCounter: return "counter";
    case MetricKind::kGauge: return "gauge";
    case MetricKind::kHistogram: return "histogram";
  }
  return "?";
}

/// Append `key="value"`, the value escaped as the exposition format asks.
void append_label(std::string& out, std::string_view key,
                  std::string_view value) {
  out += key;
  out += "=\"";
  for (const char c : value) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  out += '"';
}

std::string render_labels(const Labels& labels) {
  if (labels.empty()) return "";
  std::string out = "{";
  for (const Label& l : labels) {
    if (out.size() > 1) out += ',';
    append_label(out, l.key, l.value);
  }
  out += '}';
  return out;
}

std::string render_labels_with(const Labels& labels, std::string_view key,
                               std::string_view value) {
  std::string out = render_labels(labels);
  if (out.empty()) {
    out = "{";
  } else {
    out.back() = ',';
  }
  append_label(out, key, value);
  out += '}';
  return out;
}

/// JSON-safe double: NaN/Inf have no JSON literal, so render as strings.
void append_json_number(std::string& out, double v) {
  if (std::isnan(v) || std::isinf(v)) {
    util::append_json_string(out, format_metric_value(v));
  } else {
    out += format_metric_value(v);
  }
}

std::string exemplar_suffix(const Exemplar& ex) {
  return " # {trace_id=\"" + std::to_string(ex.trace) + "\",ts_us=\"" +
         std::to_string(ex.ts_us) + "\"} " + format_metric_value(ex.value);
}

void append_trace_event(std::string& out, const SpanRecord& s, int pid,
                        bool& sep) {
  if (sep) out += ',';
  sep = true;
  out += "{\"name\":";
  util::append_json_string(out, s.name);
  out += ",\"cat\":";
  util::append_json_string(out, s.component);
  out += ",\"ph\":\"X\",\"ts\":" + std::to_string(s.start_us) +
         ",\"dur\":" + std::to_string(s.duration_us()) +
         ",\"pid\":" + std::to_string(pid) +
         ",\"tid\":" + std::to_string(s.trace) +
         ",\"args\":{\"span\":" + std::to_string(s.id) +
         ",\"parent\":" + std::to_string(s.parent) +
         ",\"trace\":" + std::to_string(s.trace);
  if (s.weight != 1) out += ",\"weight\":" + std::to_string(s.weight);
  // Cross-trace links render as "link.<kind>" args naming the target, so a
  // Perfetto query can hop from a retry's root to its predecessor trace.
  for (const SpanLink& l : s.links) {
    out += ',';
    util::append_json_string(out, "link." + l.kind);
    out += ':';
    util::append_json_string(
        out, std::to_string(l.trace) + ":" + std::to_string(l.span));
  }
  for (const SpanAttr& a : s.attrs) {
    out += ',';
    util::append_json_string(out, a.key);
    out += ':';
    switch (a.kind) {
      case SpanAttr::Kind::kInt: out += std::to_string(a.i); break;
      case SpanAttr::Kind::kDouble: append_json_number(out, a.d); break;
      case SpanAttr::Kind::kString: util::append_json_string(out, a.s); break;
    }
  }
  out += "}}";
}

}  // namespace

std::string format_metric_value(double v) {
  if (std::isnan(v)) return "NaN";
  if (std::isinf(v)) return v > 0 ? "+Inf" : "-Inf";
  if (v == std::floor(v) && std::abs(v) < 1e15) {
    return std::to_string(static_cast<std::int64_t>(v));
  }
  return util::format_double(v, 6);
}

std::string encode_prometheus(const MetricsSnapshot& snap) {
  std::string out;
  std::string last_name;
  for (const SeriesSnapshot& s : snap.series) {
    if (s.name != last_name) {
      out += "# TYPE " + s.name + " " + kind_name(s.kind) + "\n";
      last_name = s.name;
    }
    switch (s.kind) {
      case MetricKind::kCounter:
      case MetricKind::kGauge:
        out += s.name + render_labels(s.labels) + " " +
               format_metric_value(s.value) + "\n";
        break;
      case MetricKind::kHistogram: {
        const auto bucket_exemplar = [&](std::size_t i) -> std::string {
          if (i >= s.exemplars.size() || !s.exemplars[i].valid()) return "";
          return exemplar_suffix(s.exemplars[i]);
        };
        std::uint64_t cumulative = 0;
        for (std::size_t i = 0; i < s.bounds.size(); ++i) {
          cumulative += s.buckets[i];
          out += s.name + "_bucket" +
                 render_labels_with(s.labels, "le",
                                    format_metric_value(s.bounds[i])) +
                 " " + std::to_string(cumulative) + bucket_exemplar(i) + "\n";
        }
        cumulative += s.buckets.empty() ? 0 : s.buckets.back();
        out += s.name + "_bucket" +
               render_labels_with(s.labels, "le", "+Inf") + " " +
               std::to_string(cumulative) +
               bucket_exemplar(s.bounds.size()) + "\n";
        out += s.name + "_sum" + render_labels(s.labels) + " " +
               format_metric_value(s.sum) + "\n";
        out += s.name + "_count" + render_labels(s.labels) + " " +
               std::to_string(s.count) + "\n";
        break;
      }
    }
  }
  return out;
}

std::string encode_json(const MetricsSnapshot& snap) {
  std::string out = "{\"series\":[";
  bool sep = false;
  for (const SeriesSnapshot& s : snap.series) {
    if (sep) out += ',';
    sep = true;
    out += "{\"name\":";
    util::append_json_string(out, s.name);
    out += ",\"kind\":\"";
    out += kind_name(s.kind);
    out += "\",\"labels\":{";
    bool lsep = false;
    for (const Label& l : s.labels) {
      if (lsep) out += ',';
      lsep = true;
      util::append_json_string(out, l.key);
      out += ':';
      util::append_json_string(out, l.value);
    }
    out += "}";
    switch (s.kind) {
      case MetricKind::kCounter:
      case MetricKind::kGauge:
        out += ",\"value\":" + format_metric_value(s.value);
        break;
      case MetricKind::kHistogram: {
        out += ",\"bounds\":[";
        for (std::size_t i = 0; i < s.bounds.size(); ++i) {
          if (i > 0) out += ',';
          out += format_metric_value(s.bounds[i]);
        }
        out += "],\"buckets\":[";
        for (std::size_t i = 0; i < s.buckets.size(); ++i) {
          if (i > 0) out += ',';
          out += std::to_string(s.buckets[i]);
        }
        out += "],\"count\":" + std::to_string(s.count) +
               ",\"sum\":" + format_metric_value(s.sum);
        if (!s.exemplars.empty()) {
          out += ",\"exemplars\":[";
          bool esep = false;
          for (std::size_t i = 0; i < s.exemplars.size(); ++i) {
            if (!s.exemplars[i].valid()) continue;
            if (esep) out += ',';
            esep = true;
            out += "{\"bucket\":" + std::to_string(i) +
                   ",\"trace_id\":" + std::to_string(s.exemplars[i].trace) +
                   ",\"ts_us\":" + std::to_string(s.exemplars[i].ts_us) +
                   ",\"value\":";
            append_json_number(out, s.exemplars[i].value);
            out += '}';
          }
          out += "]";
        }
        break;
      }
    }
    out += "}";
  }
  out += "]}";
  return out;
}

MetricsSnapshot merge_snapshots(const std::vector<MetricsSnapshot>& snaps) {
  // Keyed map keeps the merged output in the same sorted order as a
  // registry snapshot.
  std::map<std::string, SeriesSnapshot> merged;
  for (const MetricsSnapshot& snap : snaps) {
    for (const SeriesSnapshot& s : snap.series) {
      const std::string key = series_key(s.name, s.labels);
      auto it = merged.find(key);
      if (it == merged.end()) {
        merged.emplace(key, s);
        continue;
      }
      SeriesSnapshot& dst = it->second;
      if (dst.kind != s.kind) continue;  // mismatched; keep first
      switch (s.kind) {
        case MetricKind::kCounter: dst.value += s.value; break;
        case MetricKind::kGauge:
          if (s.value != 0.0) dst.value = s.value;
          break;
        case MetricKind::kHistogram:
          if (dst.bounds == s.bounds) {
            for (std::size_t i = 0; i < dst.buckets.size(); ++i) {
              dst.buckets[i] += s.buckets[i];
            }
            if (!s.exemplars.empty()) {
              if (dst.exemplars.empty()) {
                dst.exemplars = s.exemplars;
              } else {
                // Per bucket, the latest sim timestamp wins; ties keep the
                // earlier snapshot's exemplar so merge order stays stable.
                for (std::size_t i = 0; i < dst.exemplars.size(); ++i) {
                  if (s.exemplars[i].valid() &&
                      (!dst.exemplars[i].valid() ||
                       s.exemplars[i].ts_us > dst.exemplars[i].ts_us)) {
                    dst.exemplars[i] = s.exemplars[i];
                  }
                }
              }
            }
            dst.count += s.count;
            dst.sum += s.sum;
          }
          break;
      }
    }
  }
  MetricsSnapshot out;
  out.series.reserve(merged.size());
  for (auto& [key, s] : merged) out.series.push_back(std::move(s));
  return out;
}

std::string encode_trace_json(const std::vector<SpanRecord>& spans) {
  std::string out = "{\"traceEvents\":[";
  bool sep = false;
  for (const SpanRecord& s : spans) append_trace_event(out, s, 1, sep);
  out += "],\"displayTimeUnit\":\"ms\"}";
  return out;
}

std::string encode_trace_json(const std::vector<const SpanRecord*>& spans) {
  std::string out = "{\"traceEvents\":[";
  bool sep = false;
  for (const SpanRecord* s : spans) {
    if (s != nullptr) append_trace_event(out, *s, 1, sep);
  }
  out += "],\"displayTimeUnit\":\"ms\"}";
  return out;
}

std::string encode_trace_list_json(const Tracer& tracer) {
  std::string out = "{\"traces\":[";
  bool sep = false;
  for (std::uint64_t trace : tracer.trace_ids()) {
    const auto spans = tracer.spans_in(trace);
    const SpanRecord* root = nullptr;
    std::int64_t start = 0;
    std::int64_t end = 0;
    bool first = true;
    for (const SpanRecord* s : spans) {
      if (s->parent == 0 && root == nullptr) root = s;
      start = first ? s->start_us : std::min(start, s->start_us);
      end = first ? s->end_us : std::max(end, s->end_us);
      first = false;
    }
    std::string_view name;
    std::string_view component;
    std::string_view job;
    if (root != nullptr) {
      name = root->name;
      component = root->component;
      job = root->attr_str("job");
    }
    if (sep) out += ',';
    sep = true;
    out += "{\"trace_id\":" + std::to_string(trace) + ",\"root\":";
    util::append_json_string(out, name);
    out += ",\"component\":";
    util::append_json_string(out, component);
    out += ",\"job\":";
    util::append_json_string(out, job);
    out += ",\"spans\":" + std::to_string(spans.size()) +
           ",\"open\":" + std::to_string(tracer.open_in_trace(trace)) +
           ",\"start_us\":" + std::to_string(start) +
           ",\"end_us\":" + std::to_string(end) + "}";
  }
  out += "]}";
  return out;
}

std::string encode_trace_json_corpus(
    const std::vector<std::pair<std::uint64_t, const std::vector<SpanRecord>*>>&
        per_seed) {
  std::string out = "{\"traceEvents\":[";
  bool sep = false;
  int pid = 0;
  for (const auto& [seed, spans] : per_seed) {
    ++pid;
    if (sep) out += ',';
    sep = true;
    out += "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" +
           std::to_string(pid) + ",\"args\":{\"name\":\"seed " +
           std::to_string(seed) + "\"}}";
    if (spans == nullptr) continue;
    for (const SpanRecord& s : *spans) append_trace_event(out, s, pid, sep);
  }
  out += "],\"displayTimeUnit\":\"ms\"}";
  return out;
}

}  // namespace blab::obs
