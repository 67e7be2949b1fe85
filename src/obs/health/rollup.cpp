#include "obs/health/rollup.hpp"

#include <algorithm>
#include <utility>

#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "util/stats.hpp"
#include "util/strings.hpp"

namespace blab::health {

namespace {

/// Mutable accumulator behind one RollupGroup; the tail quantiles are
/// selected at the end from the group's pooled distribution points.
struct GroupAcc {
  RollupGroup group;
  std::vector<double> pooled;
  bool has_range = false;
};

constexpr double kTailQuantiles[] = {0.95, 0.99};

}  // namespace

const char* rollup_scope_name(RollupScope scope) {
  switch (scope) {
    case RollupScope::kFleet: return "fleet";
    case RollupScope::kJob: return "job";
    case RollupScope::kVantage: return "vantage";
  }
  return "unknown";
}

std::optional<RollupScope> parse_rollup_scope(std::string_view text) {
  if (text == "fleet") return RollupScope::kFleet;
  if (text == "job") return RollupScope::kJob;
  if (text == "vantage") return RollupScope::kVantage;
  return std::nullopt;
}

void RollupEngine::attach_metrics(obs::MetricsRegistry* registry) {
  if (registry == nullptr) {
    scans_ = nullptr;
    captures_scanned_ = nullptr;
    return;
  }
  scans_ = &registry->counter("blab_rollup_scans_total");
  captures_scanned_ = &registry->counter("blab_rollup_captures_scanned_total");
}

Rollup RollupEngine::compute(RollupScope scope, util::TimePoint t0,
                             util::TimePoint t1) {
  Rollup out;
  out.scope = scope;
  out.t0 = t0;
  out.t1 = t1;

  // std::map keeps group iteration (and therefore JSON output) sorted.
  std::map<std::string, GroupAcc> groups;

  for (const store::CaptureId& id : store_.catalog(t0, t1)) {
    auto summary = store_.summary(id);
    if (!summary.ok()) {
      ++out.captures_skipped;
      continue;
    }
    const store::CaptureSummary& s = summary.value();

    CaptureContext ctx;
    if (resolver_) ctx = resolver_(id.workspace);
    if (ctx.vantage.empty()) ctx.vantage = "unassigned";
    if (ctx.device_class.empty()) ctx.device_class = "unknown";

    std::string key;
    switch (scope) {
      case RollupScope::kFleet: key = "fleet"; break;
      case RollupScope::kJob: key = id.workspace; break;
      case RollupScope::kVantage: key = ctx.vantage; break;
    }

    GroupAcc& acc = groups[key];
    RollupGroup& g = acc.group;
    ++g.captures;
    g.samples += s.samples;
    g.duration_s += s.duration.to_seconds();
    g.charge_mah += s.charge_mah;
    g.energy_mwh += s.energy_mwh;
    g.mean_ma += s.mean_ma * static_cast<double>(s.samples);
    if (!acc.has_range) {
      g.min_ma = s.min_ma;
      g.max_ma = s.max_ma;
      acc.has_range = true;
    } else {
      g.min_ma = std::min(g.min_ma, s.min_ma);
      g.max_ma = std::max(g.max_ma, s.max_ma);
    }

    ClassBreakdown& slice = g.by_class[ctx.device_class];
    ++slice.captures;
    slice.samples += s.samples;
    slice.energy_mwh += s.energy_mwh;

    // Tail quantiles pool each capture's distribution points, the samples
    // of its percentiles(); a capture whose read fails adds none.
    (void)store_.append_distribution(id, acc.pooled);
    ++out.captures_scanned;
  }

  out.groups.reserve(groups.size());
  for (auto& [key, acc] : groups) {
    RollupGroup& g = acc.group;
    g.key = key;
    if (g.samples > 0) g.mean_ma /= static_cast<double>(g.samples);
    if (!acc.pooled.empty()) {
      const auto tail = util::select_quantiles(acc.pooled, kTailQuantiles);
      g.p95_ma = tail[0];
      g.p99_ma = tail[1];
    }
    out.groups.push_back(std::move(g));
  }

  if (scans_ != nullptr) scans_->inc();
  if (captures_scanned_ != nullptr)
    captures_scanned_->inc(out.captures_scanned);
  return out;
}

std::string encode_rollup_json(const Rollup& rollup) {
  using obs::format_metric_value;
  std::string out = "{\"scope\":";
  util::append_json_string(out, rollup_scope_name(rollup.scope));
  out += ",\"t0_us\":" + std::to_string(rollup.t0.us());
  out += ",\"t1_us\":" + std::to_string(rollup.t1.us());
  out += ",\"captures\":" + std::to_string(rollup.captures_scanned);
  out += ",\"skipped\":" + std::to_string(rollup.captures_skipped);
  out += ",\"groups\":[";
  bool first_group = true;
  for (const RollupGroup& g : rollup.groups) {
    if (!first_group) out += ',';
    first_group = false;
    out += "{\"key\":";
    util::append_json_string(out, g.key);
    out += ",\"captures\":" + std::to_string(g.captures);
    out += ",\"samples\":" + std::to_string(g.samples);
    out += ",\"duration_s\":" + format_metric_value(g.duration_s);
    out += ",\"charge_mah\":" + format_metric_value(g.charge_mah);
    out += ",\"energy_mwh\":" + format_metric_value(g.energy_mwh);
    out += ",\"mean_ma\":" + format_metric_value(g.mean_ma);
    out += ",\"min_ma\":" + format_metric_value(g.min_ma);
    out += ",\"max_ma\":" + format_metric_value(g.max_ma);
    out += ",\"p95_ma\":" + format_metric_value(g.p95_ma);
    out += ",\"p99_ma\":" + format_metric_value(g.p99_ma);
    out += ",\"by_class\":{";
    bool first_class = true;
    for (const auto& [cls, slice] : g.by_class) {
      if (!first_class) out += ',';
      first_class = false;
      util::append_json_string(out, cls);
      out += ":{\"captures\":" + std::to_string(slice.captures);
      out += ",\"samples\":" + std::to_string(slice.samples);
      out += ",\"energy_mwh\":" + format_metric_value(slice.energy_mwh);
      out += '}';
    }
    out += "}}";
  }
  out += "]}";
  return out;
}

}  // namespace blab::health
