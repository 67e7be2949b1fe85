#include "obs/health/slo.hpp"

#include <algorithm>
#include <utility>

#include "obs/export.hpp"
#include "obs/span.hpp"
#include "util/strings.hpp"

namespace blab::health {

namespace {

double sum_counters(const std::vector<SeriesRef>& refs,
                    const obs::MetricsSnapshot& snap) {
  double sum = 0.0;
  for (const SeriesRef& ref : refs) sum += snap.value_or(ref.name, ref.labels);
  return sum;
}

}  // namespace

const char* alert_state_name(AlertState state) {
  switch (state) {
    case AlertState::kOk: return "ok";
    case AlertState::kSlowBurn: return "slow_burn";
    case AlertState::kFastBurn: return "fast_burn";
  }
  return "unknown";
}

const char* health_state_name(HealthState state) {
  switch (state) {
    case HealthState::kHealthy: return "healthy";
    case HealthState::kDegraded: return "degraded";
    case HealthState::kUnhealthy: return "unhealthy";
  }
  return "unknown";
}

SloEngine::SloEngine(obs::MetricsRegistry& registry, obs::Tracer* tracer)
    : registry_{registry}, tracer_{tracer} {}

void SloEngine::add_spec(SloSpec spec) {
  SpecState st;
  st.status.name = spec.name;
  st.status.vantage = spec.vantage.empty() ? "fleet" : spec.vantage;
  // Per-vantage specs share a name ("vantage-errors"), so series identity
  // needs the vantage label as well.
  const std::string& vp = st.status.vantage;
  st.state_gauge =
      &registry_.gauge("blab_slo_state", {{"slo", spec.name}, {"vp", vp}});
  st.burn_long_gauge =
      &registry_.gauge("blab_slo_burn_rate",
                       {{"slo", spec.name}, {"vp", vp}, {"window", "long"}});
  st.burn_short_gauge =
      &registry_.gauge("blab_slo_burn_rate",
                       {{"slo", spec.name}, {"vp", vp}, {"window", "short"}});
  st.spec = std::move(spec);
  // Materialize the vantage bucket (and its gauge) eagerly so /health lists
  // every tracked vantage from the first evaluation on.
  vantage_state(st.status.vantage);
  specs_.push_back(std::move(st));
}

SloEngine::WindowSample SloEngine::sample_signal(
    const SloSignal& signal, const obs::MetricsSnapshot& snap,
    util::TimePoint now) {
  WindowSample sample;
  sample.t = now;
  switch (signal.kind) {
    case SloSignal::Kind::kCounterRatio:
      sample.bad = sum_counters(signal.bad, snap);
      sample.total = sum_counters(signal.total, snap);
      break;
    case SloSignal::Kind::kHistogramAbove:
      for (const SeriesRef& ref : signal.total) {
        const obs::SeriesSnapshot* s = snap.find(ref.name, ref.labels);
        if (s == nullptr || s->kind != obs::MetricKind::kHistogram) continue;
        sample.total += static_cast<double>(s->count);
        // Buckets are non-cumulative with the +Inf bucket last; an
        // observation is bad when its bucket's upper bound exceeds the
        // threshold (the +Inf bucket always is).
        for (std::size_t i = 0; i < s->buckets.size(); ++i) {
          const bool above = i >= s->bounds.size() ||
                             s->bounds[i] > signal.above_bound;
          if (above) sample.bad += static_cast<double>(s->buckets[i]);
        }
      }
      break;
  }
  return sample;
}

double SloEngine::burn_over(const SpecState& st, util::TimePoint now,
                            util::Duration window,
                            double* bad_fraction) const {
  *bad_fraction = 0.0;
  if (st.history.empty()) return 0.0;
  const WindowSample& cur = st.history.back();
  // Baseline: the latest sample at or before the window start; during cold
  // start (history shorter than the window) the earliest sample stands in,
  // shrinking the window rather than inventing traffic.
  const util::TimePoint start = now - window;
  const WindowSample* base = &st.history.front();
  for (const WindowSample& s : st.history) {
    if (s.t <= start) base = &s;
    else break;
  }
  const double total = cur.total - base->total;
  if (total <= 0.0) return 0.0;
  const double bad = std::clamp(cur.bad - base->bad, 0.0, total);
  *bad_fraction = bad / total;
  const double budget = std::max(1e-9, 1.0 - st.spec.objective);
  return *bad_fraction / budget;
}

void SloEngine::evaluate(util::TimePoint now) {
  ++evaluations_;
  registry_.counter("blab_slo_evaluations_total").inc();
  const obs::MetricsSnapshot snap = registry_.snapshot();
  // Worst alert state per vantage bucket this round.
  std::map<std::string, AlertState> worst;
  for (auto& [vantage, state] : vantages_) worst[vantage] = AlertState::kOk;

  for (SpecState& st : specs_) {
    st.history.push_back(sample_signal(st.spec.signal, snap, now));
    // Prune to the long window, keeping one older sample as the baseline.
    const util::TimePoint horizon = now - st.spec.long_window;
    while (st.history.size() >= 2 && st.history[1].t <= horizon)
      st.history.pop_front();

    double bf_short = 0.0;
    st.status.burn_long =
        burn_over(st, now, st.spec.long_window, &st.status.bad_fraction_long);
    st.status.burn_short =
        burn_over(st, now, st.spec.short_window, &bf_short);

    AlertState next = AlertState::kOk;
    if (st.status.burn_long >= st.spec.fast_burn &&
        st.status.burn_short >= st.spec.fast_burn) {
      next = AlertState::kFastBurn;
    } else if (st.status.burn_long >= st.spec.slow_burn &&
               st.status.burn_short >= st.spec.slow_burn) {
      next = AlertState::kSlowBurn;
    }
    if (next != st.status.state) transition_spec(st, next);
    st.state_gauge->set(static_cast<double>(next));
    st.burn_long_gauge->set(st.status.burn_long);
    st.burn_short_gauge->set(st.status.burn_short);

    AlertState& bucket = worst[st.status.vantage];
    bucket = std::max(bucket, next);
  }

  for (const auto& [vantage, state] : worst) evaluate_vantage(vantage, state);
}

void SloEngine::transition_spec(SpecState& st, AlertState next) {
  const AlertState prev = st.status.state;
  st.status.state = next;
  ++st.status.transitions;
  registry_
      .counter("blab_slo_transitions_total",
               {{"slo", st.spec.name},
                {"to", alert_state_name(next)},
                {"vp", st.status.vantage}})
      .inc();
  if (tracer_ != nullptr) {
    const std::uint64_t span = tracer_->begin("health", "slo_transition");
    tracer_->set_attr(span, "slo", st.spec.name);
    tracer_->set_attr(span, "from", alert_state_name(prev));
    tracer_->set_attr(span, "to", alert_state_name(next));
    tracer_->set_attr(span, "burn_long", st.status.burn_long);
    tracer_->set_attr(span, "burn_short", st.status.burn_short);
    tracer_->end(span);
  }
}

void SloEngine::evaluate_vantage(const std::string& vantage,
                                 AlertState worst) {
  VantageState& vs = vantage_state(vantage);
  HealthState target = HealthState::kHealthy;
  if (worst == AlertState::kFastBurn) target = HealthState::kUnhealthy;
  else if (worst == AlertState::kSlowBurn) target = HealthState::kDegraded;

  const HealthState prev = vs.health.state;
  HealthState next = prev;
  if (target >= prev) {
    // Escalation (or steady state) is immediate.
    next = target;
    vs.clean_evals = 0;
  } else {
    // Recovery is hysteretic: one level down per kRecoveryEvals consecutive
    // better-than-current rounds, so a flapping signal cannot oscillate the
    // state machine at evaluation frequency.
    if (++vs.clean_evals >= kRecoveryEvals) {
      next = static_cast<HealthState>(static_cast<std::uint8_t>(prev) - 1);
      vs.clean_evals = 0;
    }
  }

  if (next != prev) {
    vs.health.state = next;
    ++vs.health.transitions;
    registry_
        .counter("blab_health_transitions_total",
                 {{"vp", vantage}, {"to", health_state_name(next)}})
        .inc();
    if (tracer_ != nullptr) {
      const std::uint64_t span =
          tracer_->begin("health", "vantage_transition");
      tracer_->set_attr(span, "vp", vantage);
      tracer_->set_attr(span, "from", health_state_name(prev));
      tracer_->set_attr(span, "to", health_state_name(next));
      tracer_->end(span);
    }
  }
  vs.gauge->set(static_cast<double>(vs.health.state));
}

SloEngine::VantageState& SloEngine::vantage_state(const std::string& vantage) {
  auto [it, inserted] = vantages_.try_emplace(vantage);
  if (inserted) {
    it->second.health.vantage = vantage;
    it->second.gauge = &registry_.gauge("blab_health_state", {{"vp", vantage}});
  }
  return it->second;
}

std::vector<SloStatus> SloEngine::statuses() const {
  std::vector<SloStatus> out;
  out.reserve(specs_.size());
  for (const SpecState& st : specs_) out.push_back(st.status);
  return out;
}

HealthState SloEngine::health_of(const std::string& vantage) const {
  const auto it = vantages_.find(vantage);
  return it == vantages_.end() ? HealthState::kHealthy : it->second.health.state;
}

HealthState SloEngine::overall() const {
  HealthState worst = HealthState::kHealthy;
  for (const auto& [vantage, vs] : vantages_)
    worst = std::max(worst, vs.health.state);
  return worst;
}

std::vector<VantageHealth> SloEngine::vantages() const {
  std::vector<VantageHealth> out;
  out.reserve(vantages_.size());
  for (const auto& [vantage, vs] : vantages_) out.push_back(vs.health);
  return out;
}

std::string encode_health_json(const SloEngine& engine) {
  using obs::format_metric_value;
  std::string out = "{\"overall\":";
  util::append_json_string(out, health_state_name(engine.overall()));
  out += ",\"evaluations\":" + std::to_string(engine.evaluations());
  out += ",\"vantages\":[";
  bool first = true;
  for (const VantageHealth& v : engine.vantages()) {
    if (!first) out += ',';
    first = false;
    out += "{\"vp\":";
    util::append_json_string(out, v.vantage);
    out += ",\"state\":";
    util::append_json_string(out, health_state_name(v.state));
    out += ",\"transitions\":" + std::to_string(v.transitions) + '}';
  }
  out += "],\"slos\":[";
  first = true;
  for (const SloStatus& s : engine.statuses()) {
    if (!first) out += ',';
    first = false;
    out += "{\"name\":";
    util::append_json_string(out, s.name);
    out += ",\"vp\":";
    util::append_json_string(out, s.vantage);
    out += ",\"state\":";
    util::append_json_string(out, alert_state_name(s.state));
    out += ",\"burn_long\":" + format_metric_value(s.burn_long);
    out += ",\"burn_short\":" + format_metric_value(s.burn_short);
    out += ",\"bad_fraction_long\":" +
           format_metric_value(s.bad_fraction_long);
    out += ",\"transitions\":" + std::to_string(s.transitions) + '}';
  }
  out += "]}";
  return out;
}

std::vector<SloSpec> default_slo_specs(
    const std::vector<std::string>& vantages) {
  std::vector<SloSpec> specs;

  SloSpec completion;
  completion.name = "job-completion";
  completion.signal.kind = SloSignal::Kind::kCounterRatio;
  completion.signal.bad = {
      {"blab_scheduler_jobs_finished_total", {{"result", "failed"}}}};
  completion.signal.total = {
      {"blab_scheduler_jobs_finished_total", {{"result", "succeeded"}}},
      {"blab_scheduler_jobs_finished_total", {{"result", "failed"}}}};
  completion.objective = 0.90;
  completion.fast_burn = 5.0;
  completion.slow_burn = 1.5;
  specs.push_back(std::move(completion));

  SloSpec queue_wait;
  queue_wait.name = "queue-wait-p99";
  queue_wait.signal.kind = SloSignal::Kind::kHistogramAbove;
  queue_wait.signal.total = {{"blab_scheduler_queue_wait_seconds", {}}};
  queue_wait.signal.above_bound = 60.0;  // a configured bucket boundary
  queue_wait.objective = 0.99;
  queue_wait.fast_burn = 10.0;
  queue_wait.slow_burn = 2.0;
  specs.push_back(std::move(queue_wait));

  SloSpec clamp;
  clamp.name = "capture-clamp-rate";
  clamp.signal.kind = SloSignal::Kind::kCounterRatio;
  clamp.signal.bad = {
      {"blab_monsoon_clamp_events_total", {{"kind", "overcurrent"}}},
      {"blab_monsoon_clamp_events_total", {{"kind", "negative"}}}};
  clamp.signal.total = {{"blab_monsoon_samples_synthesized_total", {}}};
  clamp.objective = 0.999;
  clamp.fast_burn = 10.0;
  clamp.slow_burn = 2.0;
  specs.push_back(std::move(clamp));

  for (const std::string& vp : vantages) {
    SloSpec errors;
    errors.name = "vantage-errors";
    errors.vantage = vp;
    errors.signal.kind = SloSignal::Kind::kCounterRatio;
    errors.signal.bad = {
        {"blab_scheduler_node_jobs_failed_total", {{"vp", vp}}}};
    errors.signal.total = {{"blab_scheduler_node_jobs_total", {{"vp", vp}}}};
    errors.objective = 0.90;
    errors.fast_burn = 5.0;
    errors.slow_burn = 1.5;
    specs.push_back(std::move(errors));
  }
  return specs;
}

}  // namespace blab::health
