// Fleet health engine: catalog rollups, SLO burn-rate evaluation, the
// per-vantage health state machine, and the GET /rollup + GET /health REST
// surface (DESIGN.md §15).
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "api/vantage_point.hpp"
#include "hw/power_monitor.hpp"
#include "net/network.hpp"
#include "obs/health/rollup.hpp"
#include "obs/health/slo.hpp"
#include "obs/metrics.hpp"
#include "server/access_server.hpp"
#include "sim/simulator.hpp"
#include "store/capture_store.hpp"
#include "util/rng.hpp"

namespace {

using blab::health::AlertState;
using blab::health::CaptureContext;
using blab::health::HealthState;
using blab::health::Rollup;
using blab::health::RollupEngine;
using blab::health::RollupScope;
using blab::health::SloEngine;
using blab::health::SloSignal;
using blab::health::SloSpec;
using blab::hw::Capture;
using blab::store::CaptureStore;
using blab::util::Duration;
using blab::util::ErrorCode;
using blab::util::TimePoint;

Capture make_capture(std::uint64_t seed, std::size_t n, double base = 300.0) {
  blab::util::Rng rng{seed};
  std::vector<float> samples;
  samples.reserve(n);
  double v = base;
  for (std::size_t i = 0; i < n; ++i) {
    v = std::clamp(v + rng.uniform(-8.0, 8.0), 5.0, 4500.0);
    samples.push_back(static_cast<float>(v));
  }
  return Capture{TimePoint::epoch(), 5000.0, 3.85, samples};
}

// ------------------------------------------------------------------------
// RollupEngine.
// ------------------------------------------------------------------------

TEST(Rollup, FleetScopeFoldsEveryCaptureIntoOneGroup) {
  CaptureStore store;
  const auto a = store.append("job-a", "m0", make_capture(1, 6000),
                              TimePoint::epoch());
  const auto b = store.append("job-a", "m1", make_capture(2, 6000),
                              TimePoint::epoch() + Duration::seconds(1));
  const auto c = store.append("job-b", "m2", make_capture(3, 6000),
                              TimePoint::epoch() + Duration::seconds(2));
  ASSERT_FALSE(a.workspace.empty() || b.workspace.empty() ||
               c.workspace.empty());

  RollupEngine engine{store};
  const Rollup rollup = engine.compute(RollupScope::kFleet);
  EXPECT_EQ(rollup.captures_scanned, 3u);
  EXPECT_EQ(rollup.captures_skipped, 0u);
  ASSERT_EQ(rollup.groups.size(), 1u);
  const auto& g = rollup.groups.front();
  EXPECT_EQ(g.key, "fleet");
  EXPECT_EQ(g.captures, 3u);
  EXPECT_EQ(g.samples, 18000u);

  // The documented determinism contract: the fold equals a plain
  // ascending-id sum over the footer summaries, bit for bit.
  double energy = 0.0, charge = 0.0, mean_acc = 0.0;
  std::uint64_t samples = 0;
  for (const auto& id : store.catalog(TimePoint::epoch(), TimePoint::max())) {
    const auto s = store.summary(id);
    ASSERT_TRUE(s.ok());
    energy += s.value().energy_mwh;
    charge += s.value().charge_mah;
    mean_acc += s.value().mean_ma * static_cast<double>(s.value().samples);
    samples += s.value().samples;
  }
  EXPECT_EQ(g.energy_mwh, energy);
  EXPECT_EQ(g.charge_mah, charge);
  EXPECT_EQ(g.mean_ma, mean_acc / static_cast<double>(samples));
  EXPECT_GT(g.energy_mwh, 0.0);
  EXPECT_GT(g.p95_ma, 0.0);
  EXPECT_GE(g.p99_ma, g.p95_ma);
  EXPECT_GE(g.max_ma, g.min_ma);
}

TEST(Rollup, JobScopeGroupsByWorkspaceAscending) {
  CaptureStore store;
  (void)store.append("job-b", "m0", make_capture(4, 1000), TimePoint::epoch());
  (void)store.append("job-a", "m1", make_capture(5, 1000), TimePoint::epoch());
  (void)store.append("job-a", "m2", make_capture(6, 1000), TimePoint::epoch());

  RollupEngine engine{store};
  const Rollup rollup = engine.compute(RollupScope::kJob);
  ASSERT_EQ(rollup.groups.size(), 2u);
  EXPECT_EQ(rollup.groups[0].key, "job-a");
  EXPECT_EQ(rollup.groups[0].captures, 2u);
  EXPECT_EQ(rollup.groups[1].key, "job-b");
  EXPECT_EQ(rollup.groups[1].captures, 1u);
}

TEST(Rollup, VantageScopeUsesResolverAndClassBreakdown) {
  CaptureStore store;
  (void)store.append("job-a", "m0", make_capture(7, 1000), TimePoint::epoch());
  (void)store.append("job-b", "m1", make_capture(8, 1000), TimePoint::epoch());

  RollupEngine engine{store};
  engine.set_context_resolver([](const std::string& workspace) {
    CaptureContext ctx;
    if (workspace == "job-a") {
      ctx.vantage = "node-eu";
      ctx.device_class = "android-phone";
    }
    // job-b resolves to nothing -> "unassigned"/"unknown".
    return ctx;
  });
  const Rollup rollup = engine.compute(RollupScope::kVantage);
  ASSERT_EQ(rollup.groups.size(), 2u);
  EXPECT_EQ(rollup.groups[0].key, "node-eu");
  ASSERT_EQ(rollup.groups[0].by_class.count("android-phone"), 1u);
  EXPECT_EQ(rollup.groups[0].by_class.at("android-phone").captures, 1u);
  EXPECT_EQ(rollup.groups[1].key, "unassigned");
  ASSERT_EQ(rollup.groups[1].by_class.count("unknown"), 1u);
}

TEST(Rollup, TimeWindowFiltersOnStoredAt) {
  CaptureStore store;
  (void)store.append("job", "early", make_capture(9, 1000),
                     TimePoint::epoch());
  (void)store.append("job", "late", make_capture(10, 1000),
                     TimePoint::epoch() + Duration::minutes(10));

  RollupEngine engine{store};
  const Rollup windowed =
      engine.compute(RollupScope::kFleet, TimePoint::epoch(),
                     TimePoint::epoch() + Duration::minutes(5));
  EXPECT_EQ(windowed.captures_scanned, 1u);
  const Rollup all = engine.compute(RollupScope::kFleet);
  EXPECT_EQ(all.captures_scanned, 2u);
}

TEST(Rollup, JsonEncodingIsDeterministic) {
  CaptureStore store;
  (void)store.append("job-a", "m0", make_capture(11, 2000),
                     TimePoint::epoch());
  RollupEngine engine{store};
  const std::string first =
      blab::health::encode_rollup_json(engine.compute(RollupScope::kJob));
  const std::string second =
      blab::health::encode_rollup_json(engine.compute(RollupScope::kJob));
  EXPECT_EQ(first, second);
  EXPECT_NE(first.find("\"scope\":\"job\""), std::string::npos) << first;
  EXPECT_NE(first.find("\"key\":\"job-a\""), std::string::npos);
  EXPECT_NE(first.find("\"energy_mwh\""), std::string::npos);
}

TEST(Rollup, JsonEscapesGroupKeys) {
  // A workspace holding a quote, a backslash, a newline and a control byte
  // renders as one JSON string: every control character becomes \u00XX.
  CaptureStore store;
  (void)store.append("a\"b\\c\nd\x01", "m0", make_capture(12, 2000),
                     TimePoint::epoch());
  RollupEngine engine{store};
  const std::string json =
      blab::health::encode_rollup_json(engine.compute(RollupScope::kJob));
  EXPECT_NE(json.find(R"("key":"a\"b\\c\nd\u0001")"), std::string::npos)
      << json;
}

TEST(Rollup, ScopeParsing) {
  EXPECT_EQ(blab::health::parse_rollup_scope("fleet"), RollupScope::kFleet);
  EXPECT_EQ(blab::health::parse_rollup_scope("job"), RollupScope::kJob);
  EXPECT_EQ(blab::health::parse_rollup_scope("vantage"),
            RollupScope::kVantage);
  EXPECT_FALSE(blab::health::parse_rollup_scope("galaxy").has_value());
  EXPECT_STREQ(blab::health::rollup_scope_name(RollupScope::kVantage),
               "vantage");
}

TEST(Rollup, ScanMetricsAreMirrored) {
  CaptureStore store;
  (void)store.append("job", "m", make_capture(12, 1000), TimePoint::epoch());
  blab::obs::MetricsRegistry registry;
  RollupEngine engine{store};
  engine.attach_metrics(&registry);
  (void)engine.compute(RollupScope::kFleet);
  (void)engine.compute(RollupScope::kJob);
  const auto snap = registry.snapshot();
  EXPECT_EQ(snap.value_or("blab_rollup_scans_total"), 2.0);
  EXPECT_EQ(snap.value_or("blab_rollup_captures_scanned_total"), 2.0);
}

// ------------------------------------------------------------------------
// SloEngine: burn-rate math, multi-window rule, health hysteresis.
// ------------------------------------------------------------------------

SloSpec ratio_spec() {
  SloSpec spec;
  spec.name = "test-slo";
  spec.signal.kind = SloSignal::Kind::kCounterRatio;
  spec.signal.bad.push_back({"bad_total", {}});
  spec.signal.total.push_back({"all_total", {}});
  spec.objective = 0.90;  // 10% error budget
  spec.long_window = Duration::minutes(10);
  spec.short_window = Duration::minutes(2);
  spec.fast_burn = 5.0;
  spec.slow_burn = 1.5;
  return spec;
}

TEST(Slo, QuietSignalStaysHealthy) {
  blab::obs::MetricsRegistry registry;
  SloEngine engine{registry};
  engine.add_spec(ratio_spec());
  auto& total = registry.counter("all_total");
  TimePoint now = TimePoint::epoch();
  for (int i = 0; i < 5; ++i) {
    total.inc(100);
    now = now + Duration::minutes(1);
    engine.evaluate(now);
  }
  ASSERT_EQ(engine.statuses().size(), 1u);
  EXPECT_EQ(engine.statuses()[0].state, AlertState::kOk);
  EXPECT_EQ(engine.overall(), HealthState::kHealthy);
  EXPECT_EQ(engine.evaluations(), 5u);
}

TEST(Slo, FastBurnRequiresBothWindowsAndEscalatesImmediately) {
  blab::obs::MetricsRegistry registry;
  SloEngine engine{registry};
  engine.add_spec(ratio_spec());
  auto& bad = registry.counter("bad_total");
  auto& total = registry.counter("all_total");

  TimePoint now = TimePoint::epoch();
  engine.evaluate(now);  // zero baseline
  // 100% bad traffic: bad fraction 1.0 over a 0.1 budget = burn 10 on both
  // windows, past fast_burn=5.
  bad.inc(100);
  total.inc(100);
  now = now + Duration::minutes(1);
  engine.evaluate(now);
  ASSERT_EQ(engine.statuses().size(), 1u);
  EXPECT_EQ(engine.statuses()[0].state, AlertState::kFastBurn);
  EXPECT_GE(engine.statuses()[0].burn_long, 5.0);
  EXPECT_GE(engine.statuses()[0].burn_short, 5.0);
  // A fleet-wide spec feeds the "fleet" bucket; escalation is immediate.
  EXPECT_EQ(engine.health_of("fleet"), HealthState::kUnhealthy);
  EXPECT_EQ(engine.overall(), HealthState::kUnhealthy);

  const auto snap = registry.snapshot();
  EXPECT_EQ(snap.value_or("blab_slo_state",
                          {{"slo", "test-slo"}, {"vp", "fleet"}}),
            2.0);
  EXPECT_GT(snap.value_or("blab_slo_transitions_total",
                          {{"slo", "test-slo"}, {"to", "fast_burn"},
                           {"vp", "fleet"}}),
            0.0);
}

TEST(Slo, ShortWindowRecoveryClearsTheAlertButHealthRecoversSlowly) {
  blab::obs::MetricsRegistry registry;
  SloEngine engine{registry};
  engine.add_spec(ratio_spec());
  auto& bad = registry.counter("bad_total");
  auto& total = registry.counter("all_total");

  TimePoint now = TimePoint::epoch();
  engine.evaluate(now);
  bad.inc(100);
  total.inc(100);
  now = now + Duration::minutes(1);
  engine.evaluate(now);
  ASSERT_EQ(engine.health_of("fleet"), HealthState::kUnhealthy);

  // Clean traffic from here on. Once sim time moves the long window past
  // the bad burst, both burns drop and the alert clears — but the health
  // state steps down only one level per kRecoveryEvals clean rounds.
  std::vector<HealthState> timeline;
  for (int i = 0; i < 12; ++i) {
    total.inc(1000);
    now = now + Duration::minutes(2);
    engine.evaluate(now);
    timeline.push_back(engine.health_of("fleet"));
  }
  EXPECT_EQ(engine.statuses()[0].state, AlertState::kOk);
  EXPECT_EQ(timeline.back(), HealthState::kHealthy);
  // The walk down must pass through degraded — never unhealthy -> healthy
  // in one step.
  EXPECT_NE(std::find(timeline.begin(), timeline.end(),
                      HealthState::kDegraded),
            timeline.end());
  for (std::size_t i = 1; i < timeline.size(); ++i) {
    EXPECT_LE(static_cast<int>(timeline[i - 1]) -
                  static_cast<int>(timeline[i]),
              1)
        << "health state recovered more than one level at step " << i;
  }
}

TEST(Slo, HistogramAboveSignalCountsTailObservations) {
  blab::obs::MetricsRegistry registry;
  auto& hist = registry.histogram("wait_seconds", {1.0, 10.0, 60.0});
  SloSpec spec;
  spec.name = "wait-p99";
  spec.signal.kind = SloSignal::Kind::kHistogramAbove;
  spec.signal.total.push_back({"wait_seconds", {}});
  spec.signal.above_bound = 60.0;
  spec.objective = 0.90;
  spec.long_window = Duration::minutes(10);
  spec.short_window = Duration::minutes(2);
  spec.fast_burn = 5.0;
  spec.slow_burn = 1.5;
  SloEngine engine{registry};
  engine.add_spec(spec);

  TimePoint now = TimePoint::epoch();
  engine.evaluate(now);
  // All observations land above the 60 s bound -> 100% bad.
  for (int i = 0; i < 50; ++i) hist.observe(120.0);
  now = now + Duration::minutes(1);
  engine.evaluate(now);
  EXPECT_EQ(engine.statuses()[0].state, AlertState::kFastBurn);

  // Fast observations below the bound are good traffic.
  blab::obs::MetricsRegistry registry2;
  auto& hist2 = registry2.histogram("wait_seconds", {1.0, 10.0, 60.0});
  SloEngine engine2{registry2};
  engine2.add_spec(spec);
  TimePoint t2 = TimePoint::epoch();
  engine2.evaluate(t2);
  for (int i = 0; i < 50; ++i) hist2.observe(0.5);
  t2 = t2 + Duration::minutes(1);
  engine2.evaluate(t2);
  EXPECT_EQ(engine2.statuses()[0].state, AlertState::kOk);
}

TEST(Slo, PerVantageSpecsDriveSeparateHealthStates) {
  blab::obs::MetricsRegistry registry;
  SloSpec spec = ratio_spec();
  spec.name = "vantage-errors";
  spec.vantage = "node-a";
  spec.signal.bad = {{"node_bad", {}}};
  spec.signal.total = {{"node_total", {}}};
  SloEngine engine{registry};
  engine.add_spec(spec);
  engine.add_spec(ratio_spec());  // fleet-wide, stays quiet

  TimePoint now = TimePoint::epoch();
  engine.evaluate(now);
  registry.counter("node_bad").inc(50);
  registry.counter("node_total").inc(50);
  registry.counter("all_total").inc(1000);
  now = now + Duration::minutes(1);
  engine.evaluate(now);
  EXPECT_EQ(engine.health_of("node-a"), HealthState::kUnhealthy);
  EXPECT_EQ(engine.health_of("fleet"), HealthState::kHealthy);
  EXPECT_EQ(engine.health_of("node-unknown"), HealthState::kHealthy);
  EXPECT_EQ(engine.overall(), HealthState::kUnhealthy);
  const auto vantages = engine.vantages();
  ASSERT_EQ(vantages.size(), 2u);
  EXPECT_EQ(vantages[0].vantage, "fleet");
  EXPECT_EQ(vantages[1].vantage, "node-a");
}

TEST(Slo, DefaultSpecSetCoversFleetAndEveryVantage) {
  const auto specs = blab::health::default_slo_specs({"lab-eu", "lab-us"});
  ASSERT_EQ(specs.size(), 5u);
  std::size_t fleet = 0, vantage = 0;
  for (const auto& spec : specs) {
    if (spec.vantage.empty()) ++fleet;
    else ++vantage;
  }
  EXPECT_EQ(fleet, 3u);
  EXPECT_EQ(vantage, 2u);
  const auto named = [&](const std::string& name) {
    return std::any_of(specs.begin(), specs.end(),
                       [&](const SloSpec& s) { return s.name == name; });
  };
  EXPECT_TRUE(named("job-completion"));
  EXPECT_TRUE(named("queue-wait-p99"));
  EXPECT_TRUE(named("capture-clamp-rate"));
  EXPECT_TRUE(named("vantage-errors"));
}

TEST(Slo, HealthJsonIsDeterministicAndNamesEveryVantage) {
  blab::obs::MetricsRegistry registry;
  SloEngine engine{registry};
  engine.add_spec(ratio_spec());
  engine.evaluate(TimePoint::epoch());
  const std::string first = blab::health::encode_health_json(engine);
  const std::string second = blab::health::encode_health_json(engine);
  EXPECT_EQ(first, second);
  EXPECT_NE(first.find("\"overall\":\"healthy\""), std::string::npos)
      << first;
  EXPECT_NE(first.find("\"slos\""), std::string::npos);
  EXPECT_NE(first.find("\"test-slo\""), std::string::npos);
}

TEST(Slo, HealthJsonEscapesVantageLabels) {
  // Vantage labels are free text: one with a newline or a control byte
  // must still leave GET /health valid JSON.
  blab::obs::MetricsRegistry registry;
  SloEngine engine{registry};
  SloSpec spec = ratio_spec();
  spec.vantage = "a\"b\\c\nd\x01";
  engine.add_spec(spec);
  engine.evaluate(TimePoint::epoch());
  const std::string json = blab::health::encode_health_json(engine);
  EXPECT_NE(json.find(R"("vp":"a\"b\\c\nd\u0001")"), std::string::npos)
      << json;
}

// ------------------------------------------------------------------------
// AccessServer REST surface.
// ------------------------------------------------------------------------

TEST(HealthRest, EnableHealthServesRollupAndHealthEndpoints) {
  blab::sim::Simulator sim;
  blab::net::Network net{sim, 7};
  blab::server::AccessServer server{sim, net};
  EXPECT_FALSE(server.health_enabled());
  ASSERT_TRUE(server.enable_health().ok());
  EXPECT_TRUE(server.health_enabled());
  // Idempotence guard: a second enable is a typed error, not a reset.
  EXPECT_EQ(server.enable_health().error().code, ErrorCode::kAlreadyExists);

  auto* rest = server.health_rest();
  ASSERT_NE(rest, nullptr);
  const auto fleet = rest->call("rollup", "scope=fleet");
  ASSERT_TRUE(fleet.ok()) << fleet.error().str();
  EXPECT_NE(fleet.value().find("\"scope\":\"fleet\""), std::string::npos);
  const auto health = rest->call("health", "");
  ASSERT_TRUE(health.ok());
  EXPECT_NE(health.value().find("\"overall\""), std::string::npos);

  // Hostile queries get typed 400s, not crashes or defaults.
  EXPECT_EQ(rest->call("rollup", "scope=galaxy").error().code,
            ErrorCode::kInvalidArgument);
  EXPECT_EQ(rest->call("rollup", "scope=fleet&t0_us=abc").error().code,
            ErrorCode::kInvalidArgument);
  EXPECT_EQ(rest->call("rollup", "t1_us=-5").error().code,
            ErrorCode::kInvalidArgument);
}

TEST(HealthRest, SchedulingRequiresTheMatchingEngine) {
  blab::sim::Simulator sim;
  blab::net::Network net{sim, 8};
  blab::server::AccessServer server{sim, net};
  EXPECT_EQ(server.schedule_health_evaluations(Duration::minutes(1))
                .error()
                .code,
            ErrorCode::kFailedPrecondition);
  EXPECT_EQ(server.schedule_persist_checkpoints(Duration::minutes(1))
                .error()
                .code,
            ErrorCode::kFailedPrecondition);
  // With a vantage point onboarded, the recurring evaluation job actually
  // dispatches and advances the SLO engine on the sim-time cadence.
  auto vp = std::make_unique<blab::api::VantagePoint>(sim, net);
  ASSERT_TRUE(server.onboard_vantage_point("node1", *vp).ok());
  ASSERT_TRUE(server.enable_health().ok());
  EXPECT_TRUE(server.schedule_health_evaluations(Duration::minutes(1)).ok());
  sim.run_for(Duration::minutes(3));
  EXPECT_GE(server.slo_engine()->evaluations(), 2u);
  const auto snap = sim.metrics().snapshot();
  EXPECT_GE(snap.value_or("blab_slo_evaluations_total"), 2.0);
}

}  // namespace
