// fleet_query: the read side of the same store. Set-up runs real paper jobs,
// tears the deployment down and reopens it on the same directory
// (recovery), so the timed phase starts with a cold catalog. Operations are
// a seeded mix of analysis queries on one capture and operator polls of the
// health REST surface; no simulation runs while timing.
#include <cmath>
#include <memory>

#include "bench/e2e/deployment.hpp"
#include "bench/e2e/workloads.hpp"
#include "controller/rest_backend.hpp"
#include "obs/health/rollup.hpp"
#include "util/rng.hpp"

namespace blab::bench::e2e {

namespace {

/// One poll in kPollEvery operations, on average.
constexpr std::uint64_t kPollEvery = 11;
/// Range queries read this many samples (10 s at 5 kHz).
constexpr std::int64_t kRangeUs = 10'000'000;

constexpr health::RollupScope kScopes[] = {health::RollupScope::kFleet,
                                           health::RollupScope::kJob,
                                           health::RollupScope::kVantage};

struct Scale {
  int setups;
  std::size_t jobs;
  /// Operations every run completes; the digest and peak_rss_mb cover
  /// exactly these.
  std::size_t min_ops;
};

Scale scale_of(const Options& opts) {
  return opts.smoke ? Scale{1, 8, 44} : Scale{3, 32, 440};
}

struct Totals {
  std::size_t analyses = 0;
  std::size_t polls = 0;
  std::uint64_t captures_scanned = 0;
};

/// summary, energy_mwh, aggregate(1 s), percentiles and a 10 s range at a
/// seeded offset, all on one capture. The range starts half a sample past a
/// sample boundary, so exactly 10 s of samples fall inside it.
bool analysis_op(store::CaptureStore& store, const store::CaptureId& id,
                 double offset_fraction, Ledger& ledger, Digest* digest) {
  obs::Tracer* tracer = ledger.tracer();
  obs::ScopedSpan op{tracer, "bench", "analysis"};
  const auto summary =
      in_span(tracer, "store", "summary", [&] { return store.summary(id); });
  const auto energy =
      in_span(tracer, "store", "energy", [&] { return store.energy_mwh(id); });
  const auto buckets = in_span(tracer, "store", "aggregate", [&] {
    return store.aggregate(id, util::Duration::seconds(1));
  });
  const auto cdf = in_span(tracer, "store", "percentiles",
                           [&] { return store.percentiles(id); });
  if (!summary.ok() || !energy.ok() || !buckets.ok() || !cdf.ok()) return false;
  const store::CaptureSummary& s = summary.value();
  const auto hz = static_cast<std::int64_t>(s.sample_hz);
  if (hz != 5000) return false;
  const std::int64_t sample_us = 1'000'000 / hz;
  const std::int64_t window = kRangeUs / sample_us;
  const auto slots = static_cast<std::int64_t>(s.samples) - window - 1;
  if (slots <= 0) return false;
  const auto first = static_cast<std::int64_t>(offset_fraction *
                                               static_cast<double>(slots));
  const util::TimePoint t0 =
      s.start + util::Duration::micros(first * sample_us + sample_us / 2);
  const auto range = in_span(tracer, "store", "range", [&] {
    return store.range(id, t0, t0 + util::Duration::micros(kRangeUs));
  });
  const bool ok = range.ok() &&
                  static_cast<std::int64_t>(range.value().sample_count()) ==
                      window &&
                  energy.value() == s.energy_mwh && !buckets.value().empty() &&
                  !cdf.value().empty();
  if (ok && digest != nullptr) {
    digest->add(s.energy_mwh);
    digest->add(static_cast<std::uint64_t>(buckets.value().size()));
    digest->add(cdf.value().median());
    digest->add(range.value().mean_current_ma());
  }
  return ok;
}

/// GET /rollup (scope cycling fleet|job|vantage), GET /health, GET /metrics.
bool poll_op(controller::RestBackend& rest, health::RollupScope scope,
             Ledger& ledger, Digest* digest) {
  obs::Tracer* tracer = ledger.tracer();
  const std::string query =
      std::string{"scope="} + health::rollup_scope_name(scope);
  obs::ScopedSpan op{tracer, "bench", "poll"};
  const auto rollup = in_span(tracer, "controller", "rollup_call",
                              [&] { return rest.call("rollup", query); });
  const auto health = in_span(tracer, "controller", "health_call",
                              [&] { return rest.call("health", ""); });
  const auto metrics = in_span(tracer, "obs", "metrics_call",
                               [&] { return rest.call("metrics", ""); });
  const bool ok = rollup.ok() && health.ok() && metrics.ok() &&
                  !metrics.value().empty();
  // GET /metrics carries wall-clock gauges (recovery time), so only the
  // rollup and health bodies are simulated outcomes.
  if (ok && digest != nullptr) {
    digest->add(rollup.value());
    digest->add(health.value());
  }
  return ok;
}

}  // namespace

void run_fleet_query(const Options& opts, Report& report) {
  const Scale scale = scale_of(opts);
  Ledger ledger{opts.trace};

  std::vector<double> setup_s;
  std::vector<double> open_s;
  std::unique_ptr<PaperDeployment> reader;
  std::string dir;
  for (int i = 0; i < scale.setups; ++i) {
    reader.reset();
    if (!dir.empty()) remove_dir(dir);
    dir = make_dir(opts.work_dir, "fleet-" + std::to_string(i));
    const double t0 = now_s();
    {
      PaperDeployment writer{opts.seed, dir, ledger, /*standing_jobs=*/false};
      for (std::size_t j = 0; j < scale.jobs; ++j) {
        const JobOutcome out = writer.run_job(paper_cell(j));
        report.check(out.ok, "set-up job: " + out.error);
      }
    }  // torn down without a checkpoint, like a killed process
    reader = std::make_unique<PaperDeployment>(opts.seed, dir, ledger,
                                               /*standing_jobs=*/false);
    setup_s.push_back(now_s() - t0);
    open_s.push_back(reader->persist_open_s());
    ledger.fold();
  }
  ledger.reset();

  server::AccessServer& server = reader->server();
  store::CaptureStore& store = server.capture_store();
  controller::RestBackend& rest = *server.health_rest();
  health::RollupEngine& engine = *server.rollup_engine();
  const std::vector<store::CaptureId> ids =
      store.catalog(util::TimePoint::epoch(), util::TimePoint::max());
  report.check(ids.size() == scale.jobs,
               "recovered catalog holds " + std::to_string(ids.size()) +
                   " captures, expected " + std::to_string(scale.jobs));
  if (ids.empty()) return;
  const store::StoreStats stats0 = store.stats();

  util::Rng rng{opts.seed ^ 0xf1ee7ULL};
  util::Cdf ops;
  Totals totals;
  double replay_s = 0.0;
  const double start = now_s();
  for (std::size_t n = 0;
       n < scale.min_ops || now_s() - start - replay_s < opts.seconds; ++n) {
    Digest* digest = n < scale.min_ops ? &report.digest() : nullptr;
    const bool poll = rng.uniform_int(0, kPollEvery - 1) == 0;
    bool ok = false;
    double t0 = 0.0;
    if (poll) {
      const health::RollupScope scope = kScopes[totals.polls % 3];
      t0 = now_s();
      ok = poll_op(rest, scope, ledger, digest);
      ops.add(now_s() - t0);
      ++totals.polls;
      if (ledger.traced()) {  // replay: the fold GET /rollup wraps
        const double r0 = now_s();
        totals.captures_scanned +=
            in_span(ledger.tracer(), "health", "rollup_compute",
                    [&] { return engine.compute(scope); })
                .captures_scanned;
        replay_s += now_s() - r0;
      }
    } else {
      const store::CaptureId& id = ids[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(ids.size()) - 1))];
      const double offset = rng.uniform();
      t0 = now_s();
      ok = analysis_op(store, id, offset, ledger, digest);
      ops.add(now_s() - t0);
      ++totals.analyses;
    }
    report.op(ok, std::string{poll ? "poll" : "analysis"} + " op " +
                      std::to_string(n) + " failed or returned a wrong answer");
    if (n + 1 == scale.min_ops) report.prefix_done();
    ledger.fold();
  }
  const double wall = now_s() - start - replay_s;
  const store::StoreStats& stats1 = store.stats();
  const std::uint64_t disk_loads = stats1.disk_loads - stats0.disk_loads;
  report.check(disk_loads > 0, "no cold record was loaded from disk");

  // The fleet rollup folds in ascending CaptureId order with plain doubles;
  // the same fold over per-capture answers must match it bit for bit.
  double expect_mwh = 0.0;
  for (const store::CaptureId& id : ids) {
    if (auto e = store.energy_mwh(id); e.ok()) expect_mwh += e.value();
  }
  const health::Rollup fleet = engine.compute(health::RollupScope::kFleet);
  report.check(fleet.groups.size() == 1 &&
                   fleet.groups.front().energy_mwh == expect_mwh,
               "fleet rollup energy differs from the ascending-id sum " +
                   std::to_string(expect_mwh) + " mWh");

  if (!opts.trace) {
    report.end_to_end(setup_s, ops, wall, 0.99);
    return;
  }
  const double all = static_cast<double>(ops.count());
  const double analyses = static_cast<double>(totals.analyses);
  const double polls = static_cast<double>(totals.polls);
  report.metric("bench.op_s",
                (ledger.total_s("bench", "analysis") +
                 ledger.total_s("bench", "poll")) /
                    all,
                "s");
  report.metric("bench.unattributed_s",
                (ledger.self_s("bench", "analysis") +
                 ledger.self_s("bench", "poll")) /
                    all,
                "s");
  report.metric("persist.open_s", util::Cdf{open_s}.median(), "s");
  for (const char* name :
       {"summary", "energy", "aggregate", "percentiles", "range"}) {
    report.metric(std::string{"store."} + name + "_s",
                  ledger.total_s("store", name) / analyses, "s");
  }
  const auto hits = static_cast<double>(stats1.cache_hits - stats0.cache_hits);
  const auto misses = static_cast<double>(stats1.raw_chunk_decodes -
                                          stats0.raw_chunk_decodes);
  report.metric("store.cache_hit_ratio", hits / (hits + misses), "ratio");
  report.metric("persist.disk_loads", static_cast<double>(disk_loads), "count");
  const double compute_s = ledger.total_s("health", "rollup_compute");
  report.metric("health.rollup_compute_s", compute_s / polls, "s");
  report.metric("controller.rollup_call_s",
                ledger.total_s("controller", "rollup_call") / polls, "s");
  report.metric("controller.health_call_s",
                ledger.total_s("controller", "health_call") / polls, "s");
  report.metric("obs.metrics_call_s",
                ledger.total_s("obs", "metrics_call") / polls, "s");
  report.metric("health.captures_scanned_per_s",
                static_cast<double>(totals.captures_scanned) / compute_s,
                "1/s");
  write_artifacts(opts, ledger, report);
}

}  // namespace blab::bench::e2e
