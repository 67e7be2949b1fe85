// scenario_corpus: many tiny whole deployments, one testing::run_scenario
// call per operation, seeds from a SplitMix walk of the workload seed.
// Set-up, the scheduler, the kernel and the 12 oracles dominate and
// synthesis is small, so an oracle or harness simplification shows only
// here. It continues bench/scenario_e2e, single-threaded.
#include "bench/e2e/workloads.hpp"
#include "testing/harness.hpp"

namespace blab::bench::e2e {

namespace {

struct Scale {
  int setups;
  int warmup;
  /// Scenarios every run completes; the digest and peak_rss_mb cover
  /// exactly these.
  std::size_t min_ops;
};

Scale scale_of(const Options& opts) {
  return opts.smoke ? Scale{1, 5, 20} : Scale{3, 100, 200};
}

struct Totals {
  std::uint64_t events = 0;
  std::uint64_t dispatched = 0;
  std::uint64_t captures = 0;
  std::uint64_t faults = 0;
  std::uint64_t spans = 0;
};

}  // namespace

void run_scenario_corpus(const Options& opts, Report& report) {
  const Scale scale = scale_of(opts);
  Ledger ledger{opts.trace};

  std::vector<double> setup_s;
  for (int i = 0; i < scale.setups; ++i) {
    std::uint64_t walk = ~opts.seed;
    const double t0 = now_s();
    for (int s = 0; s < scale.warmup; ++s) {
      const testing::ScenarioResult r = testing::run_scenario(splitmix64(walk));
      report.check(r.ok(), "warm-up " + r.violation_summary());
    }
    setup_s.push_back(now_s() - t0);
  }

  util::Cdf ops;
  Totals totals;
  std::uint64_t walk = opts.seed;
  const double start = now_s();
  for (std::size_t n = 0;
       n < scale.min_ops || now_s() - start < opts.seconds; ++n) {
    const std::uint64_t seed = splitmix64(walk);
    const double t0 = now_s();
    const testing::ScenarioResult r =
        in_span(ledger.tracer(), "bench", "scenario", [&] {
          return in_span(ledger.tracer(), "testing", "run_scenario",
                         [&] { return testing::run_scenario(seed); });
        });
    ops.add(now_s() - t0);
    const bool ok = r.ok() && r.events_executed > 0;
    report.op(ok, ok ? std::string{} : r.violation_summary());
    if (n < scale.min_ops) report.digest().add(r.digest);
    if (n + 1 == scale.min_ops) report.prefix_done();
    totals.events += r.events_executed;
    totals.dispatched += r.jobs_dispatched;
    totals.captures += r.captures;
    totals.faults += r.faults_injected;
    totals.spans += r.spans.size();
    ledger.fold();
  }
  const double wall = now_s() - start;

  if (!opts.trace) {
    report.end_to_end(setup_s, ops, wall, 0.99);
    return;
  }
  const double n = static_cast<double>(ops.count());
  const double scenario_s = ledger.total_s("testing", "run_scenario");
  report.metric("bench.op_s", ledger.total_s("bench", "scenario") / n, "s");
  report.metric("bench.unattributed_s", ledger.self_s("bench", "scenario") / n,
                "s");
  report.metric("testing.scenario_s", scenario_s / n, "s");
  report.metric("sim.events_per_scenario",
                static_cast<double>(totals.events) / n, "count");
  report.metric("server.jobs_dispatched_per_scenario",
                static_cast<double>(totals.dispatched) / n, "count");
  report.metric("hw.captures_per_scenario",
                static_cast<double>(totals.captures) / n, "count");
  report.metric("testing.faults_per_scenario",
                static_cast<double>(totals.faults) / n, "count");
  report.metric("obs.spans_per_scenario", static_cast<double>(totals.spans) / n,
                "count");
  report.metric("sim.host_ns_per_event",
                scenario_s * 1e9 / static_cast<double>(totals.events), "ns");
  write_artifacts(opts, ledger, report);
}

}  // namespace blab::bench::e2e
