// usability_session: the §4.2 remote-usability test. Each operation is one
// session: a fresh testbed with looped video, mirroring on and a noVNC
// viewer 0.5 ms away, 40 click-to-display latency probes each followed by
// 2 s of paced simulation, and teardown. Event-dense across sim, mirror, net
// and obs, with no synthesis, store or persist work: a change to those must
// show nothing here, while kernel dispatch and per-span tracer cost show
// mostly here. A session, not a ~0.1 ms probe, is the operation because
// single-probe tails on a shared host swing by 20% from run to run.
#include <cmath>
#include <memory>

#include "bench/common.hpp"
#include "bench/e2e/workloads.hpp"

namespace blab::bench::e2e {

namespace {

constexpr const char* kSerial = "J7DUO-1";
constexpr int kProbesPerSession = 40;
/// Paper: 1.44 ± 0.12 s click-to-display, co-located viewer.
constexpr double kPaperLatencyS = 1.44;
constexpr double kPaperLatencyTolS = 0.12;

struct Scale {
  int setups;
  int warmup_sessions;
  /// Sessions every run completes; the digest and peak_rss_mb cover
  /// exactly these.
  std::size_t min_sessions;
};

Scale scale_of(const Options& opts) {
  return opts.smoke ? Scale{1, 1, 3} : Scale{3, 20, 10};
}

/// Counters summed over the probe phase of every session.
struct Totals {
  std::uint64_t probes = 0;
  std::uint64_t events = 0;
  std::uint64_t spans = 0;
  util::RunningStats latency_s;
};

/// One session; false if mirroring did not start or a probe failed.
bool run_session(std::uint64_t seed, Ledger& ledger, Totals& totals,
                 Digest* digest) {
  obs::Tracer* tracer = ledger.tracer();
  obs::ScopedSpan op{tracer, "bench", "session"};
  const net::Address viewer{"viewer", 7100};
  std::unique_ptr<bench::Testbed> tb;
  mirror::MirroringSession* session = nullptr;
  {
    obs::ScopedSpan span{tracer, "api", "session_setup"};
    tb = std::make_unique<bench::Testbed>(seed);
    tb->start_video();
    tb->net.add_link("viewer", tb->vp->controller_host(),
                     net::LinkSpec::symmetric(util::Duration::micros(500),
                                              100.0));
    if (tb->api->device_mirroring(kSerial).ok()) {
      session = tb->vp->mirroring(kSerial);
    }
    if (session != nullptr && !session->attach_viewer(viewer).ok()) {
      session = nullptr;
    }
  }
  bool ok = session != nullptr;
  if (ok) {
    const std::uint64_t events0 = tb->sim.executed_events();
    const std::uint64_t spans0 = spans_ended(tb->sim.tracer());
    for (int p = 0; p < kProbesPerSession; ++p) {
      const auto latency = in_span(tracer, "mirror", "probe", [&] {
        return session->measure_latency_sync(viewer, 540, 900);
      });
      in_span(tracer, "sim", "pacing", [&] {  // paced like hand clicks
        return tb->sim.run_for(util::Duration::seconds(2));
      });
      ++totals.probes;
      if (!latency.ok()) {
        ok = false;
        continue;
      }
      totals.latency_s.add(latency.value().to_seconds());
      if (digest != nullptr) {
        digest->add(static_cast<std::uint64_t>(latency.value().us()));
      }
    }
    totals.events += tb->sim.executed_events() - events0;
    totals.spans += spans_ended(tb->sim.tracer()) - spans0;
  }
  in_span(tracer, "api", "session_teardown", [&] { tb.reset(); });
  return ok;
}

}  // namespace

void run_usability_session(const Options& opts, Report& report) {
  const Scale scale = scale_of(opts);
  Ledger ledger{opts.trace};
  std::uint64_t walk = opts.seed;
  const std::uint64_t base = splitmix64(walk);

  std::vector<double> setup_s;
  for (int i = 0; i < scale.setups; ++i) {
    Totals warmup;
    const double t0 = now_s();
    for (int s = 0; s < scale.warmup_sessions; ++s) {
      report.check(run_session(~base + static_cast<std::uint64_t>(s), ledger,
                               warmup, nullptr),
                   "warm-up session failed");
    }
    setup_s.push_back(now_s() - t0);
  }
  ledger.reset();

  util::Cdf ops;
  Totals totals;
  const double start = now_s();
  for (std::size_t s = 0;
       s < scale.min_sessions || now_s() - start < opts.seconds; ++s) {
    const double t0 = now_s();
    const bool ok =
        run_session(base + s, ledger, totals,
                    s < scale.min_sessions ? &report.digest() : nullptr);
    ops.add(now_s() - t0);
    report.op(ok, "session " + std::to_string(base + s) + " failed");
    if (s + 1 == scale.min_sessions) report.prefix_done();
    ledger.fold();
  }
  const double wall = now_s() - start;

  const double mean_latency = totals.latency_s.mean();
  report.check(std::abs(mean_latency - kPaperLatencyS) <= kPaperLatencyTolS,
               "mean click-to-display latency " + std::to_string(mean_latency) +
                   " s outside 1.44 +- 0.12 s");

  if (!opts.trace) {
    report.end_to_end(setup_s, ops, wall, 0.99);
    return;
  }
  const double sessions = static_cast<double>(ops.count());
  const double probes = static_cast<double>(totals.probes);
  const double probe_s = ledger.total_s("mirror", "probe");
  const double pacing_s = ledger.total_s("sim", "pacing");
  report.metric("bench.op_s", ledger.total_s("bench", "session") / sessions,
                "s");
  report.metric("bench.unattributed_s",
                ledger.self_s("bench", "session") / sessions, "s");
  report.metric("api.session_setup_s",
                ledger.total_s("api", "session_setup") / sessions, "s");
  report.metric("api.session_teardown_s",
                ledger.total_s("api", "session_teardown") / sessions, "s");
  report.metric("mirror.probe_s", probe_s / probes, "s");
  report.metric("sim.pacing_s", pacing_s / probes, "s");
  report.metric("sim.events_per_probe",
                static_cast<double>(totals.events) / probes, "count");
  report.metric("sim.host_ns_per_event",
                (probe_s + pacing_s) * 1e9 / static_cast<double>(totals.events),
                "ns");
  report.metric("obs.spans_per_probe",
                static_cast<double>(totals.spans) / probes, "count");
  report.metric("mirror.sim_latency_s", mean_latency, "s");
  write_artifacts(opts, ledger, report);
}

}  // namespace blab::bench::e2e
