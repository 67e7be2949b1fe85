// paper_job: the paper's unit of work on the write side. Each operation is
// one Fig. 3 browser job through the access server, from submit to the
// store's energy answer, with persistence, health and the standing
// maintenance jobs on. ~926k samples per job pass through synthesis, the
// codec and the WAL, so this is where synthesis, codec and persist I/O show.
#include <cmath>
#include <memory>
#include <stdexcept>

#include "bench/e2e/deployment.hpp"
#include "bench/e2e/workloads.hpp"
#include "store/persist/engine.hpp"

namespace blab::bench::e2e {

namespace {

struct Scale {
  int setups;
  std::size_t warmup_jobs;
  /// Jobs every run completes; the digest and peak_rss_mb cover exactly
  /// these.
  std::size_t min_jobs;
};

Scale scale_of(const Options& opts) {
  return opts.smoke ? Scale{1, 0, kCellCount} : Scale{3, kCellCount, 160};
}

/// Replays one finished job's artifacts through single layers, right after
/// the job and outside its timing: synthesis of the same capture interval
/// on a fresh simulator, the codec into a detached store, and a persist
/// append into a scratch engine that follows the deployment's retention.
class Replayer {
 public:
  explicit Replayer(const std::string& dir) : engine_{dir} {
    if (auto st = engine_.open(); !st.ok()) {
      throw std::runtime_error{"replay engine: " + st.error().str()};
    }
  }

  void replay(PaperDeployment& dep, const JobOutcome& job, Ledger& ledger,
              Report& report) {
    obs::Tracer* tracer = ledger.tracer();
    const hw::Capture& capture = job.capture;

    sim::Simulator sim;
    hw::PowerMonitor monitor{sim, util::Rng{job.id.seq}};
    monitor.set_mains(true);
    report.check(monitor.set_voltage(capture.voltage()).ok(),
                 "replay: monitor voltage");
    monitor.connect_load(&dep.vantage_point().relay());
    sim.run_until(capture.start());
    report.check(monitor.start_capture().ok(), "replay: start capture");
    // Stop half a sample past the last one: the monitor floors the interval
    // to whole samples, so this yields exactly the job's sample count.
    const double samples = static_cast<double>(capture.sample_count()) + 0.5;
    sim.run_until(capture.start() +
                  util::Duration::seconds(samples / capture.sample_hz()));
    const auto synth = in_span(tracer, "hw", "synth",
                               [&] { return monitor.stop_capture(); });
    const std::size_t replayed = synth.ok() ? synth.value().sample_count() : 0;
    report.check(replayed == capture.sample_count(),
                 "replay: synthesis produced " + std::to_string(replayed) +
                     " samples, the job's capture has " +
                     std::to_string(capture.sample_count()));
    samples_ += replayed;

    const util::TimePoint now = dep.simulator().now();
    store::CaptureStore detached;
    (void)in_span(tracer, "store", "append", [&] {
      return detached.append(job.id.workspace, "replay", capture, now);
    });

    store::CaptureStore& store = dep.server().capture_store();
    const store::ChunkedCapture* chunked = store.find(job.id);
    report.check(chunked != nullptr, "replay: " + job.id.str() + " not warm");
    if (chunked == nullptr) return;
    const util::Status appended = in_span(tracer, "persist", "append", [&] {
      return engine_.append(job.id, "replay", now, *chunked);
    });
    report.check(appended.ok(), "replay: persist append");
    (void)engine_.run_retention(now, store.policy());
  }

  std::uint64_t samples() const { return samples_; }

 private:
  store::persist::PersistEngine engine_;
  std::uint64_t samples_ = 0;
};

/// Fig. 3 shape: Brave draws least and Firefox most, mirroring on or off.
void check_fig3_order(const double (&mean_mah)[kCellCount], Report& report) {
  for (std::size_t m = 0; m < kCellCount; m += 4) {
    const double brave = mean_mah[m], chrome = mean_mah[m + 1],
                 edge = mean_mah[m + 2], firefox = mean_mah[m + 3];
    const bool ordered = brave < chrome && brave < edge && edge < firefox &&
                         chrome < firefox;
    report.check(ordered, std::string{"Fig. 3 ordering with mirroring "} +
                              (m == 0 ? "off" : "on") + ": Brave " +
                              std::to_string(brave) + ", Chrome " +
                              std::to_string(chrome) + ", Edge " +
                              std::to_string(edge) + ", Firefox " +
                              std::to_string(firefox) + " mAh");
  }
}

}  // namespace

void run_paper_job(const Options& opts, Report& report) {
  const Scale scale = scale_of(opts);
  Ledger ledger{opts.trace};

  std::vector<double> setup_s;
  std::unique_ptr<PaperDeployment> dep;
  std::string dir;
  for (int i = 0; i < scale.setups; ++i) {
    dep.reset();
    if (!dir.empty()) remove_dir(dir);
    dir = make_dir(opts.work_dir, "paper-" + std::to_string(i));
    const double t0 = now_s();
    dep = std::make_unique<PaperDeployment>(opts.seed, dir, ledger,
                                            /*standing_jobs=*/true);
    for (std::size_t j = 0; j < scale.warmup_jobs; ++j) {
      const JobOutcome out = dep->run_job(paper_cell(j));
      report.check(out.ok, "warm-up job: " + out.error);
    }
    setup_s.push_back(now_s() - t0);
    ledger.fold();
  }
  ledger.reset();

  std::unique_ptr<Replayer> replayer;
  if (opts.trace) {
    replayer = std::make_unique<Replayer>(make_dir(opts.work_dir, "replay"));
  }

  store::CaptureStore& store = dep->server().capture_store();
  store::persist::PersistEngine& persist = *dep->server().persist_engine();
  const store::StoreStats store0 = store.stats();
  const std::uint64_t checkpoints0 = persist.stats().checkpoints;
  const std::uint64_t events0 = dep->simulator().executed_events();
  const std::uint64_t spans0 = spans_ended(dep->simulator().tracer());

  util::Cdf ops;
  double sum_mah[kCellCount] = {};
  std::size_t runs[kCellCount] = {};
  double replay_s = 0.0;
  const double start = now_s();
  for (std::size_t n = 0;
       n < scale.min_jobs || now_s() - start - replay_s < opts.seconds; ++n) {
    const std::size_t cell = n % kCellCount;
    const double t0 = now_s();
    JobOutcome out = dep->run_job(paper_cell(cell));
    ops.add(now_s() - t0);
    if (n + 1 == scale.min_jobs) report.prefix_done();
    const double expect = out.capture.energy_mwh();
    if (out.ok && std::abs(out.answer_mwh - expect) > 1e-6 * std::abs(expect)) {
      out.ok = false;
      out.error = "store answer " + std::to_string(out.answer_mwh) +
                  " mWh vs capture " + std::to_string(expect) + " mWh";
    }
    report.op(out.ok, "job " + std::to_string(n) + ": " + out.error);
    if (!out.ok) {
      ledger.fold();
      continue;
    }
    sum_mah[cell] += out.discharge_mah;
    ++runs[cell];
    if (n < scale.min_jobs) {
      Digest& d = report.digest();
      d.add(static_cast<std::uint64_t>(out.capture.sample_count()));
      d.add(out.discharge_mah);
      d.add(out.answer_mwh);
      d.add(out.summary.mean_ma);
    }
    if (replayer != nullptr) {
      const double r0 = now_s();
      replayer->replay(*dep, out, ledger, report);
      replay_s += now_s() - r0;
    }
    ledger.fold();
  }
  const double wall = now_s() - start - replay_s;

  double mean_mah[kCellCount] = {};
  for (std::size_t c = 0; c < kCellCount; ++c) {
    if (runs[c] != 0) mean_mah[c] = sum_mah[c] / static_cast<double>(runs[c]);
  }
  check_fig3_order(mean_mah, report);

  if (!opts.trace) {
    report.end_to_end(setup_s, ops, wall, 0.9);
    return;
  }
  const double jobs = static_cast<double>(ops.count());
  const auto per_job = [&](const char* component, const char* name) {
    return ledger.total_s(component, name) / jobs;
  };
  const double workload = per_job("automation", "workload");
  const double synth = per_job("hw", "synth");
  const double append = per_job("store", "append");
  const double persist_append = per_job("persist", "append");
  const double checkpoint = per_job("persist", "checkpoint");
  const double retention = per_job("store", "retention");
  const double evaluate = per_job("health", "evaluate");
  const double op = per_job("bench", "job");
  const double unattributed = ledger.self_s("bench", "job") / jobs;
  const double submit = per_job("server", "submit");
  const double dispatch = ledger.self_s("server", "run_queue") / jobs;
  const double answer = per_job("store", "answer");
  report.check(std::abs(submit + dispatch + workload + answer + unattributed -
                        op) <= 1e-9 * op,
               "ledger does not add up to the job wall time");
  report.metric("bench.op_s", op, "s");
  report.metric("bench.unattributed_s", unattributed, "s");
  report.metric("server.submit_s", submit, "s");
  report.metric("server.dispatch_s", dispatch, "s");
  report.metric("automation.workload_s", workload, "s");
  report.metric("hw.synth_s", synth, "s");
  report.metric("store.append_s", append, "s");
  report.metric("persist.append_s", persist_append, "s");
  report.metric("persist.checkpoint_s", checkpoint, "s");
  report.metric("store.retention_s", retention, "s");
  report.metric("health.evaluate_s", evaluate, "s");
  report.metric("automation.self_s",
                workload - synth - append - persist_append - checkpoint -
                    retention - evaluate,
                "s");
  report.metric("store.answer_s", answer, "s");
  report.metric("hw.synth_samples_per_s",
                static_cast<double>(replayer->samples()) /
                    ledger.total_s("hw", "synth"),
                "1/s");
  const store::StoreStats& store1 = store.stats();
  const auto encoded =
      static_cast<double>(store1.bytes_encoded - store0.bytes_encoded);
  // bytes_raw counts float32 payload, so samples = bytes_raw / 4.
  const auto samples =
      static_cast<double>(store1.bytes_raw - store0.bytes_raw) / sizeof(float);
  report.metric("store.encoded_bytes_per_sample", encoded / samples,
                "B/sample");
  const auto checkpoints =
      static_cast<double>(persist.stats().checkpoints - checkpoints0);
  report.metric("persist.checkpoints_per_job", checkpoints / jobs, "count");
  report.metric("sim.events_per_job",
                static_cast<double>(dep->simulator().executed_events() -
                                    events0) /
                    jobs,
                "count");
  report.metric("obs.spans_per_job",
                static_cast<double>(spans_ended(dep->simulator().tracer()) -
                                    spans0) /
                    jobs,
                "count");
  write_artifacts(opts, ledger, report);
}

}  // namespace blab::bench::e2e
