// Deterministic-simulation-testing harness.
//
// Builds a whole BatteryLab deployment from a ScenarioSpec — access server,
// vantage points, device zoo, VPN — schedules the spec's fault events on the
// simulator clock, drives the job stream through the real submit/approve/
// dispatch pipeline, and runs the invariant oracles after every step. A
// TraceRecorder shadows the run: every executed simulator event plus every
// scenario-level observation (captures, balances, job-state counts) folds
// into one rolling digest, so two runs of the same seed must produce the
// same 64-bit value or `replay_check` can name the first divergent event.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "testing/oracles.hpp"
#include "testing/scenario.hpp"
#include "testing/trace.hpp"

namespace blab::server {
class AccessServer;
}  // namespace blab::server

namespace blab::testing {

struct ScenarioResult {
  std::uint64_t seed = 0;
  std::string description;        ///< one-line scenario summary
  std::uint64_t digest = 0;       ///< rolling trace digest at scenario end
  std::string digest_hex;
  std::uint64_t events_executed = 0;
  std::size_t jobs_submitted = 0;
  std::size_t jobs_dispatched = 0;
  std::size_t captures = 0;       ///< completed measurements
  std::size_t faults_injected = 0;
  std::vector<OracleFinding> violations;
  std::vector<TraceEventRecord> trace;
  /// Registry snapshot at scenario end. Deliberately NOT folded into the
  /// digest (the digests are pinned), but two runs of the same seed must
  /// still render byte-identical `metrics_text`.
  obs::MetricsSnapshot metrics;
  std::string metrics_text;  ///< Prometheus rendering of `metrics`
  /// Finished spans at scenario end plus their Perfetto rendering. Like the
  /// metrics snapshot these are NOT in the digest, but serial and pooled
  /// runs of the same seed must produce byte-identical `trace_json`.
  std::vector<obs::SpanRecord> spans;
  std::string trace_json;
  /// Fleet-health REST bodies captured at scenario end when
  /// RunOptions::enable_health was set (empty otherwise): GET /rollup for
  /// each scope plus GET /health. Same contract as metrics_text — NOT in the
  /// digest, but serial and pooled runs must be byte-identical.
  std::string rollup_fleet_json;
  std::string rollup_job_json;
  std::string rollup_vantage_json;
  std::string health_json;

  bool ok() const { return violations.empty(); }
  /// Failure-message payload: the seed plus every oracle finding.
  std::string violation_summary() const;
};

/// Knobs for persistence-aware runs. The defaults reproduce the plain
/// run_scenario behavior exactly (same digests, same event stream).
struct RunOptions {
  /// Non-empty: enable the durable capture store rooted here before any job
  /// runs. A directory left by a previous run is recovered, which is how the
  /// kill-restart oracle models a process restart.
  std::string persist_dir;
  /// >= 0: run that many full steps, then *partially* run one more — submit
  /// and dispatch its jobs, advance the clock by min(kill_extra,
  /// step_length), and tear the whole deployment down mid-flight with no
  /// checkpoint or shutdown hook. With persistence enabled this is a
  /// kill -9: only what an installed manifest already committed survives.
  int kill_after_steps = -1;
  /// Sim-time slice of the killed step to execute before the teardown.
  util::Duration kill_extra;
  /// Called right before the deployment is destroyed (after the kill point
  /// on killed runs, after the final step otherwise). The oracle uses it to
  /// snapshot pre-crash query answers.
  std::function<void(server::AccessServer&)> before_teardown;
  /// Retry terminally failed/aborted jobs at each step end via
  /// Scheduler::resubmit, up to max_attempts total attempts per chain. The
  /// resubmitted job gets a fresh trace with a "retry_of" link back to the
  /// predecessor (validated by the retry-chain oracle). Off by default — the
  /// extra submissions change the event stream, so the pinned golden digests
  /// only cover runs without it.
  bool retry_failed_jobs = false;
  std::uint32_t max_attempts = 2;
  /// Turn on the fleet health engine after onboarding: GET /rollup and
  /// GET /health become live, a recurring maintenance job evaluates every
  /// SLO each `health_period`, and (when persistence is on) scheduled
  /// checkpoints demote dropped captures at twice that cadence. The
  /// recurring jobs change the event stream, so the pinned golden digests
  /// only cover runs without it; the rollup-accuracy oracle only runs with
  /// it.
  bool enable_health = false;
  /// Sim-time cadence of the health-evaluation maintenance job. Scenario
  /// horizons are tens of simulated seconds (3-6 steps of 2-5 s), so the
  /// default is short enough that every scenario gets several evaluations.
  util::Duration health_period = util::Duration::seconds(2);
};

/// Run one fully-specified scenario through a fresh deployment.
ScenarioResult run_scenario(const ScenarioSpec& spec);
ScenarioResult run_scenario(const ScenarioSpec& spec,
                            const RunOptions& options);

/// Generate the scenario for `seed` and run it.
ScenarioResult run_scenario(std::uint64_t seed);

/// Run every seed's scenario on a pool of worker threads.
///
/// `jobs == 0` means std::thread::hardware_concurrency(); any value is
/// clamped to the corpus size, and `jobs <= 1` runs inline with no threads.
/// Each scenario builds its own simulator/deployment, so runs are fully
/// independent; workers claim seeds through an atomic index and write into a
/// pre-sized result vector, so `result[i]` always corresponds to `seeds[i]`
/// and the output is byte-identical to a serial run regardless of the job
/// count or completion order. The only shared state is the global log sink:
/// warning lines from concurrent scenarios may interleave on stderr.
std::vector<ScenarioResult> run_corpus(const std::vector<std::uint64_t>& seeds,
                                       unsigned jobs = 0);
/// run_corpus with per-scenario RunOptions (persist dirs are NOT seed-scoped
/// here, so only option sets without persist_dir make sense for a corpus).
std::vector<ScenarioResult> run_corpus(const std::vector<std::uint64_t>& seeds,
                                       unsigned jobs,
                                       const RunOptions& options);

/// Outcome of running one seed twice from scratch and diffing the traces.
struct ReplayReport {
  std::uint64_t seed = 0;
  bool deterministic = false;
  Divergence divergence;  ///< meaningful when !deterministic
  ScenarioResult first;
  ScenarioResult second;

  std::string describe() const;
};

ReplayReport replay_check(std::uint64_t seed);

/// replay_check() across a corpus, on a worker pool. Same jobs semantics and
/// ordering guarantee as run_corpus: `result[i]` is always `seeds[i]`'s
/// report, independent of the job count.
std::vector<ReplayReport> run_replay_corpus(
    const std::vector<std::uint64_t>& seeds, unsigned jobs = 0);

}  // namespace blab::testing
