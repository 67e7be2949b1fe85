// Cross-layer invariant oracles.
//
// After every scenario step the harness runs a registry of checks over the
// whole deployment. Each oracle encodes a property no sequence of valid
// operations — including the fuzzer's fault schedules — may break:
//
//   clock-monotonicity   simulated time and the executed-event counter never
//                        move backwards
//   scheduler-safety     busy devices are registered devices, the busy set is
//                        empty between steps (jobs run to completion inside
//                        dispatch), nothing unapproved ever ran, and finished
//                        jobs have sane start/finish stamps
//   credit-ledger        no account balance ever goes negative (§5 gating)
//   energy-conservation  every completed capture's sampled mean agrees with
//                        the analytic integral of the relay-board segments it
//                        measured (generalizes property_test Property 1)
//   battery-sanity       no device's pack holds negative charge
//   mirroring-lifecycle  no mirroring session survives its job's device
//                        release — between steps every stream is torn down
//   dns-cert-consistency approved nodes resolve in DNS to their controller,
//                        are covered by the wildcard certificate and hold a
//                        deployed serial; non-approved nodes never resolve
//                        (holds across retire/re-onboard churn)
//   metric-accounting    the telemetry registry agrees with ground truth:
//                        jobs_submitted == queued + running + finished +
//                        aborted, and each series matches the scheduler's
//                        actual job-state counts
//   trace-integrity      every job yields one well-formed causal trace (one
//                        root, reachable spans, nested intervals, nothing
//                        open after a terminal state, purged workspaces only
//                        on terminal jobs) and cross-trace links are sane
//                        and time-ordered
//   retry-chain          resubmitted jobs form acyclic, time-ordered chains:
//                        retry_of/retried_by are a bijection onto terminal
//                        predecessors, attempts count up, each attempt has
//                        its own trace, and a finished retry's root carries
//                        exactly one "retry_of" link to the predecessor root
//   span-conservation    weighted span aggregates are exact: for sampled
//                        families (mirror frames, Monsoon synthesis blocks)
//                        the sum of kept-span weights plus spans still
//                        buffered for a tail-sampling decision equals the
//                        unsampled registry counter, and no zero-weight span
//                        is ever buffered
//   rollup-accuracy      when the fleet health engine is enabled, the fleet
//                        rollup reproduces an independent ascending-id fold
//                        over the persisted catalog exactly (energy, charge,
//                        mean, counts), its p95/p99 carry the bits of a
//                        sorted Cdf over the pooled percentiles(), each
//                        capture's summary energy equals the store's footer
//                        integral bit-for-bit, and the job/vantage scopes
//                        partition the fleet
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "api/vantage_point.hpp"
#include "hw/power_monitor.hpp"
#include "server/access_server.hpp"
#include "util/time.hpp"

namespace blab::testing {

/// A capture completed by a scenario job, queued for the energy oracle.
struct CaptureRecord {
  std::size_t node = 0;  ///< index into OracleContext::nodes
  util::TimePoint t0;
  util::TimePoint t1;
  hw::Capture capture;
};

/// Everything the oracles may inspect. The harness owns the referenced
/// objects; oracles never mutate the deployment.
struct OracleContext {
  sim::Simulator* sim = nullptr;
  server::AccessServer* server = nullptr;
  std::vector<api::VantagePoint*> nodes;
  std::vector<std::string> registered_serials;
  std::vector<CaptureRecord> captures;  ///< appended by measurement jobs
};

struct OracleFinding {
  std::string oracle;
  std::string detail;
};

class InvariantOracle {
 public:
  virtual ~InvariantOracle() = default;
  virtual const char* name() const = 0;
  /// Append a finding per violation. Oracles may keep state between calls
  /// (e.g. the last observed clock) — one registry instance per scenario run.
  virtual void check(const OracleContext& ctx,
                     std::vector<OracleFinding>& out) = 0;
};

class OracleRegistry {
 public:
  /// Constructs with the default cross-layer oracle set.
  OracleRegistry();

  void add(std::unique_ptr<InvariantOracle> oracle);
  std::size_t size() const { return oracles_.size(); }
  std::vector<std::string> names() const;

  /// Run every oracle; returns all findings from this sweep.
  std::vector<OracleFinding> run(const OracleContext& ctx);

 private:
  std::vector<std::unique_ptr<InvariantOracle>> oracles_;
};

}  // namespace blab::testing
