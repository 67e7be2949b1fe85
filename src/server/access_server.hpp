// The BatteryLab access server (§3.1).
//
// Cloud-hosted (AWS in the paper), built atop a Jenkins-style automation
// core: it owns the user directory and authorization matrix, the vantage
// point registry with DNS, the wildcard certificate manager, the job
// scheduler, and the SSH identity used to reach every controller. It also
// ships the standing maintenance jobs (§3.1): certificate renewal, Monsoon
// power-down safety, and device factory reset.
#pragma once

#include <memory>
#include <optional>
#include <string>

#include "controller/rest_backend.hpp"
#include "net/dns.hpp"
#include "net/network.hpp"
#include "net/ssh.hpp"
#include "obs/health/rollup.hpp"
#include "obs/health/slo.hpp"
#include "sim/periodic.hpp"
#include "server/auth.hpp"
#include "server/certs.hpp"
#include "server/credits.hpp"
#include "server/registry.hpp"
#include "server/scheduler.hpp"
#include "server/testers.hpp"
#include "store/capture_store.hpp"
#include "store/persist/engine.hpp"

namespace blab::server {

class AccessServer {
 public:
  AccessServer(sim::Simulator& sim, net::Network& net,
               std::string host = "access-server.aws");

  const std::string& host() const { return host_; }
  sim::Simulator& simulator() { return sim_; }

  UserDirectory& users() { return users_; }
  net::DnsRegistry& dns() { return dns_; }
  VantagePointRegistry& registry() { return registry_; }
  CertificateManager& certs() { return certs_; }
  Scheduler& scheduler() { return scheduler_; }
  CreditLedger& credits() { return credits_; }
  store::CaptureStore& capture_store() { return capture_store_; }
  TesterPool& testers() { return testers_; }
  const net::SshKeyPair& ssh_key() const { return ssh_key_; }
  net::SshClient& ssh_client() { return ssh_client_; }

  /// Turn on credit-gated scheduling (§5). Members who host vantage points
  /// receive the policy's hosting bonus at approval time.
  void enable_credit_enforcement(CreditPolicy policy = {});
  bool credits_enforced() const { return credit_policy_.has_value(); }

  /// Turn on durable capture storage rooted at `dir`: opens (and on a
  /// restart, recovers) the manifest-committed segment store there and
  /// attaches it to the capture store, so every workspace persisted by a
  /// previous process is immediately listable and queryable again.
  util::Status enable_persistence(const std::string& dir);
  bool persistence_enabled() const { return persist_ != nullptr; }
  store::persist::PersistEngine* persist_engine() { return persist_.get(); }

  /// Port of the fleet-health REST surface (GET /rollup, GET /health).
  static constexpr int kHealthPort = 8090;

  /// Turn on the fleet health engine (DESIGN.md §15): a rollup engine over
  /// the capture store's merged warm+cold catalog, an SLO engine seeded
  /// with the stock spec set plus one error-rate SLO per vantage point
  /// approved so far, and a REST backend on kHealthPort serving GET /rollup
  /// and GET /health. Call after onboarding so every vantage is covered.
  util::Status enable_health();
  bool health_enabled() const { return slo_ != nullptr; }
  health::RollupEngine* rollup_engine() { return rollup_.get(); }
  health::SloEngine* slo_engine() { return slo_.get(); }
  controller::RestBackend* health_rest() { return health_rest_.get(); }

  /// Recurring maintenance helpers: scheduled PersistEngine checkpoints
  /// (cause=scheduled; requires persistence) and periodic SLO evaluation
  /// (requires enable_health). Both run as ordinary maintenance jobs, so
  /// they show up in traces and the job table like any other work.
  util::Result<std::size_t> schedule_persist_checkpoints(
      util::Duration period);
  util::Result<std::size_t> schedule_health_evaluations(
      util::Duration period);

  /// Full onboarding per the §3.4 tutorial: register the node, install the
  /// server's public key and IP whitelist on the controller's sshd, deploy
  /// the wildcard certificate, approve, and register DNS. `host_owner` is
  /// the member account contributing the hardware (earns the hosting bonus
  /// and a share of device-time charges when credits are enforced).
  util::Status onboard_vantage_point(const std::string& label,
                                     api::VantagePoint& vp,
                                     const std::string& host_owner = {});

  /// Authenticated job submission; dispatch still requires an admin's
  /// pipeline approval.
  util::Result<JobId> submit_job(const std::string& token, Job job);
  /// Authenticated retry of a terminally failed/aborted job: only the job's
  /// owner (or an admin) may resubmit, and the retry inherits its approval
  /// from the predecessor (see Scheduler::resubmit for the trace linkage).
  util::Result<JobId> resubmit_job(const std::string& token, JobId id);
  util::Status approve_pipeline(const std::string& admin_token, JobId id);
  /// Run the dispatch loop (authorization: any enabled experimenter/admin).
  util::Result<std::size_t> run_queue(const std::string& token);

  /// Execute a command on a vantage point's controller over SSH.
  util::Result<net::SshCommandResult> ssh_exec(const std::string& label,
                                               const std::string& command);

  /// Prometheus text dump of this deployment's metrics registry — the
  /// operator-facing equivalent of the controller's GET /metrics.
  std::string metrics_text() const;

  /// Schedule a recurring (Jenkins-cron-style) job: every `period`, the
  /// generator's job is submitted pre-approved and dispatched. This is how
  /// the standing maintenance jobs of §3.1 actually run. Returns a handle
  /// index usable with stop_recurring.
  std::size_t schedule_recurring(std::function<Job()> generator,
                                 util::Duration period);
  void stop_recurring(std::size_t handle);
  std::size_t recurring_count() const { return recurring_.size(); }

 private:
  sim::Simulator& sim_;
  net::Network& net_;
  std::string host_;
  UserDirectory users_;
  net::DnsRegistry dns_;
  VantagePointRegistry registry_;
  CertificateManager certs_;
  Scheduler scheduler_;
  store::CaptureStore capture_store_;
  std::unique_ptr<store::persist::PersistEngine> persist_;
  CreditLedger credits_;
  TesterPool testers_;
  std::optional<CreditPolicy> credit_policy_;
  /// Workspace -> vantage/device-class/owner context for rollup grouping.
  health::CaptureContext resolve_capture_context(const std::string& workspace);

  net::SshKeyPair ssh_key_;
  net::SshClient ssh_client_;
  std::vector<std::unique_ptr<sim::PeriodicTask>> recurring_;
  std::unique_ptr<health::RollupEngine> rollup_;
  std::unique_ptr<health::SloEngine> slo_;
  std::unique_ptr<controller::RestBackend> health_rest_;
};

}  // namespace blab::server
