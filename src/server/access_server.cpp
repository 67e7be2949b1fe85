#include "server/access_server.hpp"

#include "device/device.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "server/maintenance.hpp"
#include "util/logging.hpp"
#include "util/parse.hpp"

namespace blab::server {

AccessServer::AccessServer(sim::Simulator& sim, net::Network& net,
                           std::string host)
    : sim_{sim},
      net_{net},
      host_{std::move(host)},
      registry_{dns_},
      scheduler_{sim, registry_},
      testers_{users_, &credits_},
      ssh_key_{net::SshKeyPair::generate("batterylab-access-server")},
      ssh_client_{net, host_, ssh_key_} {
  net_.add_host(host_);
  (void)certs_.issue(sim_.now());
  scheduler_.attach_capture_store(&capture_store_);
  capture_store_.attach_metrics(&sim_.metrics());
  capture_store_.attach_tracer(&sim_.tracer());
}

std::string AccessServer::metrics_text() const {
  return obs::encode_prometheus(sim_.metrics().snapshot());
}

void AccessServer::enable_credit_enforcement(CreditPolicy policy) {
  credit_policy_ = policy;
  scheduler_.attach_credits(&credits_, policy);
}

util::Status AccessServer::enable_persistence(const std::string& dir) {
  if (persist_ != nullptr) {
    return util::make_error(util::ErrorCode::kAlreadyExists,
                            "persistence already enabled at " +
                                persist_->dir());
  }
  auto engine = std::make_unique<store::persist::PersistEngine>(dir);
  if (auto st = engine->open(); !st.ok()) return st;
  persist_ = std::move(engine);
  persist_->attach_metrics(&sim_.metrics());
  capture_store_.attach_persistence(persist_.get());
  BLAB_INFO("access-server",
            "persistence enabled at " << dir << ": recovered "
                                      << persist_->stats().recovered_records
                                      << " record(s)");
  return util::Status::ok_status();
}

health::CaptureContext AccessServer::resolve_capture_context(
    const std::string& workspace) {
  health::CaptureContext ctx;
  for (const Job* job : scheduler_.all_jobs()) {
    if (job->id.str() != workspace) continue;
    ctx.vantage = job->assigned_node;
    ctx.owner = job->owner;
    if (!job->assigned_device.empty()) {
      api::VantagePoint* vp = registry_.vantage_point(job->assigned_node);
      auto* dev =
          vp == nullptr ? nullptr : vp->find_device(job->assigned_device);
      if (dev != nullptr) {
        ctx.device_class =
            std::string{device::platform_name(dev->spec().platform)} + "-" +
            device::device_class_name(dev->spec().device_class);
      }
    }
    break;
  }
  return ctx;
}

util::Status AccessServer::enable_health() {
  if (slo_ != nullptr) {
    return util::make_error(util::ErrorCode::kAlreadyExists,
                            "health engine already enabled");
  }
  rollup_ = std::make_unique<health::RollupEngine>(capture_store_);
  rollup_->attach_metrics(&sim_.metrics());
  rollup_->set_context_resolver([this](const std::string& workspace) {
    return resolve_capture_context(workspace);
  });

  slo_ = std::make_unique<health::SloEngine>(sim_.metrics(), &sim_.tracer());
  for (health::SloSpec& spec :
       health::default_slo_specs(registry_.approved_labels())) {
    slo_->add_spec(std::move(spec));
  }

  health_rest_ =
      std::make_unique<controller::RestBackend>(net_, host_, kHealthPort);
  health_rest_->register_endpoint(
      "rollup",
      [this](const std::string& query) -> util::Result<std::string> {
        const auto params = controller::parse_query(query);
        auto scope = health::RollupScope::kFleet;
        if (const auto it = params.find("scope"); it != params.end()) {
          const auto parsed = health::parse_rollup_scope(it->second);
          if (!parsed.has_value()) {
            return util::make_error(util::ErrorCode::kInvalidArgument,
                                    "scope must be fleet, job or vantage");
          }
          scope = *parsed;
        }
        auto t0 = util::TimePoint::epoch();
        auto t1 = util::TimePoint::max();
        if (const auto it = params.find("t0_us"); it != params.end()) {
          const auto us = util::parse_u64(it->second);
          if (!us.has_value()) {
            return util::make_error(util::ErrorCode::kInvalidArgument,
                                    "t0_us must be unsigned microseconds");
          }
          t0 = util::TimePoint::from_micros(static_cast<std::int64_t>(*us));
        }
        if (const auto it = params.find("t1_us"); it != params.end()) {
          const auto us = util::parse_u64(it->second);
          if (!us.has_value()) {
            return util::make_error(util::ErrorCode::kInvalidArgument,
                                    "t1_us must be unsigned microseconds");
          }
          t1 = util::TimePoint::from_micros(static_cast<std::int64_t>(*us));
        }
        return health::encode_rollup_json(rollup_->compute(scope, t0, t1));
      });
  health_rest_->register_endpoint(
      "health", [this](const std::string&) -> util::Result<std::string> {
        return health::encode_health_json(*slo_);
      });

  BLAB_INFO("access-server", "health engine enabled: "
                                 << slo_->spec_count() << " SLO spec(s), "
                                 << "REST on port " << kHealthPort);
  return util::Status::ok_status();
}

util::Result<std::size_t> AccessServer::schedule_persist_checkpoints(
    util::Duration period) {
  if (persist_ == nullptr) {
    return util::make_error(util::ErrorCode::kFailedPrecondition,
                            "persistence not enabled");
  }
  return schedule_recurring([this] { return make_persist_checkpoint_job(*this); },
                            period);
}

util::Result<std::size_t> AccessServer::schedule_health_evaluations(
    util::Duration period) {
  if (slo_ == nullptr) {
    return util::make_error(util::ErrorCode::kFailedPrecondition,
                            "health engine not enabled");
  }
  return schedule_recurring(
      [this] { return make_health_evaluation_job(*this); }, period);
}

util::Status AccessServer::onboard_vantage_point(
    const std::string& label, api::VantagePoint& vp,
    const std::string& host_owner) {
  if (auto st = registry_.register_node(label, &vp, host_owner); !st.ok()) {
    return st;
  }

  // Reachability: the controller must be on the public network. Give it an
  // internet-grade link to the access server if none exists yet.
  if (net_.path(host_, vp.controller_host()).empty()) {
    net::LinkSpec wan;
    wan.latency = util::Duration::millis(12);
    wan.bandwidth_ab_mbps = 500.0;
    wan.bandwidth_ba_mbps = 500.0;
    net_.add_link(host_, vp.controller_host(), wan);
  }

  // §3.4: grant pubkey access and whitelist the access server's address.
  vp.controller().ssh_server().authorize_key(ssh_key_.public_key);
  vp.controller().ssh_server().whitelist_source(host_);
  if (auto st = registry_.mark_key_installed(label); !st.ok()) return st;
  if (auto st = registry_.mark_ip_whitelisted(label); !st.ok()) return st;

  // Wildcard certificate deployment precedes DNS visibility.
  if (certs_.needs_renewal(sim_.now())) (void)certs_.issue(sim_.now());
  if (auto st = certs_.deploy_to(label, sim_.now()); !st.ok()) return st;

  if (auto st = registry_.approve(label); !st.ok()) return st;
  // Sharing resources earns access (§5).
  if (credit_policy_.has_value() && !host_owner.empty()) {
    if (!credits_.has_account(host_owner)) {
      (void)credits_.open_account(host_owner);
    }
    (void)credits_.deposit(host_owner, credit_policy_->hosting_bonus,
                           "hosting bonus for " + label, sim_.now());
  }
  BLAB_INFO("access-server", label << " onboarded -> https://" << label
                                   << "." << dns_.zone());
  return util::Status::ok_status();
}

util::Result<JobId> AccessServer::submit_job(const std::string& token,
                                             Job job) {
  if (auto st = users_.authorize(token, Permission::kCreateJob); !st.ok()) {
    return st.error();
  }
  auto user = users_.authenticate(token);
  job.owner = user.value()->username;
  return scheduler_.submit(std::move(job));
}

util::Result<JobId> AccessServer::resubmit_job(const std::string& token,
                                               JobId id) {
  if (auto st = users_.authorize(token, Permission::kCreateJob); !st.ok()) {
    return st.error();
  }
  auto user = users_.authenticate(token);
  const Job* pred = scheduler_.find(id);
  if (pred == nullptr) {
    return util::make_error(util::ErrorCode::kNotFound, "unknown job");
  }
  if (pred->owner != user.value()->username &&
      user.value()->role != Role::kAdmin) {
    return util::make_error(util::ErrorCode::kPermissionDenied,
                            "only the job owner or an admin may resubmit");
  }
  return scheduler_.resubmit(id);
}

util::Status AccessServer::approve_pipeline(const std::string& admin_token,
                                            JobId id) {
  if (auto st = users_.authorize(admin_token, Permission::kApprovePipeline);
      !st.ok()) {
    return st;
  }
  return scheduler_.approve_pipeline(id);
}

util::Result<std::size_t> AccessServer::run_queue(const std::string& token) {
  if (auto st = users_.authorize(token, Permission::kRunJob); !st.ok()) {
    return st.error();
  }
  return scheduler_.dispatch_pending();
}

std::size_t AccessServer::schedule_recurring(std::function<Job()> generator,
                                             util::Duration period) {
  auto task = std::make_unique<sim::PeriodicTask>(
      sim_, period, [this, generator = std::move(generator)] {
        Job job = generator();
        const JobId id = scheduler_.submit(std::move(job));
        (void)scheduler_.approve_pipeline(id);  // admin-blessed template
        (void)scheduler_.dispatch_pending();
      });
  task->start();
  recurring_.push_back(std::move(task));
  return recurring_.size() - 1;
}

void AccessServer::stop_recurring(std::size_t handle) {
  if (handle < recurring_.size() && recurring_[handle] != nullptr) {
    recurring_[handle]->stop();
  }
}

util::Result<net::SshCommandResult> AccessServer::ssh_exec(
    const std::string& label, const std::string& command) {
  const NodeRecord* node = registry_.find(label);
  if (node == nullptr || node->state != NodeState::kApproved) {
    return util::make_error(util::ErrorCode::kNotFound,
                            label + " is not an approved vantage point");
  }
  return ssh_client_.exec_sync(
      net::Address{node->controller_host, net::kSshPort}, command);
}

}  // namespace blab::server
