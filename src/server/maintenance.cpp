#include "server/maintenance.hpp"

#include "util/strings.hpp"

namespace blab::server {

Job make_cert_renewal_job(AccessServer& server) {
  Job job;
  job.name = "maintenance/cert-renewal";
  job.constraints.needs_device = false;
  job.script = [&server](JobContext& ctx) -> util::Status {
    auto& certs = server.certs();
    const auto now = server.simulator().now();
    if (certs.needs_renewal(now)) {
      const auto& cert = certs.issue(now);
      ctx.workspace->log("issued certificate serial " +
                         std::to_string(cert.serial));
    } else {
      ctx.workspace->log("certificate still fresh");
    }
    std::size_t deployed = 0;
    for (const auto& label : server.registry().approved_labels()) {
      if (!certs.node_current(label)) {
        if (auto st = certs.deploy_to(label, now); !st.ok()) return st;
        ctx.workspace->log("deployed to " + label);
        ++deployed;
      }
    }
    ctx.workspace->log("deployments: " + std::to_string(deployed));
    return util::Status::ok_status();
  };
  return job;
}

Job make_monitor_safety_job() {
  Job job;
  job.name = "maintenance/monitor-safety";
  job.constraints.needs_device = false;
  job.script = [](JobContext& ctx) -> util::Status {
    if (ctx.api->monitoring()) {
      ctx.workspace->log("measurement in progress; leaving monitor on");
      return util::Status::ok_status();
    }
    if (ctx.api->monitor_powered()) {
      if (auto st = ctx.api->power_monitor(); !st.ok()) return st;
      ctx.workspace->log("monitor was idle and powered; switched off");
    } else {
      ctx.workspace->log("monitor already off");
    }
    return util::Status::ok_status();
  };
  return job;
}

Job make_factory_reset_job() {
  Job job;
  job.name = "maintenance/factory-reset";
  job.script = [](JobContext& ctx) -> util::Status {
    auto packages =
        ctx.api->execute_adb(ctx.device_serial, "pm list packages");
    if (!packages.ok()) return packages.error();
    int cleared = 0;
    for (const auto& line : util::split(packages.value(), '\n')) {
      if (!util::starts_with(line, "package:")) continue;
      const std::string pkg{util::trim(line.substr(8))};
      if (pkg.empty()) continue;
      (void)ctx.api->execute_adb(ctx.device_serial, "am force-stop " + pkg);
      if (ctx.api->execute_adb(ctx.device_serial, "pm clear " + pkg).ok()) {
        ++cleared;
      }
    }
    ctx.workspace->log("cleared " + std::to_string(cleared) + " packages");
    auto alive = ctx.api->execute_adb(ctx.device_serial, "whoami");
    if (!alive.ok()) return alive.error();
    ctx.workspace->log("device responsive as '" + alive.value() + "'");
    return util::Status::ok_status();
  };
  return job;
}

Job make_capture_retention_job(AccessServer& server) {
  Job job;
  job.name = "maintenance/capture-retention";
  job.constraints.needs_device = false;
  job.script = [&server](JobContext& ctx) -> util::Status {
    auto& store = server.capture_store();
    const auto now = server.simulator().now();
    const std::uint64_t reclaimed_before =
        store.stats().retention_bytes_reclaimed;
    // Ages out in-memory chunks AND, when persistence is enabled, the
    // expired on-disk segments behind them (erase + demote).
    const std::size_t touched = store.run_retention(now);
    const std::size_t workspaces =
        server.scheduler().purge_workspaces(store.policy().summary_ttl);
    const std::uint64_t reclaimed =
        store.stats().retention_bytes_reclaimed - reclaimed_before;
    ctx.workspace->log("retention touched " + std::to_string(touched) +
                       " captures, purged " + std::to_string(workspaces) +
                       " workspaces, reclaimed " + std::to_string(reclaimed) +
                       " disk bytes; " + std::to_string(store.size()) +
                       " records remain");
    return util::Status::ok_status();
  };
  return job;
}

Job make_persist_checkpoint_job(AccessServer& server) {
  Job job;
  job.name = "maintenance/persist-checkpoint";
  job.constraints.needs_device = false;
  job.script = [&server](JobContext& ctx) -> util::Status {
    auto* engine = server.persist_engine();
    if (engine == nullptr) {
      ctx.workspace->log("persistence not enabled; nothing to demote");
      return util::Status::ok_status();
    }
    if (server.health_enabled() &&
        server.slo_engine()->overall() == health::HealthState::kUnhealthy) {
      ctx.workspace->log("fleet unhealthy; deferring checkpoint");
      return util::Status::ok_status();
    }
    const std::uint64_t demotions_before = engine->stats().demotions;
    if (auto st =
            engine->checkpoint(store::persist::CheckpointCause::kScheduled);
        !st.ok()) {
      return st;
    }
    ctx.workspace->log(
        "checkpoint demoted " +
        std::to_string(engine->stats().demotions - demotions_before) +
        " capture(s); " + std::to_string(engine->size()) +
        " record(s) on disk");
    return util::Status::ok_status();
  };
  return job;
}

Job make_health_evaluation_job(AccessServer& server) {
  Job job;
  job.name = "maintenance/health-evaluation";
  job.constraints.needs_device = false;
  job.script = [&server](JobContext& ctx) -> util::Status {
    if (!server.health_enabled()) {
      ctx.workspace->log("health engine not enabled; nothing to evaluate");
      return util::Status::ok_status();
    }
    auto* slo = server.slo_engine();
    slo->evaluate(server.simulator().now());
    ctx.workspace->log(
        "evaluated " + std::to_string(slo->spec_count()) + " SLO spec(s); " +
        "overall " + health::health_state_name(slo->overall()));
    return util::Status::ok_status();
  };
  return job;
}

}  // namespace blab::server
