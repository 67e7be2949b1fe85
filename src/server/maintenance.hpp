// Standing maintenance jobs (§3.1).
//
// "We have developed several jobs which manage the vantage points. These
// jobs span from updating BatteryLab wildcard certificates, to ensure the
// power meter is not active when not needed (for safety reasons), or to
// factory reset a device."
#pragma once

#include <string>

#include "server/access_server.hpp"
#include "server/job.hpp"

namespace blab::server {

/// Renew the wildcard certificate when due and redeploy it to every approved
/// vantage point. Targets no device; constraints pin it to `node_label` only
/// so the scheduler has an assignment to run it under.
Job make_cert_renewal_job(AccessServer& server);

/// Safety: if no measurement is running, make sure the Monsoon's power
/// socket is off.
Job make_monitor_safety_job();

/// Factory reset: force-stop and clear every installed package on the
/// job's assigned device, then verify it responds over ADB.
Job make_factory_reset_job();

/// Capture retention sweep: apply the CaptureStore's TTL policy (raw chunk
/// payloads expire first, summary tiers later) and age out job workspaces
/// that outlived the store's summary TTL.
Job make_capture_retention_job(AccessServer& server);

/// Scheduled PersistEngine checkpoint (cause=scheduled): demote every
/// capture whose committed raw drop still sits in a raw segment, on a
/// sim-time cadence. Consults the health engine when enabled — an
/// unhealthy fleet defers the checkpoint to the next cadence tick.
Job make_persist_checkpoint_job(AccessServer& server);

/// Evaluate every SLO against the live metrics registry at the current sim
/// time, advancing burn-rate alerts and the per-vantage health states that
/// GET /health serves.
Job make_health_evaluation_job(AccessServer& server);

}  // namespace blab::server
