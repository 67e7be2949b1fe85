// The paper's deployment as the write-side workloads see it: one access
// server with persistence and the health engine on, one vantage point with
// the Samsung J7 Duo (§3.2, §4.1), and the Fig. 3 browser job (§4.2) run
// through the real submit / approve / dispatch pipeline.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "api/vantage_point.hpp"
#include "hw/power_monitor.hpp"
#include "net/network.hpp"
#include "server/access_server.hpp"
#include "sim/simulator.hpp"
#include "store/capture_store.hpp"

namespace blab::bench::e2e {

class Ledger;

/// One Fig. 3 cell: a browser with mirroring off or on.
struct PaperCell {
  const char* browser;
  bool mirroring;
};
inline constexpr std::size_t kCellCount = 8;
/// Brave / Chrome / Edge / Firefox with mirroring off, then on.
const PaperCell& paper_cell(std::size_t i);

/// What one job left behind: the capture the script measured, the id the
/// store archived it under, and the store's energy answer.
struct JobOutcome {
  bool ok = false;
  std::string error;
  hw::Capture capture;
  store::CaptureId id;
  double discharge_mah = 0.0;
  double answer_mwh = 0.0;
  store::CaptureSummary summary;
};

class PaperDeployment {
 public:
  /// Opens (or, when `persist_dir` already holds a store, recovers)
  /// persistence in `persist_dir` and enables the health engine. With
  /// `standing_jobs` the §3.1 maintenance runs through schedule_recurring:
  /// capture retention and persist checkpoints every 10 sim-min, health
  /// evaluation every 2 sim-min, each script wrapped in a ledger span.
  /// Throws on any set-up failure.
  PaperDeployment(std::uint64_t seed, const std::string& persist_dir,
                  Ledger& ledger, bool standing_jobs);

  /// One Fig. 3 job: submit_job + approve_pipeline, run_queue (the script
  /// runs automation::run_browser_energy_test over 10 pages), then the
  /// store's energy_mwh + summary answer on the job's capture.
  JobOutcome run_job(const PaperCell& cell);

  /// Host seconds enable_persistence took (recovery when reopening).
  double persist_open_s() const { return persist_open_s_; }
  server::AccessServer& server() { return *server_; }
  api::VantagePoint& vantage_point() { return *vp_; }
  sim::Simulator& simulator() { return sim_; }

 private:
  Ledger& ledger_;
  // Declaration order is teardown order in reverse: the server refers to
  // the vantage point, and both refer to the simulator and network.
  sim::Simulator sim_;
  net::Network net_;
  std::unique_ptr<api::VantagePoint> vp_;
  std::unique_ptr<server::AccessServer> server_;
  std::string admin_token_;
  std::string user_token_;
  double persist_open_s_ = 0.0;
  /// Filled by the running job's script: capture, its store id, discharge.
  JobOutcome measured_;
};

}  // namespace blab::bench::e2e
