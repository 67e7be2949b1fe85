#include "bench/e2e/deployment.hpp"

#include <stdexcept>

#include "automation/browser_workload.hpp"
#include "bench/e2e/ledger.hpp"
#include "device/browser.hpp"
#include "server/maintenance.hpp"

namespace blab::bench::e2e {

namespace {

constexpr const char* kSerial = "J7DUO-1";
constexpr const char* kNode = "node1";

constexpr PaperCell kCells[kCellCount] = {
    {"Brave", false}, {"Chrome", false}, {"Edge", false}, {"Firefox", false},
    {"Brave", true},  {"Chrome", true},  {"Edge", true},  {"Firefox", true},
};

[[noreturn]] void fail(const char* what, const util::Error& error) {
  throw std::runtime_error{std::string{what} + ": " + error.str()};
}

template <typename T>
T must(util::Result<T> r, const char* what) {
  if (!r.ok()) fail(what, r.error());
  return std::move(r).take();
}

void must(const util::Status& st, const char* what) {
  if (!st.ok()) fail(what, st.error());
}

/// A maintenance job whose script runs inside a ledger span.
server::Job timed(server::Job job, Ledger& ledger, const char* component,
                  const char* name) {
  job.script = [inner = std::move(job.script), &ledger, component,
                name](server::JobContext& ctx) {
    obs::ScopedSpan span{ledger.tracer(), component, name};
    return inner(ctx);
  };
  return job;
}

}  // namespace

const PaperCell& paper_cell(std::size_t i) { return kCells[i % kCellCount]; }

PaperDeployment::PaperDeployment(std::uint64_t seed,
                                 const std::string& persist_dir,
                                 Ledger& ledger, bool standing_jobs)
    : ledger_{ledger}, net_{sim_, seed} {
  net_.add_host("internet");
  net_.add_link("web", "internet",
                net::LinkSpec::symmetric(util::Duration::millis(4), 900.0));
  net_.add_link("speedtest", "internet",
                net::LinkSpec::symmetric(util::Duration::millis(1), 1000.0));

  api::VantagePointConfig config;
  config.name = kNode;
  config.seed = seed;
  vp_ = std::make_unique<api::VantagePoint>(sim_, net_, config);
  net_.add_link(vp_->controller_host(), "internet",
                net::LinkSpec::symmetric(util::Duration::millis(6), 200.0));
  device::DeviceSpec phone;  // Samsung J7 Duo, Android 8.0 defaults
  phone.serial = kSerial;
  (void)must(vp_->add_device(phone), "add device");

  server_ = std::make_unique<server::AccessServer>(sim_, net_);
  admin_token_ =
      must(server_->users().register_user("ops", server::Role::kAdmin),
           "register admin");
  user_token_ = must(
      server_->users().register_user("imperial", server::Role::kExperimenter),
      "register experimenter");
  must(server_->onboard_vantage_point(kNode, *vp_, "imperial"), "onboard");

  const double open_start = now_s();
  must(server_->enable_persistence(persist_dir), "enable persistence");
  persist_open_s_ = now_s() - open_start;
  must(server_->enable_health(), "enable health");

  if (!standing_jobs) return;
  server::AccessServer& srv = *server_;
  srv.schedule_recurring(
      [&srv, &ledger] {
        return timed(server::make_capture_retention_job(srv), ledger, "store",
                     "retention");
      },
      util::Duration::minutes(10));
  srv.schedule_recurring(
      [&srv, &ledger] {
        return timed(server::make_persist_checkpoint_job(srv), ledger,
                     "persist", "checkpoint");
      },
      util::Duration::minutes(10));
  srv.schedule_recurring(
      [&srv, &ledger] {
        return timed(server::make_health_evaluation_job(srv), ledger, "health",
                     "evaluate");
      },
      util::Duration::minutes(2));
}

JobOutcome PaperDeployment::run_job(const PaperCell& cell) {
  JobOutcome out;
  obs::Tracer* tracer = ledger_.tracer();
  obs::ScopedSpan job_span{tracer, "bench", "job"};

  const device::BrowserProfile* profile =
      device::BrowserProfile::find(cell.browser);
  if (profile == nullptr) {
    out.error = std::string{"unknown browser "} + cell.browser;
    return out;
  }
  server::Job job;
  job.name = std::string{"fig3/"} + cell.browser +
             (cell.mirroring ? "+mirroring" : "");
  job.constraints.device_serial = kSerial;
  job.max_duration = util::Duration::minutes(10);
  // The scheduler keeps the script after the job ends, so it refers only to
  // this deployment (which owns the scheduler) and to copies.
  job.script = [this, profile,
                mirroring = cell.mirroring](server::JobContext& ctx) {
    obs::ScopedSpan span{ledger_.tracer(), "automation", "workload"};
    automation::BrowserWorkloadOptions options;  // paper defaults: 10 pages
    options.mirroring = mirroring;
    auto run = automation::run_browser_energy_test(
        *ctx.api, ctx.device_serial, *profile, options);
    if (!run.ok()) return util::Status{run.error()};
    const auto id = ctx.api->last_capture_id();
    if (!id.has_value()) {
      return util::Status{util::make_error(util::ErrorCode::kNotFound,
                                           "capture was not archived")};
    }
    measured_.id = *id;
    measured_.discharge_mah = run.value().discharge_mah;
    measured_.capture = std::move(run.value().capture);
    return util::Status::ok_status();
  };

  server::JobId id;
  {
    obs::ScopedSpan span{tracer, "server", "submit"};
    auto submitted = server_->submit_job(user_token_, std::move(job));
    if (!submitted.ok()) {
      out.error = "submit: " + submitted.error().str();
      return out;
    }
    id = submitted.value();
    if (auto st = server_->approve_pipeline(admin_token_, id); !st.ok()) {
      out.error = "approve: " + st.error().str();
      return out;
    }
  }
  {
    obs::ScopedSpan span{tracer, "server", "run_queue"};
    auto ran = server_->run_queue(user_token_);
    if (!ran.ok()) {
      out.error = "run_queue: " + ran.error().str();
      return out;
    }
  }
  out.id = measured_.id;
  out.discharge_mah = measured_.discharge_mah;
  out.capture = std::move(measured_.capture);
  const server::Job* done = server_->scheduler().find(id);
  if (done == nullptr || done->state != server::JobState::kSucceeded) {
    out.error = "job did not succeed: " + (done == nullptr
                                                ? std::string{"missing"}
                                                : done->failure_reason);
    return out;
  }
  {
    obs::ScopedSpan span{tracer, "store", "answer"};
    store::CaptureStore& store = server_->capture_store();
    auto energy = store.energy_mwh(out.id);
    auto summary = store.summary(out.id);
    if (!energy.ok() || !summary.ok()) {
      out.error = "answer for " + out.id.str() + " failed";
      return out;
    }
    out.answer_mwh = energy.value();
    out.summary = std::move(summary).take();
  }
  out.ok = true;
  return out;
}

}  // namespace blab::bench::e2e
