#include "testing/oracles.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <map>
#include <sstream>

#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "util/stats.hpp"
#include "util/strings.hpp"

namespace blab::testing {

namespace {

using util::Duration;
using util::TimePoint;

/// Time-weighted mean of piecewise-constant segments over [t0, t1).
double segments_mean(const std::vector<std::pair<TimePoint, double>>& segs,
                     TimePoint t0, TimePoint t1) {
  if (segs.empty() || t1 <= t0) return 0.0;
  double integral = 0.0;
  for (std::size_t i = 0; i < segs.size(); ++i) {
    const TimePoint start = std::max(segs[i].first, t0);
    const TimePoint end = i + 1 < segs.size() ? segs[i + 1].first : t1;
    if (end <= start) continue;
    integral += segs[i].second * (end - start).to_seconds();
  }
  return integral / (t1 - t0).to_seconds();
}

class ClockMonotonicityOracle : public InvariantOracle {
 public:
  const char* name() const override { return "clock-monotonicity"; }

  void check(const OracleContext& ctx,
             std::vector<OracleFinding>& out) override {
    const TimePoint now = ctx.sim->now();
    const std::uint64_t executed = ctx.sim->executed_events();
    if (now < last_now_) {
      out.push_back({name(), "simulator clock moved backwards: " +
                                 util::to_string(last_now_) + " -> " +
                                 util::to_string(now)});
    }
    if (executed < last_executed_) {
      out.push_back({name(), "executed-event counter decreased"});
    }
    last_now_ = now;
    last_executed_ = executed;
  }

 private:
  TimePoint last_now_ = TimePoint::epoch();
  std::uint64_t last_executed_ = 0;
};

class SchedulerSafetyOracle : public InvariantOracle {
 public:
  const char* name() const override { return "scheduler-safety"; }

  void check(const OracleContext& ctx,
             std::vector<OracleFinding>& out) override {
    const auto& scheduler = ctx.server->scheduler();
    // Jobs run to completion inside dispatch, so between steps no device may
    // still be held — a leak here is a stuck busy-set entry.
    for (const auto& serial : scheduler.busy_serials()) {
      out.push_back({name(), "device still busy between steps: " + serial});
      if (std::find(ctx.registered_serials.begin(),
                    ctx.registered_serials.end(),
                    serial) == ctx.registered_serials.end()) {
        out.push_back({name(), "busy set names unregistered device: " +
                                   serial});
      }
    }
    for (const server::Job* job : scheduler.all_jobs()) {
      const bool ran = job->state == server::JobState::kRunning ||
                       job->state == server::JobState::kSucceeded ||
                       job->state == server::JobState::kFailed;
      if (ran && !job->pipeline_approved) {
        out.push_back({name(), "unapproved job dispatched: " + job->name});
      }
      if (job->state == server::JobState::kRunning) {
        out.push_back({name(), "job still running between steps: " +
                                   job->name});
      }
      const bool finished = job->state == server::JobState::kSucceeded ||
                            job->state == server::JobState::kFailed;
      if (finished && job->finished_at < job->started_at) {
        out.push_back({name(), "job finished before it started: " +
                                   job->name});
      }
    }
  }
};

class CreditLedgerOracle : public InvariantOracle {
 public:
  const char* name() const override { return "credit-ledger"; }

  void check(const OracleContext& ctx,
             std::vector<OracleFinding>& out) override {
    for (const auto& [account, balance] : ctx.server->credits().balances()) {
      if (balance < -1e-9) {
        out.push_back({name(), "negative balance for " + account + ": " +
                                   util::format_double(balance, 4)});
      }
    }
  }
};

class EnergyConservationOracle : public InvariantOracle {
 public:
  const char* name() const override { return "energy-conservation"; }

  void check(const OracleContext& ctx,
             std::vector<OracleFinding>& out) override {
    // Each capture is validated once, as it appears.
    for (; checked_ < ctx.captures.size(); ++checked_) {
      const CaptureRecord& rec = ctx.captures[checked_];
      api::VantagePoint* vp = ctx.nodes[rec.node];
      const auto segs = vp->relay().current_segments(rec.t0, rec.t1);
      const double analytic = segments_mean(segs, rec.t0, rec.t1);
      const auto& spec = vp->monitor().spec();
      const double expected =
          analytic * spec.gain * vp->monitor().gain_correction();
      const double sampled = rec.capture.mean_current_ma();
      // 1% models sampling quantization; 0.5 mA absorbs calibration noise
      // including the clamp-at-zero bias on near-idle channels.
      const double tolerance = expected * 0.01 + 0.5;
      if (std::abs(sampled - expected) > tolerance) {
        out.push_back(
            {name(),
             "capture on node " + std::to_string(rec.node) + " [" +
                 util::to_string(rec.t0) + ", " + util::to_string(rec.t1) +
                 "): sampled mean " + util::format_double(sampled, 3) +
                 " mA vs analytic " + util::format_double(expected, 3) +
                 " mA (tolerance " + util::format_double(tolerance, 3) +
                 ")"});
      }
    }
  }

 private:
  std::size_t checked_ = 0;
};

class BatterySanityOracle : public InvariantOracle {
 public:
  const char* name() const override { return "battery-sanity"; }

  void check(const OracleContext& ctx,
             std::vector<OracleFinding>& out) override {
    for (std::size_t n = 0; n < ctx.nodes.size(); ++n) {
      for (const auto& serial : ctx.registered_serials) {
        auto* dev = ctx.nodes[n]->find_device(serial);
        if (dev == nullptr) continue;  // serial lives on another node
        const double mah = dev->battery().remaining_mah();
        if (mah < -1e-6) {
          out.push_back({name(), serial + " pack holds negative charge: " +
                                     util::format_double(mah, 4) + " mAh"});
        }
      }
    }
  }
};

class MirroringLifecycleOracle : public InvariantOracle {
 public:
  const char* name() const override { return "mirroring-lifecycle"; }

  void check(const OracleContext& ctx,
             std::vector<OracleFinding>& out) override {
    // Between steps every job has released its device, so no mirroring
    // stream may still be running on a device nobody holds — a leak here
    // would hand the next experimenter a live view of the previous session.
    const auto& scheduler = ctx.server->scheduler();
    for (std::size_t n = 0; n < ctx.nodes.size(); ++n) {
      for (const auto& serial : ctx.registered_serials) {
        auto* session = ctx.nodes[n]->mirroring(serial);
        if (session != nullptr && session->active() &&
            !scheduler.device_busy(serial)) {
          out.push_back({name(), "mirroring session outlived device release: " +
                                     serial + " on node " + std::to_string(n)});
        }
      }
    }
  }
};

class DnsCertConsistencyOracle : public InvariantOracle {
 public:
  const char* name() const override { return "dns-cert-consistency"; }

  void check(const OracleContext& ctx,
             std::vector<OracleFinding>& out) override {
    const auto& registry = ctx.server->registry();
    const auto& dns = ctx.server->dns();
    const auto& certs = ctx.server->certs();
    for (const auto& label : registry.all_labels()) {
      const server::NodeRecord* node = registry.find(label);
      const auto resolved = dns.resolve(dns.fqdn(label));
      if (node->state == server::NodeState::kApproved) {
        if (!resolved.ok()) {
          out.push_back({name(), "approved node has no DNS record: " + label});
        } else if (resolved.value() != node->controller_host) {
          out.push_back({name(), label + " resolves to " + resolved.value() +
                                     ", expected " + node->controller_host});
        }
        if (!dns.wildcard_covers(dns.fqdn(label))) {
          out.push_back({name(), "wildcard does not cover " + label});
        }
        const std::uint64_t deployed = certs.deployed_serial(label);
        if (deployed == 0) {
          out.push_back({name(), "approved node never got a certificate: " +
                                     label});
        } else if (deployed > certs.current().serial) {
          out.push_back({name(), label + " holds serial from the future: " +
                                     std::to_string(deployed)});
        }
      } else if (resolved.ok()) {
        out.push_back({name(), std::string{"non-approved node ("} +
                                   server::node_state_name(node->state) +
                                   ") still resolves: " + label});
      }
    }
  }
};

class MetricAccountingOracle : public InvariantOracle {
 public:
  const char* name() const override { return "metric-accounting"; }

  void check(const OracleContext& ctx,
             std::vector<OracleFinding>& out) override {
    // Telemetry must agree with ground truth: every submitted job is in
    // exactly one of {queued, running, succeeded, failed, aborted}, and the
    // registry's counters/gauges track those transitions exactly. A drift
    // here means an instrument site was skipped (or double-hit) on some
    // code path the fuzzer found.
    const obs::MetricsSnapshot snap = ctx.sim->metrics().snapshot();
    const double submitted =
        snap.value_or("blab_scheduler_jobs_submitted_total");
    const double queued = snap.value_or("blab_scheduler_queue_depth");
    const double running = snap.value_or("blab_scheduler_jobs_running");
    const double succeeded = snap.value_or(
        "blab_scheduler_jobs_finished_total", {{"result", "succeeded"}});
    const double failed = snap.value_or(
        "blab_scheduler_jobs_finished_total", {{"result", "failed"}});
    const double aborted = snap.value_or("blab_scheduler_jobs_aborted_total");

    const double accounted = queued + running + succeeded + failed + aborted;
    if (submitted != accounted) {
      out.push_back(
          {name(), "job conservation broken: submitted=" +
                       util::format_double(submitted, 0) + " but queued+" +
                       "running+finished+aborted=" +
                       util::format_double(accounted, 0)});
    }

    // Cross-check each series against the scheduler's actual job states.
    std::size_t s_queued = 0, s_running = 0, s_ok = 0, s_failed = 0,
                s_aborted = 0;
    const auto& scheduler = ctx.server->scheduler();
    for (const server::Job* job : scheduler.all_jobs()) {
      switch (job->state) {
        case server::JobState::kCreated:
        case server::JobState::kQueued: ++s_queued; break;
        case server::JobState::kRunning: ++s_running; break;
        case server::JobState::kSucceeded: ++s_ok; break;
        case server::JobState::kFailed: ++s_failed; break;
        case server::JobState::kAborted: ++s_aborted; break;
      }
    }
    const auto expect = [&](const char* what, double metric,
                            std::size_t truth) {
      if (metric != static_cast<double>(truth)) {
        out.push_back({name(), std::string{what} + " metric says " +
                                   util::format_double(metric, 0) +
                                   ", scheduler holds " +
                                   std::to_string(truth)});
      }
    };
    expect("submitted", submitted, scheduler.all_jobs().size());
    expect("queue-depth", queued, s_queued);
    expect("running", running, s_running);
    expect("succeeded", succeeded, s_ok);
    expect("failed", failed, s_failed);
    expect("aborted", aborted, s_aborted);
  }
};

class TraceIntegrityOracle : public InvariantOracle {
 public:
  const char* name() const override { return "trace-integrity"; }

  void check(const OracleContext& ctx,
             std::vector<OracleFinding>& out) override {
    // Every job must yield one well-formed causal trace: a single root span,
    // every span reachable from it, children contained in their parents'
    // intervals, no spans left open once the job reaches a terminal state,
    // and no trace shared between jobs.
    const obs::Tracer& tracer = ctx.sim->tracer();
    std::map<std::uint64_t, std::string> trace_owner;
    for (const server::Job* job : ctx.server->scheduler().all_jobs()) {
      if (job->trace_id == 0) {
        out.push_back({name(), "job " + job->id.str() + " has no trace"});
        continue;
      }
      const auto [it, inserted] =
          trace_owner.emplace(job->trace_id, job->id.str());
      if (!inserted) {
        out.push_back({name(), "trace " + std::to_string(job->trace_id) +
                                   " shared by jobs " + it->second + " and " +
                                   job->id.str()});
        continue;
      }
      const bool terminal = job->state == server::JobState::kSucceeded ||
                            job->state == server::JobState::kFailed ||
                            job->state == server::JobState::kAborted;
      if (job->workspace.purged() && !terminal) {
        out.push_back({name(), "non-terminal job has a purged workspace (job " +
                                   job->id.str() + ")"});
      }
      if (!terminal) continue;  // root still legitimately open

      const std::string where =
          " (job " + job->id.str() + ", trace " +
          std::to_string(job->trace_id) + ")";
      if (const std::size_t open = tracer.open_in_trace(job->trace_id);
          open != 0) {
        out.push_back({name(), std::to_string(open) +
                                   " span(s) still open after job finished" +
                                   where});
      }
      const auto spans = tracer.spans_in(job->trace_id);
      if (spans.empty()) {
        out.push_back({name(), "finished job has no spans" + where});
        continue;
      }
      std::map<std::uint64_t, const obs::SpanRecord*> by_id;
      std::size_t roots = 0;
      for (const obs::SpanRecord* s : spans) {
        by_id.emplace(s->id, s);
        if (s->parent == 0) ++roots;
      }
      if (roots != 1) {
        out.push_back({name(), std::to_string(roots) +
                                   " root spans, expected exactly 1" + where});
      }
      for (const obs::SpanRecord* s : spans) {
        if (s->parent == 0) continue;
        const auto parent = by_id.find(s->parent);
        if (parent == by_id.end()) {
          out.push_back({name(), "span " + std::to_string(s->id) + " (" +
                                     s->component + "/" + s->name +
                                     ") unreachable: parent " +
                                     std::to_string(s->parent) +
                                     " not in trace" + where});
          continue;
        }
        const obs::SpanRecord* p = parent->second;
        if (s->start_us < p->start_us || s->end_us > p->end_us) {
          out.push_back({name(), "span " + std::to_string(s->id) + " (" +
                                     s->component + "/" + s->name +
                                     ") escapes its parent interval" + where});
        }
      }
      // Cross-trace links must be structurally sane and time-ordered: a link
      // points at a *different* trace, and a resolvable target span ended at
      // or before the linking span started (a retry can only reference a
      // predecessor whose root already closed).
      for (const obs::SpanRecord* s : spans) {
        for (const obs::SpanLink& link : s->links) {
          if (link.trace == 0 || link.span == 0) {
            out.push_back({name(), "span " + std::to_string(s->id) +
                                       " carries a null link" + where});
            continue;
          }
          if (link.trace == s->trace) {
            out.push_back({name(), "span " + std::to_string(s->id) +
                                       " links within its own trace" + where});
            continue;
          }
          for (const obs::SpanRecord* t : tracer.spans_in(link.trace)) {
            if (t->id != link.span) continue;
            if (t->end_us > s->start_us) {
              out.push_back({name(), "link target span " +
                                         std::to_string(link.span) +
                                         " ends after linking span " +
                                         std::to_string(s->id) + " starts" +
                                         where});
            }
          }
        }
      }
    }
  }
};

class RetryChainOracle : public InvariantOracle {
 public:
  const char* name() const override { return "retry-chain"; }

  void check(const OracleContext& ctx,
             std::vector<OracleFinding>& out) override {
    // Retry lineage must form well-founded chains: every retry names a
    // terminally failed/aborted predecessor, retried_by/retry_of are a
    // bijection, attempts count up by one, ids and queue times only move
    // forward (so chains are acyclic), each attempt has its own trace, and a
    // finished retry's root span carries exactly one "retry_of" link to the
    // predecessor's root.
    const obs::Tracer& tracer = ctx.sim->tracer();
    const auto& scheduler = ctx.server->scheduler();
    for (const server::Job* job : scheduler.all_jobs()) {
      if (job->retried_by.valid()) {
        const server::Job* succ = scheduler.find(job->retried_by);
        if (succ == nullptr) {
          out.push_back({name(), "job " + job->id.str() +
                                     " retried by unknown job " +
                                     job->retried_by.str()});
        } else if (succ->retry_of != job->id) {
          out.push_back({name(), "retry bijection broken: " + job->id.str() +
                                     " -> " + succ->id.str() + " -> " +
                                     succ->retry_of.str()});
        }
      }
      if (!job->retry_of.valid()) continue;

      const std::string where = " (retry " + job->id.str() + " of " +
                                job->retry_of.str() + ")";
      const server::Job* pred = scheduler.find(job->retry_of);
      if (pred == nullptr) {
        out.push_back({name(), "predecessor unknown" + where});
        continue;
      }
      if (pred->state != server::JobState::kFailed &&
          pred->state != server::JobState::kAborted) {
        out.push_back({name(), std::string{"predecessor is "} +
                                   server::job_state_name(pred->state) +
                                   ", not failed/aborted" + where});
      }
      if (pred->retried_by != job->id) {
        out.push_back({name(), "predecessor's retried_by is " +
                                   pred->retried_by.str() + where});
      }
      if (job->attempt != pred->attempt + 1) {
        out.push_back({name(), "attempt " + std::to_string(job->attempt) +
                                   " after attempt " +
                                   std::to_string(pred->attempt) + where});
      }
      if (!(pred->id < job->id)) {
        out.push_back({name(), "retry id does not follow predecessor" + where});
      }
      if (job->queued_at < pred->queued_at) {
        out.push_back({name(), "retry queued before its predecessor" + where});
      }
      // Aborted-from-queue jobs never got a finished_at stamp; skip those.
      if (pred->finished_at.us() != 0 && job->queued_at < pred->finished_at) {
        out.push_back({name(), "retry queued before predecessor finished" +
                                   where});
      }
      if (job->trace_id == pred->trace_id) {
        out.push_back({name(), "retry shares the predecessor's trace" + where});
      }

      // Walk the chain tail -> head; monotone ids make real cycles
      // impossible, so the bound only guards against corrupted pointers.
      std::size_t hops = 0;
      const std::size_t bound = scheduler.all_jobs().size() + 1;
      for (const server::Job* cur = job;
           cur != nullptr && cur->retry_of.valid();
           cur = scheduler.find(cur->retry_of)) {
        if (++hops > bound) {
          out.push_back({name(), "retry chain does not terminate" + where});
          break;
        }
      }

      const bool terminal = job->state == server::JobState::kSucceeded ||
                            job->state == server::JobState::kFailed ||
                            job->state == server::JobState::kAborted;
      if (!terminal) continue;  // root still open; link checked once closed
      const obs::SpanRecord* root = nullptr;
      for (const obs::SpanRecord* s : tracer.spans_in(job->trace_id)) {
        if (s->parent == 0) root = s;
      }
      if (root == nullptr) {
        out.push_back({name(), "finished retry has no root span" + where});
        continue;
      }
      std::size_t retry_links = 0;
      for (const obs::SpanLink& link : root->links) {
        if (link.kind != "retry_of") continue;
        ++retry_links;
        if (link.trace != pred->trace_id || link.span != pred->root_span) {
          out.push_back({name(), "retry_of link targets trace " +
                                     std::to_string(link.trace) + " span " +
                                     std::to_string(link.span) +
                                     ", expected the predecessor root" +
                                     where});
        }
      }
      if (retry_links != 1) {
        out.push_back({name(), std::to_string(retry_links) +
                                   " retry_of links on the root, expected 1" +
                                   where});
      }
    }
  }
};

class SpanConservationOracle : public InvariantOracle {
 public:
  const char* name() const override { return "span-conservation"; }

  void check(const OracleContext& ctx,
             std::vector<OracleFinding>& out) override {
    // Weighted span aggregates must be EXACT: for every sampled family the
    // sum of kept-span weights PLUS the spans still awaiting their trace's
    // tail-sampling decision equals the unsampled counter in the metrics
    // registry, at every step boundary. A sampled-out span may never reach
    // the buffer (its weight rides on a kept sibling instead); an undecided
    // span sits in the tail buffer at weight 1 until its root closes.
    const obs::Tracer& tracer = ctx.sim->tracer();
    std::uint64_t frames = 0;
    std::uint64_t blocks = 0;
    for (const obs::SpanRecord& s : tracer.spans()) {
      if (s.weight == 0) {
        out.push_back({name(), "sampled-out span reached the buffer: " +
                                   s.component + "/" + s.name + " id " +
                                   std::to_string(s.id)});
      }
      if (s.component == "mirror" && s.name == "frame") frames += s.weight;
      if (s.component == "monsoon" && s.name == "synth_block") {
        blocks += s.weight;
      }
    }
    // Once the buffer cap has dropped spans (or a credit had no kept span
    // left to land on, or a runaway trace overflowed its tail buffer) the
    // buffer no longer covers the full history and exact conservation is
    // unprovable from it.
    if (tracer.dropped() > 0 || tracer.weight_uncredited() > 0 ||
        tracer.tail_overflows() > 0) {
      return;
    }
    const obs::MetricsSnapshot snap = ctx.sim->metrics().snapshot();
    const auto expect = [&](const char* family, std::uint64_t weighted,
                            const char* metric) {
      const double counted = snap.value_or(metric);
      if (static_cast<double>(weighted) != counted) {
        out.push_back({name(), std::string{family} + " weighted span sum " +
                                   std::to_string(weighted) + " != " + metric +
                                   " " + util::format_double(counted, 0)});
      }
    };
    expect("mirror/frame", frames + tracer.tail_pending("mirror", "frame"),
           "blab_mirror_frames_total");
    expect("monsoon/synth_block",
           blocks + tracer.tail_pending("monsoon", "synth_block"),
           "blab_monsoon_synth_blocks_total");
  }
};

class RollupAccuracyOracle : public InvariantOracle {
 public:
  const char* name() const override { return "rollup-accuracy"; }

  void check(const OracleContext& ctx,
             std::vector<OracleFinding>& out) override {
    server::AccessServer* server = ctx.server;
    if (server == nullptr || !server->health_enabled()) return;
    health::RollupEngine* engine = server->rollup_engine();
    store::CaptureStore& store = server->capture_store();

    // Independent fold over the catalog, in the engine's documented order
    // and arithmetic (ascending CaptureId, plain double accumulation) — the
    // fleet rollup must reproduce it EXACTLY, no tolerance. The tail
    // quantiles' reference is the sort: a Cdf over the pooled percentiles().
    double energy = 0.0;
    double charge = 0.0;
    double mean_acc = 0.0;
    std::uint64_t samples = 0;
    std::size_t captures = 0;
    std::vector<double> pooled;
    for (const store::CaptureId& id :
         store.catalog(util::TimePoint::epoch(), util::TimePoint::max())) {
      const auto summary = store.summary(id);
      if (!summary.ok()) continue;
      const store::CaptureSummary& s = summary.value();
      energy += s.energy_mwh;
      charge += s.charge_mah;
      mean_acc += s.mean_ma * static_cast<double>(s.samples);
      samples += s.samples;
      ++captures;
      if (const auto cdf = store.percentiles(id); cdf.ok()) {
        const std::vector<double>& points = cdf.value().samples();
        pooled.insert(pooled.end(), points.begin(), points.end());
      }
      // Chain to ground truth: the summary's energy must be exactly the
      // store's canonical footer integral (warm and cold paths agree); that
      // integral's physical accuracy against the relay board's analytic
      // model is the energy-conservation oracle's job.
      const auto direct = store.energy_mwh(id);
      if (!direct.ok() || direct.value() != s.energy_mwh) {
        out.push_back({name(),
                       "summary energy diverges from footer integral for " +
                           id.str()});
      }
    }
    const double mean = samples > 0
                            ? mean_acc / static_cast<double>(samples)
                            : 0.0;

    const health::Rollup fleet =
        engine->compute(health::RollupScope::kFleet);
    if (fleet.captures_scanned != captures || fleet.groups.size() > 1) {
      out.push_back({name(), "fleet rollup scanned " +
                                 std::to_string(fleet.captures_scanned) +
                                 " captures in " +
                                 std::to_string(fleet.groups.size()) +
                                 " group(s), expected " +
                                 std::to_string(captures) + " in <= 1"});
      return;
    }
    if (captures == 0) return;
    const health::RollupGroup& g = fleet.groups.front();
    const auto exact = [&](const char* field, double got, double want) {
      if (got != want) {
        out.push_back({name(), std::string{"fleet rollup "} + field + " " +
                                   util::format_double(got, 9) +
                                   " != recomputed " +
                                   util::format_double(want, 9)});
      }
    };
    exact("energy_mwh", g.energy_mwh, energy);
    exact("charge_mah", g.charge_mah, charge);
    exact("mean_ma", g.mean_ma, mean);
    const util::Cdf tail{std::move(pooled)};
    const auto same_bits = [&](const char* field, double got, double want) {
      if (std::bit_cast<std::uint64_t>(got) !=
          std::bit_cast<std::uint64_t>(want)) {
        // 17 decimals, so that values a few ulps apart print apart.
        out.push_back({name(), std::string{"fleet rollup "} + field + " " +
                                   util::format_double(got, 17) +
                                   " is not the sorted pool's " +
                                   util::format_double(want, 17)});
      }
    };
    same_bits("p95_ma", g.p95_ma, tail.empty() ? 0.0 : tail.quantile(0.95));
    same_bits("p99_ma", g.p99_ma, tail.empty() ? 0.0 : tail.quantile(0.99));
    if (g.samples != samples || g.captures != captures) {
      out.push_back({name(), "fleet rollup counts diverge: " +
                                 std::to_string(g.captures) + "/" +
                                 std::to_string(g.samples) + " vs " +
                                 std::to_string(captures) + "/" +
                                 std::to_string(samples)});
    }

    // Job- and vantage-scoped rollups must partition the fleet: identical
    // capture/sample counts, and the same energy up to summation order
    // (per-group partial sums re-associate the additions).
    for (const auto scope :
         {health::RollupScope::kJob, health::RollupScope::kVantage}) {
      const health::Rollup partitioned = engine->compute(scope);
      std::uint64_t part_samples = 0;
      std::size_t part_captures = 0;
      double part_energy = 0.0;
      for (const health::RollupGroup& group : partitioned.groups) {
        part_samples += group.samples;
        part_captures += group.captures;
        part_energy += group.energy_mwh;
      }
      if (part_captures != captures || part_samples != samples) {
        out.push_back({name(),
                       std::string{health::rollup_scope_name(scope)} +
                           " rollup does not partition the fleet: " +
                           std::to_string(part_captures) + "/" +
                           std::to_string(part_samples) + " vs " +
                           std::to_string(captures) + "/" +
                           std::to_string(samples)});
      }
      if (std::abs(part_energy - energy) >
          1e-9 * std::max(1.0, std::abs(energy))) {
        out.push_back({name(),
                       std::string{health::rollup_scope_name(scope)} +
                           " rollup energy " +
                           util::format_double(part_energy, 9) +
                           " diverges from fleet " +
                           util::format_double(energy, 9)});
      }
    }
  }
};

}  // namespace

OracleRegistry::OracleRegistry() {
  add(std::make_unique<ClockMonotonicityOracle>());
  add(std::make_unique<SchedulerSafetyOracle>());
  add(std::make_unique<CreditLedgerOracle>());
  add(std::make_unique<EnergyConservationOracle>());
  add(std::make_unique<BatterySanityOracle>());
  add(std::make_unique<MirroringLifecycleOracle>());
  add(std::make_unique<DnsCertConsistencyOracle>());
  add(std::make_unique<MetricAccountingOracle>());
  add(std::make_unique<TraceIntegrityOracle>());
  add(std::make_unique<RetryChainOracle>());
  add(std::make_unique<SpanConservationOracle>());
  add(std::make_unique<RollupAccuracyOracle>());
}

void OracleRegistry::add(std::unique_ptr<InvariantOracle> oracle) {
  oracles_.push_back(std::move(oracle));
}

std::vector<std::string> OracleRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(oracles_.size());
  for (const auto& oracle : oracles_) out.emplace_back(oracle->name());
  return out;
}

std::vector<OracleFinding> OracleRegistry::run(const OracleContext& ctx) {
  std::vector<OracleFinding> findings;
  for (const auto& oracle : oracles_) oracle->check(ctx, findings);
  return findings;
}

}  // namespace blab::testing
