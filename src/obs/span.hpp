// Sim-time component spans with causal trace propagation.
//
// A span is a named, nested interval of simulated time attributed to a
// component ("scheduler", "store", ...). Spans are stamped from the owning
// Simulator's clock (injected as a plain microseconds callback so obs does
// not depend on sim), never from the wall clock — a traced DST run produces
// the same spans every time.
//
// Every span belongs to a trace: a causal tree rooted at one top-level
// operation (typically a scheduler job). Synchronous nesting is implicit —
// a ScopedSpan opened while another is open becomes its child and joins its
// trace. Asynchronous work (sim event callbacks, flows, mirroring probes)
// carries an explicit TraceContext captured where the work was scheduled:
//
//   obs::ScopedSpan span{&sim.tracer(), "scheduler", "run_job",
//                        obs::TraceContext{job.trace_id, job.root_span}};
//   span.attr("device", serial);
//
// Spans that outlive the caller's scope (job roots, in-flight flows) are
// opened detached via begin_detached() and closed by id; they never sit on
// the LIFO stack, so unrelated synchronous spans can open and close freely
// while they are in flight.
//
// The tracer keeps a bounded in-memory buffer of finished spans (newest
// dropped past the cap, with a counter) and a bounded per-trace index for
// O(trace) lookup. obs/export's encode_trace_json renders spans as Chrome
// trace-event JSON for Perfetto, the one span export format.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/logging.hpp"

namespace blab::obs {

/// Causal position handed to asynchronous work: the trace it belongs to and
/// the span that caused it. A default-constructed context is "no context":
/// the receiving span starts a fresh trace.
struct TraceContext {
  std::uint64_t trace = 0;
  std::uint64_t span = 0;

  bool valid() const { return trace != 0; }
};

/// A typed causal edge to a span in *another* trace. Parent/child edges
/// stay within one trace tree; links connect trees — e.g. a resubmitted
/// job's fresh trace carries a "retry_of" link to its predecessor's root,
/// so a job's full retry history is one walkable chain.
struct SpanLink {
  std::uint64_t trace = 0;
  std::uint64_t span = 0;
  std::string kind;  ///< e.g. "retry_of"
};

/// One typed key/value attached to a span (sample counts, byte totals,
/// device serials). Kept as a tagged struct rather than a variant so the
/// record stays trivially copyable-ish and cheap to render.
struct SpanAttr {
  enum class Kind : std::uint8_t { kInt, kDouble, kString };

  std::string key;
  Kind kind = Kind::kInt;
  std::int64_t i = 0;
  double d = 0.0;
  std::string s;
};

struct SpanRecord {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root of its trace
  std::uint64_t trace = 0;   ///< trace (causal tree) this span belongs to
  std::uint32_t depth = 0;
  std::string component;
  std::string name;
  std::int64_t start_us = 0;
  std::int64_t end_us = 0;
  /// Sampling weight: how many spans of this (component, name, trace)
  /// family this record stands for. 1 unless a sampling policy applies; a
  /// policy-dropped span is never buffered and instead credits +1 here on
  /// the last kept span of its family, so weighted aggregates over the
  /// buffer equal the exact unsampled counts.
  std::uint64_t weight = 1;
  std::vector<SpanAttr> attrs;
  std::vector<SpanLink> links;

  std::int64_t duration_us() const { return end_us - start_us; }
  /// String attribute lookup ("" when absent or not a string).
  std::string_view attr_str(std::string_view key) const;
};

class Tracer {
 public:
  /// Hard ceiling on attributes per span; extras are silently ignored.
  static constexpr std::size_t kMaxAttrsPerSpan = 16;
  /// Hard ceiling on cross-trace links per span; extras are ignored.
  static constexpr std::size_t kMaxLinksPerSpan = 4;
  /// Bounds on the per-trace index (the span buffer itself is bounded by
  /// max_spans). Traces past the cap still record spans, just unindexed.
  static constexpr std::size_t kMaxIndexedTraces = 1024;
  static constexpr std::size_t kMaxIndexedSpansPerTrace = 4096;
  /// Bound on one family's undecided tail-sampling buffer per trace; on
  /// overflow the buffered prefix is flushed through head sampling (so a
  /// runaway trace cannot hold unbounded spans hostage) and buffering
  /// resumes for the remainder.
  static constexpr std::size_t kMaxTailPendingPerTrace = 4096;

  /// `clock` returns the current simulated time in microseconds.
  explicit Tracer(std::function<std::int64_t()> clock,
                  std::size_t max_spans = 65536);

  /// Open a span; returns its id. With a valid context the span joins that
  /// trace as a child of ctx.span; otherwise it nests under the currently
  /// open span, or roots a fresh trace when the stack is empty.
  std::uint64_t begin(std::string_view component, std::string_view name,
                      TraceContext ctx = {});
  /// Open a span that is NOT on the LIFO stack: it can stay open across
  /// arbitrary synchronous spans and sim events until end(id). With a valid
  /// context it joins that trace; otherwise it roots a fresh trace (detached
  /// spans never inherit from the stack — they outlive it).
  std::uint64_t begin_detached(std::string_view component,
                               std::string_view name, TraceContext ctx = {});
  /// Close a span by id. Tolerates misuse: id 0, an already-closed or
  /// unknown id, and out-of-order ends are each logged once per kind and
  /// counted in end_mismatches() instead of corrupting the buffer. An
  /// out-of-order end still closes the (leaked) spans opened above it.
  void end(std::uint64_t id);

  /// Context of the innermost open stack span ({0,0} when idle). Capture
  /// this BEFORE scheduling async work so the callback's span parents here.
  TraceContext current() const;
  /// Context of a specific open span (stack or detached); {0,0} if unknown.
  TraceContext context_of(std::uint64_t id) const;

  /// Attach a typed attribute to an open span. No-op on unknown ids or past
  /// the per-span cap.
  void set_attr(std::uint64_t id, std::string_view key, std::int64_t value);
  void set_attr(std::uint64_t id, std::string_view key, double value);
  void set_attr(std::uint64_t id, std::string_view key,
                std::string_view value);

  /// Attach a typed cross-trace link to an open span (stack or detached).
  /// No-op on unknown ids or past kMaxLinksPerSpan.
  void add_link(std::uint64_t id, SpanLink link);

  /// Weighted tail-based sampling for a high-frequency (component, name)
  /// family. Finished spans of the family buffer per trace as *pending*
  /// until the trace's root span ends. If `tail_threshold_us > 0` and the
  /// root ran at least that long, the trace is a slow outlier and every
  /// pending span commits at weight 1 (full fidelity). Otherwise the buffer
  /// is head-sampled: keep 1 in `keep_one_in` (the first is always kept),
  /// each dropped span adding +1 weight to the last kept span of its family
  /// and trace. The decision uses sim time and counters only, so it is
  /// deterministic and replay-stable. Conservation contract: sum-of-weights
  /// over kept spans plus tail_pending() of the family equals the exact
  /// span count at every instant. A family span that finishes after its
  /// root has ended commits at weight 1. Calling this again for a family
  /// overwrites its parameters; they apply at each trace's next decision.
  /// `keep_one_in <= 1` keeps every span. Only apply to leaf spans: a
  /// dropped span's children would become unreachable in their trace.
  void set_tail_sampling(std::string_view component, std::string_view name,
                         std::uint64_t keep_one_in,
                         std::int64_t tail_threshold_us);

  const std::vector<SpanRecord>& spans() const { return finished_; }
  std::size_t open_depth() const { return open_.size(); }
  /// Open spans including detached ones.
  std::size_t open_total() const { return open_.size() + detached_.size(); }
  std::uint64_t dropped() const { return dropped_; }
  std::uint64_t end_mismatches() const { return end_mismatches_; }
  std::uint64_t index_dropped() const { return index_dropped_; }
  /// Spans dropped by a sampling policy (their weight was credited to a
  /// kept sibling unless counted in weight_uncredited()).
  std::uint64_t sampled_out() const { return sampled_out_; }
  /// Sampled-out spans whose family had no kept span left in the buffer to
  /// credit (only possible once the buffer cap has dropped spans); nonzero
  /// means weighted aggregates undercount by exactly this much.
  std::uint64_t weight_uncredited() const { return weight_uncredited_; }
  std::uint64_t links_added() const { return links_added_; }

  /// Spans of tail-sampled families whose trace root has not ended yet:
  /// buffered, undecided, each still carrying its own unit of weight.
  /// Totalled over all families, or for one family.
  std::uint64_t tail_pending() const { return tail_pending_total_; }
  std::uint64_t tail_pending(std::string_view component,
                             std::string_view name) const;
  /// Traces decided as slow outliers (kept at full fidelity) so far.
  std::uint64_t tail_slow_traces() const { return tail_slow_traces_; }
  /// Times a (family, trace) pending buffer hit kMaxTailPendingPerTrace and
  /// its prefix was head-sampled before the root ended.
  std::uint64_t tail_overflows() const { return tail_overflows_; }

  /// All trace ids with at least one finished, indexed span (ascending).
  std::vector<std::uint64_t> trace_ids() const;
  /// Finished spans of one trace, in finish order. Empty for unknown ids.
  std::vector<const SpanRecord*> spans_in(std::uint64_t trace) const;
  /// Count of still-open spans (stack + detached) in a trace.
  std::size_t open_in_trace(std::uint64_t trace) const;
  /// First trace (ascending id) whose root span carries the given string
  /// attribute value; 0 when none matches.
  std::uint64_t find_trace_by_root_attr(std::string_view key,
                                        std::string_view value) const;

  void clear();

 private:
  /// One registered sampling policy. Families are few (hand-registered per
  /// component), so lookups are linear scans over this vector. Policies are
  /// never erased, so an index names the same family for good.
  struct SamplingPolicy {
    std::string component;
    std::string name;
    std::uint64_t keep_one_in = 1;     ///< >= 1
    std::int64_t tail_threshold_us = 0;  ///< <= 0: never a slow outlier
  };
  /// Sampling state of one policy's family within one live trace.
  struct FamilySample {
    std::uint64_t count = 0;      ///< head-sampling decisions made so far
    std::uint32_t last_kept = 0;  ///< index into finished_ of the last kept
    bool has_kept = false;
    std::vector<SpanRecord> pending;  ///< finished, undecided, finish order
  };
  static constexpr std::size_t kNoPolicy = static_cast<std::size_t>(-1);

  SpanRecord make_record(std::string_view component, std::string_view name,
                         TraceContext ctx, bool inherit_stack);
  void finish_record(SpanRecord&& record, std::int64_t now);
  /// Append to finished_ and the trace index; false if the cap dropped it.
  bool commit_record(SpanRecord&& record);
  /// Root of `trace` ended: decide every family's pending spans in policy
  /// order and forget the trace's sampling state.
  void settle_trace(std::uint64_t trace, std::int64_t root_duration_us);
  /// Commit a family's pending spans: all of them, or 1 in keep_one_in.
  void flush(FamilySample& family, std::size_t fam, bool keep_all);
  const SpanRecord* find_open(std::uint64_t id) const;
  SpanRecord* find_open(std::uint64_t id) {
    return const_cast<SpanRecord*>(std::as_const(*this).find_open(id));
  }
  /// New attribute on an open span; nullptr on unknown ids or at the cap.
  SpanAttr* add_attr(std::uint64_t id, std::string_view key,
                     SpanAttr::Kind kind);
  /// Index into policies_ for this family, or kNoPolicy.
  std::size_t policy_index(std::string_view component,
                           std::string_view name) const;

  std::function<std::int64_t()> clock_;
  std::size_t max_spans_;
  std::uint64_t next_id_ = 1;
  std::uint64_t next_trace_ = 1;
  std::uint64_t dropped_ = 0;
  std::uint64_t end_mismatches_ = 0;
  std::uint64_t index_dropped_ = 0;
  std::uint64_t sampled_out_ = 0;
  std::uint64_t weight_uncredited_ = 0;
  std::uint64_t links_added_ = 0;
  std::uint64_t tail_pending_total_ = 0;
  std::uint64_t tail_slow_traces_ = 0;
  std::uint64_t tail_overflows_ = 0;
  std::vector<SamplingPolicy> policies_;
  /// Trace whose root has not ended -> per-policy sampling state (indexed
  /// like policies_, grown on demand). Created with the trace id, erased
  /// when the root ends.
  std::map<std::uint64_t, std::vector<FamilySample>> live_traces_;
  std::vector<SpanRecord> open_;
  std::map<std::uint64_t, SpanRecord> detached_;
  std::vector<SpanRecord> finished_;
  /// trace id -> indices into finished_, in finish order.
  std::map<std::uint64_t, std::vector<std::uint32_t>> trace_index_;
  util::OncePerKey misuse_once_;
};

/// RAII span. Tolerates a null tracer (spans become no-ops), so call sites
/// do not need to guard on telemetry being wired up.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, std::string_view component, std::string_view name,
             TraceContext ctx = {})
      : tracer_{tracer} {
    if (tracer_ != nullptr) id_ = tracer_->begin(component, name, ctx);
  }
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->end(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::uint64_t id() const { return id_; }
  /// Context for child work scheduled from inside this span.
  TraceContext context() const {
    return tracer_ == nullptr ? TraceContext{} : tracer_->context_of(id_);
  }

  void attr(std::string_view key, std::int64_t value) {
    if (tracer_ != nullptr) tracer_->set_attr(id_, key, value);
  }
  void attr(std::string_view key, double value) {
    if (tracer_ != nullptr) tracer_->set_attr(id_, key, value);
  }
  void attr(std::string_view key, std::string_view value) {
    if (tracer_ != nullptr) tracer_->set_attr(id_, key, value);
  }

 private:
  Tracer* tracer_;
  std::uint64_t id_ = 0;
};

}  // namespace blab::obs
