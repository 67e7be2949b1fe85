// Trace analytics: flame aggregation and critical-path decomposition.
//
// The tracer records a forest of causal trees (one per trace). These folds
// turn that forest into two operator-facing summaries:
//
//  * build_flame merges every trace by (component, name) path into one flame
//    tree: each node holds the weighted span count, total duration, and self
//    time (duration not covered by child spans) of all spans that reached it
//    via the same ancestry. Sampled families fold in exactly — a kept span's
//    weight is the number of spans it stands for, so flame counts equal the
//    unsampled counters (see Tracer::set_tail_sampling).
//
//  * critical_paths decomposes each job trace's root interval into named
//    segments (queue-wait, dispatch, network, capture, store, mirror, other)
//    by a cursor sweep: every microsecond of the root interval is attributed
//    to the deepest span covering it, clipped so overlapping children never
//    double-count. Segment sums always equal the root duration exactly.
//
// Both folds are pure functions of the span records: deterministic input
// (DST spans are byte-stable across thread counts) gives deterministic
// output, byte for byte.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/span.hpp"

namespace blab::obs {

/// One merged node of the flame tree. Children are sorted by
/// (component, name), so encoding the tree is deterministic.
struct FlameNode {
  std::string component;
  std::string name;
  /// Weighted number of spans merged into this node (sum of span weights,
  /// which equals the exact pre-sampling span count).
  std::uint64_t count = 0;
  /// Sum of merged span durations, weighted: a span standing for `weight`
  /// sampled siblings contributes weight * duration.
  std::int64_t total_us = 0;
  /// Portion of total_us not covered by this node's children (overlapping
  /// children count once).
  std::int64_t self_us = 0;
  std::vector<FlameNode> children;

  /// Child with this identity, or nullptr.
  const FlameNode* find(std::string_view component_,
                        std::string_view name_) const;
};

/// Fold finished spans (any mix of traces) into one merged flame tree. The
/// returned node is a synthetic forest root (empty component/name, zero
/// times) whose children are the merged trace roots; spans whose parent is
/// missing from the input are treated as roots rather than dropped.
FlameNode build_flame(const std::vector<SpanRecord>& spans);
FlameNode build_flame(const std::vector<const SpanRecord*>& spans);

/// Critical-path segments, in encoding order.
enum class PathSegment : std::uint8_t {
  kQueueWait,  ///< root self time: queued, or idling between child work
  kDispatch,   ///< scheduler dispatch machinery (run_job)
  kNetwork,    ///< net component: flows, VPN connect/disconnect
  kCapture,    ///< measurement path: api calls + Monsoon synthesis
  kStore,      ///< capture archival
  kMirror,     ///< mirroring session + probe pipeline
  kOther,      ///< anything else
};
inline constexpr std::size_t kPathSegmentCount = 7;

const char* path_segment_name(PathSegment segment);

/// Segment a span contributes its (un-covered) time to.
PathSegment segment_of(const SpanRecord& span);

/// One job trace's root interval decomposed into segments. The segment sums
/// equal total_us exactly — attribution is a partition of the interval.
struct CriticalPath {
  std::uint64_t trace = 0;
  std::string job;  ///< root span's "job" attribute ("" when absent)
  std::int64_t total_us = 0;
  std::array<std::int64_t, kPathSegmentCount> segment_us{};

  std::int64_t segment(PathSegment s) const {
    return segment_us[static_cast<std::size_t>(s)];
  }
};

/// Decompose every trace rooted by a scheduler/job span, ordered by trace
/// id. Traces without such a root (mirror-only, fuzz harness spans) are
/// skipped — they have no job to attribute.
std::vector<CriticalPath> critical_paths(
    const std::vector<SpanRecord>& spans);
std::vector<CriticalPath> critical_paths(
    const std::vector<const SpanRecord*>& spans);

/// {"flame":{...nested nodes...},"critical_paths":[...]} — deterministic
/// for deterministic input.
std::string encode_flame_json(const FlameNode& root,
                              const std::vector<CriticalPath>& paths);

}  // namespace blab::obs
