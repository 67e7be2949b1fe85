#include "obs/aggregate.hpp"

#include <algorithm>
#include <map>

#include "util/strings.hpp"

namespace blab::obs {
namespace {

/// Per-trace view of the span forest: spans by id, children by parent id
/// (sorted by start then id, so sweeps are deterministic), and the roots —
/// spans with no parent *in the input*, so a trace whose ancestors fell out
/// of the buffer still aggregates instead of vanishing.
struct TraceView {
  std::map<std::uint64_t, const SpanRecord*> by_id;
  std::map<std::uint64_t, std::vector<const SpanRecord*>> children;
  std::vector<const SpanRecord*> roots;
};

void sort_spans(std::vector<const SpanRecord*>& spans) {
  std::sort(spans.begin(), spans.end(),
            [](const SpanRecord* a, const SpanRecord* b) {
              return a->start_us != b->start_us ? a->start_us < b->start_us
                                                : a->id < b->id;
            });
}

TraceView make_view(const std::vector<const SpanRecord*>& spans) {
  TraceView view;
  for (const SpanRecord* s : spans) view.by_id.emplace(s->id, s);
  for (const SpanRecord* s : spans) {
    // A tracer never reuses span ids, but callers can hand us spans pooled
    // from several tracers. A duplicated id would alias distinct records in
    // the children lookup, so every duplicate re-walks the shared subtree —
    // exponential in depth. Keep the first record per id, drop the rest.
    if (view.by_id.at(s->id) != s) continue;
    if (s->parent != 0 && view.by_id.contains(s->parent)) {
      view.children[s->parent].push_back(s);
    } else {
      view.roots.push_back(s);
    }
  }
  sort_spans(view.roots);
  for (auto& [parent, kids] : view.children) sort_spans(kids);
  return view;
}

/// Group by trace id (ascending), preserving input order within a trace.
std::map<std::uint64_t, std::vector<const SpanRecord*>> by_trace(
    const std::vector<const SpanRecord*>& spans) {
  std::map<std::uint64_t, std::vector<const SpanRecord*>> traces;
  for (const SpanRecord* s : spans) traces[s->trace].push_back(s);
  return traces;
}

/// Find-or-insert the child slot for (component, name), kept sorted.
FlameNode& slot(FlameNode& parent, const std::string& component,
                const std::string& name) {
  auto it = std::lower_bound(
      parent.children.begin(), parent.children.end(), std::tie(component, name),
      [](const FlameNode& node, const auto& key) {
        return std::tie(node.component, node.name) < key;
      });
  if (it == parent.children.end() || it->component != component ||
      it->name != name) {
    it = parent.children.insert(it, FlameNode{});
    it->component = component;
    it->name = name;
  }
  return *it;
}

/// Sum of this span's child intervals, clipped to the span and with
/// overlaps counted once (children are sorted by start).
std::int64_t child_coverage(const SpanRecord* s,
                            const std::vector<const SpanRecord*>& kids) {
  std::int64_t covered = 0;
  std::int64_t cursor = s->start_us;
  for (const SpanRecord* kid : kids) {
    const std::int64_t lo = std::max(kid->start_us, cursor);
    const std::int64_t hi = std::min(kid->end_us, s->end_us);
    if (hi <= lo) continue;
    covered += hi - lo;
    cursor = hi;
  }
  return covered;
}

void fold_span(FlameNode& parent, const SpanRecord* s, const TraceView& view) {
  FlameNode& node = slot(parent, s->component, s->name);
  // Weight scales a kept span up to the family count it stands for; sampled
  // families are leaves (set_tail_sampling contract), so scaling total
  // without scaling child coverage never goes negative.
  const std::uint64_t w = s->weight;
  node.count += w;
  const std::int64_t weighted =
      s->duration_us() * static_cast<std::int64_t>(w);
  node.total_us += weighted;
  static const std::vector<const SpanRecord*> kNone;
  const auto kids = view.children.find(s->id);
  const auto& children = kids == view.children.end() ? kNone : kids->second;
  node.self_us += weighted - child_coverage(s, children);
  for (const SpanRecord* kid : children) fold_span(node, kid, view);
}

/// Attribute the [lo, hi) slice of `s`'s interval: gaps between (clipped,
/// non-overlapping) children go to s's own segment, child slices recurse.
/// The slices partition [lo, hi), so segment sums are exact.
void attribute(const SpanRecord* s, std::int64_t lo, std::int64_t hi,
               const TraceView& view,
               std::array<std::int64_t, kPathSegmentCount>& out) {
  auto& own = out[static_cast<std::size_t>(segment_of(*s))];
  std::int64_t cursor = lo;
  const auto kids = view.children.find(s->id);
  if (kids != view.children.end()) {
    for (const SpanRecord* kid : kids->second) {
      const std::int64_t klo = std::max(kid->start_us, cursor);
      const std::int64_t khi = std::min(kid->end_us, hi);
      if (khi <= klo) continue;
      if (klo > cursor) own += klo - cursor;
      attribute(kid, klo, khi, view, out);
      cursor = khi;
    }
  }
  if (hi > cursor) own += hi - cursor;
}

void encode_node(std::string& out, const FlameNode& node) {
  out += "{\"component\":";
  util::append_json_string(out, node.component);
  out += ",\"name\":";
  util::append_json_string(out, node.name);
  out += ",\"count\":" + std::to_string(node.count) +
         ",\"total_us\":" + std::to_string(node.total_us) +
         ",\"self_us\":" + std::to_string(node.self_us) + ",\"children\":[";
  bool sep = false;
  for (const FlameNode& child : node.children) {
    if (sep) out += ',';
    sep = true;
    encode_node(out, child);
  }
  out += "]}";
}

std::vector<const SpanRecord*> as_pointers(
    const std::vector<SpanRecord>& spans) {
  std::vector<const SpanRecord*> out;
  out.reserve(spans.size());
  for (const SpanRecord& s : spans) out.push_back(&s);
  return out;
}

}  // namespace

const FlameNode* FlameNode::find(std::string_view component_,
                                 std::string_view name_) const {
  for (const FlameNode& child : children) {
    if (child.component == component_ && child.name == name_) return &child;
  }
  return nullptr;
}

const char* path_segment_name(PathSegment segment) {
  switch (segment) {
    case PathSegment::kQueueWait: return "queue_wait";
    case PathSegment::kDispatch: return "dispatch";
    case PathSegment::kNetwork: return "network";
    case PathSegment::kCapture: return "capture";
    case PathSegment::kStore: return "store";
    case PathSegment::kMirror: return "mirror";
    case PathSegment::kOther: return "other";
  }
  return "?";
}

PathSegment segment_of(const SpanRecord& span) {
  if (span.component == "scheduler") {
    // The job root's own time is spent queued (or idling between child
    // work); everything else under the scheduler is dispatch machinery.
    return span.name == "job" ? PathSegment::kQueueWait
                              : PathSegment::kDispatch;
  }
  if (span.component == "net") return PathSegment::kNetwork;
  if (span.component == "api" || span.component == "monsoon") {
    return PathSegment::kCapture;
  }
  if (span.component == "store" || span.component == "persist") {
    return PathSegment::kStore;
  }
  if (span.component == "mirror") return PathSegment::kMirror;
  return PathSegment::kOther;
}

FlameNode build_flame(const std::vector<const SpanRecord*>& spans) {
  FlameNode root;
  for (const auto& [trace, trace_spans] : by_trace(spans)) {
    const TraceView view = make_view(trace_spans);
    for (const SpanRecord* s : view.roots) fold_span(root, s, view);
  }
  for (const FlameNode& child : root.children) root.count += child.count;
  return root;
}

FlameNode build_flame(const std::vector<SpanRecord>& spans) {
  return build_flame(as_pointers(spans));
}

std::vector<CriticalPath> critical_paths(
    const std::vector<const SpanRecord*>& spans) {
  std::vector<CriticalPath> out;
  for (const auto& [trace, trace_spans] : by_trace(spans)) {
    const TraceView view = make_view(trace_spans);
    const SpanRecord* root = nullptr;
    for (const SpanRecord* s : view.roots) {
      if (s->component == "scheduler" && s->name == "job") {
        root = s;
        break;
      }
    }
    if (root == nullptr) continue;  // not a job trace
    CriticalPath path;
    path.trace = trace;
    path.job = root->attr_str("job");
    path.total_us = root->duration_us();
    attribute(root, root->start_us, root->end_us, view, path.segment_us);
    out.push_back(std::move(path));
  }
  return out;
}

std::vector<CriticalPath> critical_paths(const std::vector<SpanRecord>& spans) {
  return critical_paths(as_pointers(spans));
}

std::string encode_flame_json(const FlameNode& root,
                              const std::vector<CriticalPath>& paths) {
  std::string out = "{\"flame\":";
  encode_node(out, root);
  out += ",\"critical_paths\":[";
  bool sep = false;
  for (const CriticalPath& path : paths) {
    if (sep) out += ',';
    sep = true;
    out += "{\"trace\":" + std::to_string(path.trace) + ",\"job\":";
    util::append_json_string(out, path.job);
    out += ",\"total_us\":" + std::to_string(path.total_us) +
           ",\"segments\":{";
    for (std::size_t i = 0; i < kPathSegmentCount; ++i) {
      if (i > 0) out += ',';
      util::append_json_string(
          out, path_segment_name(static_cast<PathSegment>(i)));
      out += ':' + std::to_string(path.segment_us[i]);
    }
    out += "}}";
  }
  out += "]}";
  return out;
}

}  // namespace blab::obs
