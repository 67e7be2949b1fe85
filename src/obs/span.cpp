#include "obs/span.hpp"

#include <algorithm>
#include <cstddef>
#include <utility>

namespace blab::obs {

std::string_view SpanRecord::attr_str(std::string_view key) const {
  for (const SpanAttr& a : attrs) {
    if (a.key == key && a.kind == SpanAttr::Kind::kString) return a.s;
  }
  return {};
}

Tracer::Tracer(std::function<std::int64_t()> clock, std::size_t max_spans)
    : clock_{std::move(clock)}, max_spans_{max_spans} {}

std::size_t Tracer::policy_index(std::string_view component,
                                 std::string_view name) const {
  for (std::size_t i = 0; i < policies_.size(); ++i) {
    if (policies_[i].component == component && policies_[i].name == name) {
      return i;
    }
  }
  return kNoPolicy;
}

void Tracer::set_tail_sampling(std::string_view component,
                               std::string_view name,
                               std::uint64_t keep_one_in,
                               std::int64_t tail_threshold_us) {
  std::size_t fam = policy_index(component, name);
  if (fam == kNoPolicy) {
    fam = policies_.size();
    policies_.push_back({std::string{component}, std::string{name}});
  }
  policies_[fam].keep_one_in = std::max<std::uint64_t>(keep_one_in, 1);
  policies_[fam].tail_threshold_us = tail_threshold_us;
}

SpanRecord Tracer::make_record(std::string_view component,
                               std::string_view name, TraceContext ctx,
                               bool inherit_stack) {
  SpanRecord rec;
  rec.id = next_id_++;
  if (ctx.valid()) {
    rec.trace = ctx.trace;
    rec.parent = ctx.span;
  } else if (inherit_stack && !open_.empty()) {
    rec.trace = open_.back().trace;
    rec.parent = open_.back().id;
  } else {
    rec.trace = next_trace_++;
    rec.parent = 0;
    live_traces_.try_emplace(live_traces_.end(), rec.trace);
  }
  rec.component = std::string{component};
  rec.name = std::string{name};
  rec.start_us = clock_();
  return rec;
}

std::uint64_t Tracer::begin(std::string_view component, std::string_view name,
                            TraceContext ctx) {
  const auto depth = static_cast<std::uint32_t>(open_.size());
  open_.push_back(make_record(component, name, ctx, /*inherit_stack=*/true));
  open_.back().depth = depth;
  return open_.back().id;
}

std::uint64_t Tracer::begin_detached(std::string_view component,
                                     std::string_view name, TraceContext ctx) {
  SpanRecord rec = make_record(component, name, ctx, /*inherit_stack=*/false);
  const std::uint64_t id = rec.id;
  detached_.emplace(id, std::move(rec));
  return id;
}

void Tracer::finish_record(SpanRecord&& record, std::int64_t now) {
  record.end_us = now;
  // Settle before committing the root, so kept children precede it in
  // finish order.
  if (record.parent == 0) settle_trace(record.trace, record.duration_us());
  const std::size_t fam = policy_index(record.component, record.name);
  const auto live = fam == kNoPolicy ? live_traces_.end()
                                     : live_traces_.find(record.trace);
  if (live == live_traces_.end()) {
    // Unsampled family, or a family span finishing after its root ended.
    commit_record(std::move(record));
    return;
  }
  std::vector<FamilySample>& families = live->second;
  if (families.size() <= fam) families.resize(fam + 1);
  FamilySample& family = families[fam];
  if (family.pending.size() >= kMaxTailPendingPerTrace) {
    // A runaway trace head-samples its prefix rather than growing without
    // bound.
    ++tail_overflows_;
    flush(family, fam, /*keep_all=*/false);
  }
  family.pending.push_back(std::move(record));
  ++tail_pending_total_;
}

bool Tracer::commit_record(SpanRecord&& record) {
  if (finished_.size() >= max_spans_) {
    ++dropped_;
    return false;
  }
  auto it = trace_index_.find(record.trace);
  if (it == trace_index_.end() && trace_index_.size() < kMaxIndexedTraces) {
    it = trace_index_.emplace(record.trace, std::vector<std::uint32_t>{}).first;
  }
  if (it != trace_index_.end() &&
      it->second.size() < kMaxIndexedSpansPerTrace) {
    it->second.push_back(static_cast<std::uint32_t>(finished_.size()));
  } else {
    ++index_dropped_;
  }
  finished_.push_back(std::move(record));
  return true;
}

void Tracer::settle_trace(std::uint64_t trace, std::int64_t root_duration_us) {
  const auto live = live_traces_.find(trace);
  if (live == live_traces_.end()) return;
  std::vector<FamilySample> families = std::move(live->second);
  live_traces_.erase(live);
  bool slow = false;
  for (std::size_t fam = 0; fam < families.size(); ++fam) {
    if (families[fam].pending.empty()) continue;
    const std::int64_t threshold = policies_[fam].tail_threshold_us;
    const bool keep_all = threshold > 0 && root_duration_us >= threshold;
    slow = slow || keep_all;
    flush(families[fam], fam, keep_all);
  }
  if (slow) ++tail_slow_traces_;
}

void Tracer::flush(FamilySample& family, std::size_t fam, bool keep_all) {
  const std::uint64_t keep_one_in = policies_[fam].keep_one_in;
  tail_pending_total_ -= family.pending.size();
  for (SpanRecord& rec : family.pending) {
    // The head counter advances only on head decisions: the first span of
    // each (family, trace) is kept, then 1 in keep_one_in.
    if (keep_all || family.count++ % keep_one_in == 0) {
      const auto at = static_cast<std::uint32_t>(finished_.size());
      if (commit_record(std::move(rec))) {
        family.last_kept = at;
        family.has_kept = true;
      }
      continue;
    }
    // Dropped: its unit of weight moves to the last kept span of the same
    // family and trace, keeping sum-of-weights equal to the span count.
    ++sampled_out_;
    if (family.has_kept) {
      finished_[family.last_kept].weight += 1;
    } else {
      ++weight_uncredited_;
    }
  }
  family.pending.clear();
}

std::uint64_t Tracer::tail_pending(std::string_view component,
                                   std::string_view name) const {
  const std::size_t fam = policy_index(component, name);
  std::uint64_t n = 0;
  for (const auto& [trace, families] : live_traces_) {
    if (fam < families.size()) n += families[fam].pending.size();
  }
  return n;
}

void Tracer::end(std::uint64_t id) {
  if (id == 0) return;  // null handle (e.g. ScopedSpan over a null tracer)
  const std::int64_t now = clock_();
  auto det = detached_.find(id);
  if (det != detached_.end()) {
    SpanRecord rec = std::move(det->second);
    detached_.erase(det);
    finish_record(std::move(rec), now);
    return;
  }
  std::size_t pos = open_.size();
  for (std::size_t i = open_.size(); i-- > 0;) {
    if (open_[i].id == id) {
      pos = i;
      break;
    }
  }
  if (pos == open_.size()) {
    ++end_mismatches_;
    if (misuse_once_.first("unmatched-end")) {
      BLAB_WARN_KV("obs", "span end without a matching open span; ignored",
                   {{"span_id", std::to_string(id)}});
    }
    return;
  }
  if (pos + 1 != open_.size()) {
    ++end_mismatches_;
    if (misuse_once_.first("out-of-order-end")) {
      BLAB_WARN_KV("obs",
                   "span ended out of order; closing spans left open above it",
                   {{"span_id", std::to_string(id)},
                    {"leaked", std::to_string(open_.size() - pos - 1)}});
    }
  }
  while (open_.size() > pos) {
    SpanRecord rec = std::move(open_.back());
    open_.pop_back();
    finish_record(std::move(rec), now);
  }
}

TraceContext Tracer::current() const {
  if (open_.empty()) return {};
  return TraceContext{open_.back().trace, open_.back().id};
}

TraceContext Tracer::context_of(std::uint64_t id) const {
  const SpanRecord* rec = find_open(id);
  return rec == nullptr ? TraceContext{} : TraceContext{rec->trace, id};
}

const SpanRecord* Tracer::find_open(std::uint64_t id) const {
  for (std::size_t i = open_.size(); i-- > 0;) {
    if (open_[i].id == id) return &open_[i];
  }
  auto det = detached_.find(id);
  if (det != detached_.end()) return &det->second;
  return nullptr;
}

SpanAttr* Tracer::add_attr(std::uint64_t id, std::string_view key,
                           SpanAttr::Kind kind) {
  SpanRecord* rec = find_open(id);
  if (rec == nullptr || rec->attrs.size() >= kMaxAttrsPerSpan) return nullptr;
  SpanAttr& a = rec->attrs.emplace_back();
  a.key = key;
  a.kind = kind;
  return &a;
}

void Tracer::set_attr(std::uint64_t id, std::string_view key,
                      std::int64_t value) {
  if (SpanAttr* a = add_attr(id, key, SpanAttr::Kind::kInt)) a->i = value;
}

void Tracer::set_attr(std::uint64_t id, std::string_view key, double value) {
  if (SpanAttr* a = add_attr(id, key, SpanAttr::Kind::kDouble)) a->d = value;
}

void Tracer::set_attr(std::uint64_t id, std::string_view key,
                      std::string_view value) {
  if (SpanAttr* a = add_attr(id, key, SpanAttr::Kind::kString)) a->s = value;
}

void Tracer::add_link(std::uint64_t id, SpanLink link) {
  SpanRecord* rec = find_open(id);
  if (rec == nullptr || rec->links.size() >= kMaxLinksPerSpan) return;
  rec->links.push_back(std::move(link));
  ++links_added_;
}

std::vector<std::uint64_t> Tracer::trace_ids() const {
  std::vector<std::uint64_t> ids;
  ids.reserve(trace_index_.size());
  for (const auto& [trace, indices] : trace_index_) {
    if (!indices.empty()) ids.push_back(trace);
  }
  return ids;
}

std::vector<const SpanRecord*> Tracer::spans_in(std::uint64_t trace) const {
  std::vector<const SpanRecord*> out;
  auto it = trace_index_.find(trace);
  if (it == trace_index_.end()) return out;
  out.reserve(it->second.size());
  for (std::uint32_t idx : it->second) out.push_back(&finished_[idx]);
  return out;
}

std::size_t Tracer::open_in_trace(std::uint64_t trace) const {
  std::size_t n = 0;
  for (const SpanRecord& rec : open_) {
    if (rec.trace == trace) ++n;
  }
  for (const auto& [id, rec] : detached_) {
    if (rec.trace == trace) ++n;
  }
  return n;
}

std::uint64_t Tracer::find_trace_by_root_attr(std::string_view key,
                                              std::string_view value) const {
  for (const auto& [trace, indices] : trace_index_) {
    for (std::uint32_t idx : indices) {
      const SpanRecord& rec = finished_[idx];
      if (rec.parent == 0 && rec.attr_str(key) == value) return trace;
    }
  }
  return 0;
}

void Tracer::clear() {
  open_.clear();
  detached_.clear();
  finished_.clear();
  trace_index_.clear();
  live_traces_.clear();  // policies survive: they are configuration
  tail_pending_total_ = 0;
  tail_slow_traces_ = 0;
  tail_overflows_ = 0;
  dropped_ = 0;
  end_mismatches_ = 0;
  index_dropped_ = 0;
  sampled_out_ = 0;
  weight_uncredited_ = 0;
  links_added_ = 0;
  next_id_ = 1;
  next_trace_ = 1;
  misuse_once_.reset();
}

}  // namespace blab::obs
