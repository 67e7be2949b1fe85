#include "store/capture_store.hpp"

#include <algorithm>
#include <cmath>

#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "store/persist/engine.hpp"
#include "util/logging.hpp"

namespace blab::store {
namespace {

util::Error not_found(const CaptureId& id) {
  return util::make_error(util::ErrorCode::kNotFound,
                          "no capture " + id.str());
}

}  // namespace

const char* capture_source_name(CaptureSource source) {
  switch (source) {
    case CaptureSource::kMemory: return "memory";
    case CaptureSource::kDisk: return "disk";
    case CaptureSource::kTier: return "tier";
  }
  return "?";
}

void CaptureStore::bump(obs::Counter* c, std::uint64_t n) {
  if (c != nullptr && n > 0) c->inc(n);
}

void CaptureStore::sync_record_gauge() {
  if (metrics_.records != nullptr) {
    metrics_.records->set(static_cast<double>(records_.size()));
  }
}

void CaptureStore::attach_metrics(obs::MetricsRegistry* registry) {
  if (registry == nullptr) {
    metrics_ = Metrics{};
    return;
  }
  obs::MetricsRegistry& m = *registry;
  metrics_.appended = &m.counter("blab_store_captures_appended_total");
  metrics_.chunks_written = &m.counter("blab_store_chunks_written_total");
  metrics_.bytes_raw = &m.counter("blab_store_bytes_raw_total");
  metrics_.bytes_encoded = &m.counter("blab_store_bytes_encoded_total");
  metrics_.decodes = &m.counter("blab_store_chunk_decodes_total");
  metrics_.cache_hits = &m.counter("blab_store_cache_hits_total");
  metrics_.cache_evictions = &m.counter("blab_store_cache_evictions_total");
  metrics_.raw_purges = &m.counter("blab_store_raw_purges_total");
  metrics_.record_purges = &m.counter("blab_store_record_purges_total");
  metrics_.tier_queries = &m.counter("blab_store_tier_queries_total");
  metrics_.records = &m.gauge("blab_store_records");
  // A store attached mid-life publishes what it has accumulated so far, so
  // the registry never under-reports relative to StoreStats.
  bump(metrics_.appended, stats_.captures_appended);
  bump(metrics_.chunks_written, stats_.chunks_written);
  bump(metrics_.bytes_raw, stats_.bytes_raw);
  bump(metrics_.bytes_encoded, stats_.bytes_encoded);
  bump(metrics_.decodes, stats_.raw_chunk_decodes);
  bump(metrics_.cache_hits, stats_.cache_hits);
  bump(metrics_.cache_evictions, stats_.cache_evictions);
  bump(metrics_.raw_purges, stats_.raw_purges);
  bump(metrics_.record_purges, stats_.record_purges);
  bump(metrics_.tier_queries, stats_.tier_queries);
  sync_record_gauge();
}

CaptureId CaptureStore::append(const std::string& workspace, std::string name,
                               const hw::Capture& capture,
                               util::TimePoint now) {
  CaptureId id{workspace, next_seq_++};
  obs::ScopedSpan span{tracer_, "store", "append_capture"};
  Record record;
  record.name = std::move(name);
  record.stored_at = now;
  record.capture = ChunkedCapture::encode(capture);
  const std::uint64_t chunks = record.capture.chunk_count();
  const std::uint64_t raw_bytes =
      static_cast<std::uint64_t>(capture.sample_count()) * sizeof(float);
  const std::uint64_t encoded_bytes = record.capture.byte_size();
  span.attr("workspace", workspace);
  span.attr("samples", static_cast<std::int64_t>(capture.sample_count()));
  span.attr("chunks", static_cast<std::int64_t>(chunks));
  span.attr("bytes_raw", static_cast<std::int64_t>(raw_bytes));
  span.attr("bytes_encoded", static_cast<std::int64_t>(encoded_bytes));
  const auto [it, inserted] = records_.emplace(id, std::move(record));
  if (persist_ != nullptr && inserted) {
    // Archive-through: the capture is durable once append() returns. A
    // failed archive keeps the in-memory record (still queryable this
    // process lifetime) and is surfaced as a warning, not an exception.
    if (auto st = persist_->append(id, it->second.name, now,
                                   it->second.capture);
        !st.ok()) {
      BLAB_WARN("store", "archive-through failed for " << id.str() << ": "
                                                       << st.str());
    }
  }
  ++stats_.captures_appended;
  stats_.chunks_written += chunks;
  stats_.bytes_raw += raw_bytes;
  stats_.bytes_encoded += encoded_bytes;
  bump(metrics_.appended);
  bump(metrics_.chunks_written, chunks);
  bump(metrics_.bytes_raw, raw_bytes);
  bump(metrics_.bytes_encoded, encoded_bytes);
  sync_record_gauge();
  return id;
}

void CaptureStore::attach_persistence(persist::PersistEngine* engine) {
  persist_ = engine;
  if (persist_ != nullptr) {
    // Resume sequencing past everything ever persisted (including erased
    // records, via the manifest floor) so recovered ids never collide.
    next_seq_ = std::max(next_seq_, persist_->next_seq());
  }
}

bool CaptureStore::contains(const CaptureId& id) const {
  return records_.contains(id) ||
         (persist_ != nullptr && persist_->contains(id));
}

const ChunkedCapture* CaptureStore::find(const CaptureId& id) const {
  const Record* record = find_record(id);
  return record != nullptr ? &record->capture : nullptr;
}

std::optional<std::string> CaptureStore::name_of(const CaptureId& id) const {
  if (const Record* record = find_record(id)) return record->name;
  if (persist_ != nullptr) {
    if (const auto info = persist_->info(id)) return info->name;
  }
  return std::nullopt;
}

std::vector<CaptureId> CaptureStore::list(const std::string& workspace) const {
  std::vector<CaptureId> ids;
  for (const auto& [id, record] : records_) {
    if (id.workspace == workspace) ids.push_back(id);
  }
  if (persist_ != nullptr) {
    // Warm records are also persisted, so the union is a sorted merge.
    std::vector<CaptureId> merged;
    const std::vector<CaptureId> cold = persist_->list(workspace);
    std::merge(ids.begin(), ids.end(), cold.begin(), cold.end(),
               std::back_inserter(merged));
    merged.erase(std::unique(merged.begin(), merged.end()), merged.end());
    return merged;
  }
  return ids;
}

std::vector<std::string> CaptureStore::workspaces() const {
  std::vector<std::string> names;
  for (const auto& [id, record] : records_) {
    if (names.empty() || names.back() != id.workspace) {
      names.push_back(id.workspace);
    }
  }
  // CaptureId ordering is (workspace, seq), so names is already sorted but
  // may repeat across interleaved appends only if sequences interleave —
  // they cannot, map order guarantees grouping. Dedup defensively anyway.
  names.erase(std::unique(names.begin(), names.end()), names.end());
  if (persist_ != nullptr) {
    std::vector<std::string> merged;
    const std::vector<std::string> cold = persist_->workspaces();
    std::merge(names.begin(), names.end(), cold.begin(), cold.end(),
               std::back_inserter(merged));
    merged.erase(std::unique(merged.begin(), merged.end()), merged.end());
    return merged;
  }
  return names;
}

util::Result<CaptureSource> CaptureStore::source_of(
    const CaptureId& id) const {
  if (const Record* record = find_record(id)) {
    return record->capture.raw_available() ? CaptureSource::kMemory
                                           : CaptureSource::kTier;
  }
  if (persist_ != nullptr) {
    if (const auto info = persist_->info(id)) {
      return info->raw_dropped ? CaptureSource::kTier : CaptureSource::kDisk;
    }
  }
  return not_found(id);
}

const CaptureStore::Record* CaptureStore::find_record(
    const CaptureId& id) const {
  const auto it = records_.find(id);
  return it != records_.end() ? &it->second : nullptr;
}

const CaptureStore::Record* CaptureStore::warm_record(const CaptureId& id) {
  if (const Record* record = find_record(id)) return record;
  if (persist_ == nullptr) return nullptr;
  const auto info = persist_->info(id);
  if (!info.has_value()) return nullptr;
  auto cc = persist_->load(id);
  if (!cc.ok()) {
    BLAB_WARN("store", "cold load failed for " << id.str() << ": "
                                               << cc.error().str());
    return nullptr;
  }
  Record record;
  record.name = info->name;
  record.stored_at = info->stored_at;
  record.capture = std::move(cc).take();
  ++stats_.disk_loads;
  const auto [it, inserted] = records_.emplace(id, std::move(record));
  sync_record_gauge();
  return &it->second;
}

util::Result<std::vector<float>> CaptureStore::chunk_samples(
    const CaptureId& id, const Record& record, std::size_t chunk) {
  const CacheKey key{id, chunk};
  if (const auto it = cache_index_.find(key); it != cache_index_.end()) {
    ++stats_.cache_hits;
    bump(metrics_.cache_hits);
    cache_lru_.splice(cache_lru_.begin(), cache_lru_, it->second);
    return it->second->samples;
  }
  auto samples = record.capture.decode_chunk(chunk);
  if (!samples.ok()) return samples;
  ++stats_.raw_chunk_decodes;
  bump(metrics_.decodes);
  cache_lru_.push_front(CacheEntry{key, samples.value()});
  cache_index_[key] = cache_lru_.begin();
  while (cache_lru_.size() > cache_capacity_) {
    cache_index_.erase(cache_lru_.back().key);
    cache_lru_.pop_back();
    ++stats_.cache_evictions;
    bump(metrics_.cache_evictions);
  }
  return samples;
}

void CaptureStore::evict_capture(const CaptureId& id) {
  for (auto it = cache_lru_.begin(); it != cache_lru_.end();) {
    if (it->key.id == id) {
      cache_index_.erase(it->key);
      it = cache_lru_.erase(it);
    } else {
      ++it;
    }
  }
}

util::Result<hw::Capture> CaptureStore::range(const CaptureId& id,
                                              util::TimePoint t0,
                                              util::TimePoint t1) {
  const Record* record = warm_record(id);
  if (record == nullptr) return not_found(id);
  const ChunkedCapture& cc = record->capture;
  if (!cc.raw_available()) {
    return util::make_error(util::ErrorCode::kFailedPrecondition,
                            "raw samples for " + id.str() +
                                " purged by retention; summaries remain");
  }
  if (t1 < t0) {
    return util::make_error(util::ErrorCode::kInvalidArgument,
                            "range end precedes start");
  }
  // Clamp [t0, t1) to the capture and convert to sample indices.
  const double hz = cc.sample_hz();
  const auto to_index = [&](util::TimePoint t) -> std::size_t {
    if (t <= cc.start()) return 0;
    const double offset = (t - cc.start()).to_seconds() * hz;
    const auto index = static_cast<std::size_t>(std::ceil(offset));
    return std::min(index, cc.sample_count());
  };
  const std::size_t first = to_index(t0);
  const std::size_t last = to_index(t1);

  std::vector<float> samples;
  samples.reserve(last - first);
  const std::size_t per_chunk = cc.chunk_samples();
  for (std::size_t chunk = first / per_chunk;
       chunk * per_chunk < last && chunk < cc.chunk_count(); ++chunk) {
    auto decoded = chunk_samples(id, *record, chunk);
    if (!decoded.ok()) return decoded.error();
    const std::size_t base = chunk * per_chunk;
    const std::size_t begin = std::max(first, base) - base;
    const std::size_t end = std::min(last - base, decoded.value().size());
    samples.insert(samples.end(), decoded.value().begin() + begin,
                   decoded.value().begin() + end);
  }
  return hw::Capture{cc.start() + util::Duration::seconds(
                                      static_cast<double>(first) / hz),
                     hz, cc.voltage(), std::move(samples)};
}

util::Result<std::vector<AggregateBucket>> CaptureStore::aggregate(
    const CaptureId& id, util::Duration window) {
  const Record* record = warm_record(id);
  if (record == nullptr) return not_found(id);
  if (window <= util::Duration::zero()) {
    return util::make_error(util::ErrorCode::kInvalidArgument,
                            "aggregate window must be positive");
  }
  const ChunkedCapture& cc = record->capture;
  ++stats_.tier_queries;
  bump(metrics_.tier_queries);

  std::vector<AggregateBucket> buckets;
  if (cc.sample_count() == 0) return buckets;

  // Whole-capture window: answer straight from chunk footers.
  if (window >= cc.duration()) {
    AggregateBucket bucket;
    bucket.t_begin = cc.start();
    bucket.t_end = cc.start() + cc.duration();
    bucket.samples = cc.sample_count();
    bucket.mean_ma = cc.mean_ma();
    bucket.min_ma = cc.min_ma();
    bucket.max_ma = cc.max_ma();
    buckets.push_back(bucket);
    return buckets;
  }

  // Coarsest tier whose bucket period still resolves the window.
  const Tier* chosen = nullptr;
  for (const auto& tier : cc.tiers()) {
    const auto bucket_period = util::Duration::seconds(1.0 / tier.rate_hz);
    if (bucket_period <= window) chosen = &tier;
  }
  if (chosen == nullptr) {
    return util::make_error(
        util::ErrorCode::kUnsupported,
        "window finer than finest tier; use range() on raw samples");
  }

  const std::size_t group = std::max<std::size_t>(
      1, static_cast<std::size_t>(window.to_seconds() * chosen->rate_hz));
  const std::size_t raw_per_out = group * chosen->factor;
  for (std::size_t b = 0; b < chosen->buckets(); b += group) {
    const std::size_t end = std::min(b + group, chosen->buckets());
    AggregateBucket bucket;
    const std::size_t raw_begin = b * chosen->factor;
    const std::size_t raw_end =
        std::min(raw_begin + raw_per_out, cc.sample_count());
    bucket.t_begin =
        cc.start() + util::Duration::seconds(static_cast<double>(raw_begin) /
                                             cc.sample_hz());
    bucket.t_end =
        cc.start() + util::Duration::seconds(static_cast<double>(raw_end) /
                                             cc.sample_hz());
    bucket.samples = raw_end - raw_begin;
    bucket.min_ma = chosen->min_ma[b];
    bucket.max_ma = chosen->max_ma[b];
    // Weight tier means by their raw sample counts (tail bucket is short).
    double sum = 0.0;
    std::size_t n = 0;
    for (std::size_t i = b; i < end; ++i) {
      const std::size_t tier_begin = i * chosen->factor;
      const std::size_t tier_end =
          std::min(tier_begin + chosen->factor, cc.sample_count());
      const std::size_t count = tier_end - tier_begin;
      sum += static_cast<double>(chosen->mean_ma[i]) *
             static_cast<double>(count);
      n += count;
      bucket.min_ma = std::min(bucket.min_ma,
                               static_cast<double>(chosen->min_ma[i]));
      bucket.max_ma = std::max(bucket.max_ma,
                               static_cast<double>(chosen->max_ma[i]));
    }
    bucket.mean_ma = n > 0 ? sum / static_cast<double>(n) : 0.0;
    buckets.push_back(bucket);
  }
  return buckets;
}

util::Result<util::Cdf> CaptureStore::percentiles(const CaptureId& id) {
  const Record* record = warm_record(id);
  if (record == nullptr) return not_found(id);
  const ChunkedCapture& cc = record->capture;
  ++stats_.tier_queries;
  bump(metrics_.tier_queries);
  util::Cdf cdf;
  const Tier* tier = cc.finest_tier();
  if (tier != nullptr) {
    for (float v : tier->mean_ma) cdf.add(static_cast<double>(v));
    return cdf;
  }
  // Short captures may have no tier (fewer samples than the finest factor);
  // footers still give one point per chunk.
  for (std::size_t chunk = 0; chunk < cc.chunk_count(); ++chunk) {
    const ChunkFooter& footer = cc.footer(chunk);
    if (footer.count > 0) {
      cdf.add(footer.sum_ma / static_cast<double>(footer.count));
    }
  }
  return cdf;
}

util::Result<double> CaptureStore::energy_mwh(const CaptureId& id) {
  const Record* record = warm_record(id);
  if (record == nullptr) return not_found(id);
  ++stats_.tier_queries;
  bump(metrics_.tier_queries);
  return record->capture.energy_mwh();
}

util::Result<double> CaptureStore::mean_ma(const CaptureId& id) {
  const Record* record = warm_record(id);
  if (record == nullptr) return not_found(id);
  ++stats_.tier_queries;
  bump(metrics_.tier_queries);
  return record->capture.mean_ma();
}

util::Result<CaptureSummary> CaptureStore::summary(const CaptureId& id) {
  const Record* record = warm_record(id);
  if (record == nullptr) return not_found(id);
  ++stats_.tier_queries;
  bump(metrics_.tier_queries);
  const ChunkedCapture& cc = record->capture;
  CaptureSummary s;
  s.id = id;
  s.name = record->name;
  s.stored_at = record->stored_at;
  s.start = cc.start();
  s.duration = cc.duration();
  s.samples = cc.sample_count();
  s.sample_hz = cc.sample_hz();
  s.voltage = cc.voltage();
  s.mean_ma = cc.mean_ma();
  s.min_ma = cc.min_ma();
  s.max_ma = cc.max_ma();
  s.charge_mah = cc.charge_mah();
  s.energy_mwh = cc.energy_mwh();
  return s;
}

std::vector<CaptureId> CaptureStore::catalog(util::TimePoint t0,
                                             util::TimePoint t1) const {
  std::vector<CaptureId> ids;
  for (const auto& [id, record] : records_) {
    if (record.stored_at >= t0 && record.stored_at < t1) ids.push_back(id);
  }
  if (persist_ != nullptr) {
    // Warm records are also persisted, so the union is a sorted merge.
    std::vector<CaptureId> cold;
    persist_->scan_catalog(
        t0, t1,
        [&cold](const persist::PersistEngine::EntryInfo& entry) {
          cold.push_back(entry.id);
        });
    std::vector<CaptureId> merged;
    std::merge(ids.begin(), ids.end(), cold.begin(), cold.end(),
               std::back_inserter(merged));
    merged.erase(std::unique(merged.begin(), merged.end()), merged.end());
    return merged;
  }
  return ids;
}

std::size_t CaptureStore::run_retention(util::TimePoint now) {
  std::size_t touched = 0;
  for (auto it = records_.begin(); it != records_.end();) {
    Record& record = it->second;
    const util::Duration age = now - record.stored_at;
    if (age >= policy_.summary_ttl) {
      evict_capture(it->first);
      it = records_.erase(it);
      ++stats_.record_purges;
      bump(metrics_.record_purges);
      ++touched;
      continue;
    }
    if (age >= policy_.raw_ttl && record.capture.raw_available()) {
      evict_capture(it->first);
      record.capture.drop_raw();
      ++stats_.raw_purges;
      bump(metrics_.raw_purges);
      ++touched;
    }
    ++it;
  }
  if (persist_ != nullptr) {
    // The on-disk copy ages by the same policy: expired captures are erased
    // or demoted into summary segments, and the freed bytes feed
    // blab_store_retention_bytes_reclaimed_total.
    stats_.retention_bytes_reclaimed += persist_->run_retention(now, policy_);
  }
  sync_record_gauge();
  return touched;
}

std::size_t CaptureStore::drop_workspace_raw(const std::string& workspace) {
  std::size_t touched = 0;
  for (auto& [id, record] : records_) {
    if (id.workspace != workspace || !record.capture.raw_available()) {
      continue;
    }
    evict_capture(id);
    record.capture.drop_raw();
    ++stats_.raw_purges;
    bump(metrics_.raw_purges);
    ++touched;
  }
  if (persist_ != nullptr) {
    // Commit the purge for every persisted copy — including cold records
    // this process never warmed — in one manifest, so a restart cannot
    // resurrect raw samples the workspace purge already discarded.
    std::vector<CaptureId> ids;
    for (const CaptureId& id : persist_->list(workspace)) {
      const auto info = persist_->info(id);
      if (!info.has_value() || info->raw_dropped) continue;
      ids.push_back(id);
      if (!records_.contains(id)) ++touched;  // warm ones counted above
    }
    if (auto st = persist_->drop_raw(ids); !st.ok()) {
      BLAB_WARN("store", "raw purge of " << workspace
                                         << " not persisted: " << st.str());
    }
  }
  return touched;
}

}  // namespace blab::store
