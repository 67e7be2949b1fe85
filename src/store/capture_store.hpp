// CaptureStore: the storage/query tier job workspaces sit on top of.
//
// Per-job workspaces of ChunkedCapture records, TTL-tiered retention (raw
// chunk payloads expire first; footer/tier summaries persist until the
// summary TTL), an LRU cache of decoded chunks shared across readers, and a
// query API that answers from the coarsest tier adequate for the request.
// Deterministic: iteration orders are sorted, eviction is strict LRU, and no
// operation consumes randomness — safe to run inside DST scenarios.
#pragma once

#include <cstdint>
#include <list>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "hw/power_monitor.hpp"
#include "store/chunked_capture.hpp"
#include "util/result.hpp"
#include "util/stats.hpp"
#include "util/time.hpp"

namespace blab::obs {
class Counter;
class Gauge;
class MetricsRegistry;
class Tracer;
}  // namespace blab::obs

namespace blab::store {

namespace persist {
class PersistEngine;
}  // namespace persist

/// Stable handle to one stored capture: workspace + per-store sequence.
struct CaptureId {
  std::string workspace;
  std::uint64_t seq = 0;

  bool operator==(const CaptureId&) const = default;
  auto operator<=>(const CaptureId&) const = default;
  std::string str() const { return workspace + "#" + std::to_string(seq); }
};

/// One `aggregate()` window: [t_begin, t_end) reduced to mean/min/max.
struct AggregateBucket {
  util::TimePoint t_begin;
  util::TimePoint t_end;
  std::size_t samples = 0;
  double mean_ma = 0.0;
  double min_ma = 0.0;
  double max_ma = 0.0;
};

struct RetentionPolicy {
  /// Raw chunk payloads older than this are purged; summaries remain.
  util::Duration raw_ttl = util::Duration::minutes(30);
  /// Whole records (footers + tiers) older than this are dropped.
  util::Duration summary_ttl = util::Duration::minutes(240);

  enum class Action { kKeep, kDropRaw, kErase };
  /// The TTL rule, for a capture stored at `stored_at` whose raw tier is
  /// kept iff `raw`: as of `now`, erase it once past the summary TTL, else
  /// drop its raw tier once past the raw TTL.
  Action action(util::TimePoint stored_at, bool raw, util::TimePoint now) const;
};

/// Footer/tier-level description of one capture — everything the rollup
/// engine needs, computable without decoding raw chunks (and therefore
/// still available after the raw tier is purged by retention).
struct CaptureSummary {
  CaptureId id;
  std::string name;
  util::TimePoint stored_at;  ///< when the record entered the store
  util::TimePoint start;      ///< capture start (device time)
  util::Duration duration;
  std::size_t samples = 0;
  double sample_hz = 0.0;
  double voltage = 0.0;
  double mean_ma = 0.0;
  double min_ma = 0.0;
  double max_ma = 0.0;
  double charge_mah = 0.0;
  double energy_mwh = 0.0;
};

struct StoreStats {
  std::uint64_t captures_appended = 0;
  std::uint64_t chunks_written = 0;
  std::uint64_t bytes_raw = 0;      ///< float32 payload before encoding
  std::uint64_t bytes_encoded = 0;  ///< columnar payload after encoding
  std::uint64_t raw_chunk_decodes = 0;  ///< cache misses that decoded a chunk
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_evictions = 0;
  std::uint64_t raw_purges = 0;     ///< records whose raw tier was dropped
  std::uint64_t record_purges = 0;  ///< records dropped entirely
  std::uint64_t tier_queries = 0;   ///< queries served from tiers/footers
  std::uint64_t disk_loads = 0;     ///< cold records warmed from persistence
};

/// Where a capture's data currently lives, for the REST `captures_source`
/// endpoint: resident in memory with raw chunks, cold on disk with raw
/// chunks, or reduced to downsample tiers (raw purged by retention).
enum class CaptureSource { kMemory, kDisk, kTier };
const char* capture_source_name(CaptureSource source);

class CaptureStore {
 public:
  static constexpr std::size_t kDefaultCacheChunks = 64;

  explicit CaptureStore(RetentionPolicy policy = {},
                        std::size_t cache_chunks = kDefaultCacheChunks)
      : policy_{policy}, cache_capacity_{cache_chunks} {}

  // -- ingest ------------------------------------------------------------
  /// Encode and archive a capture into `workspace`. `now` stamps the record
  /// for retention (simulated time; the store holds no simulator reference).
  CaptureId append(const std::string& workspace, std::string name,
                   const hw::Capture& capture, util::TimePoint now);

  // -- lookup ------------------------------------------------------------
  /// The lookups below read the store's one catalog, which lists warm
  /// (resident) and cold (persisted, not yet loaded) records alike.
  bool contains(const CaptureId& id) const;
  /// Warm records only; cold records surface through the query API, which
  /// loads them transparently.
  const ChunkedCapture* find(const CaptureId& id) const;
  std::optional<std::string> name_of(const CaptureId& id) const;
  /// Ids in `workspace`, ascending by sequence.
  std::vector<CaptureId> list(const std::string& workspace) const;
  /// All workspaces with at least one record, sorted.
  std::vector<std::string> workspaces() const;
  std::size_t size() const { return records_.size(); }
  /// Which tier would serve `id` right now (memory | disk | tier).
  util::Result<CaptureSource> source_of(const CaptureId& id) const;

  // -- queries -----------------------------------------------------------
  /// Raw samples in [t0, t1) — sample-exact, decoded chunk-by-chunk via the
  /// LRU cache. Fails if the raw tier was purged.
  util::Result<hw::Capture> range(const CaptureId& id, util::TimePoint t0,
                                  util::TimePoint t1);
  /// Windowed mean/min/max over the whole capture, served from the coarsest
  /// tier whose buckets are no wider than `window` (footers if window spans
  /// the capture). Never decodes raw chunks.
  util::Result<std::vector<AggregateBucket>> aggregate(const CaptureId& id,
                                                       util::Duration window);
  /// Current distribution: a Cdf over append_distribution()'s points.
  /// Never decodes raw chunks.
  util::Result<util::Cdf> percentiles(const CaptureId& id);
  /// Appends the capture's distribution points to `out`: the finest
  /// surviving tier's bucket means, or one footer mean per chunk for a
  /// capture sampled too slowly to have a tier (about 1 Hz or less). Counts
  /// one tier query and appends nothing on failure. Lets a caller pool many
  /// captures into one buffer it owns (the rollup engine) without a Cdf per
  /// capture. Never decodes raw chunks.
  util::Status append_distribution(const CaptureId& id,
                                   std::vector<double>& out);
  /// Integrated energy in mWh, from chunk footers alone.
  util::Result<double> energy_mwh(const CaptureId& id);
  /// Mean current in mA, from chunk footers alone.
  util::Result<double> mean_ma(const CaptureId& id);
  /// Footer-level summary of one capture (cold records load transparently).
  util::Result<CaptureSummary> summary(const CaptureId& id);

  // -- catalog -----------------------------------------------------------
  /// Every capture id (warm or cold) whose stored_at falls in [t0, t1),
  /// ascending — the rollup engine's scan surface. Loads no payload.
  std::vector<CaptureId> catalog(util::TimePoint t0, util::TimePoint t1) const;

  // -- retention ---------------------------------------------------------
  // Both passes decide once over the catalog and, with persistence on,
  // commit the decision before memory follows it: a pass whose commit
  // fails changes nothing and returns 0, and the next pass retries it.
  const RetentionPolicy& policy() const { return policy_; }
  /// Apply TTLs as of `now`. Returns the number of records touched (raw
  /// purged + records dropped). Wired into server/maintenance.
  std::size_t run_retention(util::TimePoint now);
  /// Purge raw payloads for every record in `workspace` (job workspace
  /// purge); summaries persist until their own TTL. Returns the number of
  /// records purged.
  std::size_t drop_workspace_raw(const std::string& workspace);

  const StoreStats& stats() const { return stats_; }

  /// Mirror StoreStats into a metrics registry (normally the owning
  /// deployment's Simulator registry). Null-safe: detached stores keep
  /// updating only their local StoreStats. The registry must outlive the
  /// store's last mutation — true for deployments, where the Simulator is
  /// constructed first and destroyed last.
  void attach_metrics(obs::MetricsRegistry* registry);

  /// Span coverage for archival: appends open a `store/append_capture` span
  /// (joining the caller's trace — e.g. a job's stop_monitor) annotated with
  /// chunk and byte counts. Null-safe like attach_metrics.
  void attach_tracer(obs::Tracer* tracer) { tracer_ = tracer; }

  /// Attach an opened durability engine: its recovered captures join the
  /// catalog cold, without a segment read; appends archive through to it,
  /// queries load cold records from its segments, retention commits to it
  /// first, and the sequence counter resumes past the largest persisted
  /// sequence. The engine must outlive the store's last mutation (true for
  /// AccessServer, which owns both).
  void attach_persistence(persist::PersistEngine& engine);

 private:
  /// One capture's catalog record. A cold record holds no capture until a
  /// query loads it.
  struct Record {
    std::string name;
    util::TimePoint stored_at;
    bool raw = true;  ///< its raw tier is kept
    std::optional<ChunkedCapture> capture;
  };
  struct CacheKey {
    CaptureId id;
    std::size_t chunk = 0;
    auto operator<=>(const CacheKey&) const = default;
  };
  struct CacheEntry {
    CacheKey key;
    std::vector<float> samples;
  };

  /// Cached registry instruments; all null until attach_metrics().
  struct Metrics {
    obs::Counter* appended = nullptr;
    obs::Counter* chunks_written = nullptr;
    obs::Counter* bytes_raw = nullptr;
    obs::Counter* bytes_encoded = nullptr;
    obs::Counter* decodes = nullptr;
    obs::Counter* cache_hits = nullptr;
    obs::Counter* cache_evictions = nullptr;
    obs::Counter* raw_purges = nullptr;
    obs::Counter* record_purges = nullptr;
    obs::Counter* tier_queries = nullptr;
    obs::Gauge* records = nullptr;
  };
  static void bump(obs::Counter* c, std::uint64_t n = 1);
  void sync_record_gauge();

  const Record* find_record(const CaptureId& id) const;
  /// find_record, loading a cold record's capture from the persist engine.
  const Record* warm_record(const CaptureId& id);
  /// Drop the raw tier of each of `ids`, in memory only.
  void purge_raw(const std::vector<CaptureId>& ids);
  /// Decoded samples for one chunk, through the LRU cache.
  util::Result<std::vector<float>> chunk_samples(const CaptureId& id,
                                                 const Record& record,
                                                 std::size_t chunk);
  void evict_capture(const CaptureId& id);

  RetentionPolicy policy_;
  std::size_t cache_capacity_;
  std::uint64_t next_seq_ = 1;
  // The catalog; std::map keeps workspace/sequence iteration deterministic.
  std::map<CaptureId, Record> records_;
  std::list<CacheEntry> cache_lru_;  // front = most recent
  std::map<CacheKey, std::list<CacheEntry>::iterator> cache_index_;
  StoreStats stats_;
  Metrics metrics_;
  obs::Tracer* tracer_ = nullptr;
  persist::PersistEngine* persist_ = nullptr;
};

}  // namespace blab::store
