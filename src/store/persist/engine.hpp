// PersistEngine: the durability layer under CaptureStore (DESIGN.md §12).
//
// On-disk layout, rooted at one directory per deployment:
//
//   <dir>/manifest-<version>        versioned, CRC-sealed catalog
//   <dir>/shard-000/wal.log         per-shard write-ahead log
//   <dir>/shard-000/seg-r-7.blsg    raw-tier segment (chunks intact)
//   <dir>/shard-000/seg-s-3.blsg    summary-tier segment (raw purged)
//   ...
//
// Workspaces map to shards by a consistent-hash ring (virtual points over
// fnv1a), so a vantage point's captures cluster in one directory and
// recovery/compaction work is partitioned. Appends are journaled to the
// shard WAL and acknowledged after an fflush; checkpoints fold the WAL into
// append-only segment files (one stream per retention tier, embedding each
// capture's canonical ChunkedCapture image), then install a new
// manifest version and truncate the WAL. Recovery is the reverse: pick the
// highest manifest that parses, open its segments, replay the WAL on top
// (idempotently — a crash between manifest install and WAL truncation must
// not double-apply), drop any torn tail, and garbage-collect orphans.
//
// Crucially for DST: the engine does no background work, consumes no
// randomness and never reads the wall clock into logical state — every
// mutation happens inside a store call, so enabling persistence cannot
// perturb simulated event order (the recovery_ms stat is wall time but
// feeds only a gauge, never a digest). Destruction closes file handles
// without checkpointing: tearing down a deployment is byte-equivalent to
// killing it, which is exactly what the crash-recovery oracle relies on.
#pragma once

#include <cstdint>
#include <cstdio>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "store/capture_store.hpp"
#include "store/persist/formats.hpp"
#include "util/result.hpp"
#include "util/time.hpp"

namespace blab::obs {
class Counter;
class Gauge;
class MetricsRegistry;
}  // namespace blab::obs

namespace blab::store::persist {

struct PersistOptions {
  /// Shard directories (fixed at store creation; an existing store's
  /// manifest wins over this value on open).
  std::size_t shards = 4;
  /// Virtual points per shard on the consistent-hash ring.
  std::size_t ring_points = 8;
  /// A shard WAL larger than this triggers an automatic checkpoint on the
  /// next append. Byte-driven, so it stays deterministic under DST.
  std::size_t wal_checkpoint_bytes = 1u << 20;
};

/// Why a checkpoint ran: the shard WAL crossed wal_checkpoint_bytes, the
/// maintenance tier's sim-time cadence fired, retention folded its drops,
/// or an operator/test asked for one directly. Labels the
/// blab_persist_checkpoints_total metric.
enum class CheckpointCause : std::uint8_t {
  kBytes = 0,
  kScheduled = 1,
  kRetention = 2,
  kManual = 3,
};
inline constexpr std::size_t kCheckpointCauses = 4;
const char* checkpoint_cause_name(CheckpointCause cause);

struct PersistStats {
  std::uint64_t wal_appends = 0;  ///< records journaled (all op kinds)
  std::uint64_t wal_bytes = 0;
  std::uint64_t segment_flushes = 0;  ///< segment files written
  std::uint64_t segment_bytes = 0;
  std::uint64_t checkpoints = 0;  ///< total across causes
  std::uint64_t checkpoints_by_cause[kCheckpointCauses] = {};
  std::uint64_t compactions = 0;  ///< existing segments rewritten
  std::uint64_t compaction_bytes = 0;  ///< bytes of segments rewritten
  std::uint64_t recovered_records = 0;  ///< index entries after open()
  std::uint64_t torn_tail_bytes = 0;  ///< WAL bytes dropped at recovery
  std::uint64_t segments_dropped = 0;  ///< unreadable segments at recovery
  std::uint64_t disk_loads = 0;  ///< cold capture loads served
  std::uint64_t retention_bytes_reclaimed = 0;
  double recovery_ms = 0.0;  ///< wall time of the last open()
};

class PersistEngine {
 public:
  explicit PersistEngine(std::string dir, PersistOptions options = {});
  ~PersistEngine();

  PersistEngine(const PersistEngine&) = delete;
  PersistEngine& operator=(const PersistEngine&) = delete;

  /// Create-or-recover the store at `dir`. Idempotent per instance.
  util::Status open();
  bool opened() const { return opened_; }
  const std::string& dir() const { return dir_; }

  std::size_t shard_count() const { return shards_.size(); }
  /// Consistent-hash shard for a workspace (vantage-point job id).
  std::size_t shard_of(std::string_view workspace) const;

  // -- write path ---------------------------------------------------------
  /// Journal a new capture. Durable (journaled + flushed) on ok().
  util::Status append(const CaptureId& id, const std::string& name,
                      util::TimePoint stored_at, const ChunkedCapture& cc);
  /// Journal a raw-tier purge / whole-record erase for an id already known
  /// to the engine; unknown ids are ignored (ok).
  util::Status note_drop_raw(const CaptureId& id);
  util::Status note_erase(const CaptureId& id);

  /// Fold every shard's WAL into segments, rewrite segments with pending
  /// drops/erases (LSM-style compaction into the tier streams), install a
  /// new manifest version, truncate the WALs. `cause` labels the checkpoint
  /// counter so operators can tell byte-pressure checkpoints from the
  /// maintenance tier's scheduled cadence.
  util::Status checkpoint(CheckpointCause cause = CheckpointCause::kManual);

  /// Apply TTLs to the on-disk copy and compact. Returns bytes reclaimed
  /// (segment + WAL shrinkage).
  std::uint64_t run_retention(util::TimePoint now,
                              const RetentionPolicy& policy);

  // -- read path ----------------------------------------------------------
  struct EntryInfo {
    CaptureId id;
    std::string name;
    util::TimePoint stored_at;
    bool raw_dropped = false;
  };
  bool contains(const CaptureId& id) const;
  std::optional<EntryInfo> info(const CaptureId& id) const;
  /// All entries, ascending by id.
  std::vector<EntryInfo> entries() const;
  /// Visit every entry whose stored_at falls in [t0, t1), ascending by id —
  /// the rollup engine's catalog-iteration surface. Touches only the index,
  /// never capture payloads.
  void scan_catalog(util::TimePoint t0, util::TimePoint t1,
                    const std::function<void(const EntryInfo&)>& fn) const;
  std::vector<CaptureId> list(const std::string& workspace) const;
  std::vector<std::string> workspaces() const;
  /// Materialize one capture from disk (WAL or segment, checksummed).
  util::Result<ChunkedCapture> load(const CaptureId& id);

  /// First sequence number a recovered store may hand out: one past the
  /// largest persisted sequence (also carried by the manifest so erased
  /// records never resurrect an old sequence).
  std::uint64_t next_seq() const { return next_seq_; }
  std::size_t size() const { return index_.size(); }

  /// Total bytes under `dir` (segments + WALs + manifests).
  std::uint64_t disk_usage_bytes() const;

  const PersistStats& stats() const { return stats_; }
  /// Mirror PersistStats into a registry (blab_persist_*). Null-safe, same
  /// contract as CaptureStore::attach_metrics.
  void attach_metrics(obs::MetricsRegistry* registry);

 private:
  struct SegmentMeta {
    std::uint8_t tier = kTierRaw;
    std::uint64_t entry_count = 0;  ///< entries in the file
    std::uint64_t live_count = 0;   ///< entries still referenced
    bool dirty = false;  ///< has pending drops/erases; rewrite on checkpoint
  };
  struct Shard {
    std::string name;  ///< directory name, e.g. "shard-003"
    std::FILE* wal = nullptr;
    std::uint64_t wal_size = 0;
    std::uint64_t next_segment = 1;
    std::map<std::string, SegmentMeta> segments;
  };
  struct Entry {
    std::string name;
    util::TimePoint stored_at;
    bool raw_dropped = false;
    std::size_t shard = 0;
    std::string segment;  ///< empty = lives in the shard WAL
    std::uint64_t offset = 0;
    std::uint64_t length = 0;
    std::uint32_t crc = 0;  ///< crc32c of the capture bytes, WAL or segment
  };
  struct Metrics {
    obs::Counter* wal_appends = nullptr;
    obs::Counter* wal_bytes = nullptr;
    obs::Counter* segment_flushes = nullptr;
    obs::Counter* segment_bytes = nullptr;
    obs::Counter* checkpoints[kCheckpointCauses] = {};
    obs::Counter* compactions = nullptr;
    obs::Counter* compaction_bytes = nullptr;
    obs::Counter* recovered = nullptr;
    obs::Counter* torn_tail_bytes = nullptr;
    obs::Counter* disk_loads = nullptr;
    obs::Counter* reclaimed = nullptr;
    obs::Gauge* recovery_ms = nullptr;
    obs::Gauge* disk_entries = nullptr;
  };

  std::string shard_path(const Shard& shard) const;
  std::string wal_path(const Shard& shard) const;
  util::Status ensure_wal(Shard& shard);
  /// Journal `record` with `capture` (crc32c `capture_crc`) as its capture
  /// bytes; notes pass an empty capture.
  util::Status wal_write(Shard& shard, const WalRecord& record,
                         std::string_view capture, std::uint32_t capture_crc);
  util::Status recover_manifest(Manifest& manifest);
  util::Status recover_shard(std::size_t shard_index,
                             const std::vector<ManifestSegment>& segments);
  util::Status checkpoint_shard(std::size_t shard_index);
  util::Status install_manifest();
  void build_ring();
  static void bump(obs::Counter* c, std::uint64_t n = 1);
  void sync_gauges();

  std::string dir_;
  PersistOptions options_;
  bool opened_ = false;
  std::uint64_t next_seq_ = 1;
  std::uint64_t manifest_version_ = 0;
  std::vector<Shard> shards_;
  std::vector<std::pair<std::uint64_t, std::size_t>> ring_;
  std::map<CaptureId, Entry> index_;
  PersistStats stats_;
  Metrics metrics_;
};

}  // namespace blab::store::persist
