// PersistEngine: the durability layer under CaptureStore (DESIGN.md §12).
//
// On-disk layout, rooted at one directory per deployment:
//
//   <dir>/manifest-<version>        versioned, CRC-sealed catalog
//   <dir>/shard-000/wal.log         per-shard journal of drop/erase notes
//   <dir>/shard-000/seg-r-7.blsg    raw-tier segment (chunks intact)
//   <dir>/shard-000/seg-s-3.blsg    summary-tier segment (raw purged)
//   ...
//
// Workspaces map to shards by a mixed fnv1a hash modulo the shard count,
// which is fixed when the store is created, so a vantage point's captures
// cluster in one directory and recovery/compaction work is partitioned.
// An append writes the capture's in-memory image once, by reference, into
// its own segment file and commits it by installing the next manifest
// version: the manifest is the store's only commit point. Drop-raw and
// erase notes are journaled to the shard WAL and acknowledged after an
// fflush; a checkpoint folds them by compacting the segments they touch
// (LSM-style, one stream per retention tier), installs a manifest and
// truncates the WAL. Recovery is the reverse: pick the highest manifest
// that parses, open its segments, replay the notes on top (idempotently —
// a crash between manifest install and WAL truncation must not
// double-apply), drop any torn tail, and garbage-collect orphans: unlisted
// segments, stale manifests and `.tmp` leftovers of interrupted writes.
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
};

/// Why a checkpoint ran: the maintenance tier's sim-time cadence fired,
/// retention folded its drops, or an operator/test asked for one directly.
/// Labels the blab_persist_checkpoints_total metric.
enum class CheckpointCause : std::uint8_t {
  kScheduled = 0,
  kRetention = 1,
  kManual = 2,
};
inline constexpr std::size_t kCheckpointCauses = 3;
const char* checkpoint_cause_name(CheckpointCause cause);

struct PersistStats {
  std::uint64_t wal_appends = 0;  ///< notes journaled (drop-raw and erase)
  std::uint64_t wal_bytes = 0;
  std::uint64_t segment_flushes = 0;  ///< segment files written (appends too)
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
  /// Shard for a workspace (vantage-point job id): a mixed hash of it,
  /// modulo the shard count.
  std::size_t shard_of(std::string_view workspace) const;

  // -- write path ---------------------------------------------------------
  /// Write a new capture's image into its own segment and commit it with
  /// the next manifest. Durable (written + flushed) on ok(); on failure
  /// nothing of it is indexed or cataloged.
  util::Status append(const CaptureId& id, const std::string& name,
                      util::TimePoint stored_at, const ChunkedCapture& cc);
  /// Journal a raw-tier purge / whole-record erase for an id already known
  /// to the engine; unknown ids are ignored (ok).
  util::Status note_drop_raw(const CaptureId& id);
  util::Status note_erase(const CaptureId& id);

  /// Fold the WALs' notes: rewrite segments with pending drops/erases
  /// (LSM-style compaction into the tier streams), install a new manifest
  /// version, truncate the WALs. `cause` labels the checkpoint counter so
  /// operators can tell the maintenance tier's scheduled cadence from
  /// retention passes.
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
  /// Materialize one capture from its segment, checksummed.
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
    std::string segment;  ///< file in the shard directory
    std::uint64_t offset = 0;
    std::uint64_t length = 0;
    std::uint32_t crc = 0;  ///< crc32c of the capture bytes
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
  util::Status wal_write(Shard& shard, const WalRecord& note);
  /// Journal `op` for `id`, then apply it to the index; a no-op for unknown
  /// ids and for dropping a raw tier already dropped.
  util::Status note(WalOp op, const CaptureId& id);
  /// Apply a note to the index entry it names and mark its segment dirty.
  void apply_note(WalOp op, std::map<CaptureId, Entry>::iterator it);
  /// Write a new segment file of `tier` holding `captures` (whose crcs
  /// `entries` already carry) in place, and fill in the entries' offsets
  /// and lengths. Returns the file name. Not yet cataloged.
  util::Result<std::string> write_segment(
      Shard& shard, std::uint8_t tier, std::vector<SegmentEntry>& entries,
      const std::vector<std::string_view>& captures);
  util::Status recover_manifest(Manifest& manifest);
  util::Status recover_shard(std::size_t shard_index,
                             const std::vector<ManifestSegment>& segments);
  /// Compact shard's dirty segments; appends the paths of the segments it
  /// took out of the catalog to `replaced`.
  util::Status checkpoint_shard(std::size_t shard_index,
                                std::vector<std::string>& replaced);
  /// The commit point: write the catalog as the next manifest version, then
  /// keep the previous manifest as the recovery fallback and prune the one
  /// before it.
  util::Status install_manifest();
  static void bump(obs::Counter* c, std::uint64_t n = 1);
  void sync_gauges();

  std::string dir_;
  PersistOptions options_;
  bool opened_ = false;
  std::uint64_t next_seq_ = 1;
  std::uint64_t manifest_version_ = 0;
  std::vector<Shard> shards_;
  std::map<CaptureId, Entry> index_;
  PersistStats stats_;
  Metrics metrics_;
};

}  // namespace blab::store::persist
