// PersistEngine: the durability layer under CaptureStore (DESIGN.md §12).
//
// On-disk layout, one flat directory per deployment:
//
//   <dir>/manifest-<version>   versioned, CRC-sealed catalog
//   <dir>/seg-r-7.blsg         one capture, raw chunks intact
//   <dir>/seg-s-3.blsg         one capture, raw purged (summary tier)
//   ...
//
// Every segment holds exactly one capture, and every change commits by
// installing the next manifest version, which lists each live segment with
// the tier of its capture: the manifest is the store's only commit point,
// and write_file_atomic its only durable write. An append writes the
// capture's in-memory image once, by reference, into a segment of its own.
// A drop-raw call marks its captures summary; an erase call unlists their
// segments, then deletes them. Either installs one manifest per call,
// whatever its id count, and none when nothing changes. A checkpoint
// demotes every capture the manifest marks summary whose file is still a
// raw segment: it writes the summary image into a seg-s file, commits, and
// deletes the raw file. Recovery picks the highest manifest that parses,
// opens its segments, and garbage-collects orphans: unlisted segments,
// stale manifests and `.tmp` leftovers of interrupted writes.
//
// Crucially for DST: the engine does no background work, consumes no
// randomness and never reads the wall clock into logical state — every
// mutation happens inside a store call, so enabling persistence cannot
// perturb simulated event order (the recovery_ms stat is wall time but
// feeds only a gauge, never a digest). It holds no open file between
// calls, and destroying it writes nothing: tearing down a deployment is
// byte-equivalent to killing it, which is exactly what the crash-recovery
// oracle relies on.
#pragma once

#include <cstdint>
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

/// Why a checkpoint ran: the maintenance tier's sim-time cadence fired,
/// retention demoted its drops, or an operator/test asked for one directly.
/// Labels the blab_persist_checkpoints_total metric.
enum class CheckpointCause : std::uint8_t {
  kScheduled = 0,
  kRetention = 1,
  kManual = 2,
};
inline constexpr std::size_t kCheckpointCauses = 3;
const char* checkpoint_cause_name(CheckpointCause cause);

struct PersistStats {
  std::uint64_t manifest_installs = 0;  ///< commits, one per changing call
  std::uint64_t segment_flushes = 0;  ///< segment files written
  std::uint64_t segment_bytes = 0;
  std::uint64_t segments_deleted = 0;  ///< by erases and demotions
  std::uint64_t checkpoints = 0;  ///< total across causes
  std::uint64_t checkpoints_by_cause[kCheckpointCauses] = {};
  std::uint64_t demotions = 0;  ///< raw segments rewritten as summary ones
  std::uint64_t demotion_bytes = 0;  ///< capture bytes read to demote
  std::uint64_t recovered_records = 0;  ///< index entries after open()
  std::uint64_t segments_dropped = 0;  ///< unusable segments at recovery
  std::uint64_t disk_loads = 0;  ///< cold capture loads served
  std::uint64_t retention_bytes_reclaimed = 0;
  double recovery_ms = 0.0;  ///< wall time of the last open()
};

class PersistEngine {
 public:
  explicit PersistEngine(std::string dir) : dir_{std::move(dir)} {}

  PersistEngine(const PersistEngine&) = delete;
  PersistEngine& operator=(const PersistEngine&) = delete;

  /// Create-or-recover the store at `dir`. Idempotent per instance.
  util::Status open();
  bool opened() const { return opened_; }
  const std::string& dir() const { return dir_; }

  // -- write path ---------------------------------------------------------
  /// Write a new capture's image into its own segment and commit it with
  /// the next manifest. Durable (written + flushed) on ok(); on failure
  /// nothing of it is indexed or cataloged. An id already stored is
  /// rejected.
  util::Status append(const CaptureId& id, const std::string& name,
                      util::TimePoint stored_at, const ChunkedCapture& cc);
  /// Purge the raw tier of every listed capture, or erase each whole, and
  /// commit all of it with one manifest. Unknown ids, and drops of
  /// captures already summary, change nothing; a call that changes nothing
  /// installs nothing. On failure the index is as it was. A dropped
  /// capture's file stays a raw segment until the next checkpoint.
  util::Status drop_raw(const std::vector<CaptureId>& ids);
  util::Status erase(const std::vector<CaptureId>& ids);

  /// Demote every capture committed as summary whose file is still a raw
  /// segment: write its summary image into a segment of its own, commit
  /// them all with one manifest, then delete the raw files. A checkpoint
  /// with nothing to demote does nothing and is not counted. `cause`
  /// labels the checkpoint counter so operators can tell the maintenance
  /// tier's scheduled cadence from retention passes.
  util::Status checkpoint(CheckpointCause cause = CheckpointCause::kManual);

  /// Apply TTLs to the on-disk copy: erase the summary-expired captures,
  /// drop the raw tier of the raw-expired ones, and checkpoint. Returns the
  /// bytes reclaimed.
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

  /// Total bytes in `dir` (segments + manifests).
  std::uint64_t disk_usage_bytes() const;

  const PersistStats& stats() const { return stats_; }
  /// Mirror PersistStats into a registry (blab_persist_*). Null-safe, same
  /// contract as CaptureStore::attach_metrics.
  void attach_metrics(obs::MetricsRegistry* registry);

 private:
  struct Entry {
    std::string name;
    util::TimePoint stored_at;
    bool raw_dropped = false;
    std::string segment;  ///< its one-capture file in dir_
    std::uint64_t length = 0;  ///< capture bytes, right after the header
    std::uint32_t crc = 0;  ///< crc32c of the capture bytes
  };
  struct Metrics {
    obs::Counter* manifest_installs = nullptr;
    obs::Counter* segment_flushes = nullptr;
    obs::Counter* segment_bytes = nullptr;
    obs::Counter* segments_deleted = nullptr;
    obs::Counter* checkpoints[kCheckpointCauses] = {};
    obs::Counter* demotions = nullptr;
    obs::Counter* demotion_bytes = nullptr;
    obs::Counter* recovered = nullptr;
    obs::Counter* disk_loads = nullptr;
    obs::Counter* reclaimed = nullptr;
    obs::Gauge* recovery_ms = nullptr;
    obs::Gauge* disk_entries = nullptr;
  };

  /// Index the capture of one listed segment, or count the segment dropped
  /// when it is unreadable or breaks the one-capture invariant.
  void recover_segment(const ManifestSegment& listed);
  /// Write `image` as the one capture of a new segment file of `tier`,
  /// under `entry`'s id, name, stamp and crc. Returns the file name. Not
  /// yet cataloged.
  util::Result<std::string> write_segment(std::uint8_t tier,
                                          SegmentEntry entry,
                                          std::string_view image);
  /// A capture's bytes from its segment, checked against the entry's CRC.
  util::Result<std::string> read_capture(const CaptureId& id,
                                         const Entry& entry) const;
  void remove_segment(const std::string& file);
  /// The commit point: write the index as the next manifest version, then
  /// keep the previous manifest as the recovery fallback and prune the one
  /// before it.
  util::Status install_manifest();
  static void bump(obs::Counter* c, std::uint64_t n = 1);
  void sync_gauges();

  std::string dir_;
  bool opened_ = false;
  std::uint64_t next_seq_ = 1;
  std::uint64_t next_segment_ = 1;
  std::uint64_t manifest_version_ = 0;
  std::map<CaptureId, Entry> index_;
  PersistStats stats_;
  Metrics metrics_;
};

}  // namespace blab::store::persist
