// On-disk byte formats for the persistent capture store (DESIGN.md §12).
//
// Three little formats, all built from the store codec's fixed-width
// primitives plus CRC32C framing, and all parsed from in-memory buffers so
// the deserializers are total functions over arbitrary bytes (the
// persist_fuzz harness drives them directly; file I/O lives in engine.cpp):
//
//   WAL      a stream of [u32 len][u32 crc32c(payload)][payload] frames.
//            Parsing stops at the first truncated, oversized or
//            checksum-failing frame and reports the torn tail instead of
//            erroring — a crashed writer may leave a partial frame, and
//            everything before it is still committed data.
//
//   Segment  "BLSG1" + tier byte, a dense payload region of serialized
//            ChunkedCaptures, an index of (id, name, stored_at, offset,
//            length, crc) entries, and a fixed 16-byte trailer
//            [u64 index_offset][u32 index_crc]"BLSE" read back-to-front.
//            The index must tile the payload region exactly, which makes
//            the whole file canonical: parse-then-rebuild is
//            byte-identical.
//
//   Manifest "BLMF1" + version + next_seq + per-shard segment lists + a
//            trailing CRC over everything before it. Canonical for the
//            same reason (no padding, no optional fields, exact-length).
//
// Every parser rejects rather than truncates: trailing bytes, non-dense
// payload tiling, out-of-range offsets and bad checksums are all hard
// errors, so two replicas that both accept a file agree on every byte.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "store/capture_store.hpp"
#include "util/result.hpp"
#include "util/time.hpp"

namespace blab::store::persist {

// ---- WAL ----------------------------------------------------------------

/// Logical operations the store journals before acknowledging them.
enum class WalOp : std::uint8_t {
  kAppend = 1,   ///< new capture: id, name, stored_at, serialized bytes
  kDropRaw = 2,  ///< raw tier purged for id (retention / workspace purge)
  kErase = 3,    ///< record dropped entirely for id (summary TTL)
};

struct WalRecord {
  WalOp op = WalOp::kAppend;
  CaptureId id;
  // kAppend only; empty otherwise.
  std::string name;
  util::TimePoint stored_at;
  std::string capture;  ///< ChunkedCapture::serialize() bytes

  /// Filled by parse_wal: offset of `capture` within the parsed buffer, so
  /// recovered records can be re-read lazily from the file without keeping
  /// every payload resident. Zero for records built by hand.
  std::uint64_t capture_offset = 0;

  bool operator==(const WalRecord& o) const {
    return op == o.op && id == o.id && name == o.name &&
           stored_at == o.stored_at && capture == o.capture;
  }
};

/// Append one framed record to `out`. Deterministic: the same logical record
/// always produces the same bytes (canonical framing — parse_wal accepts
/// exactly what this emits).
void append_wal_record(std::string& out, const WalRecord& record);

/// The frame append_wal_record emits, minus its trailing capture bytes, for
/// writers that keep the capture where it is: head + capture is the whole
/// frame. `record.capture` is ignored; the capture is `capture_size` bytes
/// with crc32c `capture_crc` (0 and 0 for kDropRaw/kErase), and the frame
/// CRC is combined from that, so the capture is not checksummed again.
std::string wal_frame_head(const WalRecord& record, std::size_t capture_size,
                           std::uint32_t capture_crc);

struct WalReplay {
  std::vector<WalRecord> records;
  std::size_t clean_bytes = 0;    ///< committed prefix length
  std::size_t dropped_bytes = 0;  ///< torn/corrupt tail discarded
};

/// Replay a WAL buffer. Total over arbitrary bytes: never throws, never
/// reads out of bounds; `clean_bytes + dropped_bytes == bytes.size()`.
WalReplay parse_wal(std::string_view bytes);

// ---- Segments -----------------------------------------------------------

inline constexpr std::string_view kSegmentMagic = "BLSG1";
inline constexpr std::string_view kSegmentEndMagic = "BLSE";
inline constexpr std::size_t kSegmentTrailerBytes = 16;
/// Retention tiers a segment can hold: raw chunks intact, or summary-only
/// (raw purged, footer/tier data remains).
inline constexpr std::uint8_t kTierRaw = 0;
inline constexpr std::uint8_t kTierSummary = 1;

struct SegmentRecord {
  CaptureId id;
  std::string name;
  util::TimePoint stored_at;
  std::string capture;  ///< ChunkedCapture::serialize() bytes
};

struct SegmentEntry {
  CaptureId id;
  std::string name;
  util::TimePoint stored_at;
  std::uint64_t offset = 0;  ///< absolute file offset of the capture bytes
  std::uint64_t length = 0;
  std::uint32_t crc = 0;  ///< crc32c of the capture bytes
};

struct SegmentIndex {
  std::uint8_t tier = kTierRaw;
  std::vector<SegmentEntry> entries;
};

/// Build a complete segment file image. Records are laid out densely in the
/// given order; the per-entry CRC is computed here.
std::string build_segment(std::uint8_t tier,
                          const std::vector<SegmentRecord>& records);

/// Parse header + trailer + index of a segment image. O(index) — capture
/// payloads are range-checked but not decoded (load_segment_record does
/// that per entry). Fails on any structural or checksum violation.
util::Result<SegmentIndex> parse_segment_index(std::string_view file);

/// Slice + checksum one entry's capture bytes out of a segment image the
/// entry was parsed from. The returned view aliases `file`.
util::Result<std::string_view> segment_capture_bytes(std::string_view file,
                                                     const SegmentEntry& e);

// ---- Manifest -----------------------------------------------------------

inline constexpr std::string_view kManifestMagic = "BLMF1";
inline constexpr std::uint32_t kMaxManifestShards = 1024;

struct ManifestSegment {
  std::string file;  ///< file name within its shard directory
  std::uint8_t tier = kTierRaw;

  bool operator==(const ManifestSegment&) const = default;
};

struct Manifest {
  std::uint64_t version = 0;
  std::uint64_t next_seq = 1;  ///< store sequence floor after recovery
  /// Fixed at store creation; shards[i] lists shard i's live segments.
  std::vector<std::vector<ManifestSegment>> shards;

  bool operator==(const Manifest&) const = default;
};

std::string encode_manifest(const Manifest& manifest);
util::Result<Manifest> parse_manifest(std::string_view bytes);

}  // namespace blab::store::persist
