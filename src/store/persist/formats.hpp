// On-disk byte formats for the persistent capture store (DESIGN.md §12).
//
// Two little formats, both built from the store codec's fixed-width
// primitives plus CRC32C sealing, and both parsed from in-memory buffers so
// the deserializers are total functions over arbitrary bytes (the
// persist_fuzz harness drives them directly; file I/O lives in engine.cpp):
//
//   Segment  "BLSG1" + tier byte, a dense payload region of serialized
//            ChunkedCaptures, then the footer: an index of (id, name,
//            stored_at, offset, length, crc) entries and a fixed 16-byte
//            trailer [u64 index_offset][u32 index_crc]"BLSE" read
//            back-to-front. The index must tile the payload region
//            exactly, which makes the whole file canonical:
//            parse-then-rebuild is byte-identical. A writer can emit the
//            header, the payloads where they already are, and the footer,
//            without assembling the file. The engine writes one capture
//            per segment; the format allows any number.
//
//   Manifest "BLMF2" + version + next_seq + one flat list of (segment
//            file, tier) pairs + a trailing CRC over everything before
//            it. Canonical for the same reason (no padding, no optional
//            fields, exact-length).
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

/// The segment header: magic, then the tier byte. The payload region
/// starts right after it.
inline constexpr std::size_t kSegmentHeaderBytes = kSegmentMagic.size() + 1;
std::string segment_header(std::uint8_t tier);

/// The segment footer: the index over `entries`, whose offsets and lengths
/// must tile [kSegmentHeaderBytes, index_offset), then the trailer.
std::string segment_footer(const std::vector<SegmentEntry>& entries,
                           std::uint64_t index_offset);

/// Build a complete segment file image: header, payloads, footer. Records
/// are laid out densely in the given order; the per-entry CRC is computed
/// here.
std::string build_segment(std::uint8_t tier,
                          const std::vector<SegmentRecord>& records);

/// Parse a segment footer that starts at file offset `index_offset`:
/// trailer, index checksum, and entries that tile the payload region
/// [kSegmentHeaderBytes, index_offset) exactly. Needs no payload byte.
util::Result<std::vector<SegmentEntry>> parse_segment_footer(
    std::string_view footer, std::uint64_t index_offset);

/// Parse header + trailer + index of a segment image. O(index) — capture
/// payloads are range-checked but not decoded (segment_capture_bytes does
/// that per entry). Fails on any structural or checksum violation.
util::Result<SegmentIndex> parse_segment_index(std::string_view file);

/// Slice + checksum one entry's capture bytes out of a segment image the
/// entry was parsed from. The returned view aliases `file`.
util::Result<std::string_view> segment_capture_bytes(std::string_view file,
                                                     const SegmentEntry& e);

// ---- Manifest -----------------------------------------------------------

inline constexpr std::string_view kManifestMagic = "BLMF2";

struct ManifestSegment {
  std::string file;  ///< segment file name in the store directory
  /// The tier of the capture it holds: summary once its raw tier is
  /// dropped, even while the file is still a raw segment.
  std::uint8_t tier = kTierRaw;

  bool operator==(const ManifestSegment&) const = default;
};

struct Manifest {
  std::uint64_t version = 0;
  std::uint64_t next_seq = 1;  ///< store sequence floor after recovery
  std::vector<ManifestSegment> segments;  ///< every live segment

  bool operator==(const Manifest&) const = default;
};

std::string encode_manifest(const Manifest& manifest);
util::Result<Manifest> parse_manifest(std::string_view bytes);

}  // namespace blab::store::persist
