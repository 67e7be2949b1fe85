// On-disk byte format for the persistent capture store (DESIGN.md §12).
//
// A segment file is its capture's ChunkedCapture image, byte for byte: it
// has no header or footer of its own. Everything else the store knows about
// a capture lives in the manifest, the store's one catalog:
//
//   Manifest "BLMF3" + version + next_seq + the entries + a trailing CRC
//            over everything before it. An entry is one capture's id,
//            name and stored_at, its segment file and tier, and its image's
//            length and CRC32C. Entries are strictly ascending by id.
//
// The format is canonical: no padding, no optional fields, exact length,
// and one order for the entries, in which a repeated id cannot be written.
// It is parsed from an in-memory buffer, so the parser is a total function
// over arbitrary bytes (the persist_fuzz harness drives it directly; file
// I/O lives in engine.cpp). It rejects rather than truncates: trailing
// bytes, unsorted or repeated ids, unknown tiers and a bad checksum are all
// hard errors, so two replicas that both accept a manifest agree on every
// byte.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "store/capture_store.hpp"
#include "util/result.hpp"
#include "util/time.hpp"

namespace blab::store::persist {

/// Retention tiers of a capture: raw chunks intact, or summary-only (raw
/// purged, footer/tier data remains).
inline constexpr std::uint8_t kTierRaw = 0;
inline constexpr std::uint8_t kTierSummary = 1;

inline constexpr std::string_view kManifestMagic = "BLMF3";

/// One capture's catalog record: a manifest entry, and the engine's index
/// entry.
struct ManifestEntry {
  CaptureId id;
  std::string name;
  util::TimePoint stored_at;
  std::string file;  ///< its segment file in the store directory
  /// The capture's tier: summary once its raw tier is dropped, even while
  /// its file is still a raw segment.
  std::uint8_t tier = kTierRaw;
  std::uint64_t length = 0;  ///< image bytes: the segment file's size
  std::uint32_t crc = 0;  ///< crc32c of the image

  bool operator==(const ManifestEntry&) const = default;
};

struct Manifest {
  std::uint64_t version = 0;
  std::uint64_t next_seq = 1;  ///< store sequence floor after recovery
  std::vector<ManifestEntry> entries;  ///< strictly ascending by id

  bool operator==(const Manifest&) const = default;
};

std::string encode_manifest(const Manifest& manifest);
/// Fails with kFailedPrecondition, naming the version, when `bytes` carry
/// the magic of another BLMF version, and with kInvalidArgument on any
/// other defect.
util::Result<Manifest> parse_manifest(std::string_view bytes);

}  // namespace blab::store::persist
