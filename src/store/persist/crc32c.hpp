// CRC32C (Castagnoli) over byte buffers.
//
// Every persisted capture image carries a CRC32C in its manifest entry, and
// every manifest one over itself, so a torn or bit-flipped file is told from
// committed data.
// Castagnoli rather than the zlib polynomial because its error-detection
// properties for short records are better studied (it is what LevelDB/RocksDB
// and iSCSI use), and because x86-64 CPUs with SSE4.2 compute it in hardware.
//
// The checksum is on the persist hot path: each ~2.9 MB paper-job capture is
// checksummed once, when it is appended (that CRC is its manifest entry's,
// and the capture is written to disk once, into its own segment).
// A bytewise table loop ran at 250–285 MB/s, about a third of a paper job,
// so crc32c() uses the SSE4.2 `crc32` instruction (8 bytes per step, ~20x
// faster on a 2.9 MB capture) when a one-time run-time check finds it, and
// the table loop on every other CPU. Both give bit-identical results
// (DESIGN.md §12).
#pragma once

#include <cstdint>
#include <string_view>

namespace blab::store::persist {

/// CRC32C of `data`, optionally chaining from a previous crc (pass the prior
/// return value to extend a running checksum). Deterministic, byte-order
/// independent of the host.
std::uint32_t crc32c(std::string_view data, std::uint32_t crc = 0);

}  // namespace blab::store::persist
