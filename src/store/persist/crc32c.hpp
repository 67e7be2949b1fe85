// CRC32C (Castagnoli) over byte buffers.
//
// Every persisted frame — WAL records, segment indexes, manifests — carries a
// CRC32C so recovery can tell a torn or bit-flipped tail from committed data.
// Castagnoli rather than the zlib polynomial because its error-detection
// properties for short records are better studied (it is what LevelDB/RocksDB
// and iSCSI use), and because x86-64 CPUs with SSE4.2 compute it in hardware.
//
// The checksum is on the persist hot path: each ~2.9 MB paper-job capture is
// checksummed twice, once when it is appended (the index records that CRC,
// and the WAL frame's CRC is combined from it with crc32c_combine) and once
// when a checkpoint seals it into a segment. A bytewise table loop ran at
// 250–285 MB/s, about a third of a paper job, so crc32c() uses the SSE4.2
// `crc32` instruction (8 bytes per step, ~20x faster on a 2.9 MB capture)
// when a one-time run-time check finds it, and the table loop on every other
// CPU. Both give bit-identical results (DESIGN.md §12).
#pragma once

#include <cstdint>
#include <string_view>

namespace blab::store::persist {

/// CRC32C of `data`, optionally chaining from a previous crc (pass the prior
/// return value to extend a running checksum). Deterministic, byte-order
/// independent of the host.
std::uint32_t crc32c(std::string_view data, std::uint32_t crc = 0);

/// CRC32C of the concatenation a‖b from crc32c(a), crc32c(b) and b's length,
/// without touching the bytes: zlib's crc32_combine technique (multiply
/// crc_a by x^(8·len_b) modulo the Castagnoli polynomial, then xor crc_b).
/// O(log len_b) steps.
std::uint32_t crc32c_combine(std::uint32_t crc_a, std::uint32_t crc_b,
                             std::uint64_t len_b);

}  // namespace blab::store::persist
