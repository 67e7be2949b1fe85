// Internals of crc32c() for its tests and the persist fuzz harness: the
// portable table implementation, and which implementation crc32c() runs on
// this CPU. Not part of the store's interface.
#pragma once

#include <cstdint>
#include <string_view>

namespace blab::store::persist::detail {

using Crc32cFn = std::uint32_t (*)(std::string_view data, std::uint32_t crc);

/// Bytewise-table CRC32C: the fallback on CPUs without SSE4.2 and the
/// reference the instruction path is tested against. Same contract as
/// crc32c().
std::uint32_t crc32c_table(std::string_view data, std::uint32_t crc = 0);

/// The implementation crc32c() calls: the SSE4.2 `crc32` instruction path
/// on x86-64 CPUs that report SSE4.2, crc32c_table everywhere else. Chosen
/// once, on first use.
Crc32cFn crc32c_selected();

}  // namespace blab::store::persist::detail
