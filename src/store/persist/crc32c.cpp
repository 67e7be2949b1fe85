#include "store/persist/crc32c.hpp"

#include <array>
#include <cstring>

#include "store/persist/crc32c_internal.hpp"

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

namespace blab::store::persist {
namespace {

// Reflected Castagnoli polynomial (0x1EDC6F41 bit-reversed).
constexpr std::uint32_t kPoly = 0x82F63B78u;

constexpr std::array<std::uint32_t, 256> make_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1u) ? (crc >> 1) ^ kPoly : crc >> 1;
    }
    table[i] = crc;
  }
  return table;
}

constexpr std::array<std::uint32_t, 256> kTable = make_table();

#if defined(__x86_64__)
// Only this function is compiled for SSE4.2, so the build needs no global
// -msse4.2 and runs on any x86-64; crc32c_selected() picks it only on CPUs
// that report SSE4.2. The instruction applies the same reflected Castagnoli
// update as the table loop, eight bytes per step in little-endian memory
// order.
__attribute__((target("sse4.2"))) std::uint32_t crc32c_sse42(
    std::string_view data, std::uint32_t crc) {
  const char* p = data.data();
  std::size_t n = data.size();
  std::uint64_t state = ~crc;
  for (; n >= 8; p += 8, n -= 8) {
    std::uint64_t word = 0;
    std::memcpy(&word, p, sizeof word);  // p need not be 8-byte aligned
    state = _mm_crc32_u64(state, word);
  }
  auto state32 = static_cast<std::uint32_t>(state);
  for (; n > 0; ++p, --n) {
    state32 = _mm_crc32_u8(state32, static_cast<unsigned char>(*p));
  }
  return ~state32;
}
#endif

}  // namespace

namespace detail {

std::uint32_t crc32c_table(std::string_view data, std::uint32_t crc) {
  crc = ~crc;
  for (unsigned char byte : data) {
    crc = (crc >> 8) ^ kTable[(crc ^ byte) & 0xFFu];
  }
  return ~crc;
}

Crc32cFn crc32c_selected() {
#if defined(__x86_64__)
  static const Crc32cFn selected = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("sse4.2") ? &crc32c_sse42 : &crc32c_table;
  }();
  return selected;
#else
  return &crc32c_table;
#endif
}

}  // namespace detail

std::uint32_t crc32c(std::string_view data, std::uint32_t crc) {
  return detail::crc32c_selected()(data, crc);
}

}  // namespace blab::store::persist
