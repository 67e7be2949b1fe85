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

// GF(2) polynomial arithmetic modulo the Castagnoli polynomial, in the
// reflected bit order the CRC uses (bit 31 is x^0). This is zlib's
// crc32_combine technique.

/// a(x)·b(x) modulo P(x).
constexpr std::uint32_t multmodp(std::uint32_t a, std::uint32_t b) {
  std::uint32_t product = 0;
  for (std::uint32_t m = 1u << 31; m != 0; m >>= 1) {
    if ((a & m) != 0) {
      product ^= b;
      if ((a & (m - 1)) == 0) break;
    }
    b = (b & 1u) ? (b >> 1) ^ kPoly : b >> 1;
  }
  return product;
}

/// kByteShift[k] = x^(8·2^k) modulo P(x): appending 2^k bytes to a
/// message multiplies its CRC register by this.
constexpr std::array<std::uint32_t, 64> make_byte_shift_table() {
  std::array<std::uint32_t, 64> table{};
  std::uint32_t p = 1u << 23;  // x^8
  for (std::uint32_t& entry : table) {
    entry = p;
    p = multmodp(p, p);
  }
  return table;
}

constexpr std::array<std::uint32_t, 64> kByteShift = make_byte_shift_table();

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

std::uint32_t crc32c_combine(std::uint32_t crc_a, std::uint32_t crc_b,
                             std::uint64_t len_b) {
  // x^(8·len_b), one table factor per set bit of len_b.
  std::uint32_t shift = 1u << 31;  // x^0
  for (std::size_t k = 0; len_b != 0; len_b >>= 1, ++k) {
    if ((len_b & 1u) != 0) shift = multmodp(kByteShift[k], shift);
  }
  return multmodp(shift, crc_a) ^ crc_b;
}

}  // namespace blab::store::persist
