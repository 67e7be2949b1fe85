#include "util/rng.hpp"

#include <bit>
#include <cmath>

namespace blab::util {
namespace {

std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9E3779B97F4A7C15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

// ---------------------------------------------------------------------------
// Ziggurat tables for the standard normal (256 layers, 52-bit mantissa
// variant). Layer 0 is the base strip whose overhang is the [r, inf) tail;
// layers 1..255 are rectangles of equal area kV stacked under
// f(x) = exp(-x^2/2). The accept test is integer-only: a draw at layer i is
// inside the strictly-under-the-curve part of its rectangle iff the 52-bit
// magnitude is below k[i], which happens for ~98.9% of draws and costs one
// u64, one table compare, and one multiply. w[i] converts the magnitude to
// x = rabs * w[i]; f[i] = f(x_i) feeds the wedge test on the slow path.
//
// The tables are a pure function of (kR, kV) and are rebuilt at process
// start; the statistical-quality suite in tests/util_test.cpp (moments, tail
// mass, chi-squared against the normal CDF) fails loudly on any table typo.
// ---------------------------------------------------------------------------

// Right edge of layer 1 / start of the tail, and the common layer area, for
// 256 layers: the canonical constants from Marsaglia & Tsang's setup solved
// at double precision.
constexpr double kZigR = 3.6541528853610088;
constexpr double kZigInvR = 1.0 / kZigR;
constexpr double kZigV = 0.00492867323399708743;
// Magnitudes carry 52 bits: the largest exactly-representable power of two
// below 2^53, so rabs * w stays exact-ish and the k compare is pure integer.
constexpr double kZigM = 4503599627370496.0;  // 2^52

struct ZigTables {
  std::uint64_t k[256];
  double w[256];
  double f[256];
};

ZigTables make_zig_tables() {
  ZigTables t;
  double dn = kZigR;
  double tn = kZigR;
  const double q = kZigV / std::exp(-0.5 * dn * dn);
  t.k[0] = static_cast<std::uint64_t>((dn / q) * kZigM);
  t.k[1] = 0;
  t.w[0] = q / kZigM;
  t.w[255] = dn / kZigM;
  t.f[0] = 1.0;
  t.f[255] = std::exp(-0.5 * dn * dn);
  for (int i = 254; i >= 1; --i) {
    dn = std::sqrt(-2.0 * std::log(kZigV / dn + std::exp(-0.5 * dn * dn)));
    t.k[i + 1] = static_cast<std::uint64_t>((dn / tn) * kZigM);
    tn = dn;
    t.f[i] = std::exp(-0.5 * dn * dn);
    t.w[i] = dn / kZigM;
  }
  return t;
}

const ZigTables kZig = make_zig_tables();

/// `x` signed by bit 8 of `draw`, XOR-ed into the sign bit. For the
/// non-negative magnitudes every layer yields this is exactly
/// `(draw & 0x100) ? -x : x`, -0.0 included, without the branch on a random
/// bit that GCC 12 at -O3 emits for the ternary.
double apply_sign(std::uint64_t draw, double x) {
  return std::bit_cast<double>(std::bit_cast<std::uint64_t>(x) ^
                               ((draw & 0x100) << 55));
}

}  // namespace

std::uint64_t fnv1a(std::string_view data) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (unsigned char c : data) {
    h ^= c;
    h *= 0x100000001B3ULL;
  }
  return h;
}

Rng::Rng(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& s : s_) s = splitmix64(sm);
}

Rng Rng::fork(std::string_view label) {
  // Mix the label hash with fresh output so forks are decorrelated from both
  // each other and the parent's future stream.
  return Rng{next_u64() ^ fnv1a(label)};
}

std::uint64_t Rng::next_u64() {
  const std::uint64_t result = rotl(s_[0] + s_[3], 23) + s_[0];
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

double Rng::uniform() {
  // 53-bit mantissa for uniform doubles in [0, 1).
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  if (lo >= hi) return lo;
  const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
  if (span == 0) {
    // Full [INT64_MIN, INT64_MAX]: every u64 maps to exactly one value.
    return static_cast<std::int64_t>(next_u64());
  }
  // Lemire's bounded rejection: map the draw through a 64x64->128 multiply;
  // the high word is uniform over [0, span) once draws landing in the biased
  // low-residue band (2^64 mod span values, < 1 in 2^32 for every span the
  // platform uses) are rejected and retried.
  unsigned __int128 m = static_cast<unsigned __int128>(next_u64()) * span;
  auto low = static_cast<std::uint64_t>(m);
  if (low < span) {
    const std::uint64_t threshold = (0 - span) % span;
    while (low < threshold) {
      m = static_cast<unsigned __int128>(next_u64()) * span;
      low = static_cast<std::uint64_t>(m);
    }
  }
  return lo + static_cast<std::int64_t>(static_cast<std::uint64_t>(m >> 64));
}

bool Rng::normal_edge(unsigned layer, double x, std::uint64_t draw,
                      double& out) {
  if (layer == 0) {
    // Tail beyond r: Marsaglia's exponential rejection, exact for the
    // density conditioned on |x| > r. log1p(-u) keeps u == 0 finite.
    double xx, yy;
    do {
      xx = -kZigInvR * std::log1p(-uniform());
      yy = -std::log1p(-uniform());
    } while (yy + yy <= xx * xx);
    const double v = kZigR + xx;
    out = apply_sign(draw, v);
    return true;
  }
  // Wedge between the rectangle top and the curve: accept x with probability
  // proportional to how far under f(x) the vertical draw lands.
  if (kZig.f[layer] + uniform() * (kZig.f[layer - 1] - kZig.f[layer]) <
      std::exp(-0.5 * x * x)) {
    out = apply_sign(draw, x);
    return true;
  }
  return false;
}

double Rng::normal() {
  for (;;) {
    const std::uint64_t u = next_u64();
    const auto layer = static_cast<unsigned>(u & 0xFF);
    const std::uint64_t rabs = u >> 12;  // top 52 bits, disjoint from layer/sign
    const double x = static_cast<double>(rabs) * kZig.w[layer];
    if (rabs < kZig.k[layer]) [[likely]] {
      return apply_sign(u, x);
    }
    double out;
    if (normal_edge(layer, x, u, out)) return out;
  }
}

double Rng::normal(double mean, double stddev) {
  return mean + stddev * normal();
}

void Rng::fill_normal(std::span<double> out, double mean, double stddev) {
  // Same sampler, same draw order: the loop body is normal() inlined, and
  // only the rare edge layers call out. The xoshiro state still lives in
  // the object: GCC 12 at -O3 loads and stores all four words on every
  // draw, and copying them into locals showed no measurable gain. Consumption
  // counting is what keeps scalar and batched streams bit-identical — each
  // sample eats exactly the u64s its own accept/reject path needs,
  // regardless of how draws are grouped.
  for (double& slot : out) {
    double z;
    for (;;) {
      const std::uint64_t u = next_u64();
      const auto layer = static_cast<unsigned>(u & 0xFF);
      const std::uint64_t rabs = u >> 12;
      const double x = static_cast<double>(rabs) * kZig.w[layer];
      if (rabs < kZig.k[layer]) [[likely]] {
        z = apply_sign(u, x);
        break;
      }
      if (normal_edge(layer, x, u, z)) break;
    }
    slot = mean + stddev * z;
  }
}

double Rng::lognormal_median(double median, double sigma) {
  return median * std::exp(sigma * normal());
}

double Rng::exponential(double mean) {
  double u = uniform();
  while (u <= 1e-300) u = uniform();
  return -mean * std::log(u);
}

bool Rng::chance(double p) { return uniform() < p; }

std::size_t Rng::weighted_index(const std::vector<double>& weights) {
  double total = 0.0;
  for (double w : weights) total += w;
  double x = uniform() * total;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    x -= weights[i];
    if (x < 0.0) return i;
  }
  return weights.empty() ? 0 : weights.size() - 1;
}

}  // namespace blab::util
