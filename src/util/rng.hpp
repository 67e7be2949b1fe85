// Deterministic random number generation.
//
// Every experiment in the repo takes an explicit seed; all stochastic behaviour
// (power-draw jitter, network jitter, page-content variation) flows through a
// Rng instance so runs are exactly reproducible. The generator is
// xoshiro256++, seeded via SplitMix64.
#pragma once

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

namespace blab::util {

class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ULL);

  /// Derive an independent child stream, e.g. one per device or per service,
  /// so adding consumers does not perturb other consumers' draws.
  Rng fork(std::string_view label);

  std::uint64_t next_u64();

  /// Uniform in [0, 1).
  double uniform();
  /// Uniform in [lo, hi).
  double uniform(double lo, double hi);
  /// Uniform integer in [lo, hi] inclusive, bias-free (Lemire bounded
  /// rejection: one 64x64->128 multiply in the common case, a rare extra
  /// draw when the first lands in the biased residue of the span).
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);
  /// Standard normal via a 256-layer ziggurat (McFarland/Marsaglia-Tsang
  /// layout). ~98.9% of draws consume exactly one u64 and cost a table
  /// lookup plus a multiply; the wedge and tail layers live in a cold
  /// function. The generator holds no cross-call sampler state: every draw
  /// consumes the same u64 sequence whether issued scalar or batched.
  double normal();
  double normal(double mean, double stddev);
  /// Fill `out` with normal(mean, stddev) draws. Guaranteed to produce the
  /// exact scalar sequence: fill_normal over n values consumes the generator
  /// identically to n calls of normal(mean, stddev), bit for bit — and any
  /// split of n into consecutive fills produces the same stream, so
  /// block-wise capture synthesis is free to choose its block size. The win
  /// is mechanical: one call per block, with normal() inlined into its loop.
  void fill_normal(std::span<double> out, double mean, double stddev);
  /// Log-normal with given *linear-space* median and sigma of underlying normal.
  double lognormal_median(double median, double sigma);
  /// Exponential with given mean.
  double exponential(double mean);
  /// Bernoulli trial.
  bool chance(double p);
  /// Pick an index in [0, weights.size()) proportionally to weights.
  std::size_t weighted_index(const std::vector<double>& weights);

  template <typename T>
  const T& pick(const std::vector<T>& items) {
    return items[static_cast<std::size_t>(
        uniform_int(0, static_cast<std::int64_t>(items.size()) - 1))];
  }

 private:
  /// Cold path for the ~1.1% of ziggurat draws that fall outside the
  /// all-rectangle fast accept: the wedge test for layers 1..255 and the
  /// Marsaglia exponential-rejection tail for layer 0. Bit 8 of `draw`, the
  /// u64 that picked the layer, signs the sample. Returns true with the
  /// sample in `out`, or false when the wedge rejects and the caller must
  /// redraw.
  bool normal_edge(unsigned layer, double x, std::uint64_t draw, double& out);

  std::uint64_t s_[4];
};

/// Stable 64-bit FNV-1a hash, used for fork labels and content hashing.
std::uint64_t fnv1a(std::string_view data);

}  // namespace blab::util
