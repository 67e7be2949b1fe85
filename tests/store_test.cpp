// Chunked capture store: codec losslessness, tier ladder edges, retention
// TTLs, LRU cache behavior, and the query API's footer/tier fast paths.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <filesystem>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/trace_io.hpp"
#include "hw/power_monitor.hpp"
#include "store/capture_store.hpp"
#include "store/chunked_capture.hpp"
#include "store/chunked_capture_internal.hpp"
#include "store/codec.hpp"
#include "util/rng.hpp"

namespace {

using blab::hw::Capture;
using blab::store::CaptureId;
using blab::store::CaptureStore;
using blab::store::ChunkedCapture;
using blab::store::RetentionPolicy;
using blab::store::detail::encode_reference;
using blab::util::Duration;
using blab::util::ErrorCode;
using blab::util::TimePoint;

/// A bounded random walk around `base` mA — realistic capture content where
/// consecutive samples are close, like a real Monsoon trace.
std::vector<float> walk_samples(std::uint64_t seed, std::size_t n,
                                double base = 300.0) {
  blab::util::Rng rng{seed};
  std::vector<float> samples;
  samples.reserve(n);
  double v = base;
  for (std::size_t i = 0; i < n; ++i) {
    v = std::clamp(v + rng.uniform(-8.0, 8.0), 5.0, 4500.0);
    samples.push_back(static_cast<float>(v));
  }
  return samples;
}

Capture make_capture(std::uint64_t seed, std::size_t n, double hz = 5000.0,
                     double voltage = 3.85) {
  return Capture{TimePoint::epoch(), hz, voltage, walk_samples(seed, n)};
}

// ------------------------------------------------------------------------
// Chunk codec and footers.
// ------------------------------------------------------------------------

TEST(ChunkedCapture, RoundTripIsLossless) {
  for (std::size_t n : {1u, 2u, 4095u, 4096u, 4097u, 10000u}) {
    const Capture original = make_capture(n, n);
    const ChunkedCapture cc = ChunkedCapture::encode(original);
    auto decoded = cc.decode();
    ASSERT_TRUE(decoded.ok()) << decoded.error().message;
    ASSERT_EQ(decoded.value().sample_count(), n);
    EXPECT_EQ(decoded.value().samples_ma(), original.samples_ma())
        << "n=" << n << " did not round-trip bit-exactly";
    EXPECT_EQ(decoded.value().start(), original.start());
    EXPECT_DOUBLE_EQ(decoded.value().sample_hz(), original.sample_hz());
    EXPECT_DOUBLE_EQ(decoded.value().voltage(), original.voltage());
  }
}

TEST(ChunkedCapture, EmptyCaptureIsRepresentable) {
  const Capture empty{TimePoint::epoch(), 5000.0, 3.85, {}};
  const ChunkedCapture cc = ChunkedCapture::encode(empty);
  EXPECT_EQ(cc.sample_count(), 0u);
  EXPECT_EQ(cc.chunk_count(), 0u);
  EXPECT_TRUE(cc.tiers().empty());
  EXPECT_DOUBLE_EQ(cc.mean_ma(), 0.0);
  EXPECT_DOUBLE_EQ(cc.energy_mwh(), 0.0);
  auto decoded = cc.decode();
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().sample_count(), 0u);
  auto reloaded = ChunkedCapture::deserialize(cc.serialize());
  ASSERT_TRUE(reloaded.ok()) << reloaded.error().message;
  EXPECT_EQ(reloaded.value().sample_count(), 0u);
}

TEST(ChunkedCapture, SingleSampleTailChunk) {
  const Capture original = make_capture(9, 9);
  const ChunkedCapture cc = ChunkedCapture::encode(original, 4);
  ASSERT_EQ(cc.chunk_count(), 3u);
  EXPECT_EQ(cc.footer(0).count, 4u);
  EXPECT_EQ(cc.footer(1).count, 4u);
  EXPECT_EQ(cc.footer(2).count, 1u);
  auto tail = cc.decode_chunk(2);
  ASSERT_TRUE(tail.ok());
  ASSERT_EQ(tail.value().size(), 1u);
  EXPECT_EQ(tail.value()[0], original.samples_ma()[8]);
  EXPECT_EQ(cc.footer(2).min_ma, original.samples_ma()[8]);
  EXPECT_EQ(cc.footer(2).max_ma, original.samples_ma()[8]);
}

TEST(ChunkedCapture, FooterSummariesMatchSequentialScan) {
  const Capture original = make_capture(77, 10000);
  const ChunkedCapture cc = ChunkedCapture::encode(original);
  double sum = 0.0;
  float lo = original.samples_ma()[0];
  float hi = lo;
  for (float v : original.samples_ma()) {
    sum += static_cast<double>(v);
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  const double mean = sum / 10000.0;
  // Chunk partial sums re-associate the addition; last-ulp drift only.
  EXPECT_NEAR(cc.mean_ma(), mean, 1e-6 * std::abs(mean));
  EXPECT_EQ(cc.min_ma(), static_cast<double>(lo));
  EXPECT_EQ(cc.max_ma(), static_cast<double>(hi));
  EXPECT_NEAR(cc.energy_mwh(), original.energy_mwh(),
              1e-6 * std::abs(original.energy_mwh()));
}

// ------------------------------------------------------------------------
// Tier ladder.
// ------------------------------------------------------------------------

TEST(ChunkedCapture, TierLadderAtExactBoundaries) {
  // 10000 samples at 5 kHz: 50 Hz tier = factor 100 -> 100 buckets,
  // 1 Hz tier = factor 5000 -> 2 buckets, no partial tail anywhere.
  const ChunkedCapture cc = ChunkedCapture::encode(make_capture(1, 10000));
  ASSERT_EQ(cc.tiers().size(), 2u);
  EXPECT_EQ(cc.tiers()[0].factor, 100u);
  EXPECT_DOUBLE_EQ(cc.tiers()[0].rate_hz, 50.0);
  EXPECT_EQ(cc.tiers()[0].buckets(), 100u);
  EXPECT_EQ(cc.tiers()[1].factor, 5000u);
  EXPECT_DOUBLE_EQ(cc.tiers()[1].rate_hz, 1.0);
  EXPECT_EQ(cc.tiers()[1].buckets(), 2u);
}

TEST(ChunkedCapture, TierPartialTailBucket) {
  // One sample past the boundary adds a one-sample bucket to every tier.
  const Capture original = make_capture(2, 10001);
  const ChunkedCapture cc = ChunkedCapture::encode(original);
  ASSERT_EQ(cc.tiers().size(), 2u);
  EXPECT_EQ(cc.tiers()[0].buckets(), 101u);
  EXPECT_EQ(cc.tiers()[1].buckets(), 3u);
  const float last = original.samples_ma()[10000];
  EXPECT_EQ(cc.tiers()[0].mean_ma.back(), last);
  EXPECT_EQ(cc.tiers()[0].min_ma.back(), last);
  EXPECT_EQ(cc.tiers()[0].max_ma.back(), last);
}

TEST(ChunkedCapture, TiersAtOrAboveRawRateAreSkipped) {
  // At 50 Hz raw, the 50 Hz target is redundant; only 1 Hz survives.
  const ChunkedCapture at50 =
      ChunkedCapture::encode(make_capture(3, 500, /*hz=*/50.0));
  ASSERT_EQ(at50.tiers().size(), 1u);
  EXPECT_EQ(at50.tiers()[0].factor, 50u);
  EXPECT_DOUBLE_EQ(at50.tiers()[0].rate_hz, 1.0);
  // At 1 Hz raw there is nothing left to downsample.
  const ChunkedCapture at1 =
      ChunkedCapture::encode(make_capture(4, 10, /*hz=*/1.0));
  EXPECT_TRUE(at1.tiers().empty());
  EXPECT_EQ(at1.finest_tier(), nullptr);
}

TEST(ChunkedCapture, TierMeansAgreeWithRawWindows) {
  const Capture original = make_capture(5, 10000);
  const ChunkedCapture cc = ChunkedCapture::encode(original);
  const auto& tier = cc.tiers()[0];  // 50 Hz, factor 100
  for (std::size_t b : {0u, 37u, 99u}) {
    double sum = 0.0;
    for (std::size_t i = b * 100; i < (b + 1) * 100; ++i) {
      sum += static_cast<double>(original.samples_ma()[i]);
    }
    EXPECT_NEAR(tier.mean_ma[b], sum / 100.0, 1e-3) << "bucket " << b;
  }
}

// ------------------------------------------------------------------------
// Serialization.
// ------------------------------------------------------------------------

TEST(ChunkedCapture, ReencodeIsByteIdentical) {
  const Capture original = make_capture(6, 9001);
  const std::string first{ChunkedCapture::encode(original).serialize()};
  const std::string second{ChunkedCapture::encode(original).serialize()};
  EXPECT_EQ(first, second);
}

TEST(ChunkedCapture, SerializeDeserializeRoundTrip) {
  const Capture original = make_capture(7, 8193);
  const ChunkedCapture cc = ChunkedCapture::encode(original);
  auto reloaded = ChunkedCapture::deserialize(cc.serialize());
  ASSERT_TRUE(reloaded.ok()) << reloaded.error().message;
  const ChunkedCapture& rc = reloaded.value();
  EXPECT_EQ(rc.sample_count(), cc.sample_count());
  EXPECT_EQ(rc.chunk_count(), cc.chunk_count());
  EXPECT_EQ(rc.tiers().size(), cc.tiers().size());
  EXPECT_EQ(rc.serialize(), cc.serialize());
  auto decoded = rc.decode();
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().samples_ma(), original.samples_ma());
}

TEST(ChunkedCapture, PurgedRawSurvivesSerialization) {
  ChunkedCapture cc = ChunkedCapture::encode(make_capture(8, 9000));
  const double mean = cc.mean_ma();
  cc.drop_raw();
  auto reloaded = ChunkedCapture::deserialize(cc.serialize());
  ASSERT_TRUE(reloaded.ok());
  EXPECT_FALSE(reloaded.value().raw_available());
  EXPECT_DOUBLE_EQ(reloaded.value().mean_ma(), mean);
  EXPECT_EQ(reloaded.value().decode().error().code,
            ErrorCode::kFailedPrecondition);
}

TEST(ChunkedCapture, DeserializeRejectsMalformedBytes) {
  const std::string good{
      ChunkedCapture::encode(make_capture(9, 5000)).serialize()};
  EXPECT_FALSE(ChunkedCapture::deserialize("").ok());
  EXPECT_FALSE(ChunkedCapture::deserialize("XXXX" + good.substr(4)).ok());
  EXPECT_FALSE(
      ChunkedCapture::deserialize(good.substr(0, good.size() / 2)).ok());
  EXPECT_FALSE(ChunkedCapture::deserialize(good + std::string(1, '\0')).ok());
}

// ------------------------------------------------------------------------
// The single-pass encoder against the four-pass reference.
// ------------------------------------------------------------------------

/// Byte offset of the first difference, or the shorter length when one is a
/// prefix of the other; npos when equal. Keeps failures readable on
/// multi-kilobyte images.
std::size_t first_difference(std::string_view a, std::string_view b) {
  if (a == b) return std::string::npos;
  const auto mismatch = std::mismatch(a.begin(), a.end(), b.begin(), b.end());
  return static_cast<std::size_t>(mismatch.first - a.begin());
}

/// encode() must produce the reference image byte for byte, and drop_raw()
/// and summary_image() the reference summary image.
void expect_matches_reference(const Capture& capture,
                              std::size_t chunk_samples) {
  SCOPED_TRACE(::testing::Message()
               << capture.sample_count() << " samples at "
               << capture.sample_hz() << " Hz, chunk_samples "
               << chunk_samples);
  ChunkedCapture cc = ChunkedCapture::encode(capture, chunk_samples);
  const std::string raw = encode_reference(capture, chunk_samples);
  EXPECT_EQ(first_difference(cc.serialize(), raw), std::string::npos)
      << "image " << cc.serialize().size() << " B, reference " << raw.size()
      << " B";
  EXPECT_EQ(cc.byte_size(), raw.size());
  cc.drop_raw();
  const std::string summary =
      encode_reference(capture, chunk_samples, /*drop_raw=*/true);
  EXPECT_EQ(first_difference(cc.serialize(), summary), std::string::npos)
      << "summary " << cc.serialize().size() << " B, reference "
      << summary.size() << " B";
  // summary_image validates like deserialize, which rejects non-finite
  // footer sums (the special-value captures below).
  const auto demoted = ChunkedCapture::summary_image(raw);
  ASSERT_EQ(demoted.ok(), ChunkedCapture::deserialize(raw).ok());
  if (demoted.ok()) {
    EXPECT_EQ(first_difference(demoted.value(), summary), std::string::npos);
  }
}

TEST(EncoderDifferential, LengthsAroundChunkAndTierBoundaries) {
  // Empty, one sample, fewer samples than the 50 Hz tier's factor (100),
  // and lengths just off multiples of 100, 4096 and 5000 — every way a
  // chunk, a 50 Hz bucket and a 1 Hz bucket can end together or apart.
  std::vector<std::size_t> lengths{0, 1, 2, 37, 99};
  for (std::size_t unit : {100u, 4096u, 5000u}) {
    for (std::size_t k : {1u, 2u, 3u}) {
      for (std::size_t n : {k * unit - 1, k * unit, k * unit + 1}) {
        lengths.push_back(n);
      }
    }
  }
  lengths.push_back(20480);  // 5 chunks, 204.8 tier buckets
  for (std::size_t chunk_samples : {1u, 7u, 100u, 4096u, 5000u}) {
    for (std::size_t n : lengths) {
      expect_matches_reference(make_capture(n + 1, n), chunk_samples);
    }
  }
}

TEST(EncoderDifferential, TierLaddersAtOtherRates) {
  // 50 Hz keeps only the 1 Hz tier (factor 50); 100 Hz gets a factor-2
  // tier; 60 Hz one tier of 60; 1.5 Hz rounds to factor 2; 1 Hz has none.
  for (double hz : {50.0, 100.0, 60.0, 1.5, 1.0}) {
    for (std::size_t n : {0u, 1u, 2u, 3u, 49u, 50u, 51u, 99u, 100u, 101u,
                          1001u}) {
      for (std::size_t chunk_samples : {1u, 7u, 100u, 4096u}) {
        expect_matches_reference(make_capture(n, n, hz), chunk_samples);
      }
    }
  }
}

TEST(EncoderDifferential, SpecialValuesAtEveryBoundary) {
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float denormal = std::numeric_limits<float>::denorm_min();
  const std::vector<float> finite{
      -1.5f, -0.0f, 0.0f, denormal, -denormal,
      std::numeric_limits<float>::min() / 4, std::numeric_limits<float>::max(),
      std::numeric_limits<float>::lowest(), -300.25f};
  // One family per kind of non-finite sample. Within a family every chunk
  // and bucket sum meets at most one NaN bit pattern: a sum that meets two
  // different NaNs keeps whichever one the compiler's operand order puts
  // first, which is a property of the build, not of either encoder. (+inf
  // meeting -inf yields the CPU's default NaN, so the NaN families carry
  // no infinities.)
  std::vector<std::vector<float>> families;
  families.push_back(finite);
  for (float extra : {inf, -inf}) families.back().push_back(extra);
  for (float extra : {nan, -nan, std::bit_cast<float>(0x7F800001u)}) {
    families.push_back(finite);
    families.back().push_back(extra);
  }
  for (const std::vector<float>& specials : families) {
    // Specials dense everywhere, and specials only where chunks and buckets
    // start (where min/max are seeded) with the walk in between.
    std::vector<float> dense(10007);
    for (std::size_t i = 0; i < dense.size(); ++i) {
      dense[i] = specials[(i * 7919) % specials.size()];
    }
    std::vector<float> seeded = walk_samples(5, 10007);
    for (std::size_t i = 0; i < seeded.size(); ++i) {
      if (i % 100 == 0 || i % 4096 == 0 || i % 7 == 0) {
        seeded[i] = specials[(i / 7) % specials.size()];
      }
    }
    for (const auto* samples : {&dense, &seeded}) {
      const Capture capture{TimePoint::from_micros(-12345), 5000.0, -3.7,
                            *samples};
      for (std::size_t chunk_samples : {1u, 7u, 100u, 4096u, 5000u}) {
        expect_matches_reference(capture, chunk_samples);
      }
    }
  }
}

TEST(EncoderDifferential, MappedImagesCopyAndShrink) {
  // 400k samples: the worst-case buffer and the image both pass 1 MiB, so
  // the image lives in its own mapping; copies and drop_raw must keep the
  // bytes and leave the source untouched.
  const Capture capture = make_capture(14, 400000);
  expect_matches_reference(capture, ChunkedCapture::kDefaultChunkSamples);
  const ChunkedCapture original = ChunkedCapture::encode(capture);
  const std::string raw = encode_reference(
      capture, ChunkedCapture::kDefaultChunkSamples);
  ASSERT_GT(raw.size(), std::size_t{1} << 20);
  ChunkedCapture copy = original;
  EXPECT_EQ(first_difference(copy.serialize(), raw), std::string::npos);
  copy.drop_raw();
  EXPECT_EQ(first_difference(original.serialize(), raw), std::string::npos);
  EXPECT_EQ(first_difference(copy.serialize(),
                             encode_reference(
                                 capture, ChunkedCapture::kDefaultChunkSamples,
                                 /*drop_raw=*/true)),
            std::string::npos);
  copy = original;
  auto decoded = copy.decode();
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().samples_ma(), capture.samples_ma());
}

TEST(EncoderDifferential, FiveByteVarints) {
  // Bit patterns 0 and 0xFFFFFFFF alternate: every delta is ±(2^32 - 1),
  // whose zigzag needs 34 bits, so every sample after a chunk's first takes
  // the codec's worst case of five bytes.
  std::vector<float> samples(9001);
  for (std::size_t i = 0; i < samples.size(); ++i) {
    samples[i] = std::bit_cast<float>(i % 2 == 0 ? 0u : 0xFFFFFFFFu);
  }
  EXPECT_EQ(blab::store::encode_samples(samples.data(), samples.size()).size(),
            1 + (samples.size() - 1) * blab::store::kMaxSampleBytes);
  const Capture capture{TimePoint::epoch(), 5000.0, 3.85, samples};
  for (std::size_t chunk_samples : {1u, 7u, 100u, 4096u, 5000u}) {
    expect_matches_reference(capture, chunk_samples);
  }
}

// ----------------------------------------------- adversarial codec input ----

TEST(Codec, VarintRejectsTruncatedOverlongAndOverflowing) {
  using blab::store::get_varint;
  using blab::store::put_varint;
  std::uint64_t v = 0;

  // Truncated: continuation bit set on the last available byte.
  const std::string truncated{"\x80", 1};
  EXPECT_EQ(get_varint(truncated.data(),
                       truncated.data() + truncated.size(), v),
            nullptr);

  // Overlong: a non-canonical trailing zero byte ("\x80\x00" also encodes 0).
  const std::string overlong{"\x80\x00", 2};
  EXPECT_EQ(get_varint(overlong.data(), overlong.data() + overlong.size(), v),
            nullptr);

  // Overflowing: 10th byte carries bits above bit 63.
  std::string overflow(9, '\xFF');
  overflow.push_back('\x02');
  EXPECT_EQ(get_varint(overflow.data(), overflow.data() + overflow.size(), v),
            nullptr);

  // The canonical max encoding (2^64-1) still decodes.
  std::string max_enc;
  put_varint(max_enc, ~0ULL);
  EXPECT_NE(get_varint(max_enc.data(), max_enc.data() + max_enc.size(), v),
            nullptr);
  EXPECT_EQ(v, ~0ULL);

  // Every canonical encoding round-trips to the exact same bytes.
  for (const std::uint64_t val :
       {0ULL, 1ULL, 127ULL, 128ULL, 16383ULL, 16384ULL, 1ULL << 32,
        ~0ULL >> 1, ~0ULL}) {
    std::string enc;
    put_varint(enc, val);
    std::uint64_t back = 0;
    const char* p = get_varint(enc.data(), enc.data() + enc.size(), back);
    ASSERT_EQ(p, enc.data() + enc.size());
    EXPECT_EQ(back, val);
  }
}

TEST(Codec, DecodeSamplesRejectsHostileCounts) {
  using blab::store::decode_samples;
  using blab::store::encode_samples;
  const std::vector<float> samples{1.0f, 1.5f, 2.0f, -3.25f};
  const std::string bytes = encode_samples(samples.data(), samples.size());

  std::vector<float> out;
  // A count larger than the payload could possibly hold is rejected before
  // any allocation (each sample is at least one varint byte).
  EXPECT_FALSE(decode_samples(bytes, 1u << 31, out));
  EXPECT_TRUE(out.empty());

  // Off-by-one counts fail: trailing bytes and truncation are both errors.
  EXPECT_FALSE(decode_samples(bytes, samples.size() - 1, out));
  EXPECT_FALSE(decode_samples(bytes, samples.size() + 1, out));

  // Non-canonical payload bytes fail even when the count fits.
  EXPECT_FALSE(decode_samples(std::string{"\x80\x00", 2}, 1, out));

  // And the honest decode still works and re-encodes byte-identically.
  out.clear();
  ASSERT_TRUE(decode_samples(bytes, samples.size(), out));
  EXPECT_EQ(out, samples);
  EXPECT_EQ(encode_samples(out.data(), out.size()), bytes);
}

TEST(ChunkedCapture, DeserializeRejectsNonCanonicalHeaderFields) {
  const auto cc = ChunkedCapture::encode(make_capture(11, 300));
  const std::string good{cc.serialize()};

  // Accepted bytes must re-serialize identically (the fuzz invariant).
  const auto back = ChunkedCapture::deserialize(good);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().serialize(), good);

  // Single-byte corruption anywhere must never crash; it either fails with
  // a typed error or yields a capture that still re-serializes losslessly.
  for (std::size_t i = 0; i < good.size(); ++i) {
    std::string bad = good;
    bad[i] = static_cast<char>(bad[i] ^ 0x10);
    const auto r = ChunkedCapture::deserialize(bad);
    if (r.ok()) {
      EXPECT_EQ(r.value().serialize(), bad) << "byte " << i;
    }
  }
}

TEST(ChunkedCapture, CompressionBeatsCsvByFourX) {
  const Capture original = make_capture(10, 25000);
  const ChunkedCapture cc = ChunkedCapture::encode(original);
  std::ostringstream csv;
  blab::analysis::write_capture_csv(original, csv);
  EXPECT_LE(cc.byte_size() * 4, csv.str().size())
      << "chunked " << cc.byte_size() << " B vs CSV " << csv.str().size()
      << " B";
}

TEST(TraceIo, ChunkedAdaptersRoundTrip) {
  const Capture original = make_capture(11, 6000);
  std::ostringstream os;
  blab::analysis::write_capture_chunked(original, os);
  std::istringstream is{os.str()};
  auto reloaded = blab::analysis::read_capture_chunked_stream(is);
  ASSERT_TRUE(reloaded.ok()) << reloaded.error().message;
  EXPECT_EQ(reloaded.value().samples_ma(), original.samples_ma());
  EXPECT_DOUBLE_EQ(reloaded.value().sample_hz(), original.sample_hz());
  EXPECT_DOUBLE_EQ(reloaded.value().voltage(), original.voltage());
  EXPECT_EQ(reloaded.value().start(), original.start());
}

TEST(TraceIo, FileWritersReportFailedWrites) {
  // Every write to /dev/full fails with ENOSPC. A large capture fails while
  // it is written, a small one only when the close flushes the buffer.
  if (!std::filesystem::exists("/dev/full")) {
    GTEST_SKIP() << "/dev/full does not exist on this system";
  }
  for (std::size_t n : {200000u, 10u}) {
    SCOPED_TRACE(::testing::Message() << n << " samples");
    const Capture capture = make_capture(13, n);
    const auto csv = blab::analysis::write_capture_csv(capture, "/dev/full");
    ASSERT_FALSE(csv.ok());
    EXPECT_EQ(csv.error().code, ErrorCode::kUnavailable);
    const auto chunked =
        blab::analysis::write_capture_chunked(capture, "/dev/full");
    ASSERT_FALSE(chunked.ok());
    EXPECT_EQ(chunked.error().code, ErrorCode::kUnavailable);
  }
}

// ------------------------------------------------------------------------
// CaptureStore: lookup and queries.
// ------------------------------------------------------------------------

TEST(CaptureStore, WorkspacesAndListingsAreSorted) {
  CaptureStore store;
  const auto b1 = store.append("job-b", "m0", make_capture(20, 100),
                               TimePoint::epoch());
  const auto a1 = store.append("job-a", "m1", make_capture(21, 100),
                               TimePoint::epoch());
  const auto a2 = store.append("job-a", "m2", make_capture(22, 100),
                               TimePoint::epoch());
  EXPECT_EQ(store.size(), 3u);
  EXPECT_EQ(store.workspaces(),
            (std::vector<std::string>{"job-a", "job-b"}));
  EXPECT_EQ(store.list("job-a"), (std::vector<CaptureId>{a1, a2}));
  EXPECT_EQ(store.list("job-b"), (std::vector<CaptureId>{b1}));
  EXPECT_LT(a1.seq, a2.seq);
  EXPECT_EQ(store.name_of(a2), "m2");
  EXPECT_FALSE(store.contains(CaptureId{"job-c", 99}));
  EXPECT_EQ(store.mean_ma(CaptureId{"job-c", 99}).error().code,
            ErrorCode::kNotFound);
}

TEST(CaptureStore, RangeReturnsExactSubrange) {
  CaptureStore store;
  const Capture original = make_capture(23, 10000);  // 2 s at 5 kHz
  const auto id =
      store.append("job", "m", original, TimePoint::epoch());
  auto slice = store.range(id, TimePoint::epoch() + Duration::seconds(0.25),
                           TimePoint::epoch() + Duration::seconds(0.5));
  ASSERT_TRUE(slice.ok()) << slice.error().message;
  ASSERT_EQ(slice.value().sample_count(), 1250u);
  for (std::size_t i = 0; i < 1250; ++i) {
    ASSERT_EQ(slice.value().samples_ma()[i], original.samples_ma()[1250 + i])
        << "sample " << i;
  }
  EXPECT_EQ(slice.value().start(),
            TimePoint::epoch() + Duration::seconds(0.25));
  // Out-of-bounds clamps; inverted range is an error.
  auto whole = store.range(id, TimePoint::epoch() - Duration::seconds(5),
                           TimePoint::epoch() + Duration::seconds(99));
  ASSERT_TRUE(whole.ok());
  EXPECT_EQ(whole.value().samples_ma(), original.samples_ma());
  EXPECT_EQ(store.range(id, TimePoint::epoch() + Duration::seconds(1),
                        TimePoint::epoch()).error().code,
            ErrorCode::kInvalidArgument);
}

TEST(CaptureStore, SummaryQueriesNeverDecodeRawChunks) {
  CaptureStore store;
  const Capture original = make_capture(24, 10000);
  const auto id = store.append("job", "m", original, TimePoint::epoch());

  auto whole = store.aggregate(id, Duration::seconds(60));
  ASSERT_TRUE(whole.ok());
  ASSERT_EQ(whole.value().size(), 1u);
  EXPECT_NEAR(whole.value()[0].mean_ma, original.mean_current_ma(),
              1e-6 * original.mean_current_ma());
  EXPECT_EQ(whole.value()[0].samples, 10000u);

  auto cdf = store.percentiles(id);
  ASSERT_TRUE(cdf.ok());
  EXPECT_EQ(cdf.value().count(), 100u);  // 50 Hz tier bucket means

  auto energy = store.energy_mwh(id);
  ASSERT_TRUE(energy.ok());
  EXPECT_NEAR(energy.value(), original.energy_mwh(),
              1e-6 * original.energy_mwh());

  // The acceptance bar: summaries come from footers/tiers alone.
  EXPECT_EQ(store.stats().raw_chunk_decodes, 0u);
  EXPECT_EQ(store.stats().tier_queries, 3u);  // aggregate + cdf + energy
  EXPECT_TRUE(store.mean_ma(id).ok());
  EXPECT_EQ(store.stats().tier_queries, 4u);
  EXPECT_EQ(store.stats().raw_chunk_decodes, 0u);
}

TEST(CaptureStore, CatalogFiltersByStoredAtAndSortsById) {
  CaptureStore store;
  const auto b = store.append("job-b", "m0", make_capture(40, 100),
                              TimePoint::epoch() + Duration::minutes(1));
  const auto a = store.append("job-a", "m1", make_capture(41, 100),
                              TimePoint::epoch() + Duration::minutes(5));
  const auto c = store.append("job-c", "m2", make_capture(42, 100),
                              TimePoint::epoch() + Duration::minutes(9));
  // Ascending CaptureId order regardless of insertion order — the rollup
  // engine's determinism contract leans on this.
  EXPECT_EQ(store.catalog(TimePoint::epoch(), TimePoint::max()),
            (std::vector<CaptureId>{a, b, c}));
  // [t0, t1) filters on stored_at.
  EXPECT_EQ(store.catalog(TimePoint::epoch(),
                          TimePoint::epoch() + Duration::minutes(5)),
            (std::vector<CaptureId>{b}));
  EXPECT_EQ(store.catalog(TimePoint::epoch() + Duration::minutes(5),
                          TimePoint::max()),
            (std::vector<CaptureId>{a, c}));
  EXPECT_TRUE(store.catalog(TimePoint::epoch() + Duration::minutes(30),
                            TimePoint::max())
                  .empty());
}

TEST(CaptureStore, SummaryServesFooterAggregatesWithoutRawDecodes) {
  CaptureStore store;
  const Capture original = make_capture(43, 10000);  // 2 s at 5 kHz
  const auto stored_at = TimePoint::epoch() + Duration::seconds(7);
  const auto id = store.append("job", "m", original, stored_at);
  const auto summary = store.summary(id);
  ASSERT_TRUE(summary.ok()) << summary.error().message;
  const auto& s = summary.value();
  EXPECT_EQ(s.id, id);
  EXPECT_EQ(s.name, "m");
  EXPECT_EQ(s.stored_at, stored_at);
  EXPECT_EQ(s.start, original.start());
  EXPECT_EQ(s.samples, 10000u);
  EXPECT_DOUBLE_EQ(s.sample_hz, original.sample_hz());
  EXPECT_DOUBLE_EQ(s.voltage, original.voltage());
  EXPECT_NEAR(s.mean_ma, original.mean_current_ma(),
              1e-6 * original.mean_current_ma());
  EXPECT_NEAR(s.energy_mwh, original.energy_mwh(),
              1e-6 * original.energy_mwh());
  EXPECT_GT(s.charge_mah, 0.0);
  EXPECT_LE(s.min_ma, s.max_ma);
  // The summary must agree exactly with the individual footer queries the
  // rollup-accuracy oracle chains to.
  EXPECT_EQ(s.energy_mwh, store.energy_mwh(id).value());
  EXPECT_EQ(s.mean_ma, store.mean_ma(id).value());
  EXPECT_EQ(store.stats().raw_chunk_decodes, 0u);
  EXPECT_EQ(store.summary(CaptureId{"ghost", 1}).error().code,
            ErrorCode::kNotFound);
}

TEST(CaptureStore, WindowedAggregateMatchesRawMeans) {
  CaptureStore store;
  const Capture original = make_capture(25, 10000);  // 2 s at 5 kHz
  const auto id = store.append("job", "m", original, TimePoint::epoch());
  auto buckets = store.aggregate(id, Duration::seconds(0.1));
  ASSERT_TRUE(buckets.ok()) << buckets.error().message;
  ASSERT_EQ(buckets.value().size(), 20u);  // 2 s / 100 ms
  for (std::size_t b : {0u, 7u, 19u}) {
    double sum = 0.0;
    for (std::size_t i = b * 500; i < (b + 1) * 500; ++i) {
      sum += static_cast<double>(original.samples_ma()[i]);
    }
    EXPECT_NEAR(buckets.value()[b].mean_ma, sum / 500.0, 1e-2)
        << "bucket " << b;
    EXPECT_EQ(buckets.value()[b].samples, 500u);
  }
  EXPECT_EQ(store.stats().raw_chunk_decodes, 0u);
}

TEST(CaptureStore, WindowFinerThanFinestTierIsUnsupported) {
  CaptureStore store;
  const auto id =
      store.append("job", "m", make_capture(26, 10000), TimePoint::epoch());
  // 1 ms windows need the raw 5 kHz stream, not the 50 Hz tier.
  auto result = store.aggregate(id, Duration::millis(1));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, ErrorCode::kUnsupported);
  EXPECT_EQ(store.aggregate(id, Duration::zero()).error().code,
            ErrorCode::kInvalidArgument);
}

// ------------------------------------------------------------------------
// Retention.
// ------------------------------------------------------------------------

TEST(CaptureStore, TtlPurgesRawFirstThenSummaries) {
  RetentionPolicy policy;
  policy.raw_ttl = Duration::minutes(30);
  policy.summary_ttl = Duration::minutes(240);
  CaptureStore store{policy};
  const Capture original = make_capture(27, 10000);
  const auto id = store.append("job", "m", original, TimePoint::epoch());

  // Mid-life: a raw query works, then retention crosses the raw TTL and the
  // same query degrades to an explicit precondition failure while every
  // summary keeps answering.
  ASSERT_TRUE(store.range(id, TimePoint::epoch(),
                          TimePoint::epoch() + Duration::seconds(1)).ok());
  EXPECT_EQ(store.run_retention(TimePoint::epoch() + Duration::minutes(29)),
            0u);
  EXPECT_EQ(store.run_retention(TimePoint::epoch() + Duration::minutes(31)),
            1u);
  EXPECT_EQ(store.stats().raw_purges, 1u);
  auto range = store.range(id, TimePoint::epoch(),
                           TimePoint::epoch() + Duration::seconds(1));
  ASSERT_FALSE(range.ok());
  EXPECT_EQ(range.error().code, ErrorCode::kFailedPrecondition);
  EXPECT_TRUE(store.contains(id));
  EXPECT_TRUE(store.percentiles(id).ok());
  EXPECT_NEAR(store.mean_ma(id).value(), original.mean_current_ma(),
              1e-6 * original.mean_current_ma());
  ASSERT_TRUE(store.aggregate(id, Duration::seconds(0.1)).ok());

  // A second raw purge pass is a no-op; the summary TTL erases the record.
  EXPECT_EQ(store.run_retention(TimePoint::epoch() + Duration::minutes(60)),
            0u);
  EXPECT_EQ(store.run_retention(TimePoint::epoch() + Duration::minutes(241)),
            1u);
  EXPECT_EQ(store.stats().record_purges, 1u);
  EXPECT_FALSE(store.contains(id));
  EXPECT_EQ(store.percentiles(id).error().code, ErrorCode::kNotFound);
}

TEST(CaptureStore, WorkspacePurgeLeavesOtherJobsRaw) {
  CaptureStore store;
  const auto a =
      store.append("job-a", "m", make_capture(28, 9000), TimePoint::epoch());
  const auto b =
      store.append("job-b", "m", make_capture(29, 9000), TimePoint::epoch());
  EXPECT_EQ(store.drop_workspace_raw("job-a"), 1u);
  EXPECT_EQ(store.range(a, TimePoint::epoch(),
                        TimePoint::epoch() + Duration::seconds(1))
                .error()
                .code,
            ErrorCode::kFailedPrecondition);
  EXPECT_TRUE(store.range(b, TimePoint::epoch(),
                          TimePoint::epoch() + Duration::seconds(1)).ok());
  // Repeat purge finds nothing left to drop.
  EXPECT_EQ(store.drop_workspace_raw("job-a"), 0u);
}

// ------------------------------------------------------------------------
// LRU cache.
// ------------------------------------------------------------------------

TEST(CaptureStore, LruEvictsUnderInterleavedReaders) {
  // Two 3-chunk captures sharing a 2-chunk cache: interleaved readers force
  // evictions but never wrong data.
  CaptureStore store{RetentionPolicy{}, /*cache_chunks=*/2};
  const Capture ca = make_capture(30, 10000);
  const Capture cb = make_capture(31, 10000);
  const auto a = store.append("job-a", "m", ca, TimePoint::epoch());
  const auto b = store.append("job-b", "m", cb, TimePoint::epoch());
  for (int round = 0; round < 3; ++round) {
    for (double t0 : {0.0, 0.9, 1.8}) {
      auto sa = store.range(a, TimePoint::epoch() + Duration::seconds(t0),
                            TimePoint::epoch() + Duration::seconds(t0 + 0.1));
      auto sb = store.range(b, TimePoint::epoch() + Duration::seconds(t0),
                            TimePoint::epoch() + Duration::seconds(t0 + 0.1));
      ASSERT_TRUE(sa.ok());
      ASSERT_TRUE(sb.ok());
      const auto first = static_cast<std::size_t>(std::ceil(t0 * 5000.0));
      ASSERT_FALSE(sa.value().samples_ma().empty());
      EXPECT_EQ(sa.value().samples_ma()[0], ca.samples_ma()[first]);
      EXPECT_EQ(sb.value().samples_ma()[0], cb.samples_ma()[first]);
    }
  }
  EXPECT_GT(store.stats().cache_evictions, 0u);
  EXPECT_GT(store.stats().raw_chunk_decodes, store.stats().cache_evictions);
}

TEST(CaptureStore, RepeatedReadsHitTheCache) {
  CaptureStore store;
  const auto id =
      store.append("job", "m", make_capture(32, 5000), TimePoint::epoch());
  const auto t1 = TimePoint::epoch() + Duration::seconds(1);
  ASSERT_TRUE(store.range(id, TimePoint::epoch(), t1).ok());
  const auto decodes = store.stats().raw_chunk_decodes;
  EXPECT_GT(decodes, 0u);
  ASSERT_TRUE(store.range(id, TimePoint::epoch(), t1).ok());
  EXPECT_EQ(store.stats().raw_chunk_decodes, decodes);
  EXPECT_GT(store.stats().cache_hits, 0u);
}

TEST(CaptureStore, ReencodeInStoreIsDeterministic) {
  // Appending the same capture into two stores yields byte-identical
  // archives — the property DST leans on for digest stability.
  const Capture original = make_capture(33, 9001);
  CaptureStore s1;
  CaptureStore s2;
  const auto id1 = s1.append("job", "m", original, TimePoint::epoch());
  const auto id2 = s2.append("job", "m", original, TimePoint::epoch());
  ASSERT_NE(s1.find(id1), nullptr);
  ASSERT_NE(s2.find(id2), nullptr);
  EXPECT_EQ(s1.find(id1)->serialize(), s2.find(id2)->serialize());
}

}  // namespace
