// Unit tests for the util module: time, ids, results, RNG, stats, strings,
// tables.
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cmath>
#include <limits>
#include <numbers>
#include <set>
#include <span>
#include <vector>

#include "util/id.hpp"
#include "util/logging.hpp"
#include "util/result.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"
#include "util/time.hpp"

namespace blab::util {
namespace {

// ---------------------------------------------------------------- time ----

TEST(DurationTest, ConstructorsAgree) {
  EXPECT_EQ(Duration::millis(5).us(), 5000);
  EXPECT_EQ(Duration::seconds(2).us(), 2'000'000);
  EXPECT_EQ(Duration::minutes(1).us(), 60'000'000);
  EXPECT_EQ(Duration::micros(7).us(), 7);
}

TEST(DurationTest, Arithmetic) {
  const auto a = Duration::millis(300);
  const auto b = Duration::millis(200);
  EXPECT_EQ((a + b).us(), 500'000);
  EXPECT_EQ((a - b).us(), 100'000);
  EXPECT_DOUBLE_EQ((a * 2.0).to_millis(), 600.0);
  EXPECT_DOUBLE_EQ(a / b, 1.5);
  EXPECT_TRUE((b - a).is_negative());
}

TEST(DurationTest, Comparisons) {
  EXPECT_LT(Duration::millis(1), Duration::millis(2));
  EXPECT_EQ(Duration::seconds(1), Duration::millis(1000));
  EXPECT_GE(Duration::zero(), Duration::zero());
}

TEST(TimePointTest, OffsetArithmetic) {
  const auto t = TimePoint::epoch() + Duration::seconds(10);
  EXPECT_EQ(t.us(), 10'000'000);
  EXPECT_EQ((t - TimePoint::epoch()).to_seconds(), 10.0);
  EXPECT_EQ((t - Duration::seconds(4)).us(), 6'000'000);
}

TEST(TimeFormatTest, HumanReadable) {
  EXPECT_EQ(to_string(Duration::micros(500)), "500us");
  EXPECT_EQ(to_string(Duration::millis(12)), "12.00ms");
  EXPECT_EQ(to_string(Duration::seconds(1.5)), "1.500s");
  EXPECT_EQ(to_string(Duration::micros(-1500000)), "-1.500s");
}

// ------------------------------------------------------------------ id ----

struct TestTag {};

TEST(IdTest, DefaultIsInvalid) {
  Id<TestTag> id;
  EXPECT_FALSE(id.valid());
  EXPECT_EQ(id, Id<TestTag>::invalid());
}

TEST(IdTest, AllocatorNeverIssuesInvalid) {
  IdAllocator<TestTag> alloc;
  std::set<Id<TestTag>> seen;
  for (int i = 0; i < 100; ++i) {
    const auto id = alloc.next();
    EXPECT_TRUE(id.valid());
    EXPECT_TRUE(seen.insert(id).second) << "duplicate id issued";
  }
}

TEST(IdTest, HashWorksInUnorderedContainers) {
  std::unordered_map<Id<TestTag>, int> map;
  IdAllocator<TestTag> alloc;
  const auto a = alloc.next();
  map[a] = 7;
  EXPECT_EQ(map.at(a), 7);
}

// -------------------------------------------------------------- result ----

TEST(ResultTest, OkCarriesValue) {
  Result<int> r{42};
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(r.value_or(0), 42);
}

TEST(ResultTest, ErrorCarriesCodeAndMessage) {
  Result<int> r{make_error(ErrorCode::kNotFound, "gone")};
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, ErrorCode::kNotFound);
  EXPECT_EQ(r.error().message, "gone");
  EXPECT_EQ(r.error().str(), "NOT_FOUND: gone");
  EXPECT_EQ(r.value_or(-1), -1);
}

TEST(StatusTest, DefaultIsOk) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.str(), "OK");
}

TEST(StatusTest, ErrorStatus) {
  Status st{make_error(ErrorCode::kTimeout, "slow")};
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.error().code, ErrorCode::kTimeout);
}

// ----------------------------------------------------------------- rng ----

TEST(RngTest, DeterministicForSameSeed) {
  Rng a{123}, b{123};
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a{1}, b{2};
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, UniformInRange) {
  Rng rng{7};
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.uniform(2.0, 5.0);
    EXPECT_GE(x, 2.0);
    EXPECT_LT(x, 5.0);
  }
}

TEST(RngTest, UniformIntInclusiveBounds) {
  Rng rng{7};
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 10000; ++i) {
    const auto x = rng.uniform_int(0, 3);
    EXPECT_GE(x, 0);
    EXPECT_LE(x, 3);
    saw_lo |= (x == 0);
    saw_hi |= (x == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, NormalMomentsConverge) {
  Rng rng{99};
  RunningStats stats;
  for (int i = 0; i < 50000; ++i) stats.add(rng.normal(10.0, 2.0));
  EXPECT_NEAR(stats.mean(), 10.0, 0.05);
  EXPECT_NEAR(stats.stddev(), 2.0, 0.05);
}

TEST(RngTest, ExponentialMeanConverges) {
  Rng rng{3};
  RunningStats stats;
  for (int i = 0; i < 50000; ++i) stats.add(rng.exponential(4.0));
  EXPECT_NEAR(stats.mean(), 4.0, 0.15);
}

TEST(RngTest, LognormalMedianConverges) {
  Rng rng{5};
  std::vector<double> xs;
  for (int i = 0; i < 20001; ++i) xs.push_back(rng.lognormal_median(3.0, 0.5));
  Cdf cdf{std::move(xs)};
  EXPECT_NEAR(cdf.median(), 3.0, 0.12);
}

TEST(RngTest, ChanceProbability) {
  Rng rng{11};
  int hits = 0;
  for (int i = 0; i < 100000; ++i) hits += rng.chance(0.3) ? 1 : 0;
  EXPECT_NEAR(hits / 100000.0, 0.3, 0.01);
}

TEST(RngTest, ForkedStreamsIndependent) {
  Rng parent{42};
  Rng child1 = parent.fork("alpha");
  Rng child2 = parent.fork("beta");
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (child1.next_u64() == child2.next_u64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, FillNormalMatchesScalarSequence) {
  // fill_normal is the batched hot path behind capture synthesis; it must
  // reproduce the scalar normal() stream BITWISE (same draws, same order,
  // same per-sample u64 consumption through the ziggurat accept/reject
  // path) or the DST golden digests drift. Long lengths make edge-layer and
  // wedge-rejection draws statistically certain to appear.
  const std::vector<std::size_t> lengths{1, 2, 3, 7, 8, 64, 1023};
  for (std::size_t n : lengths) {
    Rng scalar{0xB10CULL + n};
    Rng batched{0xB10CULL + n};
    std::vector<double> want(n);
    for (std::size_t i = 0; i < n; ++i) want[i] = scalar.normal(1.5, 0.25);
    std::vector<double> got(n);
    batched.fill_normal(got, 1.5, 0.25);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(want[i], got[i]) << "n=" << n << " sample " << i
                                 << " diverged from the scalar stream";
    }
    // Both generators must leave identical state behind (including the
    // cached-pair flag), so interleaving scalar and batched draws agrees too.
    EXPECT_EQ(scalar.normal(), batched.normal()) << "n=" << n;
    EXPECT_EQ(scalar.next_u64(), batched.next_u64()) << "n=" << n;
  }
}

TEST(RngTest, FillNormalInterleavesWithScalarDraws) {
  // The sampler keeps no cross-call state, so scalar draws and batched fills
  // can interleave arbitrarily without perturbing the stream: scalar, fill,
  // scalar must equal the pure-scalar sequence.
  Rng scalar{77};
  Rng mixed{77};
  std::vector<double> want(7);
  for (auto& v : want) v = scalar.normal(-2.0, 3.0);
  std::vector<double> got(7);
  got[0] = mixed.normal(-2.0, 3.0);
  mixed.fill_normal(std::span<double>{got}.subspan(1, 5), -2.0, 3.0);
  got[6] = mixed.normal(-2.0, 3.0);
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(want[i], got[i]) << "sample " << i;
  }
  EXPECT_EQ(scalar.next_u64(), mixed.next_u64());
}

// ------------------------------------------------------------------------
// Ziggurat statistical quality: a table typo would skew every scenario's
// noise silently, so the distribution itself is pinned — moments, tail
// mass, and a coarse-bin chi-squared against the standard normal CDF.
// ------------------------------------------------------------------------

/// Standard normal CDF via the complementary error function.
double normal_cdf(double x) { return 0.5 * std::erfc(-x / std::numbers::sqrt2); }

TEST(RngZigguratQuality, MomentsMatchStandardNormal) {
  Rng rng{0x216697A7};
  constexpr int kN = 1'000'000;
  // Accumulate central moments in one pass; with a fixed seed the values are
  // deterministic, and the tolerances are ~4x the asymptotic standard errors
  // (se(mean)=1e-3, se(var)=1.4e-3, se(skew)=2.4e-3, se(kurt)=4.9e-3).
  double sum = 0.0;
  std::vector<double> draws(kN);
  rng.fill_normal(draws, 0.0, 1.0);
  for (double x : draws) sum += x;
  const double mean = sum / kN;
  double m2 = 0.0, m3 = 0.0, m4 = 0.0;
  for (double x : draws) {
    const double d = x - mean;
    m2 += d * d;
    m3 += d * d * d;
    m4 += d * d * d * d;
  }
  m2 /= kN;
  m3 /= kN;
  m4 /= kN;
  const double skew = m3 / std::pow(m2, 1.5);
  const double kurtosis_excess = m4 / (m2 * m2) - 3.0;
  EXPECT_NEAR(mean, 0.0, 0.005);
  EXPECT_NEAR(m2, 1.0, 0.006);
  EXPECT_NEAR(skew, 0.0, 0.01);
  EXPECT_NEAR(kurtosis_excess, 0.0, 0.025);
}

TEST(RngZigguratQuality, TailMassBeyondThreeAndFourSigma) {
  // The tail layers are the part a broken table or tail sampler would get
  // wrong first. Expected counts over 10^6 draws: P(|X|>3) = 2.6998e-3
  // (~2700), P(|X|>4) = 6.334e-5 (~63).
  Rng rng{0x7A11};
  constexpr int kN = 1'000'000;
  int beyond3 = 0, beyond4 = 0;
  double worst = 0.0;
  std::vector<double> draws(kN);
  rng.fill_normal(draws, 0.0, 1.0);
  for (double x : draws) {
    const double a = std::abs(x);
    if (a > 3.0) ++beyond3;
    if (a > 4.0) ++beyond4;
    if (a > worst) worst = a;
  }
  EXPECT_GT(beyond3, 2300);
  EXPECT_LT(beyond3, 3150);
  EXPECT_GT(beyond4, 30);
  EXPECT_LT(beyond4, 105);
  // The tail must actually extend past the ziggurat base strip (r = 3.654),
  // and produce nothing absurd.
  EXPECT_GT(worst, 3.8);
  EXPECT_LT(worst, 7.0);
}

TEST(RngZigguratQuality, ChiSquaredAgainstNormalCdf) {
  // 18 bins: (-inf,-4], 16 equal-width bins over [-4, 4], [4, inf). With 17
  // degrees of freedom the 99.9th percentile is ~40.8; 60 leaves slack for
  // the fixed seed while still failing loudly on any layer-table skew.
  Rng rng{0xC41};
  constexpr int kN = 1'000'000;
  constexpr int kInner = 16;
  std::array<int, kInner + 2> counts{};
  std::vector<double> draws(kN);
  rng.fill_normal(draws, 0.0, 1.0);
  for (double x : draws) {
    if (x <= -4.0) {
      ++counts[0];
    } else if (x > 4.0) {
      ++counts[kInner + 1];
    } else {
      ++counts[1 + static_cast<int>((x + 4.0) / 0.5)];
    }
  }
  double chi2 = 0.0;
  for (int b = 0; b < kInner + 2; ++b) {
    const double lo = b == 0 ? -1e30 : -4.0 + 0.5 * (b - 1);
    const double hi = b == kInner + 1 ? 1e30 : -4.0 + 0.5 * b;
    const double expected = kN * (normal_cdf(hi) - normal_cdf(lo));
    const double d = counts[b] - expected;
    chi2 += d * d / expected;
  }
  EXPECT_LT(chi2, 60.0) << "ziggurat output diverges from the normal CDF";
}

TEST(RngTest, UniformIntSmallSpanIsUnbiased) {
  // Lemire bounded rejection: no span may inherit the old modulo bias. A
  // span of 3 (2^64 % 3 != 0) is exactly the shape the modulo fold skewed;
  // chi-squared over the three cells with 2 dof (99.9th pct ~13.8).
  Rng rng{0x5BA5};
  constexpr int kN = 300'000;
  std::array<int, 3> counts{};
  for (int i = 0; i < kN; ++i) {
    ++counts[static_cast<std::size_t>(rng.uniform_int(-1, 1)) + 1];
  }
  const double expected = kN / 3.0;
  double chi2 = 0.0;
  for (int c : counts) {
    const double d = c - expected;
    chi2 += d * d / expected;
  }
  EXPECT_LT(chi2, 14.0);
  // Extreme spans stay total: the full-domain span cannot overflow.
  const auto full = rng.uniform_int(std::numeric_limits<std::int64_t>::min(),
                                    std::numeric_limits<std::int64_t>::max());
  (void)full;
  EXPECT_EQ(rng.uniform_int(5, 5), 5);
  EXPECT_EQ(rng.uniform_int(9, 2), 9);  // degenerate bounds clamp to lo
}

TEST(RngTest, WeightedIndexRespectsWeights) {
  Rng rng{13};
  std::vector<double> weights{1.0, 0.0, 3.0};
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < 40000; ++i) ++counts[rng.weighted_index(weights)];
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(static_cast<double>(counts[2]) / counts[0], 3.0, 0.25);
}

TEST(Fnv1aTest, StableAndDistinct) {
  EXPECT_EQ(fnv1a("abc"), fnv1a("abc"));
  EXPECT_NE(fnv1a("abc"), fnv1a("abd"));
  EXPECT_NE(fnv1a(""), fnv1a("a"));
}

// --------------------------------------------------------------- stats ----

TEST(RunningStatsTest, BasicMoments) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), 2.138, 0.001);
  EXPECT_EQ(s.min(), 2.0);
  EXPECT_EQ(s.max(), 9.0);
  EXPECT_EQ(s.count(), 8u);
}

TEST(RunningStatsTest, MergeMatchesSequential) {
  RunningStats all, a, b;
  Rng rng{17};
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.normal(5.0, 3.0);
    all.add(x);
    (i % 2 == 0 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-6);
  EXPECT_EQ(a.count(), all.count());
}

TEST(CdfTest, QuantilesOfKnownSample) {
  Cdf cdf{{1.0, 2.0, 3.0, 4.0, 5.0}};
  EXPECT_DOUBLE_EQ(cdf.median(), 3.0);
  EXPECT_DOUBLE_EQ(cdf.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(cdf.quantile(1.0), 5.0);
  EXPECT_DOUBLE_EQ(cdf.quantile(0.25), 2.0);
}

TEST(CdfTest, AtIsEmpiricalProbability) {
  Cdf cdf{{1.0, 2.0, 3.0, 4.0}};
  EXPECT_DOUBLE_EQ(cdf.at(0.5), 0.0);
  EXPECT_DOUBLE_EQ(cdf.at(2.0), 0.5);
  EXPECT_DOUBLE_EQ(cdf.at(10.0), 1.0);
  EXPECT_DOUBLE_EQ(cdf.fraction_above(3.0), 0.25);
}

TEST(CdfTest, CurveIsMonotonic) {
  Rng rng{23};
  Cdf cdf;
  for (int i = 0; i < 5000; ++i) cdf.add(rng.normal(0.0, 1.0));
  const auto curve = cdf.curve(50);
  ASSERT_EQ(curve.size(), 50u);
  for (std::size_t i = 1; i < curve.size(); ++i) {
    EXPECT_LE(curve[i - 1].first, curve[i].first);
    EXPECT_LT(curve[i - 1].second, curve[i].second);
  }
}

TEST(CdfTest, QuantileOfEmptyThrows) {
  Cdf cdf;
  EXPECT_THROW((void)cdf.quantile(0.5), std::logic_error);
}

// select_quantiles is the rollup's p95/p99: it must return the bits the
// sorting Cdf::quantile returns, for every rank, with duplicates straddling
// the rank, and when a later quantile is selected inside the partition an
// earlier one left.
TEST(SelectQuantilesTest, MatchesCdfQuantileBitForBit) {
  const std::vector<std::vector<double>> quantile_sets{
      {0.0}, {0.5}, {0.95}, {0.99}, {1.0}, {0.95, 0.99},
      {0.0, 0.5, 0.95, 0.99, 1.0}};
  const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
  Rng rng{0x5E1EC7};
  std::vector<std::size_t> sizes{1, 2, 3};
  for (int i = 0; i < 300; ++i) {
    sizes.push_back(static_cast<std::size_t>(rng.uniform_int(1, 3000)));
  }
  for (std::size_t v = 0; v < sizes.size(); ++v) {
    const std::size_t n = sizes[v];
    // Alternate continuous data with a handful of distinct values, so
    // heavy duplicates sit on both sides of every rank.
    const std::int64_t distinct = v % 2 == 0 ? 0 : rng.uniform_int(1, 6);
    std::vector<double> data(n);
    for (double& x : data) {
      x = distinct == 0
              ? rng.lognormal_median(300.0, 0.8)
              : 100.0 * static_cast<double>(rng.uniform_int(0, distinct));
    }
    const Cdf reference{data};
    for (const std::vector<double>& qs : quantile_sets) {
      std::vector<double> buffer = data;
      const std::vector<double> got = select_quantiles(buffer, qs);
      ASSERT_EQ(got.size(), qs.size());
      for (std::size_t k = 0; k < qs.size(); ++k) {
        ASSERT_EQ(bits(got[k]), bits(reference.quantile(qs[k])))
            << "n=" << n << " q=" << qs[k] << " (quantile " << k + 1
            << " of " << qs.size() << ")";
      }
    }
  }
}

TEST(SelectQuantilesTest, RejectsEmptyValuesAndDescendingQuantiles) {
  std::vector<double> empty;
  EXPECT_THROW((void)select_quantiles(empty, std::vector<double>{0.5}),
               std::logic_error);
  std::vector<double> values{5.0, 1.0, 4.0, 2.0, 3.0};
  EXPECT_THROW(
      (void)select_quantiles(values, std::vector<double>{0.99, 0.5}),
      std::logic_error);
}

TEST(HistogramTest, BinningAndOverflow) {
  Histogram h{0.0, 10.0, 10};
  h.add(0.5);
  h.add(9.99);
  h.add(-1.0);
  h.add(10.0);
  EXPECT_EQ(h.bin_count(0), 1u);
  EXPECT_EQ(h.bin_count(9), 1u);
  EXPECT_EQ(h.underflow(), 1u);
  EXPECT_EQ(h.overflow(), 1u);
  EXPECT_EQ(h.total(), 4u);
  EXPECT_DOUBLE_EQ(h.bin_lo(3), 3.0);
  EXPECT_DOUBLE_EQ(h.bin_hi(3), 4.0);
}

TEST(TrapezoidTest, IntegratesLinearFunction) {
  std::vector<double> t{0.0, 1.0, 2.0, 3.0};
  std::vector<double> y{0.0, 1.0, 2.0, 3.0};
  EXPECT_DOUBLE_EQ(trapezoid_integral(t, y), 4.5);
}

// ------------------------------------------------------------- strings ----

TEST(StringsTest, SplitBasic) {
  const auto parts = split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "");
}

TEST(StringsTest, SplitWhitespace) {
  const auto parts = split_ws("  am   start\tcom.foo ");
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "am");
  EXPECT_EQ(parts[2], "com.foo");
}

TEST(StringsTest, TrimAndCase) {
  EXPECT_EQ(trim("  x y  "), "x y");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(to_lower("AbC"), "abc");
}

TEST(StringsTest, JoinAndAffixes) {
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_TRUE(starts_with("package:com.foo", "package:"));
  EXPECT_TRUE(ends_with("node1.batterylab.dev", ".batterylab.dev"));
  EXPECT_FALSE(ends_with("dev", ".batterylab.dev"));
}

TEST(StringsTest, Formatting) {
  EXPECT_EQ(format_double(3.14159, 2), "3.14");
  EXPECT_EQ(format_bytes(512), "512.0 B");
  EXPECT_EQ(format_bytes(32.0 * 1024 * 1024), "32.0 MB");
}

// --------------------------------------------------------------- table ----

TEST(TextTableTest, AlignsColumns) {
  TextTable t{{"name", "value"}};
  t.add_row({"x", "1"});
  t.add_row({"longer", "22"});
  const std::string out = t.str();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("longer"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
}

TEST(CsvTest, EscapesSpecialCharacters) {
  EXPECT_EQ(csv_escape("plain"), "plain");
  EXPECT_EQ(csv_escape("a,b"), "\"a,b\"");
  EXPECT_EQ(csv_escape("say \"hi\""), "\"say \"\"hi\"\"\"");
}

// ------------------------------------------------------------- logging ----

TEST(LoggingTest, CaptureSeesMessages) {
  LogCapture capture;
  BLAB_INFO("test-component", "hello " << 42);
  EXPECT_TRUE(capture.contains("hello 42"));
  EXPECT_TRUE(capture.contains("test-component"));
}

TEST(LoggingTest, LevelFiltering) {
  LogCapture capture;  // capture sets level to Debug
  Logger::global().set_level(LogLevel::kError);
  BLAB_WARN("c", "should not appear");
  BLAB_ERROR("c", "should appear");
  EXPECT_FALSE(capture.contains("should not appear"));
  EXPECT_TRUE(capture.contains("should appear"));
}

// Property sweep: CDF quantiles are monotone in q for arbitrary data shapes.
class CdfPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CdfPropertyTest, QuantilesMonotone) {
  Rng rng{GetParam()};
  Cdf cdf;
  const int n = static_cast<int>(rng.uniform_int(2, 2000));
  for (int i = 0; i < n; ++i) cdf.add(rng.lognormal_median(50.0, 1.2));
  double prev = cdf.quantile(0.0);
  for (double q = 0.05; q <= 1.0; q += 0.05) {
    const double cur = cdf.quantile(q);
    EXPECT_GE(cur, prev);
    prev = cur;
  }
  EXPECT_GE(cdf.mean(), cdf.min());
  EXPECT_LE(cdf.mean(), cdf.max());
}

INSTANTIATE_TEST_SUITE_P(Seeds, CdfPropertyTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55));

}  // namespace
}  // namespace blab::util
