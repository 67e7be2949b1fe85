// Unit tests for the analysis/report module (figure and table emitters).
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "analysis/report.hpp"
#include "analysis/software_estimator.hpp"
#include "analysis/trace_io.hpp"
#include "util/rng.hpp"

namespace blab::analysis {
namespace {

util::Cdf make_cdf(double mean, std::uint64_t seed = 1) {
  util::Rng rng{seed};
  util::Cdf cdf;
  for (int i = 0; i < 1000; ++i) cdf.add(rng.normal(mean, mean * 0.1));
  return cdf;
}

std::string slurp(const std::string& path) {
  std::ifstream in{path};
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

TEST(CdfFigureTest, PrintsQuantileRows) {
  CdfFigure fig{"Fig 2: current", "mA"};
  fig.add_series("direct", make_cdf(160.0, 1));
  fig.add_series("relay", make_cdf(161.0, 2));
  std::ostringstream os;
  fig.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("Fig 2: current"), std::string::npos);
  EXPECT_NE(out.find("direct"), std::string::npos);
  EXPECT_NE(out.find("p50"), std::string::npos);
  EXPECT_NE(out.find("mean"), std::string::npos);
  EXPECT_EQ(fig.series().size(), 2u);
}

TEST(CdfFigureTest, EmptySeriesRendersDash) {
  CdfFigure fig{"empty", "x"};
  fig.add_series("none", util::Cdf{});
  std::ostringstream os;
  fig.print(os);
  EXPECT_NE(os.str().find("-"), std::string::npos);
}

TEST(CdfFigureTest, CsvRoundTrip) {
  CdfFigure fig{"t", "ma"};
  fig.add_series("a", make_cdf(100.0));
  const std::string path = "/tmp/blab_cdf_test.csv";
  ASSERT_TRUE(fig.write_csv(path, 10));
  const std::string csv = slurp(path);
  EXPECT_NE(csv.find("series,ma,cdf"), std::string::npos);
  // Header + 10 points.
  EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 11);
  std::remove(path.c_str());
}

TEST(BarFigureTest, PrintsMeanAndStddev) {
  BarFigure fig{"Fig 3: discharge", "mAh"};
  fig.add_bar("Brave", 30.2, 1.5);
  fig.add_bar("Firefox", 44.8, 2.1);
  std::ostringstream os;
  fig.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("Brave"), std::string::npos);
  EXPECT_NE(out.find("30.20"), std::string::npos);
  EXPECT_NE(out.find("2.10"), std::string::npos);
}

TEST(BarFigureTest, CsvHasOneRowPerBar) {
  BarFigure fig{"t", "mAh"};
  fig.add_bar("a", 1.0, 0.1);
  fig.add_bar("b", 2.0, 0.2);
  const std::string path = "/tmp/blab_bar_test.csv";
  ASSERT_TRUE(fig.write_csv(path));
  const std::string csv = slurp(path);
  EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 3);
  std::remove(path.c_str());
}

TEST(TableReportTest, PrintsRows) {
  TableReport table{"Table 2", {"location", "D", "U", "L"}};
  table.add_row({"Japan", "9.68", "7.76", "239.38"});
  std::ostringstream os;
  table.print(os);
  EXPECT_NE(os.str().find("Japan"), std::string::npos);
  EXPECT_NE(os.str().find("239.38"), std::string::npos);
  const std::string path = "/tmp/blab_table_test.csv";
  ASSERT_TRUE(table.write_csv(path));
  EXPECT_NE(slurp(path).find("Japan,9.68"), std::string::npos);
  std::remove(path.c_str());
}

// -------------------------------------------------- software estimator ----

/// Build a synthetic capture + trace from a known linear ground truth.
struct SyntheticWorkload {
  hw::Capture capture;
  ResourceTrace trace{util::TimePoint::epoch(), util::Duration::millis(500)};
};

SyntheticWorkload make_workload(const std::array<double, 4>& beta,
                                std::uint64_t seed, std::size_t windows) {
  util::Rng rng{seed};
  SyntheticWorkload w;
  std::vector<float> samples;
  const double hz = 1000.0;
  for (std::size_t i = 0; i < windows; ++i) {
    ResourceSample s;
    s.cpu_util = rng.uniform(0.0, 0.6);
    s.screen_on = rng.chance(0.7) ? 1.0 : 0.0;
    s.radio_active = rng.chance(0.4) ? 1.0 : 0.0;
    w.trace.add(s);
    const double ma = beta[0] + beta[1] * s.cpu_util + beta[2] * s.screen_on +
                      beta[3] * s.radio_active;
    for (int k = 0; k < 500; ++k) {  // 0.5 s at 1 kHz
      samples.push_back(static_cast<float>(ma + rng.normal(0.0, 1.0)));
    }
  }
  w.capture = hw::Capture{util::TimePoint::epoch(), hz, 3.85,
                          std::move(samples)};
  return w;
}

TEST(SoftwareEstimatorTest, RecoversLinearGroundTruth) {
  const std::array<double, 4> beta{30.0, 400.0, 90.0, 25.0};
  const auto cal = make_workload(beta, 11, 120);
  SoftwareEstimator est;
  ASSERT_TRUE(est.calibrate(cal.capture, cal.trace).ok());
  // The ridge term trades a small coefficient bias for robustness.
  EXPECT_NEAR(est.model().beta[0], 30.0, 6.0);
  EXPECT_NEAR(est.model().beta[1], 400.0, 16.0);
  EXPECT_NEAR(est.model().beta[2], 90.0, 5.0);
  EXPECT_NEAR(est.model().beta[3], 25.0, 5.0);
  EXPECT_LT(est.model().training_rmse_ma, 3.0);

  // Held-out workload from the same ground truth: near-zero error.
  const auto eval = make_workload(beta, 99, 80);
  auto result = est.estimate(eval.trace);
  ASSERT_TRUE(result.ok());
  EXPECT_LT(SoftwareEstimator::relative_error(result.value(), eval.capture),
            0.02);
}

TEST(SoftwareEstimatorTest, RequiresCalibration) {
  SoftwareEstimator est;
  ResourceTrace trace{util::TimePoint::epoch(), util::Duration::millis(500)};
  trace.add({0.1, 1.0, 0.0});
  EXPECT_FALSE(est.estimate(trace).ok());
  EXPECT_FALSE(est.calibrated());
}

TEST(SoftwareEstimatorTest, ShortTraceRejected) {
  SoftwareEstimator est;
  const auto w = make_workload({30, 400, 90, 25}, 1, 4);
  EXPECT_FALSE(est.calibrate(w.capture, w.trace).ok());
}

TEST(SoftwareEstimatorTest, ConstantCountersStillSolvable) {
  // Screen on the whole time: collinear with the intercept; ridge keeps the
  // system solvable and predictions sane.
  util::Rng rng{5};
  ResourceTrace trace{util::TimePoint::epoch(), util::Duration::millis(500)};
  std::vector<float> samples;
  for (int i = 0; i < 60; ++i) {
    ResourceSample s;
    s.cpu_util = rng.uniform(0.05, 0.5);
    s.screen_on = 1.0;
    s.radio_active = 0.0;
    trace.add(s);
    const double ma = 100.0 + 300.0 * s.cpu_util;
    for (int k = 0; k < 500; ++k) samples.push_back(static_cast<float>(ma));
  }
  hw::Capture capture{util::TimePoint::epoch(), 1000.0, 3.85,
                      std::move(samples)};
  SoftwareEstimator est;
  ASSERT_TRUE(est.calibrate(capture, trace).ok());
  auto result = est.estimate(trace);
  ASSERT_TRUE(result.ok());
  EXPECT_LT(SoftwareEstimator::relative_error(result.value(), capture), 0.03);
}

TEST(SoftwareEstimatorTest, EstimateChargeIntegratesOverTrace) {
  const std::array<double, 4> beta{50.0, 0.0, 0.0, 0.0};
  const auto w = make_workload(beta, 3, 60);  // 30 s at ~50 mA
  SoftwareEstimator est;
  ASSERT_TRUE(est.calibrate(w.capture, w.trace).ok());
  auto result = est.estimate(w.trace);
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result.value().charge_mah, 50.0 * 30.0 / 3600.0, 0.05);
}

// Property: the estimator never goes negative, whatever the counters say.
class EstimatorSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EstimatorSweep, PredictionsNonNegative) {
  const auto cal = make_workload({20.0, 350.0, 80.0, 30.0}, GetParam(), 60);
  SoftwareEstimator est;
  ASSERT_TRUE(est.calibrate(cal.capture, cal.trace).ok());
  util::Rng rng{GetParam() ^ 0xF00D};
  ResourceTrace wild{util::TimePoint::epoch(), util::Duration::millis(500)};
  for (int i = 0; i < 50; ++i) {
    wild.add({rng.uniform(0.0, 1.0), rng.chance(0.5) ? 1.0 : 0.0,
              rng.chance(0.5) ? 1.0 : 0.0});
  }
  auto result = est.estimate(wild);
  ASSERT_TRUE(result.ok());
  for (double ma : result.value().per_sample_ma) EXPECT_GE(ma, 0.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EstimatorSweep,
                         ::testing::Values(2, 4, 8, 16, 32));

// ------------------------------------------------ malformed trace input ----
// Pins the trace_io rejection behavior the fuzz harness relies on: every
// malformed shape is a typed kInvalidArgument with a stable message prefix,
// never a throw or a best-effort parse.

struct RejectCase {
  const char* label;
  const char* body;           ///< appended after the Monsoon header
  const char* message_prefix; ///< start of the expected error message
};

// gtest prints an unknown parameter type as its raw bytes, which here are
// string-literal addresses that move with every build and, under ASLR, every
// run; the test names would change with them. Print the label instead.
void PrintTo(const RejectCase& c, std::ostream* os) { *os << c.label; }

class TraceIoRejects : public ::testing::TestWithParam<RejectCase> {};

TEST_P(TraceIoRejects, TypedErrorWithStableMessage) {
  std::istringstream is{std::string{"time_s,current_mA,voltage\n"} +
                        GetParam().body};
  const auto r = read_capture_csv_stream(is);
  ASSERT_FALSE(r.ok()) << GetParam().label;
  EXPECT_EQ(r.error().code, util::ErrorCode::kInvalidArgument);
  EXPECT_EQ(r.error().message.rfind(GetParam().message_prefix, 0), 0u)
      << GetParam().label << ": got \"" << r.error().message << '"';
}

INSTANTIATE_TEST_SUITE_P(
    Goldens, TraceIoRejects,
    ::testing::Values(
        RejectCase{"no_rows", "", "capture has no samples"},
        RejectCase{"short_row", "0.0,1.5\n", "bad row 0"},
        RejectCase{"long_row", "0.0,1.5,3.7,9\n", "bad row 0"},
        RejectCase{"trailing_garbage", "0.0,1.5abc,3.7\n", "unparseable row"},
        RejectCase{"nan_literal", "0.0,nan,3.7\n", "unparseable row"},
        RejectCase{"inf_literal", "0.0,inf,3.7\n", "unparseable row"},
        RejectCase{"hex_float", "0.0,0x1p3,3.7\n", "unparseable row"},
        RejectCase{"empty_field", "0.0,,3.7\n", "unparseable row"},
        RejectCase{"out_of_order", "0.1,1.0,3.7\n0.1,2.0,3.7\n",
                   "out-of-order timestamp"},
        RejectCase{"bad_marker", "# effective_hz=abc\n0.0,1.0,3.7\n",
                   "bad effective_hz marker"}),
    [](const ::testing::TestParamInfo<RejectCase>& info) {
      return info.param.label;
    });

TEST(TraceIoRejects, MissingHeaderAndBinaryGarbage) {
  std::istringstream no_header{"0.0,1.5,3.7\n"};
  const auto r = read_capture_csv_stream(no_header);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, util::ErrorCode::kInvalidArgument);
  EXPECT_EQ(r.error().message, "missing Monsoon CSV header");

  std::istringstream garbage{std::string{"\x00\xFF\x81\x7F garbage", 12}};
  EXPECT_FALSE(read_capture_csv_stream(garbage).ok());
  std::istringstream chunk_garbage{std::string{"\x00\xFF\x81\x7F", 4}};
  EXPECT_FALSE(read_capture_chunked_stream(chunk_garbage).ok());
}

TEST(TraceIoRejects, StrictParseStillAcceptsHonestExports) {
  // The hardening must not reject what write_capture_csv itself emits.
  std::istringstream is{
      "time_s,current_mA,voltage\n"
      "# effective_hz=50.000000 source_hz=5000.000000 stride=100\n"
      "0.000000,120.500,3.700\n"
      "0.020000,121.000,3.700\n"};
  const auto r = read_capture_csv_stream(is);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().sample_count(), 2u);
  EXPECT_DOUBLE_EQ(r.value().sample_hz(), 50.0);
}

}  // namespace
}  // namespace blab::analysis
