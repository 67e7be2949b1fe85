// Telemetry layer tests: the metrics registry and encoders, sim-time spans,
// the structured/thread-safe logger, and the end-to-end determinism
// contract — two DST runs of the same seed must render byte-identical
// Prometheus snapshots, serially or on a 4-wide worker pool, and the
// controller's GET /metrics must serve the live registry.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "controller/rest_backend.hpp"
#include "net/network.hpp"
#include "obs/aggregate.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "sim/simulator.hpp"
#include "testing/harness.hpp"
#include "testing/scenario.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"

namespace {

using namespace blab;
namespace dst = blab::testing;
using obs::Labels;

// ------------------------------------------------------------ registry ----

TEST(MetricsRegistry, CountersAndGaugesAccumulate) {
  obs::MetricsRegistry registry;
  obs::Counter& c = registry.counter("blab_test_ticks_total");
  c.inc();
  c.inc(4);
  EXPECT_EQ(c.value(), 5u);
  // Same (name, labels) resolves to the same instrument.
  registry.counter("blab_test_ticks_total").inc();
  EXPECT_EQ(c.value(), 6u);

  obs::Gauge& g = registry.gauge("blab_test_depth");
  g.set(3.0);
  g.add(-1.5);
  EXPECT_DOUBLE_EQ(g.value(), 1.5);

  const auto snap = registry.snapshot();
  EXPECT_DOUBLE_EQ(snap.value_or("blab_test_ticks_total"), 6.0);
  EXPECT_DOUBLE_EQ(snap.value_or("blab_test_depth"), 1.5);
  EXPECT_DOUBLE_EQ(snap.value_or("blab_no_such_series", {}, -7.0), -7.0);
}

TEST(MetricsRegistry, LabelOrderDoesNotSplitSeries) {
  obs::MetricsRegistry registry;
  registry.counter("blab_test_total", {{"b", "2"}, {"a", "1"}}).inc();
  registry.counter("blab_test_total", {{"a", "1"}, {"b", "2"}}).inc();
  EXPECT_EQ(registry.series_count(), 1u);
  const auto snap = registry.snapshot();
  EXPECT_DOUBLE_EQ(snap.value_or("blab_test_total", {{"a", "1"}, {"b", "2"}}),
                   2.0);
}

TEST(MetricsRegistry, HistogramBoundaryEdgesAreLeInclusive) {
  obs::MetricsRegistry registry;
  obs::Histogram& h =
      registry.histogram("blab_test_latency_seconds", {1.0, 2.0});
  h.observe(1.0);   // exactly on a bound: le="1" bucket
  h.observe(1.001); // just past: le="2"
  h.observe(2.0);   // exactly on the last finite bound: le="2"
  h.observe(9.0);   // overflow: +Inf
  h.observe(-1.0);  // below every bound: first bucket
  ASSERT_EQ(h.bucket_count(), 3u);
  EXPECT_EQ(h.bucket(0), 2u);  // {1.0, -1.0}
  EXPECT_EQ(h.bucket(1), 2u);  // {1.001, 2.0}
  EXPECT_EQ(h.bucket(2), 1u);  // {9.0}
  EXPECT_EQ(h.count(), 5u);
  EXPECT_DOUBLE_EQ(h.sum(), 1.0 + 1.001 + 2.0 + 9.0 - 1.0);
}

TEST(MetricsRegistry, HistogramIgnoresNaNAndSortsBounds) {
  obs::MetricsRegistry registry;
  obs::Histogram& h =
      registry.histogram("blab_test_h", {5.0, 1.0, 5.0});  // unsorted + dup
  EXPECT_EQ(h.bounds(), (std::vector<double>{1.0, 5.0}));
  h.observe(std::nan(""));
  EXPECT_EQ(h.count(), 0u);
}

TEST(MetricsRegistry, KindMismatchIsSurvivable) {
  util::LogCapture capture;
  obs::MetricsRegistry registry;
  registry.counter("blab_test_total").inc(3);
  // Asking for the same series under a different kind must not corrupt the
  // original: the caller gets a detached dummy and an error is logged.
  obs::Gauge& wrong = registry.gauge("blab_test_total");
  wrong.set(99.0);
  EXPECT_DOUBLE_EQ(registry.snapshot().value_or("blab_test_total"), 3.0);
  EXPECT_TRUE(capture.contains("blab_test_total"));
}

TEST(MetricsRegistry, CardinalityWarningFiresOncePerName) {
  util::LogCapture capture;
  obs::MetricsRegistry registry;
  const std::size_t n = obs::MetricsRegistry::kSeriesWarnCardinality + 8;
  for (std::size_t i = 0; i < n; ++i) {
    registry.counter("blab_test_exploding_total",
                     {{"id", std::to_string(i)}})
        .inc();
  }
  EXPECT_EQ(registry.series_count(), n);
  const auto lines = capture.lines();
  const auto warns = std::count_if(
      lines.begin(), lines.end(), [](const std::string& line) {
        return line.find("blab_test_exploding_total") != std::string::npos &&
               line.find("label combinations") != std::string::npos;
      });
  EXPECT_EQ(warns, 1) << "cardinality warning must fire exactly once";
  // The registry keeps serving series past the ceiling.
  EXPECT_DOUBLE_EQ(registry.snapshot().value_or("blab_test_exploding_total",
                                                {{"id", "0"}}),
                   1.0);
}

TEST(MetricsRegistry, ConcurrentIncrementsAreLossless) {
  obs::MetricsRegistry registry;
  obs::Counter& c = registry.counter("blab_test_hits_total");
  constexpr int kThreads = 4;
  constexpr int kPerThread = 5000;
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) c.inc();
    });
  }
  for (auto& t : pool) t.join();
  EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kThreads * kPerThread));
}

// ------------------------------------------------------------ encoders ----

TEST(Encoders, PrometheusGolden) {
  obs::MetricsRegistry registry;
  registry.counter("blab_jobs_total", {{"result", "ok"}}).inc(3);
  registry.gauge("blab_depth").set(2.5);
  obs::Histogram& h = registry.histogram("blab_wait_seconds", {1.0, 5.0});
  h.observe(0.5);
  h.observe(4.0);
  h.observe(30.0);
  const std::string expected =
      "# TYPE blab_depth gauge\n"
      "blab_depth 2.500000\n"
      "# TYPE blab_jobs_total counter\n"
      "blab_jobs_total{result=\"ok\"} 3\n"
      "# TYPE blab_wait_seconds histogram\n"
      "blab_wait_seconds_bucket{le=\"1\"} 1\n"
      "blab_wait_seconds_bucket{le=\"5\"} 2\n"
      "blab_wait_seconds_bucket{le=\"+Inf\"} 3\n"
      "blab_wait_seconds_sum 34.500000\n"
      "blab_wait_seconds_count 3\n";
  EXPECT_EQ(obs::encode_prometheus(registry.snapshot()), expected);
}

TEST(Encoders, JsonHoldsEverySeries) {
  obs::MetricsRegistry registry;
  registry.counter("blab_a_total").inc();
  registry.gauge("blab_b").set(1.0);
  const std::string json = obs::encode_json(registry.snapshot());
  EXPECT_EQ(json.rfind("{\"series\":[", 0), 0u) << json;
  EXPECT_NE(json.find("\"blab_a_total\""), std::string::npos);
  EXPECT_NE(json.find("\"blab_b\""), std::string::npos);
}

// A quote, a backslash, a newline and a control byte, as a user could put
// them in a job name or a label, and the one JSON rendering every encoder
// must give them.
constexpr std::string_view kAwkward = "a\"b\\c\nd\x01";
constexpr std::string_view kAwkwardJson = R"("a\"b\\c\nd\u0001")";

bool has(const std::string& text, std::string_view key) {
  return text.find(std::string{key} + std::string{kAwkwardJson}) !=
         std::string::npos;
}

TEST(Encoders, EveryJsonEncoderEscapesUserStrings) {
  std::int64_t now_us = 0;
  obs::Tracer tracer{[&] { return now_us; }};
  const std::uint64_t odd = tracer.begin_detached(kAwkward, kAwkward);
  tracer.set_attr(odd, "job", kAwkward);
  tracer.add_link(odd, obs::SpanLink{1, 1, std::string{kAwkward}});
  const std::uint64_t job = tracer.begin_detached("scheduler", "job");
  tracer.set_attr(job, "job", kAwkward);
  now_us = 10;
  tracer.end(odd);
  tracer.end(job);

  const std::string trace = obs::encode_trace_json(tracer.spans());
  EXPECT_TRUE(has(trace, "\"name\":")) << trace;
  EXPECT_TRUE(has(trace, "\"cat\":")) << trace;
  EXPECT_TRUE(has(trace, "\"job\":")) << trace;
  EXPECT_NE(trace.find(R"("link.a\"b\\c\nd\u0001":"1:1")"), std::string::npos)
      << trace;
  const std::string list = obs::encode_trace_list_json(tracer);
  EXPECT_TRUE(has(list, "\"root\":")) << list;
  EXPECT_TRUE(has(list, "\"component\":")) << list;
  EXPECT_TRUE(has(list, "\"job\":")) << list;
  const std::string flame = obs::encode_flame_json(
      obs::build_flame(tracer.spans()), obs::critical_paths(tracer.spans()));
  EXPECT_TRUE(has(flame, "{\"component\":")) << flame;
  EXPECT_TRUE(has(flame, ",\"name\":")) << flame;
  EXPECT_TRUE(has(flame, "\"job\":")) << flame;
  std::ostringstream jsonl;
  tracer.write_jsonl(jsonl);
  EXPECT_TRUE(has(jsonl.str(), "\"component\":")) << jsonl.str();
  EXPECT_TRUE(has(jsonl.str(), "\"name\":")) << jsonl.str();
  EXPECT_TRUE(has(jsonl.str(), "\"job\":")) << jsonl.str();

  obs::MetricsRegistry registry;
  registry.counter("blab_x_total", {{"vp", std::string{kAwkward}}}).inc();
  const std::string json = obs::encode_json(registry.snapshot());
  EXPECT_TRUE(has(json, "\"vp\":")) << json;
}

TEST(Encoders, PrometheusEscapesLabelValues) {
  obs::MetricsRegistry registry;
  registry.counter("blab_x_total", {{"vp", "a\"b\\c\nd"}}).inc();
  registry.histogram("blab_h", {1.0}, {{"vp", "q\""}}).observe(0.5);
  const std::string text = obs::encode_prometheus(registry.snapshot());
  EXPECT_NE(text.find("blab_x_total{vp=\"a\\\"b\\\\c\\nd\"} 1\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("blab_h_bucket{vp=\"q\\\"\",le=\"1\"} 1\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("blab_h_count{vp=\"q\\\"\"} 1\n"), std::string::npos)
      << text;
}

TEST(Encoders, MergeSumsCountersAndHistograms) {
  obs::MetricsRegistry a, b;
  a.counter("blab_x_total").inc(2);
  b.counter("blab_x_total").inc(5);
  a.histogram("blab_h", {1.0}).observe(0.5);
  b.histogram("blab_h", {1.0}).observe(3.0);
  const auto merged = obs::merge_snapshots({a.snapshot(), b.snapshot()});
  EXPECT_DOUBLE_EQ(merged.value_or("blab_x_total"), 7.0);
  const obs::SeriesSnapshot* h = merged.find("blab_h");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, 2u);
  EXPECT_EQ(h->buckets[0] + h->buckets[1], 2u);
}

// Pinned Chrome trace-event rendering: ph X events with args carrying span,
// parent, trace, and typed attributes. A diff here breaks Perfetto loading.
TEST(Encoders, PerfettoTraceGolden) {
  std::int64_t now_us = 0;
  obs::Tracer tracer{[&] { return now_us; }};
  const std::uint64_t root = tracer.begin_detached("scheduler", "job");
  tracer.set_attr(root, "job", std::string_view{"job-1"});
  {
    obs::ScopedSpan run{&tracer, "scheduler", "run_job",
                        tracer.context_of(root)};
    run.attr("samples", std::int64_t{25});
    now_us = 150;
  }
  now_us = 200;
  tracer.end(root);
  const std::string expected =
      "{\"traceEvents\":["
      "{\"name\":\"run_job\",\"cat\":\"scheduler\",\"ph\":\"X\",\"ts\":0,"
      "\"dur\":150,\"pid\":1,\"tid\":1,\"args\":{\"span\":2,\"parent\":1,"
      "\"trace\":1,\"samples\":25}},"
      "{\"name\":\"job\",\"cat\":\"scheduler\",\"ph\":\"X\",\"ts\":0,"
      "\"dur\":200,\"pid\":1,\"tid\":1,\"args\":{\"span\":1,\"parent\":0,"
      "\"trace\":1,\"job\":\"job-1\"}}"
      "],\"displayTimeUnit\":\"ms\"}";
  EXPECT_EQ(obs::encode_trace_json(tracer.spans()), expected);

  // The pointer overload renders identically.
  EXPECT_EQ(obs::encode_trace_json(tracer.spans_in(1)), expected);

  const std::string list = obs::encode_trace_list_json(tracer);
  EXPECT_EQ(list.rfind("{\"traces\":[", 0), 0u) << list;
  EXPECT_NE(list.find("\"trace_id\":1"), std::string::npos);
  EXPECT_NE(list.find("\"job\":\"job-1\""), std::string::npos);
  EXPECT_NE(list.find("\"spans\":2"), std::string::npos);
}

TEST(Encoders, CorpusTraceNamesOneProcessPerSeed) {
  std::int64_t now_us = 0;
  obs::Tracer tracer{[&] { return now_us; }};
  { obs::ScopedSpan s{&tracer, "scheduler", "run_job"}; }
  const std::vector<obs::SpanRecord> spans = tracer.spans();
  const std::string doc =
      obs::encode_trace_json_corpus({{7, &spans}, {9, nullptr}});
  EXPECT_EQ(doc.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_NE(doc.find("\"name\":\"seed 7\""), std::string::npos);
  EXPECT_NE(doc.find("\"name\":\"seed 9\""), std::string::npos);
  EXPECT_NE(doc.find("\"pid\":2"), std::string::npos);
  EXPECT_NE(doc.find("\"name\":\"run_job\""), std::string::npos);
}

// ---------------------------------------------------------- exemplars ----

// First observation always attaches; afterwards only tail values (fraction
// of prior mass strictly below the value's own bucket >= the quantile) do.
TEST(MetricsRegistry, ExemplarAttachesAboveTheQuantile) {
  obs::MetricsRegistry registry;
  obs::Histogram& h = registry.histogram("blab_wait_seconds", {1.0, 5.0});
  h.observe(0.5, obs::Exemplar{1, 10});  // empty histogram: attaches
  ASSERT_TRUE(h.exemplar(0).valid());
  EXPECT_EQ(h.exemplar(0).trace, 1u);
  EXPECT_DOUBLE_EQ(h.exemplar(0).value, 0.5);

  for (int i = 0; i < 8; ++i) h.observe(0.5);
  // All 9 prior observations sit below the +Inf bucket: 9/9 >= 0.9, attach.
  h.observe(30.0, obs::Exemplar{2, 20});
  ASSERT_TRUE(h.exemplar(2).valid());
  EXPECT_EQ(h.exemplar(2).trace, 2u);

  // A bulk value (nothing below its bucket) does not displace the exemplar.
  h.observe(0.4, obs::Exemplar{3, 30});
  EXPECT_EQ(h.exemplar(0).trace, 1u);
}

TEST(MetricsRegistry, ExemplarQuantileIsConfigurable) {
  obs::MetricsRegistry registry;
  obs::Histogram& h = registry.histogram("blab_lat_seconds", {1.0});
  h.set_exemplar_quantile(0.5);
  h.observe(0.5);
  h.observe(0.5);
  h.observe(2.0, obs::Exemplar{5, 100});  // 2/2 below >= 0.5: attaches
  EXPECT_EQ(h.exemplar(1).trace, 5u);
  h.observe(0.3, obs::Exemplar{6, 200});  // 0/3 below < 0.5: rejected
  EXPECT_FALSE(h.exemplar(0).valid());

  h.set_exemplar_quantile(0.0);  // admit everything; latest wins
  h.observe(0.3, obs::Exemplar{7, 300});
  EXPECT_EQ(h.exemplar(0).trace, 7u);
  h.observe(2.5, obs::Exemplar{8, 400});
  EXPECT_EQ(h.exemplar(1).trace, 8u);
}

TEST(Encoders, PrometheusRendersExemplarSuffixes) {
  obs::MetricsRegistry registry;
  obs::Histogram& h = registry.histogram("blab_wait_seconds", {1.0, 5.0});
  h.observe(0.5, obs::Exemplar{7, 123});
  h.observe(30.0, obs::Exemplar{9, 456});
  const std::string text = obs::encode_prometheus(registry.snapshot());
  EXPECT_NE(text.find("blab_wait_seconds_bucket{le=\"1\"} 1"
                      " # {trace_id=\"7\",ts_us=\"123\"} 0.500000"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("le=\"+Inf\"} 2 # {trace_id=\"9\",ts_us=\"456\"} 30"),
            std::string::npos)
      << text;
  // The middle bucket holds no exemplar and renders the plain form.
  EXPECT_NE(text.find("blab_wait_seconds_bucket{le=\"5\"} 1\n"),
            std::string::npos)
      << text;

  const std::string json = obs::encode_json(registry.snapshot());
  EXPECT_NE(json.find("\"exemplars\":[{\"bucket\":0,\"trace_id\":7,"
                      "\"ts_us\":123,"),
            std::string::npos)
      << json;
}

TEST(Encoders, MergeKeepsTheLatestExemplarPerBucket) {
  obs::MetricsRegistry a, b;
  a.histogram("blab_h", {1.0}).observe(0.5, obs::Exemplar{1, 100});
  b.histogram("blab_h", {1.0}).observe(0.5, obs::Exemplar{2, 200});
  const auto merged = obs::merge_snapshots({a.snapshot(), b.snapshot()});
  const obs::SeriesSnapshot* h = merged.find("blab_h");
  ASSERT_NE(h, nullptr);
  ASSERT_FALSE(h->exemplars.empty());
  EXPECT_EQ(h->exemplars[0].trace, 2u);  // greater sim timestamp wins
  EXPECT_EQ(h->exemplars[0].ts_us, 200);
}

// The tie-break is strict: equal sim timestamps keep the EARLIER snapshot's
// exemplar, so merge output does not depend on which pooled worker happened
// to flush last. An invalid exemplar never displaces a valid one.
TEST(Encoders, MergeExemplarTiesKeepTheEarlierSnapshot) {
  obs::MetricsRegistry a, b, c;
  a.histogram("blab_h", {1.0}).observe(0.5, obs::Exemplar{1, 100});
  b.histogram("blab_h", {1.0}).observe(0.5, obs::Exemplar{2, 100});  // tie
  c.histogram("blab_h", {1.0}).observe(0.5);  // no exemplar attached
  const auto merged =
      obs::merge_snapshots({a.snapshot(), b.snapshot(), c.snapshot()});
  const obs::SeriesSnapshot* h = merged.find("blab_h");
  ASSERT_NE(h, nullptr);
  ASSERT_FALSE(h->exemplars.empty());
  EXPECT_EQ(h->exemplars[0].trace, 1u) << "tie must keep the first snapshot";
  EXPECT_EQ(h->exemplars[0].ts_us, 100);
  EXPECT_EQ(h->count, 3u);
}

// Histograms only merge when their bucket boundaries agree exactly; a
// mismatched layout is skipped rather than summed bucket-by-index into
// nonsense (counts from the first-seen layout survive untouched).
TEST(Encoders, MergeSkipsHistogramsWithMismatchedBounds) {
  obs::MetricsRegistry a, b;
  a.histogram("blab_h", {1.0, 5.0}).observe(0.5);
  b.histogram("blab_h", {2.0}).observe(0.5);
  const auto merged = obs::merge_snapshots({a.snapshot(), b.snapshot()});
  const obs::SeriesSnapshot* h = merged.find("blab_h");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->bounds, (std::vector<double>{1.0, 5.0}));
  EXPECT_EQ(h->count, 1u) << "mismatched layout must not fold in";
}

// ------------------------------------------------------------ spans ------

TEST(Spans, NestAndCloseLifoOnSimClock) {
  std::int64_t now_us = 0;
  obs::Tracer tracer{[&] { return now_us; }};
  {
    obs::ScopedSpan outer{&tracer, "scheduler", "dispatch"};
    now_us = 100;
    {
      obs::ScopedSpan inner{&tracer, "scheduler", "run_job"};
      now_us = 250;
    }
    now_us = 400;
  }
  ASSERT_EQ(tracer.spans().size(), 2u);
  const obs::SpanRecord& inner = tracer.spans()[0];
  const obs::SpanRecord& outer = tracer.spans()[1];
  EXPECT_EQ(inner.name, "run_job");
  EXPECT_EQ(inner.depth, 1u);
  EXPECT_EQ(inner.parent, outer.id);
  EXPECT_EQ(inner.duration_us(), 150);
  EXPECT_EQ(outer.depth, 0u);
  EXPECT_EQ(outer.duration_us(), 400);
  EXPECT_EQ(tracer.open_depth(), 0u);

  std::ostringstream jsonl;
  tracer.write_jsonl(jsonl);
  EXPECT_NE(jsonl.str().find("\"name\":\"run_job\""), std::string::npos);
  EXPECT_NE(jsonl.str().find("\"component\":\"scheduler\""),
            std::string::npos);
}

TEST(Spans, NullTracerIsANoOp) {
  obs::ScopedSpan span{nullptr, "x", "y"};  // must not crash
}

// A detached root span plus an explicit TraceContext tie synchronous and
// asynchronous children into one causal tree — the propagation pattern the
// scheduler/API/net layers use for every job.
TEST(Spans, ContextPropagationJoinsDetachedWorkToOneTrace) {
  std::int64_t now_us = 0;
  obs::Tracer tracer{[&] { return now_us; }};
  const std::uint64_t root = tracer.begin_detached("scheduler", "job");
  tracer.set_attr(root, "job", std::string_view{"job-1"});
  const obs::TraceContext ctx = tracer.context_of(root);
  ASSERT_TRUE(ctx.valid());
  {
    obs::ScopedSpan run{&tracer, "scheduler", "run_job", ctx};
    now_us = 50;
    obs::ScopedSpan api{&tracer, "api", "start_monitor"};  // stack-inherited
    now_us = 80;
  }
  // Async work opened after the stack unwound, carrying the captured ctx.
  const std::uint64_t flow = tracer.begin_detached("net", "flow", ctx);
  EXPECT_EQ(tracer.open_in_trace(ctx.trace), 2u);  // root + flow
  now_us = 120;
  tracer.end(flow);
  tracer.end(root);

  const auto spans = tracer.spans_in(ctx.trace);
  ASSERT_EQ(spans.size(), 4u);
  std::size_t roots = 0;
  for (const obs::SpanRecord* s : spans) {
    EXPECT_EQ(s->trace, ctx.trace);
    if (s->parent == 0) ++roots;
  }
  EXPECT_EQ(roots, 1u);
  EXPECT_EQ(tracer.find_trace_by_root_attr("job", "job-1"), ctx.trace);
  EXPECT_EQ(tracer.find_trace_by_root_attr("job", "job-2"), 0u);
  ASSERT_EQ(tracer.trace_ids().size(), 1u);
  EXPECT_EQ(tracer.open_in_trace(ctx.trace), 0u);
}

// Satellite: end() tolerates double ends, unknown ids, and out-of-order
// ends — each counted, each warned exactly once, never corrupting the stack.
TEST(Spans, EndToleratesDoubleUnknownAndOutOfOrderEnds) {
  util::LogCapture capture;
  std::int64_t now_us = 0;
  obs::Tracer tracer{[&] { return now_us; }};

  tracer.end(0);  // null handle: silent no-op
  EXPECT_EQ(tracer.end_mismatches(), 0u);

  tracer.end(999);  // unknown id
  EXPECT_EQ(tracer.end_mismatches(), 1u);

  const std::uint64_t outer = tracer.begin("x", "outer");
  (void)tracer.begin("x", "inner");
  tracer.end(outer);  // out of order: also closes the leaked inner span
  EXPECT_EQ(tracer.open_depth(), 0u);
  EXPECT_EQ(tracer.spans().size(), 2u);
  EXPECT_EQ(tracer.end_mismatches(), 2u);

  const std::uint64_t flow = tracer.begin_detached("x", "flow");
  tracer.end(flow);
  tracer.end(flow);  // double end
  EXPECT_EQ(tracer.end_mismatches(), 3u);
  EXPECT_EQ(tracer.spans().size(), 3u);

  // One warning per misuse kind, not per occurrence.
  EXPECT_TRUE(capture.contains("span end without a matching open span"));
  EXPECT_TRUE(capture.contains("span ended out of order"));
  EXPECT_EQ(capture.size(), 2u);
  tracer.end(999);
  EXPECT_EQ(capture.size(), 2u);
  EXPECT_EQ(tracer.end_mismatches(), 4u);
}

// Spans still open when run_all trips its event cap must not crash the
// tracer, and remain closable afterwards.
TEST(Spans, OpenSpansSurviveTheSimulatorEventCap) {
  sim::Simulator sim;
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 10; ++i) {
    sim.schedule_after(
        util::Duration::millis(i + 1),
        [&sim, &ids] {
          ids.push_back(sim.tracer().begin_detached("test", "pending"));
        },
        "open-span");
  }
  sim.run_all(5);
  ASSERT_TRUE(sim.hit_cap());
  ASSERT_EQ(ids.size(), 5u);
  EXPECT_EQ(sim.tracer().open_total(), 5u);
  for (std::uint64_t id : ids) sim.tracer().end(id);
  EXPECT_EQ(sim.tracer().open_total(), 0u);
  EXPECT_EQ(sim.tracer().spans().size(), ids.size());
  EXPECT_EQ(sim.tracer().end_mismatches(), 0u);
}

// ----------------------------------------------------------- sampling ----

// The conservation contract: with keep-1-in-4 on (mirror, frame), opening
// and closing N frame spans buffers only the kept ones, but their weights
// plus the spans still pending their trace's decision always sum to the
// exact span count — at every instant, not just at the end — so weighted
// aggregates equal unsampled counters. A zero threshold always head-samples
// at root end.
TEST(Sampling, WeightsConserveTheExactSpanCount) {
  std::int64_t now_us = 0;
  obs::Tracer tracer{[&] { return now_us; }};
  tracer.set_tail_sampling("mirror", "frame", 4, 0);
  const std::uint64_t session = tracer.begin_detached("mirror", "session");
  const obs::TraceContext ctx = tracer.context_of(session);
  for (int i = 0; i < 10; ++i) {
    now_us += 10;
    { obs::ScopedSpan frame{&tracer, "mirror", "frame", ctx}; }
    std::uint64_t weighted = 0;
    for (const obs::SpanRecord& s : tracer.spans()) weighted += s.weight;
    EXPECT_EQ(weighted + tracer.tail_pending("mirror", "frame"),
              static_cast<std::uint64_t>(i + 1))
        << "conservation broke after frame " << i;
  }
  tracer.end(session);
  EXPECT_EQ(tracer.tail_pending(), 0u);

  // Counts 0..9 with keep-1-in-4: 0, 4, 8 kept; each drop credits the last
  // kept span of its family, so the weights land 4, 4, 2.
  std::vector<std::uint64_t> frame_weights;
  for (const obs::SpanRecord& s : tracer.spans()) {
    if (s.name == "frame") frame_weights.push_back(s.weight);
  }
  EXPECT_EQ(frame_weights, (std::vector<std::uint64_t>{4, 4, 2}));
  EXPECT_EQ(tracer.sampled_out(), 7u);
  EXPECT_EQ(tracer.weight_uncredited(), 0u);
  // The unsampled session span keeps weight 1.
  EXPECT_EQ(tracer.spans().back().weight, 1u);
}

// Sampling state is per (family, trace): every trace keeps its own first
// span, so a low-traffic trace is never blinded by a busy neighbor.
TEST(Sampling, FirstSpanOfEveryTraceIsKept) {
  std::int64_t now_us = 0;
  obs::Tracer tracer{[&] { return now_us; }};
  tracer.set_tail_sampling("mirror", "frame", 8, 0);
  for (int t = 0; t < 3; ++t) {
    const std::uint64_t root = tracer.begin_detached("mirror", "session");
    const obs::TraceContext ctx = tracer.context_of(root);
    { obs::ScopedSpan frame{&tracer, "mirror", "frame", ctx}; }
    tracer.end(root);
  }
  std::size_t frames = 0;
  for (const obs::SpanRecord& s : tracer.spans()) {
    if (s.name == "frame") ++frames;
  }
  EXPECT_EQ(frames, 3u) << "each trace's first frame must survive sampling";
  EXPECT_EQ(tracer.sampled_out(), 0u);
}

TEST(Sampling, KeepOneInOneRemovesThePolicy) {
  std::int64_t now_us = 0;
  obs::Tracer tracer{[&] { return now_us; }};
  tracer.set_tail_sampling("mirror", "frame", 4, 0);
  tracer.set_tail_sampling("mirror", "frame", 1, 0);
  const std::uint64_t root = tracer.begin_detached("mirror", "session");
  const obs::TraceContext ctx = tracer.context_of(root);
  for (int i = 0; i < 6; ++i) {
    obs::ScopedSpan frame{&tracer, "mirror", "frame", ctx};
  }
  tracer.end(root);
  EXPECT_EQ(tracer.spans().size(), 7u);
  EXPECT_EQ(tracer.sampled_out(), 0u);
}

// end() misuse accounting must stay exact for sampled-out spans: the span
// never reaches the buffer, but its id is live until the first end(), and
// only a second end() of the same id is a mismatch.
TEST(Sampling, EndMismatchCountingSurvivesSampledOutSpans) {
  std::int64_t now_us = 0;
  obs::Tracer tracer{[&] { return now_us; }};
  tracer.set_tail_sampling("mirror", "frame", 2, 0);
  const std::uint64_t root = tracer.begin_detached("mirror", "session");
  const obs::TraceContext ctx = tracer.context_of(root);
  const std::uint64_t kept = tracer.begin_detached("mirror", "frame", ctx);
  const std::uint64_t dropped = tracer.begin_detached("mirror", "frame", ctx);
  tracer.end(kept);
  tracer.end(dropped);  // pending, dropped at root end — still a clean end
  EXPECT_EQ(tracer.end_mismatches(), 0u);
  tracer.end(dropped);  // double end of the sampled-out span
  EXPECT_EQ(tracer.end_mismatches(), 1u);
  tracer.end(root);
  EXPECT_EQ(tracer.sampled_out(), 1u);
  ASSERT_EQ(tracer.spans().size(), 2u);
  EXPECT_EQ(tracer.spans()[0].weight, 2u) << "drop credited the kept frame";
}

// ------------------------------------------------------- tail sampling ----

// A slow trace (root duration >= threshold) keeps every buffered span at
// weight 1; a fast trace falls back to head sampling. The decision defers
// until the root ends — meanwhile the spans sit in tail_pending at full
// weight, preserving the conservation contract at every instant.
TEST(TailSampling, SlowTraceKeepsFullFidelityFastTraceHeadSamples) {
  std::int64_t now_us = 0;
  obs::Tracer tracer{[&] { return now_us; }};
  tracer.set_tail_sampling("mirror", "frame", 4, 1000);

  // Slow trace: root spans 0..2000 us, past the 1000 us threshold.
  const std::uint64_t slow = tracer.begin_detached("mirror", "session");
  const obs::TraceContext slow_ctx = tracer.context_of(slow);
  for (int i = 0; i < 8; ++i) {
    now_us += 250;
    { obs::ScopedSpan frame{&tracer, "mirror", "frame", slow_ctx}; }
  }
  EXPECT_EQ(tracer.tail_pending("mirror", "frame"), 8u)
      << "undecided spans buffer at full weight";
  EXPECT_TRUE(tracer.spans().empty()) << "nothing commits before the root";
  tracer.end(slow);
  EXPECT_EQ(tracer.tail_pending("mirror", "frame"), 0u);
  EXPECT_EQ(tracer.tail_slow_traces(), 1u);
  std::size_t frames = 0;
  for (const obs::SpanRecord& s : tracer.spans()) {
    if (s.name != "frame") continue;
    ++frames;
    EXPECT_EQ(s.weight, 1u) << "slow-outlier spans commit at weight 1";
  }
  EXPECT_EQ(frames, 8u);
  EXPECT_EQ(tracer.sampled_out(), 0u);

  // Fast trace: root closes immediately, under the threshold. The pending
  // buffer falls back to keep-1-in-4 with drop credits.
  const std::size_t before = tracer.spans().size();
  const std::uint64_t fast = tracer.begin_detached("mirror", "session");
  const obs::TraceContext fast_ctx = tracer.context_of(fast);
  for (int i = 0; i < 8; ++i) {
    obs::ScopedSpan frame{&tracer, "mirror", "frame", fast_ctx};
  }
  tracer.end(fast);
  EXPECT_EQ(tracer.tail_slow_traces(), 1u);
  std::uint64_t kept = 0, weighted = 0;
  for (std::size_t i = before; i < tracer.spans().size(); ++i) {
    const obs::SpanRecord& s = tracer.spans()[i];
    if (s.name != "frame") continue;
    ++kept;
    weighted += s.weight;
  }
  EXPECT_EQ(kept, 2u) << "8 frames at keep-1-in-4";
  EXPECT_EQ(weighted, 8u) << "head fallback still conserves the count";
  EXPECT_EQ(tracer.sampled_out(), 6u);
}

// Conservation with the pending term: kept weights + tail_pending equals
// the exact span count at every instant, before and after the decision.
TEST(TailSampling, PendingPlusKeptWeightsConserveTheCount) {
  std::int64_t now_us = 0;
  obs::Tracer tracer{[&] { return now_us; }};
  tracer.set_tail_sampling("monsoon", "synth_block", 8, 5000);
  const std::uint64_t root = tracer.begin_detached("monsoon", "capture");
  const obs::TraceContext ctx = tracer.context_of(root);
  for (int i = 0; i < 20; ++i) {
    now_us += 100;
    { obs::ScopedSpan block{&tracer, "monsoon", "synth_block", ctx}; }
    std::uint64_t weighted = 0;
    for (const obs::SpanRecord& s : tracer.spans()) {
      if (s.name == "synth_block") weighted += s.weight;
    }
    EXPECT_EQ(weighted + tracer.tail_pending("monsoon", "synth_block"),
              static_cast<std::uint64_t>(i + 1))
        << "conservation broke at block " << i;
  }
  tracer.end(root);  // 2000 us < 5000 us threshold: head fallback
  std::uint64_t weighted = 0;
  for (const obs::SpanRecord& s : tracer.spans()) {
    if (s.name == "synth_block") weighted += s.weight;
  }
  EXPECT_EQ(weighted, 20u);
  EXPECT_EQ(tracer.tail_pending(), 0u);
  EXPECT_EQ(tracer.weight_uncredited(), 0u);
}

// Spans of the family that finish AFTER their root has ended never
// re-buffer: the trace's sampling state is gone, so they commit at weight 1
// whether the root was slow or fast.
TEST(TailSampling, LateSpansFollowTheTraceDecision) {
  std::int64_t now_us = 0;
  obs::Tracer tracer{[&] { return now_us; }};
  tracer.set_tail_sampling("mirror", "frame", 4, 1000);
  const std::uint64_t slow = tracer.begin_detached("mirror", "session");
  const obs::TraceContext slow_ctx = tracer.context_of(slow);
  now_us += 2000;
  tracer.end(slow);  // slow outlier, decided with zero pending frames
  const std::uint64_t fast = tracer.begin_detached("mirror", "session");
  const obs::TraceContext fast_ctx = tracer.context_of(fast);
  tracer.end(fast);  // fast root: would head-sample, but nothing is pending
  for (int i = 0; i < 5; ++i) {
    { obs::ScopedSpan frame{&tracer, "mirror", "frame", slow_ctx}; }
    { obs::ScopedSpan frame{&tracer, "mirror", "frame", fast_ctx}; }
  }
  std::size_t slow_frames = 0, fast_frames = 0;
  for (const obs::SpanRecord& s : tracer.spans()) {
    if (s.name != "frame") continue;
    ++(s.trace == slow_ctx.trace ? slow_frames : fast_frames);
    EXPECT_EQ(s.weight, 1u);
  }
  EXPECT_EQ(slow_frames, 5u) << "post-decision spans keep full fidelity";
  EXPECT_EQ(fast_frames, 5u) << "late spans are not head-sampled";
  EXPECT_EQ(tracer.sampled_out(), 0u);
  EXPECT_EQ(tracer.tail_pending(), 0u);
}

// A runaway trace cannot hold unbounded spans hostage: at
// kMaxTailPendingPerTrace the buffered prefix flushes through head sampling
// and tail_overflows ticks (the conservation oracle bails on that signal).
TEST(TailSampling, PendingBufferOverflowFlushesPrefix) {
  std::int64_t now_us = 0;
  obs::Tracer tracer{[&] { return now_us; }};
  tracer.set_tail_sampling("mirror", "frame", 4, 1'000'000);
  const std::uint64_t root = tracer.begin_detached("mirror", "session");
  const obs::TraceContext ctx = tracer.context_of(root);
  const std::size_t n = obs::Tracer::kMaxTailPendingPerTrace + 10;
  for (std::size_t i = 0; i < n; ++i) {
    now_us += 1;
    obs::ScopedSpan frame{&tracer, "mirror", "frame", ctx};
  }
  EXPECT_EQ(tracer.tail_overflows(), 1u);
  EXPECT_EQ(tracer.tail_pending("mirror", "frame"), 10u)
      << "buffering resumes for the remainder after the flush";
  tracer.end(root);
  EXPECT_EQ(tracer.tail_pending(), 0u);
}

// Turning sampling off (keep 1 in 1) applies at the trace's next decision:
// pending spans stay pending until the root ends, then all of them commit.
TEST(TailSampling, RemovingThePolicyFlushesPendingSpans) {
  std::int64_t now_us = 0;
  obs::Tracer tracer{[&] { return now_us; }};
  tracer.set_tail_sampling("mirror", "frame", 2, 1000);
  const std::uint64_t root = tracer.begin_detached("mirror", "session");
  const obs::TraceContext ctx = tracer.context_of(root);
  for (int i = 0; i < 4; ++i) {
    obs::ScopedSpan frame{&tracer, "mirror", "frame", ctx};
  }
  EXPECT_EQ(tracer.tail_pending("mirror", "frame"), 4u);
  tracer.set_tail_sampling("mirror", "frame", 1, 0);  // keep every span
  EXPECT_EQ(tracer.tail_pending("mirror", "frame"), 4u)
      << "re-registration decides nothing by itself";
  tracer.end(root);  // fast root: head-sampled at keep 1 in 1
  EXPECT_EQ(tracer.tail_pending(), 0u);
  std::uint64_t frames = 0;
  for (const obs::SpanRecord& s : tracer.spans()) {
    if (s.name != "frame") continue;
    ++frames;
    EXPECT_EQ(s.weight, 1u);
  }
  EXPECT_EQ(frames, 4u) << "every buffered span commits";
  EXPECT_EQ(tracer.sampled_out(), 0u);
}

// Every MirroringSession / PowerMonitor constructor re-registers its
// family's policy. Re-registering unchanged parameters must not decide the
// live traces: a fast root still head-samples its pending spans.
TEST(TailSampling, ReRegisteringDoesNotDecideLiveTraces) {
  std::int64_t now_us = 0;
  obs::Tracer tracer{[&] { return now_us; }};
  tracer.set_tail_sampling("mirror", "frame", 4, 1000);
  const std::uint64_t root = tracer.begin_detached("mirror", "session");
  const obs::TraceContext ctx = tracer.context_of(root);
  for (int i = 0; i < 8; ++i) {
    obs::ScopedSpan frame{&tracer, "mirror", "frame", ctx};
  }
  tracer.set_tail_sampling("mirror", "frame", 4, 1000);
  EXPECT_EQ(tracer.tail_pending("mirror", "frame"), 8u);
  EXPECT_TRUE(tracer.spans().empty());
  tracer.end(root);  // 0 us < 1000 us: fast
  std::uint64_t kept = 0, weighted = 0;
  for (const obs::SpanRecord& s : tracer.spans()) {
    if (s.name != "frame") continue;
    ++kept;
    weighted += s.weight;
  }
  EXPECT_EQ(kept, 2u) << "8 frames at keep-1-in-4";
  EXPECT_EQ(weighted, 8u);
  EXPECT_EQ(tracer.tail_slow_traces(), 0u);
}

// Property: the conservation contract holds after every step of seeded
// random interleavings over both production families — at least three live
// traces, fast and slow roots, late spans, mid-trace re-registrations, one
// kMaxTailPendingPerTrace overflow and, on some seeds, a small span buffer.
// Until the buffer cap drops a span, kept weights plus tail_pending() equal
// the spans ended per family (an overflow only head-samples early, so it
// keeps the count exact); after that they can only fall short. Once every
// root has ended, nothing is left pending.
TEST(TailSampling, ConservationHoldsAcrossSeededInterleavings) {
  struct Family {
    const char* component;
    const char* name;
    std::uint64_t keep_one_in;
    std::int64_t threshold_us;
  };
  const Family families[] = {{"mirror", "frame", 4, 5'000},
                             {"monsoon", "synth_block", 8, 4'000}};
  std::uint64_t exact_checks = 0, slow = 0, late = 0, overflows = 0;
  std::uint64_t sampled_out = 0, capped_seeds = 0;
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    util::Rng rng{seed};
    std::int64_t now_us = 0;
    obs::Tracer tracer{[&] { return now_us; }, seed % 4 == 0 ? 48u : 65536u};
    for (const Family& f : families) {
      tracer.set_tail_sampling(f.component, f.name, f.keep_one_in,
                               f.threshold_us);
    }
    std::vector<std::uint64_t> live;       // open root span ids
    std::vector<obs::TraceContext> ended;  // contexts of settled traces
    std::uint64_t spans_ended[2] = {0, 0};
    const auto pick = [&](std::size_t n) {
      return static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
    };
    const auto end_family_span = [&](std::size_t f, obs::TraceContext ctx) {
      { obs::ScopedSpan span{&tracer, families[f].component,
                             families[f].name, ctx}; }
      ++spans_ended[f];
    };
    // "" when the contract holds, else what broke.
    const auto check = [&]() -> std::string {
      std::uint64_t pending_total = 0;
      for (std::size_t f = 0; f < 2; ++f) {
        std::uint64_t weighted = 0;
        for (const obs::SpanRecord& s : tracer.spans()) {
          if (s.component == families[f].component &&
              s.name == families[f].name) {
            weighted += s.weight;
          }
        }
        const std::uint64_t pending =
            tracer.tail_pending(families[f].component, families[f].name);
        pending_total += pending;
        const bool exact = tracer.dropped() == 0;
        if (exact ? weighted + pending != spans_ended[f]
                  : weighted + pending > spans_ended[f]) {
          return std::string{families[f].name} + ": kept " +
                 std::to_string(weighted) + " + pending " +
                 std::to_string(pending) + " vs ended " +
                 std::to_string(spans_ended[f]);
        }
        if (exact) ++exact_checks;
      }
      if (tracer.dropped() == 0 && tracer.weight_uncredited() != 0) {
        return "uncredited weight without a buffer drop";
      }
      if (tracer.tail_pending() != pending_total) return "pending total";
      return "";
    };

    for (int step = 0; step < 300; ++step) {
      now_us += rng.uniform_int(1, 400);
      while (live.size() < 3) {
        live.push_back(tracer.begin_detached("scheduler", "job"));
      }
      const std::int64_t op = rng.uniform_int(0, 19);
      if (seed % 6 == 1 && step == 150) {
        // Runaway trace: one more span than the pending bound.
        const obs::TraceContext ctx = tracer.context_of(live[0]);
        for (std::size_t i = 0; i <= obs::Tracer::kMaxTailPendingPerTrace;
             ++i) {
          end_family_span(0, ctx);
        }
      } else if (op < 14) {
        end_family_span(pick(2), tracer.context_of(live[pick(live.size())]));
      } else if (op < 17) {
        const std::size_t i = pick(live.size());
        ended.push_back(tracer.context_of(live[i]));
        tracer.end(live[i]);
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(i));
      } else if (op < 18 && !ended.empty()) {
        end_family_span(pick(2), ended[pick(ended.size())]);
        ++late;
      } else {
        // Re-register mid-trace: half the time unchanged, else perturbed.
        const Family& f = families[pick(2)];
        const bool same = rng.chance(0.5);
        tracer.set_tail_sampling(
            f.component, f.name,
            same ? f.keep_one_in
                 : static_cast<std::uint64_t>(rng.uniform_int(1, 8)),
            same ? f.threshold_us : rng.uniform_int(0, 6'000));
      }
      ASSERT_EQ(check(), "") << "seed " << seed << " step " << step;
    }
    for (const std::uint64_t root : live) {
      now_us += 1'000;
      tracer.end(root);
      ASSERT_EQ(check(), "") << "seed " << seed << " final roots";
    }
    EXPECT_EQ(tracer.tail_pending(), 0u) << "seed " << seed;
    slow += tracer.tail_slow_traces();
    sampled_out += tracer.sampled_out();
    overflows += tracer.tail_overflows();
    if (tracer.dropped() > 0) ++capped_seeds;
  }
  // Vacuity guards: every ingredient actually occurred.
  EXPECT_GT(slow, 0u);
  EXPECT_GT(sampled_out, 0u) << "no fast root head-sampled anything";
  EXPECT_GT(late, 0u);
  EXPECT_GE(overflows, 4u);
  EXPECT_GT(capped_seeds, 0u);
  EXPECT_GT(exact_checks, 0u);
}

// ------------------------------------------------------------- links -----

TEST(Links, TypedCrossTraceEdgesAttachAndCap) {
  std::int64_t now_us = 0;
  obs::Tracer tracer{[&] { return now_us; }};
  const std::uint64_t first = tracer.begin_detached("scheduler", "job");
  const obs::TraceContext pred = tracer.context_of(first);
  tracer.end(first);

  const std::uint64_t second = tracer.begin_detached("scheduler", "job");
  tracer.add_link(second, obs::SpanLink{pred.trace, pred.span, "retry_of"});
  EXPECT_EQ(tracer.links_added(), 1u);
  // Past the per-span cap, extras are dropped silently.
  for (std::uint64_t i = 0; i < obs::Tracer::kMaxLinksPerSpan + 2; ++i) {
    tracer.add_link(second, obs::SpanLink{pred.trace, pred.span, "extra"});
  }
  EXPECT_EQ(tracer.links_added(),
            static_cast<std::uint64_t>(obs::Tracer::kMaxLinksPerSpan));
  tracer.add_link(999, obs::SpanLink{pred.trace, pred.span, "x"});  // unknown
  EXPECT_EQ(tracer.links_added(),
            static_cast<std::uint64_t>(obs::Tracer::kMaxLinksPerSpan));
  tracer.end(second);

  const obs::SpanRecord& retry = tracer.spans().back();
  ASSERT_EQ(retry.links.size(), obs::Tracer::kMaxLinksPerSpan);
  EXPECT_EQ(retry.links[0].trace, pred.trace);
  EXPECT_EQ(retry.links[0].span, pred.span);
  EXPECT_EQ(retry.links[0].kind, "retry_of");
}

// Perfetto rendering carries both analytics extensions: a non-unit sampling
// weight and the typed link, as plain args Perfetto will display.
TEST(Links, PerfettoRendersWeightAndLinkArgs) {
  std::int64_t now_us = 0;
  obs::Tracer tracer{[&] { return now_us; }};
  tracer.set_tail_sampling("mirror", "frame", 2, 0);
  const std::uint64_t root = tracer.begin_detached("mirror", "session");
  const obs::TraceContext ctx = tracer.context_of(root);
  const std::uint64_t a = tracer.begin_detached("mirror", "frame", ctx);
  tracer.end(a);
  const std::uint64_t b = tracer.begin_detached("mirror", "frame", ctx);
  tracer.end(b);  // sampled out at root end: credits a's record, weight 2
  tracer.add_link(root, obs::SpanLink{7, 3, "retry_of"});
  tracer.end(root);

  const std::string json = obs::encode_trace_json(tracer.spans());
  EXPECT_NE(json.find("\"weight\":2"), std::string::npos) << json;
  EXPECT_NE(json.find("\"link.retry_of\":\"7:3\""), std::string::npos)
      << json;

  std::ostringstream jsonl;
  tracer.write_jsonl(jsonl);
  EXPECT_NE(jsonl.str().find("\"weight\":2"), std::string::npos);
  EXPECT_NE(jsonl.str().find("retry_of"), std::string::npos);
}

// ----------------------------------------------------------- aggregate ----

// Hand-built two-trace forest exercising the flame fold: merging by
// (component, name) path, weighted counts, and self time under overlapping
// and gapped children.
TEST(Aggregate, FlameMergesPathsAndComputesSelfTime) {
  std::int64_t now_us = 0;
  obs::Tracer tracer{[&] { return now_us; }};
  for (int t = 0; t < 2; ++t) {
    now_us = 0;
    const std::uint64_t root = tracer.begin_detached("scheduler", "job");
    const obs::TraceContext ctx = tracer.context_of(root);
    const std::uint64_t run = tracer.begin_detached("scheduler", "run_job",
                                                    ctx);
    now_us = 100;
    const std::uint64_t flow =
        tracer.begin_detached("net", "flow", tracer.context_of(run));
    now_us = 400;
    tracer.end(flow);  // net/flow: 100..400 under run_job
    now_us = 600;
    tracer.end(run);  // run_job: 0..600
    now_us = 1000;
    tracer.end(root);  // job: 0..1000, 400us uncovered tail
  }
  const obs::FlameNode forest = obs::build_flame(tracer.spans());
  EXPECT_EQ(forest.count, 2u) << "forest root sums its children's counts";
  const obs::FlameNode* job = forest.find("scheduler", "job");
  ASSERT_NE(job, nullptr);
  EXPECT_EQ(job->count, 2u);
  EXPECT_EQ(job->total_us, 2000);
  EXPECT_EQ(job->self_us, 800);  // 2 x (1000 - 600 covered by run_job)
  const obs::FlameNode* run = job->find("scheduler", "run_job");
  ASSERT_NE(run, nullptr);
  EXPECT_EQ(run->count, 2u);
  EXPECT_EQ(run->total_us, 1200);
  EXPECT_EQ(run->self_us, 600);  // 2 x (600 - 300 covered by net/flow)
  const obs::FlameNode* flow = run->find("net", "flow");
  ASSERT_NE(flow, nullptr);
  EXPECT_EQ(flow->total_us, 600);
  EXPECT_EQ(flow->self_us, 600);  // leaf: self == total
  EXPECT_EQ(job->find("net", "flow"), nullptr)
      << "path-sensitive merge must not flatten flow under job";
}

// A span whose parent is missing from the input (buffer overflow, filtered
// query) folds in as a root instead of vanishing from the flame.
TEST(Aggregate, OrphanSpansBecomeFlameRoots) {
  std::vector<obs::SpanRecord> spans(1);
  spans[0].id = 5;
  spans[0].parent = 99;  // not in the input
  spans[0].trace = 1;
  spans[0].component = "store";
  spans[0].name = "append_capture";
  spans[0].start_us = 0;
  spans[0].end_us = 50;
  const obs::FlameNode forest = obs::build_flame(spans);
  const obs::FlameNode* node = forest.find("store", "append_capture");
  ASSERT_NE(node, nullptr);
  EXPECT_EQ(node->count, 1u);
  EXPECT_EQ(node->total_us, 50);
}

// Span ids are only unique within one tracer. Pooling buffers from several
// tracers can repeat an id; the fold must keep the first record per id and
// drop the rest, or the shared children lookup would re-walk subtrees once
// per duplicate (exponential in depth).
TEST(Aggregate, DuplicateSpanIdsFoldOnce) {
  std::vector<obs::SpanRecord> spans(3);
  spans[0].id = 1;
  spans[0].trace = 1;
  spans[0].component = "scheduler";
  spans[0].name = "job";
  spans[0].start_us = 0;
  spans[0].end_us = 100;
  spans[1] = spans[0];  // same id from another tracer's buffer
  spans[1].component = "mirror";
  spans[1].name = "frame";
  spans[2].id = 2;
  spans[2].parent = 1;
  spans[2].trace = 1;
  spans[2].component = "net";
  spans[2].name = "flow";
  spans[2].start_us = 10;
  spans[2].end_us = 40;
  const obs::FlameNode forest = obs::build_flame(spans);
  const obs::FlameNode* job = forest.find("scheduler", "job");
  ASSERT_NE(job, nullptr);
  EXPECT_EQ(job->count, 1u);
  const obs::FlameNode* flow = job->find("net", "flow");
  ASSERT_NE(flow, nullptr);
  EXPECT_EQ(flow->count, 1u) << "the child folds once, not once per duplicate";
  EXPECT_EQ(forest.find("mirror", "frame"), nullptr)
      << "the duplicate id's record is dropped, not folded as a second root";
}

// Weighted spans scale both count and duration: one kept span standing for
// three sampled siblings contributes three spans' worth to the flame.
TEST(Aggregate, FlameScalesByWeight) {
  std::vector<obs::SpanRecord> spans(1);
  spans[0].id = 1;
  spans[0].trace = 1;
  spans[0].component = "mirror";
  spans[0].name = "frame";
  spans[0].start_us = 0;
  spans[0].end_us = 10;
  spans[0].weight = 3;
  const obs::FlameNode forest = obs::build_flame(spans);
  const obs::FlameNode* node = forest.find("mirror", "frame");
  ASSERT_NE(node, nullptr);
  EXPECT_EQ(node->count, 3u);
  EXPECT_EQ(node->total_us, 30);
  EXPECT_EQ(node->self_us, 30);
}

TEST(Aggregate, SegmentMappingCoversEveryComponent) {
  const auto seg = [](const char* component, const char* name) {
    obs::SpanRecord s;
    s.component = component;
    s.name = name;
    return obs::segment_of(s);
  };
  EXPECT_EQ(seg("scheduler", "job"), obs::PathSegment::kQueueWait);
  EXPECT_EQ(seg("scheduler", "run_job"), obs::PathSegment::kDispatch);
  EXPECT_EQ(seg("net", "flow"), obs::PathSegment::kNetwork);
  EXPECT_EQ(seg("net", "vpn_connect"), obs::PathSegment::kNetwork);
  EXPECT_EQ(seg("api", "start_monitor"), obs::PathSegment::kCapture);
  EXPECT_EQ(seg("monsoon", "synth_block"), obs::PathSegment::kCapture);
  EXPECT_EQ(seg("store", "append_capture"), obs::PathSegment::kStore);
  EXPECT_EQ(seg("mirror", "session"), obs::PathSegment::kMirror);
  EXPECT_EQ(seg("novel", "thing"), obs::PathSegment::kOther);
  EXPECT_STREQ(obs::path_segment_name(obs::PathSegment::kQueueWait),
               "queue_wait");
  EXPECT_STREQ(obs::path_segment_name(obs::PathSegment::kOther), "other");
}

// The partition contract: every microsecond of the root interval lands in
// exactly one segment, deepest-span-wins, so the segment sums equal the
// root duration no matter how children overlap or leave gaps.
TEST(Aggregate, CriticalPathPartitionsTheRootInterval) {
  std::int64_t now_us = 0;
  obs::Tracer tracer{[&] { return now_us; }};
  const std::uint64_t root = tracer.begin_detached("scheduler", "job");
  tracer.set_attr(root, "job", std::string_view{"job-1"});
  const obs::TraceContext ctx = tracer.context_of(root);
  now_us = 100;  // 0..100: queue wait (root self time)
  const std::uint64_t run = tracer.begin_detached("scheduler", "run_job",
                                                  ctx);
  now_us = 150;
  const std::uint64_t api = tracer.begin_detached("api", "start_monitor",
                                                  tracer.context_of(run));
  now_us = 250;
  tracer.end(api);  // 150..250 capture, nested inside dispatch
  now_us = 300;
  tracer.end(run);  // 100..300 dispatch minus the api slice
  const std::uint64_t flow = tracer.begin_detached("net", "flow", ctx);
  now_us = 500;
  tracer.end(flow);  // 300..500 network
  now_us = 600;
  tracer.end(root);  // 500..600 idles back in queue_wait

  const auto paths = obs::critical_paths(tracer.spans());
  ASSERT_EQ(paths.size(), 1u);
  const obs::CriticalPath& cp = paths[0];
  EXPECT_EQ(cp.job, "job-1");
  EXPECT_EQ(cp.total_us, 600);
  EXPECT_EQ(cp.segment(obs::PathSegment::kQueueWait), 200);
  EXPECT_EQ(cp.segment(obs::PathSegment::kDispatch), 100);
  EXPECT_EQ(cp.segment(obs::PathSegment::kCapture), 100);
  EXPECT_EQ(cp.segment(obs::PathSegment::kNetwork), 200);
  std::int64_t sum = 0;
  for (std::size_t i = 0; i < obs::kPathSegmentCount; ++i) {
    sum += cp.segment_us[i];
  }
  EXPECT_EQ(sum, cp.total_us) << "attribution must partition the interval";
}

// Traces without a scheduler/job root (mirror-only work, bare harness
// spans) carry no job to attribute and are skipped.
TEST(Aggregate, CriticalPathsSkipNonJobTraces) {
  std::int64_t now_us = 0;
  obs::Tracer tracer{[&] { return now_us; }};
  const std::uint64_t session = tracer.begin_detached("mirror", "session");
  now_us = 50;
  tracer.end(session);
  EXPECT_TRUE(obs::critical_paths(tracer.spans()).empty());
}

TEST(Aggregate, EncodeFlameJsonShape) {
  std::int64_t now_us = 0;
  obs::Tracer tracer{[&] { return now_us; }};
  const std::uint64_t root = tracer.begin_detached("scheduler", "job");
  tracer.set_attr(root, "job", std::string_view{"job-1"});
  now_us = 100;
  tracer.end(root);
  const std::string json = obs::encode_flame_json(
      obs::build_flame(tracer.spans()), obs::critical_paths(tracer.spans()));
  EXPECT_EQ(json.rfind("{\"flame\":", 0), 0u) << json;
  EXPECT_NE(json.find("\"critical_paths\":["), std::string::npos) << json;
  EXPECT_NE(json.find("\"job\":\"job-1\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"queue_wait\":100"), std::string::npos) << json;
  EXPECT_NE(json.find("\"self_us\":100"), std::string::npos) << json;
}

// ------------------------------------------------------------ logging ----

TEST(Logging, StructuredFieldsReachTheSink) {
  util::LogCapture capture;
  BLAB_INFO_KV("scheduler", "job started", {"job", "job-7"},
               {"vp", "turin-pi"});
  ASSERT_EQ(capture.size(), 1u);
  EXPECT_TRUE(capture.has_field("job", "job-7"));
  EXPECT_TRUE(capture.has_field("vp", "turin-pi"));
  EXPECT_FALSE(capture.has_field("job", "job-8"));
  // The flat rendering keeps key=value pairs greppable.
  EXPECT_TRUE(capture.contains("job=job-7"));
}

TEST(Logging, PlainStreamFormStillWorks) {
  util::LogCapture capture;
  BLAB_INFO("net", "delivered " << 3 << " messages");
  EXPECT_TRUE(capture.contains("delivered 3 messages"));
}

TEST(Logging, ConcurrentLoggingUnderCaptureIsSafe) {
  util::LogCapture capture;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 200;
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([t] {
      for (int i = 0; i < kPerThread; ++i) {
        BLAB_INFO_KV("pool", "tick", {"worker", std::to_string(t)});
      }
    });
  }
  for (auto& th : pool) th.join();
  EXPECT_EQ(capture.size(),
            static_cast<std::size_t>(kThreads * kPerThread));
}

TEST(Logging, OncePerKeySuppressesRepeats) {
  util::OncePerKey once;
  EXPECT_TRUE(once.first("a"));
  EXPECT_FALSE(once.first("a"));
  EXPECT_TRUE(once.first("b"));
  EXPECT_EQ(once.seen(), 2u);
  once.reset();
  EXPECT_TRUE(once.first("a"));
}

// ------------------------------------------------------- determinism -----

// Acceptance: two from-scratch runs of the same seed must render
// byte-identical Prometheus snapshots — telemetry is part of the replay
// contract, not an observer effect.
TEST(DstMetrics, SameSeedRendersByteIdenticalSnapshots) {
  const auto seeds = dst::default_corpus(3);
  for (std::uint64_t seed : seeds) {
    const auto spec = dst::generate_scenario(seed);
    const auto first = dst::run_scenario(spec);
    const auto second = dst::run_scenario(spec);
    ASSERT_FALSE(first.metrics_text.empty()) << "seed " << seed;
    EXPECT_EQ(first.metrics_text, second.metrics_text)
        << "seed " << seed << " telemetry is not deterministic";
  }
}

// Acceptance: a real scenario run's snapshot carries series from every
// instrumented layer — scheduler, capture store, power monitor, and the
// simulator kernel itself.
TEST(DstMetrics, ScenarioSnapshotCoversAllInstrumentedLayers) {
  const auto result = dst::run_scenario(dst::default_corpus(1)[0]);
  EXPECT_TRUE(result.ok()) << result.violation_summary();
  for (const char* series :
       {"blab_scheduler_jobs_submitted_total", "blab_store_records",
        "blab_monsoon_samples_synthesized_total",
        "blab_sim_events_dispatched_total", "blab_sim_pending_events"}) {
    EXPECT_NE(result.metrics_text.find(series), std::string::npos)
        << "snapshot is missing " << series;
  }
  EXPECT_GT(result.metrics.value_or("blab_sim_events_dispatched_total"), 0.0);
}

// Concurrency smoke: the pooled corpus runner with 4 workers keeps every
// oracle green (including metric-accounting) and still produces non-empty
// per-seed snapshots.
TEST(DstMetrics, PooledCorpusKeepsOraclesGreen) {
  const auto seeds = dst::default_corpus(8);
  const auto results = dst::run_corpus(seeds, 4);
  ASSERT_EQ(results.size(), seeds.size());
  for (const auto& result : results) {
    EXPECT_TRUE(result.ok()) << result.violation_summary();
    EXPECT_FALSE(result.metrics_text.empty()) << "seed " << result.seed;
  }
}

// ------------------------------------------------------------ REST -------

TEST(RestMetrics, MetricsEndpointServesTheLiveRegistry) {
  sim::Simulator sim;
  net::Network net{sim, 0x0B5ULL};
  controller::RestBackend rest{net, "ctrl.node1"};
  sim.schedule_after(util::Duration::millis(10), [] {}, "warmup");
  sim.run_all();

  auto prom = rest.call("metrics", "");
  ASSERT_TRUE(prom.ok());
  EXPECT_NE(prom.value().find("# TYPE blab_sim_events_dispatched_total "
                              "counter"),
            std::string::npos);
  EXPECT_NE(prom.value().find("blab_rest_requests_total"), std::string::npos);

  auto json = rest.call("metrics", "format=json");
  ASSERT_TRUE(json.ok());
  EXPECT_EQ(json.value().rfind("{\"series\":[", 0), 0u);
  // The JSON call observed the counter bumped by the first call.
  EXPECT_NE(json.value().find("\"blab_rest_requests_total\""),
            std::string::npos);
  EXPECT_EQ(rest.requests_served(), 2u);
}

TEST(RestTraces, TracesEndpointResolvesJobIdsAndTraceIds) {
  sim::Simulator sim;
  net::Network net{sim, 0x0B5ULL};
  controller::RestBackend rest{net, "ctrl.node1"};
  obs::Tracer& tracer = sim.tracer();
  const std::uint64_t root = tracer.begin_detached("scheduler", "job");
  tracer.set_attr(root, "job", std::string_view{"job-1"});
  const obs::TraceContext ctx = tracer.context_of(root);
  { obs::ScopedSpan run{&tracer, "scheduler", "run_job", ctx}; }
  tracer.end(root);

  auto list = rest.call("traces", "");
  ASSERT_TRUE(list.ok());
  EXPECT_EQ(list.value().rfind("{\"traces\":[", 0), 0u) << list.value();
  EXPECT_NE(list.value().find("\"job\":\"job-1\""), std::string::npos);

  auto by_job = rest.call("traces", "job_id=job-1");
  ASSERT_TRUE(by_job.ok());
  EXPECT_EQ(by_job.value().rfind("{\"traceEvents\":[", 0), 0u)
      << by_job.value();
  EXPECT_NE(by_job.value().find("\"name\":\"run_job\""), std::string::npos);
  EXPECT_NE(by_job.value().find("\"name\":\"job\""), std::string::npos);

  auto by_trace = rest.call("traces", "trace_id=" + std::to_string(ctx.trace));
  ASSERT_TRUE(by_trace.ok());
  EXPECT_EQ(by_trace.value(), by_job.value());

  auto missing = rest.call("traces", "job_id=job-999");
  ASSERT_FALSE(missing.ok());
  EXPECT_NE(missing.error().str().find("no trace for job job-999"),
            std::string::npos);
}

// ----------------------------------------------------- tracing e2e -------

// Acceptance: a real scenario attaches at least one histogram exemplar, and
// every exemplar's trace id resolves to finished spans of that same trace —
// the /metrics -> /traces pivot never dangles.
TEST(DstTraces, ScenarioExemplarsResolveToRecordedTraces) {
  const auto result = dst::run_scenario(dst::default_corpus(1)[0]);
  EXPECT_TRUE(result.ok()) << result.violation_summary();
  ASSERT_FALSE(result.spans.empty());
  EXPECT_EQ(result.trace_json.rfind("{\"traceEvents\":[", 0), 0u);

  std::set<std::uint64_t> trace_ids;
  for (const auto& span : result.spans) trace_ids.insert(span.trace);

  std::size_t exemplars = 0;
  for (const auto& series : result.metrics.series) {
    for (const auto& ex : series.exemplars) {
      if (!ex.valid()) continue;
      ++exemplars;
      EXPECT_EQ(trace_ids.count(ex.trace), 1u)
          << series.name << " exemplar names unknown trace " << ex.trace;
    }
  }
  EXPECT_GT(exemplars, 0u) << "no exemplar attached anywhere in the scenario";
}

}  // namespace
