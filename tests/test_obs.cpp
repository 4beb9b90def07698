// The observability layer: metric aggregation under heavy thread-pool
// concurrency, span nesting/ordering, snapshot diff, exporter
// well-formedness (round-tripped through the obs JSON reader) and the
// zero-overhead no-op mode.  This binary is the one the verify recipe runs
// under -DUPSIM_SANITIZE=thread to prove the registry and tracer are
// race-free.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "graph/graph.hpp"
#include "obs/obs.hpp"
#include "pathdisc/path_discovery.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace upsim::obs {
namespace {

/// Every test runs with a clean global registry/tracer and obs on;
/// restores the default-off switch afterwards so unrelated suites in the
/// process stay un-instrumented.
class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    set_enabled(true);
    Registry::global().reset();
    Tracer::global().clear();
  }
  void TearDown() override { set_enabled(false); }
};

// ---------------------------------------------------------------------------
// counters / gauges / histograms

TEST_F(ObsTest, CounterCountsAndResets) {
  Counter c;
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST_F(ObsTest, GaugeSetAndAdd) {
  Gauge g;
  g.set(2.5);
  g.add(-1.0);
  EXPECT_DOUBLE_EQ(g.value(), 1.5);
}

TEST_F(ObsTest, HistogramBasicStatistics) {
  Histogram h;
  for (const double v : {1.0, 2.0, 3.0, 4.0, 100.0}) h.record(v);
  const auto snap = h.snapshot();
  EXPECT_EQ(snap.count, 5u);
  EXPECT_DOUBLE_EQ(snap.sum, 110.0);
  EXPECT_DOUBLE_EQ(snap.min, 1.0);
  EXPECT_DOUBLE_EQ(snap.max, 100.0);
  EXPECT_DOUBLE_EQ(snap.mean(), 22.0);
  EXPECT_DOUBLE_EQ(snap.quantile(0.0), snap.min);
  EXPECT_DOUBLE_EQ(snap.quantile(1.0), snap.max);
  // The median sample (3.0) lives in bucket [2,4): the estimate must land
  // inside that bucket.
  const double p50 = snap.quantile(0.5);
  EXPECT_GE(p50, 2.0);
  EXPECT_LE(p50, 4.0);
}

TEST_F(ObsTest, HistogramClampsNegativeAndIgnoresNan) {
  Histogram h;
  h.record(-5.0);  // clamped to 0
  h.record(std::nan(""));
  const auto snap = h.snapshot();
  EXPECT_EQ(snap.count, 1u);
  EXPECT_DOUBLE_EQ(snap.min, 0.0);
}

TEST_F(ObsTest, RegistryReturnsStableReferences) {
  auto& registry = Registry::global();
  Counter& a = registry.counter("stable.counter");
  a.add(7);
  Counter& b = registry.counter("stable.counter");
  EXPECT_EQ(&a, &b);
  registry.reset();  // zeroes in place, does not invalidate
  EXPECT_EQ(a.value(), 0u);
  a.add(1);
  EXPECT_EQ(registry.counter("stable.counter").value(), 1u);
}

// ---------------------------------------------------------------------------
// concurrency: many pool workers hammering the same names

TEST_F(ObsTest, AggregationFromManyThreadPoolWorkers) {
  auto& registry = Registry::global();
  util::ThreadPool pool(8);
  constexpr std::size_t kTasks = 400;
  constexpr std::size_t kAddsPerTask = 250;
  pool.parallel_for(kTasks, [&](std::size_t i) {
    // First-touch registration races on purpose: every worker resolves the
    // same names through the lock-striped maps.
    registry.counter("conc.counter").add(kAddsPerTask);
    registry.gauge("conc.gauge").set(static_cast<double>(i));
    registry.histogram("conc.histogram").record(static_cast<double>(i % 16));
  });
  EXPECT_EQ(registry.counter("conc.counter").value(), kTasks * kAddsPerTask);
  const auto snap = registry.histogram("conc.histogram").snapshot();
  EXPECT_EQ(snap.count, kTasks);
  EXPECT_DOUBLE_EQ(snap.min, 0.0);
  EXPECT_DOUBLE_EQ(snap.max, 15.0);
  const double gauge = registry.gauge("conc.gauge").value();
  EXPECT_GE(gauge, 0.0);
  EXPECT_LT(gauge, static_cast<double>(kTasks));
}

TEST_F(ObsTest, ThreadPoolSelfInstrumentation) {
  auto& registry = Registry::global();
  const auto before = registry.snapshot();
  std::atomic<int> ran{0};
  {
    util::ThreadPool pool(4);
    pool.parallel_for(64, [&](std::size_t) { ran.fetch_add(1); });
  }
  EXPECT_EQ(ran.load(), 64);
  // Snapshot only after the destructor joined the workers: a worker makes
  // its task's future ready before it records the exec histogram and the
  // completed counter, so parallel_for can return between the two.
  const auto delta = registry.snapshot().diff(before);
  // parallel_for chunks tasks, so at least one per worker ran through the
  // timed path; wait and exec histograms grew by the same task count.
  const std::uint64_t completed = delta.counter("threadpool.tasks_completed");
  EXPECT_GT(completed, 0u);
  EXPECT_EQ(delta.histogram("threadpool.task_wait_us").count, completed);
  EXPECT_EQ(delta.histogram("threadpool.task_exec_us").count, completed);
  // Queue depth was exported at least once (instantaneous, value >= 0).
  EXPECT_GE(delta.gauge("threadpool.queue_depth"), 0.0);
}

TEST_F(ObsTest, ConcurrentSpansFromPoolWorkers) {
  util::ThreadPool pool(8);
  pool.parallel_for(200, [&](std::size_t i) {
    ScopedSpan outer("outer", "test");
    ScopedSpan inner(i % 2 == 0 ? "inner_even" : "inner_odd", "test");
  });
  const auto spans = Tracer::global().finished_spans();
  EXPECT_EQ(spans.size(), 400u);
  // Within each thread the sort puts enclosing spans before their children.
  for (std::size_t i = 0; i + 1 < spans.size(); ++i) {
    if (spans[i].thread_index != spans[i + 1].thread_index) continue;
    EXPECT_LE(spans[i].start_us, spans[i + 1].start_us + 1e-3);
  }
}

// ---------------------------------------------------------------------------
// spans

TEST_F(ObsTest, SpanNestingAndOrdering) {
  {
    ScopedSpan outer("outer", "test");
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    {
      ScopedSpan inner("inner", "test");
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ScopedSpan sibling("sibling", "test");
  }
  const auto spans = Tracer::global().finished_spans();
  ASSERT_EQ(spans.size(), 3u);
  // Sorted for rendering: outer first (starts first), then its children in
  // start order, all on one thread.
  EXPECT_EQ(spans[0].name, "outer");
  EXPECT_EQ(spans[1].name, "inner");
  EXPECT_EQ(spans[2].name, "sibling");
  EXPECT_EQ(spans[0].depth, 0u);
  EXPECT_EQ(spans[1].depth, 1u);
  EXPECT_EQ(spans[2].depth, 1u);
  EXPECT_EQ(spans[0].thread_index, spans[1].thread_index);
  // Containment: inner lies inside outer on the timeline.
  EXPECT_GE(spans[1].start_us, spans[0].start_us);
  EXPECT_LE(spans[1].end_us(), spans[0].end_us() + 1e-3);
  EXPECT_GT(spans[0].duration_us, spans[1].duration_us);
}

TEST_F(ObsTest, TracerClearDropsSpansAndRestartsEpoch) {
  { ScopedSpan span("before", "test"); }
  EXPECT_EQ(Tracer::global().span_count(), 1u);
  Tracer::global().clear();
  EXPECT_EQ(Tracer::global().span_count(), 0u);
  { ScopedSpan span("after", "test"); }
  const auto spans = Tracer::global().finished_spans();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].name, "after");
}

// ---------------------------------------------------------------------------
// snapshot diff

TEST_F(ObsTest, SnapshotDiffSubtractsWindows) {
  auto& registry = Registry::global();
  registry.counter("diff.counter").add(10);
  registry.histogram("diff.histogram").record(4.0);
  registry.gauge("diff.gauge").set(1.0);
  const auto before = registry.snapshot();

  registry.counter("diff.counter").add(5);
  registry.counter("diff.fresh").add(3);
  registry.histogram("diff.histogram").record(8.0);
  registry.histogram("diff.histogram").record(16.0);
  registry.gauge("diff.gauge").set(9.0);
  const auto delta = registry.snapshot().diff(before);

  EXPECT_EQ(delta.counter("diff.counter"), 5u);
  EXPECT_EQ(delta.counter("diff.fresh"), 3u);  // absent earlier: whole value
  EXPECT_EQ(delta.histogram("diff.histogram").count, 2u);
  EXPECT_DOUBLE_EQ(delta.histogram("diff.histogram").sum, 24.0);
  EXPECT_DOUBLE_EQ(delta.gauge("diff.gauge"), 9.0);  // instantaneous
}

// ---------------------------------------------------------------------------
// exporters round-tripped through the obs JSON reader

TEST_F(ObsTest, ChromeTraceJsonIsWellFormed) {
  {
    // Hostile span names must survive JSON escaping.
    ScopedSpan weird("quote \" backslash \\ newline \n tab \t", "cat/1");
    ScopedSpan nested("nested", "pipeline");
  }
  const std::string json = Tracer::global().to_chrome_json();
  const JsonValue doc = json_parse(json);  // throws on malformed output
  ASSERT_TRUE(doc.is_object());
  ASSERT_TRUE(doc.at("traceEvents").is_array());
  const auto& events = doc.at("traceEvents").array;
  // Metadata record + 2 spans.
  ASSERT_EQ(events.size(), 3u);
  bool found_weird = false;
  for (const auto& event : events) {
    ASSERT_TRUE(event.is_object());
    ASSERT_TRUE(event.has("name"));
    ASSERT_TRUE(event.has("ph"));
    if (event.at("ph").string == "X") {
      EXPECT_TRUE(event.has("ts"));
      EXPECT_TRUE(event.has("dur"));
      EXPECT_TRUE(event.has("pid"));
      EXPECT_TRUE(event.has("tid"));
      EXPECT_GE(event.at("dur").number, 0.0);
      if (event.at("name").string ==
          "quote \" backslash \\ newline \n tab \t") {
        found_weird = true;
      }
    }
  }
  EXPECT_TRUE(found_weird);
}

TEST_F(ObsTest, MetricsJsonIsWellFormed) {
  auto& registry = Registry::global();
  registry.counter("json.counter").add(3);
  registry.gauge("json.gauge").set(2.75);
  for (int i = 1; i <= 100; ++i) {
    registry.histogram("json.histogram").record(static_cast<double>(i));
  }
  const JsonValue doc = json_parse(registry.snapshot().to_json());
  ASSERT_TRUE(doc.is_object());
  EXPECT_DOUBLE_EQ(doc.at("counters").at("json.counter").number, 3.0);
  EXPECT_DOUBLE_EQ(doc.at("gauges").at("json.gauge").number, 2.75);
  const auto& histogram = doc.at("histograms").at("json.histogram");
  EXPECT_DOUBLE_EQ(histogram.at("count").number, 100.0);
  EXPECT_DOUBLE_EQ(histogram.at("sum").number, 5050.0);
  EXPECT_DOUBLE_EQ(histogram.at("min").number, 1.0);
  EXPECT_DOUBLE_EQ(histogram.at("max").number, 100.0);
  const double p50 = histogram.at("p50").number;
  EXPECT_GE(p50, 32.0);  // true median 50 lives in bucket [32, 64)
  EXPECT_LE(p50, 64.0);
  ASSERT_TRUE(histogram.at("buckets").is_array());
  double bucket_total = 0.0;
  for (const auto& bucket : histogram.at("buckets").array) {
    bucket_total += bucket.at("count").number;
  }
  EXPECT_DOUBLE_EQ(bucket_total, 100.0);
}

TEST_F(ObsTest, JsonReaderRejectsMalformedDocuments) {
  EXPECT_THROW(json_parse("{"), ParseError);
  EXPECT_THROW(json_parse("{\"a\":1,}"), ParseError);
  EXPECT_THROW(json_parse("[1 2]"), ParseError);
  EXPECT_THROW(json_parse("\"unterminated"), ParseError);
  EXPECT_THROW(json_parse("{\"a\":1} trailing"), ParseError);
  EXPECT_THROW(json_parse("01"), ParseError);
  EXPECT_THROW(json_parse("\"bad \\x escape\""), ParseError);
  EXPECT_THROW(json_parse("nul"), ParseError);
}

TEST_F(ObsTest, JsonReaderHandlesEscapesAndUnicode) {
  const JsonValue v = json_parse(R"({"k":"a\n\t\"\\\u0041\u00e9"})");
  EXPECT_EQ(v.at("k").string, "a\n\t\"\\A\xc3\xa9");
  const JsonValue nums = json_parse("[0, -1.5, 2e3, 1.25e-2]");
  ASSERT_EQ(nums.array.size(), 4u);
  EXPECT_DOUBLE_EQ(nums.array[1].number, -1.5);
  EXPECT_DOUBLE_EQ(nums.array[2].number, 2000.0);
}

TEST_F(ObsTest, JsonReaderEnforcesNestingDepthLimit) {
  // A server fed "[[[[..." 10k deep must get a clean ParseError, not a
  // stack overflow: the default limit rejects it while parsing.
  const std::string deep_open(10000, '[');
  EXPECT_THROW(json_parse(deep_open), ParseError);
  std::string deep_balanced(10000, '[');
  deep_balanced += "1";
  deep_balanced += std::string(10000, ']');
  EXPECT_THROW(json_parse(deep_balanced), ParseError);
  try {
    (void)json_parse(deep_balanced);
    FAIL() << "depth limit not enforced";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("nesting depth"), std::string::npos);
  }

  // Documents at or under a configured limit parse; one level past fails.
  // Depth counts the root, so N nested arrays need max_depth >= N.
  JsonLimits limits;
  limits.max_depth = 4;
  EXPECT_NO_THROW((void)json_parse("[[[[42]]]]", limits));
  EXPECT_NO_THROW((void)json_parse(R"({"a":{"b":{"c":[1]}}})", limits));
  EXPECT_THROW((void)json_parse("[[[[[42]]]]]", limits), ParseError);
  limits.max_depth = 0;  // 0 = unlimited: modest nesting parses again
  EXPECT_NO_THROW((void)json_parse("[[[[[[[[42]]]]]]]]", limits));
}

TEST_F(ObsTest, JsonReaderEnforcesDocumentSizeLimit) {
  JsonLimits limits;
  limits.max_bytes = 16;
  EXPECT_NO_THROW((void)json_parse(R"({"k":1})", limits));
  try {
    (void)json_parse(R"({"key":"0123456789abcdef"})", limits);
    FAIL() << "size limit not enforced";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("exceeds limit"), std::string::npos);
  }
  limits.max_bytes = 0;  // 0 = unlimited
  EXPECT_NO_THROW((void)json_parse(R"({"key":"0123456789abcdef"})", limits));
}

TEST_F(ObsTest, JsonWriterRawValueSplicesVerbatim) {
  JsonWriter w;
  w.begin_object();
  w.key("a");
  w.value(1);
  w.key("embedded");
  w.raw_value(R"({"x":[1,2]})");
  w.key("b");
  w.value(true);
  w.end_object();
  const std::string doc = std::move(w).str();
  EXPECT_EQ(doc, R"({"a":1,"embedded":{"x":[1,2]},"b":true})");
  EXPECT_NO_THROW((void)json_parse(doc));
}

// ---------------------------------------------------------------------------
// pipeline instrumentation sites

TEST_F(ObsTest, PathDiscoveryRecordsCounters) {
  graph::Graph g;
  const auto a = g.add_vertex("a", "T");
  const auto b = g.add_vertex("b", "T");
  const auto c = g.add_vertex("c", "T");
  g.add_edge("a", "b");
  g.add_edge("b", "c");
  g.add_edge("a", "c");

  const auto before = Registry::global().snapshot();
  const auto set = pathdisc::discover(g, a, c);
  EXPECT_EQ(set.count(), 2u);
  const auto delta = Registry::global().snapshot().diff(before);
  EXPECT_EQ(delta.counter("pathdisc.pairs"), 1u);
  EXPECT_EQ(delta.counter("pathdisc.paths_found"), 2u);
  EXPECT_EQ(delta.counter("pathdisc.vertices_visited"), set.nodes_expanded);
  EXPECT_EQ(delta.counter("pathdisc.truncations"), 0u);
  (void)b;
}

TEST_F(ObsTest, PathDiscoveryCountsTruncations) {
  graph::Graph g;
  const auto a = g.add_vertex("a", "T");
  const auto d = g.add_vertex("d", "T");
  g.add_vertex("b", "T");
  g.add_vertex("c", "T");
  g.add_edge("a", "b");
  g.add_edge("b", "d");
  g.add_edge("a", "c");
  g.add_edge("c", "d");

  pathdisc::Options options;
  options.max_paths = 1;
  const auto before = Registry::global().snapshot();
  const auto set = pathdisc::discover(g, a, d, options);
  EXPECT_TRUE(set.truncated);
  const auto delta = Registry::global().snapshot().diff(before);
  EXPECT_EQ(delta.counter("pathdisc.truncations"), 1u);
}

// ---------------------------------------------------------------------------
// no-op mode

TEST_F(ObsTest, DisabledModeRecordsNothing) {
  set_enabled(false);
  const auto before = Registry::global().snapshot();
  const std::size_t spans_before = Tracer::global().span_count();

  { ScopedSpan span("invisible", "test"); }
  graph::Graph g;
  const auto a = g.add_vertex("a", "T");
  const auto b = g.add_vertex("b", "T");
  g.add_edge("a", "b");
  (void)pathdisc::discover(g, a, b);
  util::ThreadPool pool(2);
  pool.parallel_for(16, [](std::size_t) {});

  EXPECT_EQ(Tracer::global().span_count(), spans_before);
  const auto delta = Registry::global().snapshot().diff(before);
  for (const auto& counter : delta.counters) {
    EXPECT_EQ(counter.value, 0u) << counter.name;
  }
  for (const auto& histogram : delta.histograms) {
    EXPECT_EQ(histogram.data.count, 0u) << histogram.name;
  }
  // Direct metric use stays live even when instrumentation is off: the
  // bench reporters depend on that.
  Registry::global().counter("noop.direct").add(1);
  EXPECT_EQ(Registry::global().counter("noop.direct").value(), 1u);
}

TEST_F(ObsTest, DisabledSpanSurvivesMidScopeEnable) {
  set_enabled(false);
  const std::size_t before = Tracer::global().span_count();
  {
    ScopedSpan span("latched_off", "test");
    set_enabled(true);  // span was constructed inert; must stay inert
  }
  EXPECT_EQ(Tracer::global().span_count(), before);
}

// ---------------------------------------------------------------------------
// trace context

TEST_F(ObsTest, TraceIdFormatAndParseRoundTrip) {
  EXPECT_EQ(format_trace_id(0x1), "0000000000000001");
  EXPECT_EQ(format_trace_id(0x0123456789abcdefULL), "0123456789abcdef");
  EXPECT_EQ(parse_trace_id("0000000000000001"), 1u);
  EXPECT_EQ(parse_trace_id("0123456789ABCDEF"), 0x0123456789abcdefULL);
  EXPECT_EQ(parse_trace_id("0000000000000000"), 0u);  // zero = untraced
  EXPECT_EQ(parse_trace_id("00000000000000zz"), 0u);  // not hex
  EXPECT_EQ(parse_trace_id("abc"), 0u);               // wrong length
  EXPECT_EQ(parse_trace_id("0123456789abcdef0"), 0u);

  const std::uint64_t id = generate_trace_id();
  EXPECT_NE(id, 0u);
  EXPECT_EQ(parse_trace_id(format_trace_id(id)), id);
  EXPECT_NE(generate_trace_id(), id);  // ids are unique per call
}

TEST_F(ObsTest, TraceScopeInstallsAndRestoresContext) {
  EXPECT_FALSE(current_trace_context().active());
  {
    TraceScope outer({42, 0});
    EXPECT_EQ(current_trace_context().trace_id, 42u);
    {
      TraceScope inner({43, 7});
      EXPECT_EQ(current_trace_context().trace_id, 43u);
      EXPECT_EQ(current_trace_context().span_id, 7u);
    }
    EXPECT_EQ(current_trace_context().trace_id, 42u);
    EXPECT_EQ(current_trace_context().span_id, 0u);
  }
  EXPECT_FALSE(current_trace_context().active());
}

TEST_F(ObsTest, SpansInheritTraceIdAndParentLinks) {
  const std::uint64_t trace = generate_trace_id();
  std::uint64_t outer_id = 0;
  std::uint64_t inner_id = 0;
  {
    TraceScope scope({trace, 0});
    ScopedSpan outer("request", "test");
    outer_id = outer.span_id();
    {
      ScopedSpan inner("step", "test");
      inner_id = inner.span_id();
    }
  }
  { ScopedSpan untraced("outside", "test"); }

  const auto spans = Tracer::global().spans_for_trace(trace);
  ASSERT_EQ(spans.size(), 2u);  // "outside" must not bleed in
  // Sorted by start, outermost first: request then step.
  EXPECT_EQ(spans[0].name, "request");
  EXPECT_EQ(spans[0].trace_id, trace);
  EXPECT_EQ(spans[0].span_id, outer_id);
  EXPECT_EQ(spans[0].parent_span_id, 0u);
  EXPECT_EQ(spans[1].name, "step");
  EXPECT_EQ(spans[1].trace_id, trace);
  EXPECT_EQ(spans[1].span_id, inner_id);
  EXPECT_EQ(spans[1].parent_span_id, outer_id);
  EXPECT_NE(outer_id, inner_id);

  // The untraced span is still recorded — just not under this trace.
  bool saw_untraced = false;
  for (const auto& s : Tracer::global().finished_spans()) {
    if (s.name == "outside") {
      saw_untraced = true;
      EXPECT_EQ(s.trace_id, 0u);
    }
  }
  EXPECT_TRUE(saw_untraced);
}

TEST_F(ObsTest, TraceContextStitchesAcrossThreads) {
  // One logical request whose pieces run on different threads — the model
  // of server reader → pool worker handoff.  The trace id follows the
  // context object, not the thread.
  const std::uint64_t trace = generate_trace_id();
  std::uint64_t root_id = 0;
  {
    TraceScope scope({trace, 0});
    ScopedSpan root("request", "test");
    root_id = root.span_id();
    const TraceContext ctx{trace, root.span_id()};
    std::thread worker([ctx] {
      TraceScope scope(ctx);
      ScopedSpan span("worker_step", "test");
    });
    worker.join();
  }
  const auto spans = Tracer::global().spans_for_trace(trace);
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].name, "request");
  EXPECT_EQ(spans[1].name, "worker_step");
  EXPECT_EQ(spans[1].parent_span_id, root_id);
  EXPECT_NE(spans[0].thread_index, spans[1].thread_index);
}

TEST_F(ObsTest, ConcurrentTracedRequestsDoNotBleed) {
  // 8 "requests" on 8 threads, each recording nested spans under its own
  // trace id; every trace must come back with exactly its own 3 spans.
  constexpr int kThreads = 8;
  constexpr int kSpansPerTrace = 3;
  std::vector<std::uint64_t> traces(kThreads);
  for (auto& t : traces) t = generate_trace_id();
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&traces, i] {
      TraceScope scope({traces[static_cast<std::size_t>(i)], 0});
      ScopedSpan a("a", "test");
      ScopedSpan b("b", "test");
      ScopedSpan c("c", "test");
    });
  }
  for (auto& t : threads) t.join();
  for (const std::uint64_t trace : traces) {
    const auto spans = Tracer::global().spans_for_trace(trace);
    ASSERT_EQ(spans.size(), static_cast<std::size_t>(kSpansPerTrace));
    for (const auto& s : spans) EXPECT_EQ(s.trace_id, trace);
    // a is the root; c nests deepest.
    EXPECT_EQ(spans[0].name, "a");
    EXPECT_EQ(spans[0].parent_span_id, 0u);
    EXPECT_EQ(spans[2].name, "c");
    EXPECT_EQ(spans[2].parent_span_id, spans[1].span_id);
  }
}

TEST_F(ObsTest, ChromeTraceByTraceGroupsRequestsIntoProcesses) {
  const std::uint64_t t1 = generate_trace_id();
  const std::uint64_t t2 = generate_trace_id();
  {
    TraceScope scope({t1, 0});
    ScopedSpan span("first", "test");
  }
  {
    TraceScope scope({t2, 0});
    ScopedSpan span("second", "test");
  }
  { ScopedSpan span("untraced", "test"); }

  const obs::JsonValue doc = json_parse(Tracer::global().to_chrome_json_by_trace());
  const auto& events = doc.at("traceEvents").array;
  // Metadata rows name each trace's process.
  bool named_t1 = false;
  bool named_t2 = false;
  double pid_t1 = -1.0;
  double pid_t2 = -1.0;
  for (const auto& e : events) {
    if (e.at("name").string == "process_name") {
      const std::string& label = e.at("args").at("name").string;
      if (label == "trace " + format_trace_id(t1)) {
        named_t1 = true;
        pid_t1 = e.at("pid").number;
      }
      if (label == "trace " + format_trace_id(t2)) {
        named_t2 = true;
        pid_t2 = e.at("pid").number;
      }
    }
  }
  EXPECT_TRUE(named_t1);
  EXPECT_TRUE(named_t2);
  EXPECT_NE(pid_t1, pid_t2);
  // Span events land in their trace's process; untraced spans in pid 0.
  for (const auto& e : events) {
    if (e.at("name").string == "first") {
      EXPECT_EQ(e.at("pid").number, pid_t1);
    }
    if (e.at("name").string == "second") {
      EXPECT_EQ(e.at("pid").number, pid_t2);
    }
    if (e.at("name").string == "untraced") {
      EXPECT_EQ(e.at("pid").number, 0.0);
    }
  }
}

// ---------------------------------------------------------------------------
// quantile histograms

TEST_F(ObsTest, HistogramQuantilesTrackKnownDistribution) {
  Histogram h;
  for (int i = 1; i <= 1000; ++i) h.record(static_cast<double>(i));
  const auto snap = h.snapshot();
  // Sub-bucketed octaves keep the relative error within one sub-bucket
  // (factor 1 + 1/16), a far tighter promise than plain power-of-two
  // buckets could make.
  constexpr double kTol = 1.0 + 1.0 / Histogram::kSubBuckets;
  EXPECT_LE(snap.quantile(0.50), 500.0 * kTol);
  EXPECT_GE(snap.quantile(0.50), 500.0 / kTol);
  EXPECT_LE(snap.quantile(0.95), 950.0 * kTol);
  EXPECT_GE(snap.quantile(0.95), 950.0 / kTol);
  EXPECT_LE(snap.quantile(0.99), 990.0 * kTol);
  EXPECT_GE(snap.quantile(0.99), 990.0 / kTol);
  EXPECT_LE(snap.quantile(0.999), 1000.0 * kTol);
  EXPECT_GE(snap.quantile(0.999), 999.0 / kTol);
}

TEST_F(ObsTest, HistogramQuantileInvertsCdfWithinBucketResolution) {
  // The property the exposition relies on: for any recorded value v,
  // quantile(cdf(v)) lands back within v's bucket — relative error one
  // sub-bucket above 1.0, absolute error one linear slice (1/16) below.
  Histogram h;
  std::vector<double> values;
  for (double v = 0.001; v < 1.0e6; v *= 1.37) values.push_back(v);
  for (const double v : values) h.record(v);
  const auto snap = h.snapshot();
  const auto n = static_cast<double>(values.size());
  constexpr double kRel = 1.0 + 1.0 / Histogram::kSubBuckets;
  constexpr double kAbs = 1.0 / Histogram::kSubBuckets;
  for (std::size_t i = 0; i < values.size(); ++i) {
    // values are sorted and distinct, so the empirical CDF inverts rank i
    // exactly under the estimator's rank = q * (count - 1) convention.
    const double q = static_cast<double>(i) / (n - 1.0);
    const double v = snap.quantile(q);
    EXPECT_LE(v, values[i] * kRel + kAbs) << "i=" << i;
    EXPECT_GE(v, values[i] / kRel - kAbs) << "i=" << i;
  }
}

TEST_F(ObsTest, HistogramJsonExportsExtendedQuantiles) {
  auto& h = Registry::global().histogram("export.latency");
  for (int i = 1; i <= 100; ++i) h.record(static_cast<double>(i));
  const obs::JsonValue doc =
      json_parse(Registry::global().snapshot().to_json());
  ASSERT_TRUE(doc.at("histograms").is_object());
  const obs::JsonValue& exported =
      doc.at("histograms").at("export.latency");
  for (const char* key : {"p50", "p90", "p95", "p99", "p999"}) {
    ASSERT_TRUE(exported.has(key)) << key;
  }
  EXPECT_LE(exported.at("p50").number, exported.at("p95").number);
  EXPECT_LE(exported.at("p95").number, exported.at("p99").number);
  EXPECT_LE(exported.at("p99").number, exported.at("p999").number);
}

// ---------------------------------------------------------------------------
// Prometheus exposition

TEST_F(ObsTest, PrometheusMetricNamesAreSanitized) {
  EXPECT_EQ(prometheus_metric_name("server.requests.upsim"),
            "upsim_server_requests_upsim");
  EXPECT_EQ(prometheus_metric_name("responses.503"), "upsim_responses_503");
  EXPECT_EQ(prometheus_metric_name("weird-name!x"), "upsim_weird_name_x");
  EXPECT_EQ(prometheus_metric_name("already_fine:ok"), "upsim_already_fine:ok");
}

TEST_F(ObsTest, PrometheusRenderingIsByteStable) {
  // A golden scrape: every formatting decision (prefix, _total, dyadic
  // edges, cumulative counts, key order) is pinned byte for byte.  The
  // snapshot is hand-built — the global registry keeps names registered
  // across tests, which would leak zero-valued metrics into the bytes.
  Histogram h;
  h.record(0.5);  // linear slice [0,1): bucket edge 0.5625
  h.record(3.0);  // octave [2,4), sub-bucket 8: edge 3.125
  MetricsSnapshot snap;
  snap.counters.push_back({"rpc.requests", 3});
  snap.gauges.push_back({"queue.depth", 2.5});
  snap.histograms.push_back({"request.latency_us", h.snapshot()});
  const std::string text = render_prometheus(snap);
  EXPECT_EQ(text,
            "# TYPE upsim_rpc_requests_total counter\n"
            "upsim_rpc_requests_total 3\n"
            "# TYPE upsim_queue_depth gauge\n"
            "upsim_queue_depth 2.5\n"
            "# TYPE upsim_request_latency_us histogram\n"
            "upsim_request_latency_us_bucket{le=\"0.5625\"} 1\n"
            "upsim_request_latency_us_bucket{le=\"3.125\"} 2\n"
            "upsim_request_latency_us_bucket{le=\"+Inf\"} 2\n"
            "upsim_request_latency_us_sum 3.5\n"
            "upsim_request_latency_us_count 2\n");
}

TEST_F(ObsTest, PrometheusHistogramBucketsAreCumulativeAndMonotone) {
  auto& h = Registry::global().histogram("spread.latency");
  for (int i = 0; i < 1000; ++i) {
    h.record(static_cast<double>((i * i) % 977) + 0.25);
  }
  const std::string text = render_prometheus(Registry::global().snapshot());

  // Walk the rendered bucket lines in order; counts must never decrease
  // and the +Inf bucket must equal _count.
  std::uint64_t previous = 0;
  std::uint64_t inf_count = 0;
  std::uint64_t total = 0;
  std::size_t bucket_lines = 0;
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    const auto space = line.rfind(' ');
    if (line.find("spread_latency_bucket{le=\"+Inf\"}") != std::string::npos) {
      inf_count = std::stoull(line.substr(space + 1));
    } else if (line.find("spread_latency_bucket{le=") != std::string::npos) {
      const std::uint64_t n = std::stoull(line.substr(space + 1));
      EXPECT_GE(n, previous) << line;
      previous = n;
      ++bucket_lines;
    } else if (line.find("spread_latency_count") != std::string::npos) {
      total = std::stoull(line.substr(space + 1));
    }
  }
  EXPECT_GT(bucket_lines, 10u);  // the spread really hit many buckets
  EXPECT_EQ(total, 1000u);
  EXPECT_EQ(inf_count, total);
  EXPECT_LE(previous, inf_count);
}

TEST_F(ObsTest, PrometheusBucketEdgesMatchSnapshotEdges) {
  // The le edges the scrape publishes are the same dyadic edges
  // quantile() interpolates against — one source of truth.
  Histogram h;
  h.record(7.3);
  MetricsSnapshot registry_snap;
  registry_snap.histograms.push_back({"edge.check", h.snapshot()});
  const Histogram::Snapshot& snap = registry_snap.histograms.front().data;
  std::size_t bucket = 0;
  for (std::size_t i = 0; i < Histogram::kBuckets; ++i) {
    if (snap.buckets[i] != 0) bucket = i;
  }
  const double edge = Histogram::Snapshot::bucket_upper_edge(bucket);
  EXPECT_GE(edge, 7.3);
  EXPECT_LE(Histogram::Snapshot::bucket_upper_edge(bucket - 1), 7.3);
  char expected[64];
  std::snprintf(expected, sizeof expected, "%.17g", edge);
  const std::string text = render_prometheus(registry_snap);
  EXPECT_NE(text.find("upsim_edge_check_bucket{le=\"" +
                      std::string(expected) + "\"} 1"),
            std::string::npos)
      << text;
}

}  // namespace
}  // namespace upsim::obs
