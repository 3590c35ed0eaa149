#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/build_info.hpp"
#include "obs/histogram.hpp"
#include "obs/json.hpp"
#include "obs/metrics_registry.hpp"
#include "obs/trace.hpp"

namespace tpa::obs {
namespace {

// ---- Histogram ------------------------------------------------------------

TEST(Histogram, EmptyReportsZero) {
  const Histogram h;
  EXPECT_EQ(h.total_count(), 0u);
  EXPECT_EQ(h.quantile(0.0), 0.0);
  EXPECT_EQ(h.quantile(0.5), 0.0);
  EXPECT_EQ(h.quantile(1.0), 0.0);
}

TEST(Histogram, SingleSampleIsEveryQuantile) {
  Histogram h;
  h.record(100.0);  // bucket 6 = [64, 128), upper edge 128
  EXPECT_EQ(h.total_count(), 1u);
  EXPECT_EQ(h.quantile(0.0), 128.0);
  EXPECT_EQ(h.quantile(0.5), 128.0);
  EXPECT_EQ(h.quantile(1.0), 128.0);
}

TEST(Histogram, QuantileIsBucketUpperEdge) {
  Histogram h;
  for (int i = 0; i < 99; ++i) h.record(3.0);  // bucket 1 = [2, 4)
  h.record(1000.0);                            // bucket 9 = [512, 1024)
  EXPECT_EQ(h.total_count(), 100u);
  EXPECT_EQ(h.quantile(0.50), 4.0);
  EXPECT_EQ(h.quantile(0.99), 4.0);
  EXPECT_EQ(h.quantile(1.0), 1024.0);
}

TEST(Histogram, TinyAndNegativeSamplesLandInBucketZero) {
  Histogram h;
  h.record(0.5);
  h.record(-17.0);
  EXPECT_EQ(h.total_count(), 2u);
  EXPECT_EQ(h.quantile(1.0), 2.0);  // bucket 0 upper edge
}

TEST(Histogram, OverflowLandsInTopBucket) {
  Histogram h;
  h.record(1e18);  // far beyond 2^31
  EXPECT_EQ(h.total_count(), 1u);
  // Top bucket b=31 has upper edge 2^32.
  EXPECT_EQ(h.quantile(1.0), 4294967296.0);
}

TEST(Histogram, ResetZeroesEverything) {
  Histogram h;
  h.record(10.0);
  h.record(1e18);
  h.reset();
  EXPECT_EQ(h.total_count(), 0u);
  EXPECT_EQ(h.quantile(0.5), 0.0);
}

TEST(Histogram, QuantileIsMonotoneInQ) {
  Histogram h;
  for (int i = 1; i <= 1000; ++i) h.record(static_cast<double>(i));
  double prev = 0.0;
  for (double q = 0.0; q <= 1.0; q += 0.05) {
    const double v = h.quantile(q);
    EXPECT_GE(v, prev) << "q=" << q;
    prev = v;
  }
}

// ---- JSON helpers ---------------------------------------------------------

TEST(Json, QuoteEscapes) {
  EXPECT_EQ(json_quote("plain"), "\"plain\"");
  EXPECT_EQ(json_quote("a\"b"), "\"a\\\"b\"");
  EXPECT_EQ(json_quote("a\\b"), "\"a\\\\b\"");
  EXPECT_EQ(json_quote("a\nb\tc"), "\"a\\nb\\tc\"");
  EXPECT_EQ(json_quote("a\rb"), "\"a\\rb\"");
  EXPECT_EQ(json_quote(std::string("a\x01") + "b"), "\"a\\u0001b\"");
  EXPECT_EQ(json_quote(std::string(1, '\x1f')), "\"\\u001f\"");
  EXPECT_EQ(json_quote(std::string(1, '\0')), "\"\\u0000\"");
  // 0x20 is the first character that passes through unescaped.
  EXPECT_EQ(json_quote(" "), "\" \"");
}

TEST(Json, NumberRoundTripsAndMapsNonFiniteToNull) {
  EXPECT_EQ(json_number(0.5), "0.5");
  EXPECT_EQ(json_number(3.0), "3");
  // NaN/inf have no JSON encoding; null reads as a gap, never a forged zero.
  EXPECT_EQ(json_number(std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(json_number(-std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(json_number(std::nan("")), "null");
}

TEST(Json, ObjectBuilder) {
  const auto s = JsonObject()
                     .field_str("a", "x")
                     .field_num("b", 1.5)
                     .field_int("c", -2)
                     .field_uint("d", 3)
                     .field_bool("e", true)
                     .field_raw("f", "[1, 2]")
                     .str();
  EXPECT_EQ(s,
            "{\"a\": \"x\", \"b\": 1.5, \"c\": -2, \"d\": 3, "
            "\"e\": true, \"f\": [1, 2]}");
  EXPECT_EQ(JsonObject().str(), "{}");
}

// ---- MetricsRegistry ------------------------------------------------------

TEST(MetricsRegistry, CountersGaugesHistograms) {
  MetricsRegistry registry;
  registry.counter("t.count").add(3);
  registry.counter("t.count").add();
  registry.gauge("t.gamma").set(0.25);
  registry.histogram("t.lat").record(100.0);

  const auto snap = registry.snapshot();
  ASSERT_EQ(snap.counters.size(), 1u);
  EXPECT_EQ(snap.counters[0].first, "t.count");
  EXPECT_EQ(snap.counters[0].second, 4u);
  ASSERT_EQ(snap.gauges.size(), 1u);
  EXPECT_EQ(snap.gauges[0].second, 0.25);
  ASSERT_EQ(snap.histograms.size(), 1u);
  EXPECT_EQ(snap.histograms[0].count, 1u);
  EXPECT_EQ(snap.histograms[0].p50, 128.0);
}

TEST(MetricsRegistry, ReferencesAreStableAcrossRegistrations) {
  MetricsRegistry registry;
  Counter& first = registry.counter("stable.a");
  // Force more registrations; node-based storage must not move `first`.
  for (int i = 0; i < 100; ++i) {
    registry.counter("stable.fill." + std::to_string(i));
  }
  EXPECT_EQ(&first, &registry.counter("stable.a"));
  first.add(7);
  EXPECT_EQ(registry.counter("stable.a").value(), 7u);
}

TEST(MetricsRegistry, SnapshotIsSortedByName) {
  MetricsRegistry registry;
  registry.counter("z.last").add();
  registry.counter("a.first").add();
  registry.counter("m.middle").add();
  const auto snap = registry.snapshot();
  ASSERT_EQ(snap.counters.size(), 3u);
  EXPECT_EQ(snap.counters[0].first, "a.first");
  EXPECT_EQ(snap.counters[1].first, "m.middle");
  EXPECT_EQ(snap.counters[2].first, "z.last");
}

TEST(MetricsRegistry, ConcurrentCountingLosesNothing) {
  MetricsRegistry registry;
  Counter& counter = registry.counter("race");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (int i = 0; i < kPerThread; ++i) counter.add();
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(counter.value(),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST(MetricsRegistry, TextAndJsonlExporters) {
  MetricsRegistry registry;
  registry.counter("c").add(2);
  registry.gauge("g").set(1.5);
  registry.histogram("h").record(3.0);

  const auto text = registry.to_text();
  EXPECT_NE(text.find("counter c 2"), std::string::npos);
  EXPECT_NE(text.find("gauge g 1.5"), std::string::npos);
  EXPECT_NE(text.find("histogram h count=1"), std::string::npos);

  std::ostringstream out;
  registry.write_jsonl(out);
  const auto jsonl = out.str();
  EXPECT_NE(
      jsonl.find(
          "{\"type\": \"counter\", \"name\": \"c\", \"value\": 2}"),
      std::string::npos);
  EXPECT_NE(jsonl.find("\"type\": \"gauge\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"type\": \"histogram\""), std::string::npos);
}

TEST(MetricsRegistry, JsonlExportIsSortedByNameRegardlessOfRegistration) {
  MetricsRegistry registry;
  registry.gauge("z.gauge").set(1.0);
  registry.gauge("a.gauge").set(2.0);
  registry.counter("z.count").add();
  registry.counter("a.count").add();
  std::ostringstream out;
  registry.write_jsonl(out);
  const auto jsonl = out.str();
  // Counters then gauges, each block sorted by name — byte-identical output
  // for identical runs, so run reports diff cleanly.
  EXPECT_LT(jsonl.find("\"a.count\""), jsonl.find("\"z.count\""));
  EXPECT_LT(jsonl.find("\"z.count\""), jsonl.find("\"a.gauge\""));
  EXPECT_LT(jsonl.find("\"a.gauge\""), jsonl.find("\"z.gauge\""));
}

TEST(MetricsRegistry, ResetZeroesButKeepsNames) {
  MetricsRegistry registry;
  registry.counter("c").add(5);
  registry.gauge("g").set(2.0);
  registry.histogram("h").record(10.0);
  registry.reset();
  const auto snap = registry.snapshot();
  ASSERT_EQ(snap.counters.size(), 1u);
  EXPECT_EQ(snap.counters[0].second, 0u);
  EXPECT_EQ(snap.gauges[0].second, 0.0);
  EXPECT_EQ(snap.histograms[0].count, 0u);
}

// ---- Tracer ---------------------------------------------------------------

// The tracer is process-global; every test starts from a clean, disabled
// state and leaves it that way.
class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    set_trace_enabled(false);
    reset_trace();
  }
  void TearDown() override {
    set_trace_enabled(false);
    reset_trace();
  }
};

TEST_F(TraceTest, DisabledRecordsNothing) {
  const auto before = trace_events_recorded();
  {
    TraceSpan span("noop/span");
    trace_instant("noop/instant");
    trace_complete("noop/complete", 0.0, 1.0);
  }
  EXPECT_EQ(trace_events_recorded(), before);
}

TEST_F(TraceTest, SpanDisarmedAtConstructionStaysDisarmed) {
  const auto before = trace_events_recorded();
  {
    TraceSpan span("late/enable");
    set_trace_enabled(true);  // too late for this span
  }
  EXPECT_EQ(trace_events_recorded(), before);
}

TEST_F(TraceTest, SpansAndInstantsExportAsChromeTrace) {
  set_trace_enabled(true);
  { TraceSpan span("unit/span", kCurrentThread, 42); }
  trace_instant("unit/instant", 7, 3);
  set_trace_enabled(false);

  EXPECT_EQ(trace_events_recorded(), 2u);
  EXPECT_EQ(trace_events_dropped(), 0u);
  const auto json = chrome_trace_json();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"unit/span\", \"ph\": \"X\""),
            std::string::npos);
  EXPECT_NE(json.find("\"args\": {\"v\": 42}"), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"unit/instant\", \"ph\": \"i\""),
            std::string::npos);
  EXPECT_NE(json.find("\"tid\": 7"), std::string::npos);
}

TEST_F(TraceTest, TrackNamesAndMetadataExport) {
  set_track_name(55, "unit/track");
  set_trace_metadata("unit_key", "unit_value");
  EXPECT_EQ(trace_metadata("unit_key"), "unit_value");
  EXPECT_EQ(trace_metadata("missing_key"), "");
  const auto json = chrome_trace_json();
  EXPECT_NE(json.find("\"ph\": \"M\""), std::string::npos);
  EXPECT_NE(json.find("\"args\": {\"name\": \"unit/track\"}"),
            std::string::npos);
  EXPECT_NE(json.find("\"unit_key\": \"unit_value\""), std::string::npos);
  EXPECT_NE(json.find("\"dropped_events\": 0"), std::string::npos);
}

TEST_F(TraceTest, RingWrapCountsDropped) {
  set_trace_enabled(true);
  constexpr std::uint64_t kOver = 100;
  const std::uint64_t total = (std::uint64_t{1} << 15) + kOver;
  for (std::uint64_t i = 0; i < total; ++i) trace_instant("wrap/event");
  set_trace_enabled(false);
  EXPECT_EQ(trace_events_recorded(), total);
  EXPECT_EQ(trace_events_dropped(), kOver);
  // The export still succeeds and reports the drop count.
  const auto json = chrome_trace_json();
  EXPECT_NE(json.find("\"dropped_events\": 100"), std::string::npos);
}

TEST_F(TraceTest, FlowEventsExportAsChromeFlowPairs) {
  set_trace_enabled(true);
  trace_complete("flow/producer", 0.0, 10.0, 3);
  trace_flow_begin("flow/test", 77, 3);
  trace_complete("flow/consumer", 20.0, 10.0, 4);
  trace_flow_end("flow/test", 77, 4);
  set_trace_enabled(false);

  EXPECT_EQ(trace_events_recorded(), 4u);
  const auto json = chrome_trace_json();
  // Begin half: ph "s", flow category, the shared id, no "bp".
  EXPECT_NE(json.find("\"name\": \"flow/test\", \"cat\": \"flow\", "
                      "\"ph\": \"s\""),
            std::string::npos);
  // End half binds to the enclosing slice ("bp": "e") with the same id.
  EXPECT_NE(json.find("\"ph\": \"f\", \"bp\": \"e\""), std::string::npos);
  EXPECT_NE(json.find("\"id\": 77"), std::string::npos);
}

TEST_F(TraceTest, FlowEventsRespectEnablement) {
  const auto before = trace_events_recorded();
  trace_flow_begin("flow/off", 1);
  trace_flow_end("flow/off", 1);
  EXPECT_EQ(trace_events_recorded(), before);
}

TEST_F(TraceTest, TraceRecordsMirrorsTheExport) {
  set_trace_enabled(true);
  set_track_name(9, "unit/worker 0");
  trace_complete("rec/span", 5.0, 2.5, 9, 4);
  trace_instant("rec/instant", 9);
  trace_flow_begin("rec/flow", 123, 9);
  set_trace_enabled(false);

  const auto records = trace_records();
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0].name, "rec/span");
  EXPECT_EQ(records[0].phase, 'X');
  EXPECT_EQ(records[0].ts_us, 5.0);
  EXPECT_EQ(records[0].dur_us, 2.5);
  EXPECT_EQ(records[0].track, 9);
  EXPECT_EQ(records[0].arg, 4);
  EXPECT_EQ(records[1].phase, 'i');
  EXPECT_EQ(records[2].phase, 's');
  EXPECT_EQ(records[2].flow_id, 123u);
  const auto names = trace_track_names();
  ASSERT_EQ(names.count(9), 1u);
  EXPECT_EQ(names.at(9), "unit/worker 0");
}

TEST_F(TraceTest, SpanDurationIsNonNegativeAndOrdered) {
  set_trace_enabled(true);
  const double before = trace_now_us();
  { TraceSpan span("order/span"); }
  const double after = trace_now_us();
  set_trace_enabled(false);
  EXPECT_LE(before, after);
  EXPECT_EQ(trace_events_recorded(), 1u);
}

// A thread's ring outlives the thread: its events still export, and the
// next new tracing thread takes the ring over instead of allocating another
// 1.3 MB one, so threads started one after another share one ring.
TEST_F(TraceTest, ExitedThreadsHandTheirRingOn) {
  set_trace_enabled(true);
  constexpr int kThreads = 64;
  for (int i = 0; i < kThreads; ++i) {
    std::thread([i] {
      TraceSpan span("recycle/span", kCurrentThread, i);
    }).join();
  }
  set_trace_enabled(false);

  std::vector<std::int64_t> args;
  std::set<std::int32_t> tracks;
  for (const auto& record : trace_records()) {
    if (record.name != "recycle/span") continue;
    args.push_back(record.arg);
    tracks.insert(record.track);
  }
  ASSERT_EQ(args.size(), static_cast<std::size_t>(kThreads));
  for (int i = 0; i < kThreads; ++i) EXPECT_EQ(args[i], i);  // oldest first
  EXPECT_EQ(tracks.size(), 1u);
  EXPECT_EQ(trace_events_dropped(), 0u);
}

// ---- Build info -----------------------------------------------------------

TEST(BuildInfo, FieldsAreNonEmpty) {
  const auto info = build_info();
  EXPECT_NE(info.git_sha, nullptr);
  EXPECT_NE(info.compiler, nullptr);
  EXPECT_NE(info.build_type, nullptr);
  EXPECT_GT(std::string(info.git_sha).size(), 0u);
  EXPECT_GT(std::string(info.compiler).size(), 0u);
}

}  // namespace
}  // namespace tpa::obs
