// bgpsim::obs — registry, histograms, scoped timers, trace sink, run reports.
#include "obs/obs.hpp"

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "obs/json.hpp"

namespace bgpsim::obs {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

TEST(Counter, AddsAndResets) {
  Counter counter;
  EXPECT_EQ(counter.value(), 0u);
  counter.add();
  counter.add(41);
  EXPECT_EQ(counter.value(), 42u);
  counter.reset();
  EXPECT_EQ(counter.value(), 0u);
}

TEST(Gauge, KeepsLastValue) {
  Gauge gauge;
  gauge.set(3.5);
  gauge.set(-1.25);
  EXPECT_DOUBLE_EQ(gauge.value(), -1.25);
}

TEST(HistogramSpecTest, LinearBuckets) {
  const auto spec = HistogramSpec::linear(0, 8, 4);
  ASSERT_EQ(spec.bounds.size(), 4u);
  EXPECT_DOUBLE_EQ(spec.bounds[0], 2.0);
  EXPECT_DOUBLE_EQ(spec.bounds[3], 8.0);
}

TEST(HistogramSpecTest, ExponentialBuckets) {
  const auto spec = HistogramSpec::exponential(1.0, 2.0, 5);
  ASSERT_EQ(spec.bounds.size(), 5u);
  EXPECT_DOUBLE_EQ(spec.bounds.front(), 1.0);
  EXPECT_DOUBLE_EQ(spec.bounds.back(), 16.0);
}

TEST(HistogramMetricTest, ObserveTracksMoments) {
  HistogramMetric hist(HistogramSpec::linear(0, 10, 10));
  hist.observe(1);
  hist.observe(4);
  hist.observe(7);
  EXPECT_EQ(hist.count(), 3u);
  EXPECT_DOUBLE_EQ(hist.sum(), 12.0);
  EXPECT_DOUBLE_EQ(hist.min(), 1.0);
  EXPECT_DOUBLE_EQ(hist.max(), 7.0);
  EXPECT_DOUBLE_EQ(hist.mean(), 4.0);
}

TEST(HistogramMetricTest, BucketsAndOverflow) {
  HistogramMetric hist(HistogramSpec::linear(0, 4, 4));  // bounds 1,2,3,4
  hist.observe(0.5);   // bucket 0: [_, 1)
  hist.observe(2.5);   // bucket 2: [2, 3)
  hist.observe(99.0);  // overflow
  EXPECT_EQ(hist.bucket_count(0), 1u);
  EXPECT_EQ(hist.bucket_count(2), 1u);
  EXPECT_EQ(hist.bucket_count(4), 1u);  // overflow slot is bounds.size()
}

TEST(HistogramMetricTest, CountBetweenUnitBuckets) {
  // Unit-width buckets over [0, 64): exact for integer samples.
  HistogramMetric hist(HistogramSpec::linear(0, 64, 64));
  for (const double g : {5, 6, 7, 7, 9, 10, 11, 3}) hist.observe(g);
  EXPECT_EQ(hist.count_between(5, 11), 6u);  // 5 <= g <= 10
  EXPECT_EQ(hist.count_between(0, 64), 8u);
  EXPECT_EQ(hist.count_between(12, 64), 0u);
}

TEST(HistogramMetricTest, ResetClears) {
  HistogramMetric hist(HistogramSpec::linear(0, 4, 4));
  hist.observe(1);
  hist.reset();
  EXPECT_EQ(hist.count(), 0u);
  EXPECT_DOUBLE_EQ(hist.sum(), 0.0);
  EXPECT_EQ(hist.bucket_count(1), 0u);
}

TEST(RegistryTest, HandlesAreStableAndNamed) {
  Registry& reg = registry();
  reg.reset();
  Counter& a = reg.counter("test.registry.counter");
  Counter& b = reg.counter("test.registry.counter");
  EXPECT_EQ(&a, &b);
  a.add(7);
  const auto snapshot = reg.snapshot();
  ASSERT_TRUE(snapshot.counters.contains("test.registry.counter"));
  EXPECT_EQ(snapshot.counters.at("test.registry.counter"), 7u);
}

TEST(RegistryTest, HistogramSpecFixedByFirstCall) {
  Registry& reg = registry();
  HistogramMetric& h1 =
      reg.histogram("test.registry.hist", HistogramSpec::linear(0, 4, 4));
  HistogramMetric& h2 =
      reg.histogram("test.registry.hist", HistogramSpec::linear(0, 100, 2));
  EXPECT_EQ(&h1, &h2);
  EXPECT_EQ(h1.bounds().size(), 4u);
  EXPECT_EQ(reg.find_histogram("test.registry.hist"), &h1);
  EXPECT_EQ(reg.find_histogram("test.registry.never"), nullptr);
}

TEST(RegistryTest, ResetZeroesButKeepsNames) {
  Registry& reg = registry();
  Counter& counter = reg.counter("test.registry.reset");
  counter.add(5);
  reg.reset();
  EXPECT_EQ(counter.value(), 0u);
  EXPECT_TRUE(reg.snapshot().counters.contains("test.registry.reset"));
}

TEST(JsonTest, EscapesControlAndQuotes) {
  EXPECT_EQ(json_escape("a\"b\\c\n"), "a\\\"b\\\\c\\n");
}

TEST(JsonTest, WriterEmitsValidStructure) {
  JsonWriter w;
  w.begin_object();
  w.field("name", "x");
  w.field("n", std::uint64_t{3});
  w.key("list");
  w.begin_array();
  w.value(1.5);
  w.value(false);
  w.end_array();
  w.end_object();
  EXPECT_EQ(w.str(), R"({"name":"x","n":3,"list":[1.5,false]})");
}

TEST(SnapshotTest, ToJsonCarriesAllSections) {
  Registry& reg = registry();
  reg.reset();
  reg.counter("test.json.counter").add(2);
  reg.gauge("test.json.gauge").set(0.5);
  reg.histogram("test.json.hist", HistogramSpec::linear(0, 2, 2)).observe(1);
  const std::string json = reg.to_json();
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"test.json.counter\":2"), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"test.json.hist\""), std::string::npos);
}

TEST(TimedScopeTest, ObservesElapsedSeconds) {
  HistogramMetric hist(latency_spec());
  {
    TimedScope scope("test.timed", hist);
  }
  EXPECT_EQ(hist.count(), 1u);
  EXPECT_GE(hist.max(), 0.0);
}

TEST(StopWatchTest, ElapsedIsMonotonic) {
  StopWatch watch;
  const double first = watch.elapsed_seconds();
  const double second = watch.elapsed_seconds();
  EXPECT_GE(first, 0.0);
  EXPECT_GE(second, first);
  watch.restart();
  EXPECT_GE(watch.elapsed_seconds(), 0.0);
}

TEST(TraceSinkTest, WritesChromeTraceJson) {
  const std::string path = testing::TempDir() + "/bgpsim_obs_trace.json";
  TraceSink& sink = TraceSink::instance();
  sink.set_output(path);
  ASSERT_TRUE(trace_enabled());
  {
    TraceSpan span("test.span");
    span.arg("k", 3.0);
  }
  sink.counter("test.counter", 42.0);
  sink.flush();
  sink.set_output("");  // disable for any tests that follow in-process

  const std::string text = slurp(path);
  EXPECT_NE(text.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(text.find("\"test.span\""), std::string::npos);
  EXPECT_NE(text.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(text.find("\"ph\":\"C\""), std::string::npos);
}

TEST(TraceSinkTest, KeepsTheFirstMaxEventsAndCountsTheRest) {
  const std::string path = testing::TempDir() + "/bgpsim_obs_trace_cap.json";
  const auto dropped = [] {
    const RegistrySnapshot snap = registry().snapshot();
    const auto it = snap.counters.find("trace.events_dropped");
    return it == snap.counters.end() ? std::uint64_t{0} : it->second;
  };
  const std::uint64_t before = dropped();
  TraceSink& sink = TraceSink::instance();
  sink.set_output(path);
  TraceSink::Event event;
  event.name = "cap.span";
  for (std::size_t i = 0; i < TraceSink::kMaxEvents; ++i) sink.record(event);
  // Nothing dropped yet: the counter is not even registered.
  EXPECT_EQ(registry().snapshot().counters.count("trace.events_dropped"), 0u);
  constexpr std::uint64_t kExtra = 5;
  for (std::uint64_t i = 0; i < kExtra; ++i) sink.record(event);
  sink.counter("cap.counter", 1.0);  // counter points share the cap
  sink.flush();
  sink.set_output("");

  EXPECT_EQ(dropped() - before, kExtra + 1);
  const std::string text = slurp(path);
  std::size_t kept = 0;
  for (std::size_t pos = text.find("\"cap.span\""); pos != std::string::npos;
       pos = text.find("\"cap.span\"", pos + 1)) {
    ++kept;
  }
  EXPECT_EQ(kept, TraceSink::kMaxEvents);
  EXPECT_EQ(text.find("\"cap.counter\""), std::string::npos);
  std::remove(path.c_str());
}

TEST(RunReportTest, WritesReportWithMetricsSnapshot) {
  registry().reset();
  registry().counter("test.report.counter").add(9);

  RunReport report("unit_test");
  report.set_seed(2014);
  report.set_scale(500);
  report.set_total_wall_seconds(1.5);
  report.add_phase("sweep", 0.75);
  report.add_row(PaperRow{"polluted ASes", "95.9%", "84.8%"});
  report.add_extra("attacks", 100);

  const std::string path =
      testing::TempDir() + "/bgpsim_obs_report/nested/BENCH_unit_test.json";
  ASSERT_TRUE(report.write(path));  // creates parent directories

  const std::string text = slurp(path);
  EXPECT_NE(text.find("\"name\":\"unit_test\""), std::string::npos);
  EXPECT_NE(text.find("\"seed\":2014"), std::string::npos);
  EXPECT_NE(text.find("\"scale\":500"), std::string::npos);
  EXPECT_NE(text.find("\"git_rev\""), std::string::npos);
  EXPECT_NE(text.find("\"polluted ASes\""), std::string::npos);
  EXPECT_NE(text.find("\"test.report.counter\":9"), std::string::npos);
  // The metrics block is the registry's own encoding, spliced verbatim.
  EXPECT_NE(text.find("\"metrics\":" + registry().to_json() + "}\n"),
            std::string::npos);
}

#ifndef BGPSIM_OBS_DISABLED

TEST(ObsMacros, CounterGaugeHistogramFeedRegistry) {
  registry().reset();
  BGPSIM_COUNTER_ADD("test.macro.counter", 3);
  BGPSIM_COUNTER_ADD("test.macro.counter", 4);
  BGPSIM_GAUGE_SET("test.macro.gauge", 12);
  BGPSIM_HISTOGRAM_OBSERVE("test.macro.hist", HistogramSpec::linear(0, 8, 8), 5);
  const auto snapshot = registry().snapshot();
  EXPECT_EQ(snapshot.counters.at("test.macro.counter"), 7u);
  EXPECT_DOUBLE_EQ(snapshot.gauges.at("test.macro.gauge"), 12.0);
  EXPECT_EQ(snapshot.histograms.at("test.macro.hist").count, 1u);
}

TEST(ObsMacros, TimedScopeRegistersTimeHistogram) {
  registry().reset();
  {
    BGPSIM_TIMED_SCOPE("macro.scope");
  }
  const HistogramMetric* hist = registry().find_histogram("time.macro.scope");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->count(), 1u);
}

#endif  // BGPSIM_OBS_DISABLED

}  // namespace
}  // namespace bgpsim::obs
