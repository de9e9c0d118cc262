// bgpsim-perfdiff machinery: JSON parsing, report flattening, pairing,
// regression/fidelity verdicts, topology-checksum guard, baseline store.
#include "obs/perfdiff.hpp"

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/json_parse.hpp"
#include "support/error.hpp"

namespace bgpsim::obs {
namespace {

std::string write_temp(const std::string& name, const std::string& content) {
  const std::string path = ::testing::TempDir() + name;
  std::ofstream out(path, std::ios::trunc);
  out << content;
  return path;
}

const char* kReport = R"({
  "name": "fixture", "seed": 7, "scale": 500,
  "topology_checksum": 42, "repeat": 2, "git_rev": "abc",
  "wall_time_seconds": {"total": 2.5, "phases": {"sweep": 2.0}},
  "extras": {"attacks": 10},
  "metrics": {
    "counters": {"engine.announce_runs": 20},
    "gauges": {"defense.deployed_ases": 5},
    "histograms": {
      "time.generation.announce": {"count": 20, "sum": 2.0,
        "min": 0.05, "max": 0.2, "p50": 0.09, "p90": 0.15, "p99": 0.19,
        "bounds": [0.1], "counts": [12, 8]},
      "hijack.polluted_ases": {"count": 10, "sum": 300,
        "min": 0, "max": 90, "bounds": [50], "counts": [7, 3]}
    }
  }
})";

TEST(JsonParse, RoundTripsValues) {
  const JsonValue doc = JsonValue::parse(
      R"({"a": 1.5, "b": [true, null, "x\nA"], "c": {"d": -2e3}})");
  ASSERT_TRUE(doc.is_object());
  EXPECT_DOUBLE_EQ(doc.number_at("a"), 1.5);
  const JsonValue* b = doc.find("b");
  ASSERT_TRUE(b != nullptr && b->is_array());
  ASSERT_EQ(b->items().size(), 3u);
  EXPECT_TRUE(b->items()[0].as_bool());
  EXPECT_TRUE(b->items()[1].is_null());
  EXPECT_EQ(b->items()[2].as_string(), "x\nA");
  const JsonValue* d = doc.find_path({"c", "d"});
  ASSERT_NE(d, nullptr);
  EXPECT_DOUBLE_EQ(d->as_number(), -2000.0);
}

TEST(JsonParse, AsU64FallsBackOutsideItsRange) {
  const JsonValue doc = JsonValue::parse(
      R"([0, 7.9, 18446744073709549568, 18446744073709551616, 1e300, -1, "7"])");
  const std::vector<JsonValue>& items = doc.items();
  EXPECT_EQ(items[0].as_u64(9), 0u);
  EXPECT_EQ(items[1].as_u64(9), 7u);
  EXPECT_EQ(items[2].as_u64(9), 18446744073709549568u);  // largest below 2^64
  EXPECT_EQ(items[3].as_u64(9), 9u);                     // 2^64
  EXPECT_EQ(items[4].as_u64(9), 9u);
  EXPECT_EQ(items[5].as_u64(9), 9u);
  EXPECT_EQ(items[6].as_u64(9), 9u);
}

TEST(JsonParse, RejectsMalformedDocuments) {
  EXPECT_THROW(JsonValue::parse("{\"a\": }"), ParseError);
  EXPECT_THROW(JsonValue::parse("[1, 2"), ParseError);
  EXPECT_THROW(JsonValue::parse("{} trailing"), ParseError);
  EXPECT_THROW(JsonValue::parse("\"unterminated"), ParseError);
  EXPECT_THROW(JsonValue::parse("01x"), ParseError);
}

TEST(ParseBenchReport, FlattensEveryMetricFamily) {
  const std::string path = write_temp("BENCH_fixture.json", kReport);
  const BenchSample sample = parse_bench_report(path);
  EXPECT_EQ(sample.name, "fixture");
  EXPECT_EQ(sample.seed, 7u);
  EXPECT_EQ(sample.scale, 500u);
  EXPECT_EQ(sample.topology_checksum, 42u);
  EXPECT_EQ(sample.repeat, 2u);
  EXPECT_DOUBLE_EQ(sample.metrics.at("wall.total"), 2.5);
  EXPECT_DOUBLE_EQ(sample.metrics.at("wall.phase.sweep"), 2.0);
  EXPECT_DOUBLE_EQ(sample.metrics.at("extra.attacks"), 10.0);
  EXPECT_DOUBLE_EQ(sample.metrics.at("counter.engine.announce_runs"), 20.0);
  EXPECT_DOUBLE_EQ(sample.metrics.at("gauge.defense.deployed_ases"), 5.0);
  // time.* histograms become perf metrics (mean + quantiles) plus a
  // fidelity observation count; domain histograms stay fidelity-only.
  EXPECT_DOUBLE_EQ(sample.metrics.at("time.generation.announce.mean"), 0.1);
  EXPECT_DOUBLE_EQ(sample.metrics.at("time.generation.announce.p90"), 0.15);
  EXPECT_DOUBLE_EQ(sample.metrics.at("hist.time.generation.announce.count"), 20.0);
  EXPECT_DOUBLE_EQ(sample.metrics.at("hist.hijack.polluted_ases.count"), 10.0);
  EXPECT_DOUBLE_EQ(sample.metrics.at("hist.hijack.polluted_ases.sum"), 300.0);
  EXPECT_EQ(sample.metrics.count("hist.hijack.polluted_ases.mean"), 0u);
}

TEST(ParseBenchReport, MissingRequiredKeysThrow) {
  const std::string path =
      write_temp("BENCH_bad.json", R"({"seed": 1, "scale": 2})");
  EXPECT_THROW(parse_bench_report(path), ConfigError);
  EXPECT_THROW(parse_bench_report("/nonexistent/BENCH_x.json"), ConfigError);
}

BenchSample make_sample(double wall_total, double announce_mean = 0.1,
                        double counter = 100.0, std::uint64_t checksum = 42) {
  BenchSample s;
  s.path = "synthetic";
  s.name = "bench";
  s.seed = 1;
  s.scale = 1000;
  s.topology_checksum = checksum;
  s.metrics["wall.total"] = wall_total;
  s.metrics["time.generation.announce.mean"] = announce_mean;
  s.metrics["counter.engine.msgs_propagated"] = counter;
  return s;
}

TEST(DiffReports, IdenticalRunsPass) {
  const std::vector<BenchSample> runs{make_sample(10.0), make_sample(10.0)};
  const PerfDiffResult result = diff_reports(runs, runs, DiffOptions{});
  ASSERT_EQ(result.benches.size(), 1u);
  EXPECT_FALSE(result.regression);
  for (const MetricDiff& m : result.benches[0].metrics) {
    EXPECT_FALSE(m.regression) << m.metric;
  }
}

TEST(DiffReports, TwentyPercentWallRegressionIsFlagged) {
  const std::vector<BenchSample> baseline{make_sample(10.0)};
  const std::vector<BenchSample> candidate{make_sample(12.0)};
  const PerfDiffResult result = diff_reports(baseline, candidate, DiffOptions{});
  ASSERT_EQ(result.benches.size(), 1u);
  EXPECT_TRUE(result.regression);
  bool named = false;
  for (const MetricDiff& m : result.benches[0].metrics) {
    if (m.metric == "wall.total") {
      named = true;
      EXPECT_TRUE(m.regression);
      EXPECT_NEAR(m.delta, 0.2, 1e-12);
      EXPECT_FALSE(m.fidelity);
    }
  }
  EXPECT_TRUE(named);
  EXPECT_NE(result.render(DiffOptions{}).find("REGRESSION wall.total"),
            std::string::npos);
}

TEST(DiffReports, ImprovementIsNotARegression) {
  const PerfDiffResult result = diff_reports({make_sample(10.0)},
                                             {make_sample(7.0)}, DiffOptions{});
  EXPECT_FALSE(result.regression);
}

TEST(DiffReports, CounterDriftIsAFidelityRegression) {
  const PerfDiffResult result =
      diff_reports({make_sample(10.0, 0.1, 100.0)},
                   {make_sample(10.0, 0.1, 101.0)}, DiffOptions{});
  ASSERT_EQ(result.benches.size(), 1u);
  EXPECT_TRUE(result.regression);
  for (const MetricDiff& m : result.benches[0].metrics) {
    if (m.metric == "counter.engine.msgs_propagated") {
      EXPECT_TRUE(m.fidelity);
      EXPECT_TRUE(m.regression);
    }
  }
}

BenchSample make_mem_sample(double rss_peak, double rate = 100.0) {
  BenchSample s = make_sample(10.0);
  s.metrics["gauge.mem.rss_peak_bytes"] = rss_peak;
  s.metrics["gauge.mem.rib_bytes_est"] = 1 << 20;
  s.metrics["gauge.mem.rib_routes"] = 5000.0;  // a count: stays fidelity
  s.metrics["gauge.progress.rate_per_second"] = rate;  // wall-clock artifact
  return s;
}

TEST(DiffReports, MemoryGaugesUseTheirOwnThreshold) {
  // +10% RSS: under the default 15% memory threshold, and NOT a fidelity
  // violation even though RSS never reproduces exactly across runs.
  const PerfDiffResult ok = diff_reports({make_mem_sample(100e6)},
                                         {make_mem_sample(110e6)}, DiffOptions{});
  EXPECT_FALSE(ok.regression);

  // +30% RSS regresses; the metric is reported as perf, not fidelity.
  const PerfDiffResult bad = diff_reports(
      {make_mem_sample(100e6)}, {make_mem_sample(130e6)}, DiffOptions{});
  EXPECT_TRUE(bad.regression);
  bool named = false;
  for (const MetricDiff& m : bad.benches[0].metrics) {
    if (m.metric == "gauge.mem.rss_peak_bytes") {
      named = true;
      EXPECT_TRUE(m.regression);
      EXPECT_FALSE(m.fidelity);
    }
  }
  EXPECT_TRUE(named);

  // A stricter --mem-threshold catches the +10% case too.
  DiffOptions strict;
  strict.mem_threshold = 0.05;
  EXPECT_TRUE(
      diff_reports({make_mem_sample(100e6)}, {make_mem_sample(110e6)}, strict)
          .regression);

  // Shrinking memory is an improvement, never a regression.
  EXPECT_FALSE(diff_reports({make_mem_sample(130e6)}, {make_mem_sample(100e6)},
                            DiffOptions{})
                   .regression);
}

TEST(DiffReports, MemoryCountsStayFidelityAndVolatilesAreSkipped) {
  // mem.rib_routes drifting is a determinism bug (same seed, same routes)...
  std::vector<BenchSample> baseline{make_mem_sample(100e6)};
  std::vector<BenchSample> candidate{make_mem_sample(100e6)};
  candidate[0].metrics["gauge.mem.rib_routes"] = 5001.0;
  const PerfDiffResult result =
      diff_reports(baseline, candidate, DiffOptions{});
  EXPECT_TRUE(result.regression);

  // ...but the sampler's instantaneous rate/ETA readings are never diffed,
  // however wildly they differ between same-seed runs.
  candidate[0].metrics["gauge.mem.rib_routes"] = 5000.0;
  candidate[0].metrics["gauge.progress.rate_per_second"] = 999999.0;
  const PerfDiffResult volatile_ok =
      diff_reports(baseline, candidate, DiffOptions{});
  EXPECT_FALSE(volatile_ok.regression);
  for (const MetricDiff& m : volatile_ok.benches[0].metrics) {
    EXPECT_NE(m.metric, "gauge.progress.rate_per_second");
  }
}

TEST(DiffReports, SubMillisecondTimesAreNoise) {
  // 50% swing on a 10us scope stays below the min_seconds floor.
  const PerfDiffResult result =
      diff_reports({make_sample(10.0, 10e-6)}, {make_sample(10.0, 15e-6)},
                   DiffOptions{});
  EXPECT_FALSE(result.regression);
}

TEST(DiffReports, MannWhitneyGatesNoisyRepeats) {
  // 8 interleaved samples per side, same population: the ~1% mean delta is
  // under threshold AND insignificant. With a genuine shift, both fire.
  std::vector<BenchSample> noisy_base, noisy_cand, shifted;
  for (const double v : {9.8, 10.1, 9.9, 10.2, 10.0, 9.7, 10.3, 10.0}) {
    noisy_base.push_back(make_sample(v));
    noisy_cand.push_back(make_sample(v + 0.1));
    shifted.push_back(make_sample(v * 1.25));
  }
  const PerfDiffResult noise =
      diff_reports(noisy_base, noisy_cand, DiffOptions{});
  EXPECT_FALSE(noise.regression);

  const PerfDiffResult shift = diff_reports(noisy_base, shifted, DiffOptions{});
  ASSERT_EQ(shift.benches.size(), 1u);
  EXPECT_TRUE(shift.regression);
  for (const MetricDiff& m : shift.benches[0].metrics) {
    if (m.metric == "wall.total") {
      EXPECT_TRUE(m.tested);
      EXPECT_LT(m.p_value, 0.05);
    }
  }
}

TEST(DiffReports, TopologyChecksumMismatchRefusesToDiff) {
  EXPECT_THROW(diff_reports({make_sample(10.0, 0.1, 100.0, 42)},
                            {make_sample(10.0, 0.1, 100.0, 43)}, DiffOptions{}),
               IncomparableError);
  // Checksum 0 (pre-checksum report) is tolerated next to anything.
  EXPECT_NO_THROW(diff_reports({make_sample(10.0, 0.1, 100.0, 0)},
                               {make_sample(10.0, 0.1, 100.0, 43)},
                               DiffOptions{}));
}

TEST(DiffReports, UnpairedKeysAreReportedNotDiffed) {
  BenchSample other = make_sample(10.0);
  other.name = "other_bench";
  const PerfDiffResult result =
      diff_reports({make_sample(10.0)}, {other}, DiffOptions{});
  EXPECT_TRUE(result.benches.empty());
  ASSERT_EQ(result.baseline_only.size(), 1u);
  ASSERT_EQ(result.candidate_only.size(), 1u);
  EXPECT_NE(result.candidate_only[0].find("other_bench"), std::string::npos);
}

TEST(LoadReports, ScansDirectoriesRecursively) {
  const std::string dir = ::testing::TempDir() + "perfdiff_scan";
  std::filesystem::create_directories(dir + "/rep1");
  std::filesystem::create_directories(dir + "/rep2");
  {
    std::ofstream(dir + "/rep1/BENCH_fixture.json") << kReport;
    std::ofstream(dir + "/rep2/BENCH_fixture.json") << kReport;
    std::ofstream(dir + "/rep1/not_a_report.json") << "{}";
  }
  const auto samples = load_reports(dir);
  ASSERT_EQ(samples.size(), 2u);
  EXPECT_EQ(samples[0].name, "fixture");
}

TEST(UpdateBaselines, WritesOneFilePerRunWithRepeatSuffix) {
  const std::string src = write_temp("BENCH_fixture.json", kReport);
  BenchSample a = parse_bench_report(src);
  const std::string dir = ::testing::TempDir() + "perfdiff_baselines";
  const auto written = update_baselines({a, a}, dir);
  ASSERT_EQ(written.size(), 2u);
  EXPECT_EQ(written[0], "BENCH_fixture.500.7.json");
  EXPECT_EQ(written[1], "BENCH_fixture.500.7.1.json");
  // The stored baseline re-parses to the same flattened metrics.
  const BenchSample stored = parse_bench_report(dir + "/" + written[0]);
  EXPECT_EQ(stored.metrics, a.metrics);
}

}  // namespace
}  // namespace bgpsim::obs
