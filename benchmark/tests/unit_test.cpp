// Unit tests of the benchmark's own arithmetic: the tail-percentile rule,
// set-up repetitions, due-time latency accounting in the open loop, the
// reference clock, the traced pass's per-input span sums, and compare
// verdicts on fixed fixtures.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "compare.hpp"
#include "ladder.hpp"
#include "refclock.hpp"
#include "stats.hpp"

namespace bgpbench {
namespace {

std::vector<double> one_to(int n) {
  std::vector<double> v;
  for (int i = 1; i <= n; ++i) v.push_back(i);
  return v;
}

TEST(Percentile, NearestRank) {
  EXPECT_EQ(percentile(one_to(100), 0.50), 50);
  EXPECT_EQ(percentile(one_to(100), 0.99), 99);
  EXPECT_EQ(percentile(one_to(1000), 0.99), 990);
  EXPECT_EQ(percentile({7.0}, 0.99), 7.0);
  EXPECT_EQ(percentile({}, 0.5), 0.0);
  EXPECT_EQ(percentile({3, 1, 2}, 1.0), 3);
}

TEST(Percentile, TailNeedsTenSamplesBeyond) {
  EXPECT_EQ(samples_beyond(1000, 0.99), 10u);
  EXPECT_TRUE(tail_supported(1000, 0.99));
  EXPECT_FALSE(tail_supported(999, 0.99));
  EXPECT_TRUE(tail_supported(100, 0.90));
  EXPECT_FALSE(tail_supported(99, 0.90));
  EXPECT_FALSE(tail_supported(0, 0.5));
}

TEST(Quartiles, MatchPythonStatisticsQuantiles) {
  // statistics.quantiles(data, n=4), the default "exclusive" method.
  const Quartiles two = quartiles({1, 2});
  EXPECT_DOUBLE_EQ(two.q1, 0.75);
  EXPECT_DOUBLE_EQ(two.q3, 2.25);
  const Quartiles three = quartiles({1, 2, 3});
  EXPECT_DOUBLE_EQ(three.q1, 1.0);
  EXPECT_DOUBLE_EQ(three.q3, 3.0);
  const Quartiles ten = quartiles(one_to(10));
  EXPECT_DOUBLE_EQ(ten.q1, 2.75);
  EXPECT_DOUBLE_EQ(ten.q3, 8.25);
  const Quartiles unsorted = quartiles({5, 1, 4, 2, 3});
  EXPECT_DOUBLE_EQ(unsorted.q1, 1.5);
  EXPECT_DOUBLE_EQ(unsorted.q3, 4.5);
  EXPECT_DOUBLE_EQ(median({5, 1, 4, 2}), 3.0);
}

TEST(Setup, ShortStepsRepeatUntilTwoSeconds) {
  EXPECT_TRUE(more_setup_reps({}));
  EXPECT_TRUE(more_setup_reps(std::vector<double>(2, 1.5)));
  EXPECT_FALSE(more_setup_reps(std::vector<double>(3, 0.7)));
  EXPECT_TRUE(more_setup_reps(std::vector<double>(10, 0.125)));
  EXPECT_FALSE(more_setup_reps(std::vector<double>(8, 0.25)));
  EXPECT_FALSE(more_setup_reps(std::vector<double>(15, 0.01)));
}

TEST(OpenLoop, LatencyCountsFromTheDueTime) {
  const OpenLoopSchedule schedule{10.0, 100.0};
  EXPECT_DOUBLE_EQ(schedule.due_s(0), 10.0);
  EXPECT_DOUBLE_EQ(schedule.due_s(5), 10.05);
  // Sent 10 ms late behind a stall, answered 10 ms after sending: the
  // request waited 20 ms from the user's point of view.
  const Interval waited = schedule.latency(5, 10.07);
  EXPECT_DOUBLE_EQ(waited.from_s, 10.05);
  EXPECT_NEAR(durations({waited})[0], 0.02, 1e-12);
  EXPECT_NEAR(schedule.lateness_s(5, 10.06), 0.01, 1e-12);
  EXPECT_EQ(schedule.lateness_s(5, 10.04), 0.0);
}

TEST(ReferenceClock, DividesByTheSlowdownBetweenBursts) {
  ReferenceClock clock;
  EXPECT_DOUBLE_EQ(clock.ref_s({1.0, 3.0}), 2.0);  // no bursts: wall time
  clock.add({10.0, 10.5, 1.0});
  clock.add({12.5, 13.0, 2.0});
  clock.add({15.0, 15.5, 1.2});
  // Between two bursts the slowdown is their mean.
  EXPECT_DOUBLE_EQ(clock.ref_s({11.0, 12.0}), 1.0 / 1.5);
  EXPECT_DOUBLE_EQ(clock.ref_s({13.0, 15.0}), 2.0 / 1.6);
  // Before the first and after the last burst, the nearest one holds.
  EXPECT_DOUBLE_EQ(clock.ref_s({9.0, 10.0}), 1.0);
  EXPECT_NEAR(clock.ref_s({16.0, 17.2}), 1.0, 1e-12);
  // An interval across a burst skips the burst's own time.
  EXPECT_DOUBLE_EQ(clock.ref_s({12.0, 14.0}), 0.5 / 1.5 + 1.0 / 1.6);
  EXPECT_DOUBLE_EQ(clock.busy_s({12.0, 14.0}), 1.5);
  EXPECT_DOUBLE_EQ(clock.mean_slowdown(), 1.4);
  EXPECT_EQ(clock.ref_durations({{11.0, 12.0}, {13.0, 15.0}}).size(), 2u);
}

TEST(ReferenceClock, CalibrationBurstsMeasureAPositiveSlowdown) {
  ReferenceClock clock;
  clock.burst();
  clock.burst();
  EXPECT_EQ(clock.bursts(), 2u);
  EXPECT_GT(clock.mean_slowdown(), 0.0);
  EXPECT_LT(clock.mean_slowdown(), 100.0);
}

TEST(SpanLog, PerInputSumsSplitTheTotal) {
  SpanLog log;
  const auto busy = [] { sleep_until_s(now_s() + 0.002); };
  for (const std::size_t input : {0, 1, 1, 2}) log.step("layer", input, busy);
  log.step("other", 0, busy);
  const std::vector<double> per_input = log.per_input_s("layer", 3);
  ASSERT_EQ(per_input.size(), 3u);
  EXPECT_GE(per_input[0], 0.002);
  EXPECT_GE(per_input[1], 0.004);  // two spans of input 1
  EXPECT_NEAR(per_input[0] + per_input[1] + per_input[2], log.total_s("layer"), 1e-12);
  // Inputs past the requested count are left out.
  EXPECT_EQ(log.per_input_s("layer", 2).size(), 2u);
  EXPECT_EQ(log.per_input_s("layer", 2)[1], per_input[1]);
}

MetricSpec lower(double bound) { return {"p50_ms", "ms", false, bound}; }
MetricSpec higher(double bound) { return {"ops_per_s", "1/s", true, bound}; }

const std::vector<double> kSteady = {100, 101, 99, 100, 102, 98, 100, 101, 99, 100};

std::vector<double> scaled(const std::vector<double>& v, double factor) {
  std::vector<double> out;
  for (const double x : v) out.push_back(x * factor);
  return out;
}

TEST(Compare, SameWhenWithinNoise) {
  const std::vector<double> b = {100, 99, 101, 100, 98, 102, 100, 99, 101, 100};
  EXPECT_EQ(compare_samples(kSteady, b, lower(0.1)).verdict, Verdict::Same);
}

TEST(Compare, BetterNeedsNineTenthsOfPairsAndMoreThanTheIqr) {
  const Comparison c = compare_samples(kSteady, scaled(kSteady, 0.8), lower(0.1));
  EXPECT_EQ(c.wins, 10u);
  EXPECT_EQ(c.verdict, Verdict::Better);
  // 2% faster: every pair won, but the medians differ by less than A's IQR.
  EXPECT_EQ(compare_samples(kSteady, scaled(kSteady, 0.995), lower(0.1)).verdict,
            Verdict::Same);
  // Far faster on average but only 8 of 10 pairs won.
  std::vector<double> mixed = scaled(kSteady, 0.8);
  mixed[0] = 200;
  mixed[1] = 200;
  EXPECT_EQ(compare_samples(kSteady, mixed, lower(0.5)).verdict, Verdict::Same);
  // Three pairs, all won by far: too few to claim a gain.
  const std::vector<double> three(kSteady.begin(), kSteady.begin() + 3);
  EXPECT_EQ(compare_samples(three, scaled(three, 0.8), lower(0.1)).verdict, Verdict::Same);
}

TEST(Compare, WorseBeyondTheBound) {
  EXPECT_EQ(compare_samples(kSteady, scaled(kSteady, 1.2), lower(0.1)).verdict, Verdict::Worse);
  // 5% slower is inside a 10% bound.
  EXPECT_EQ(compare_samples(kSteady, scaled(kSteady, 1.05), lower(0.1)).verdict, Verdict::Same);
}

TEST(Compare, HigherIsBetterIsOriented) {
  EXPECT_EQ(compare_samples(kSteady, scaled(kSteady, 1.25), higher(0.1)).verdict,
            Verdict::Better);
  EXPECT_EQ(compare_samples(kSteady, scaled(kSteady, 0.8), higher(0.1)).verdict,
            Verdict::Worse);
}

TEST(Compare, UnresolvedWhenSpreadExceedsTheBound) {
  const std::vector<double> noisy = {60, 140, 80, 120, 100, 70, 130, 90, 110, 100};
  EXPECT_EQ(compare_samples(noisy, noisy, lower(0.1)).verdict, Verdict::Unresolved);
  // ...unless every run of B beats every run of A.
  EXPECT_NE(compare_samples(noisy, scaled(noisy, 0.1), lower(0.1)).verdict,
            Verdict::Unresolved);
}

TEST(Compare, DirectoriesPairRunsByPath) {
  namespace fs = std::filesystem;
  const fs::path root = fs::current_path() / "compare_fixture";
  fs::remove_all(root);
  const auto write = [&](const std::string& side, int run, double p50) {
    fs::create_directories(root / side / ("run" + std::to_string(run)));
    std::ofstream(root / side / ("run" + std::to_string(run)) / "attack-mix.json")
        << "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": "
           "{\"p50_ms\": {\"value\": "
        << p50 << ", \"unit\": \"ms\"}}}\n";
  };
  for (int run = 0; run < 3; ++run) {
    write("a", run, 10.0 + run);
    write("b", run, 10.0 + run);
  }
  const auto runs = load_runs((root / "a").string());
  ASSERT_EQ(runs.at("attack-mix").size(), 3u);
  EXPECT_EQ(runs.at("attack-mix")[2].metrics.at("p50_ms"), 12.0);
  const std::string table =
      compare_dirs((root / "a").string(), (root / "b").string(), {lower(0.25)});
  EXPECT_NE(table.find("attack-mix"), std::string::npos);
  EXPECT_NE(table.find("same"), std::string::npos);
  fs::remove_all(root);
}

}  // namespace
}  // namespace bgpbench
