// Campaign subsystem tests: estimator correctness against brute force,
// bit-exact shard-merge order independence, sampler reproducibility, driver
// determinism across worker counts (and one report pinned byte for byte),
// progress accounting, early stopping, and CI coverage against an
// exhaustive ground truth at small scale.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "campaign/driver.hpp"
#include "campaign/estimator.hpp"
#include "campaign/sampler.hpp"
#include "core/scenario.hpp"
#include "hijack/hijack_simulator.hpp"
#include "obs/progress.hpp"
#include "store/baseline.hpp"
#include "support/rng.hpp"

namespace bgpsim::campaign {
namespace {

std::vector<std::uint32_t> fixed_stream(std::uint64_t seed, std::size_t n,
                                        std::uint32_t bound) {
  Rng rng(seed);
  std::vector<std::uint32_t> values(n);
  for (std::uint32_t& v : values) {
    v = static_cast<std::uint32_t>(rng.bounded(bound));
  }
  return values;
}

TEST(MomentAccumulator, MatchesBruteForce) {
  const std::vector<std::uint32_t> values = fixed_stream(7, 4096, 1u << 20);
  MomentAccumulator acc;
  for (const std::uint32_t v : values) acc.add(v);

  long double sum = 0.0L;
  for (const std::uint32_t v : values) sum += v;
  const long double mean = sum / static_cast<long double>(values.size());
  long double ss = 0.0L;
  for (const std::uint32_t v : values) {
    const long double d = static_cast<long double>(v) - mean;
    ss += d * d;
  }
  const double variance =
      static_cast<double>(ss / static_cast<long double>(values.size() - 1));

  EXPECT_EQ(acc.count(), values.size());
  EXPECT_EQ(acc.sum(), static_cast<std::uint64_t>(sum));
  EXPECT_EQ(acc.min(), *std::min_element(values.begin(), values.end()));
  EXPECT_EQ(acc.max(), *std::max_element(values.begin(), values.end()));
  EXPECT_NEAR(acc.mean(), static_cast<double>(mean),
              1e-9 * static_cast<double>(mean));
  EXPECT_NEAR(acc.variance(), variance, 1e-6 * variance);
  EXPECT_NEAR(acc.ci_half_width(),
              kZ95 * std::sqrt(variance / static_cast<double>(values.size())),
              1e-9);
}

TEST(MomentAccumulator, SumOfSquaresCarriesPast64Bits) {
  // 8 values of (2^32 - 1): sum of squares = 8 * (2^32-1)^2 > 2^64, so the
  // manual carry must engage; the variance of a constant stream is zero.
  MomentAccumulator acc;
  for (int i = 0; i < 8; ++i) acc.add(0xFFFFFFFFu);
  EXPECT_EQ(acc.count(), 8u);
  EXPECT_DOUBLE_EQ(acc.mean(), 4294967295.0);
  EXPECT_DOUBLE_EQ(acc.variance(), 0.0);
}

TEST(MomentAccumulator, MergeIsBitExactInAnyOrder) {
  const std::vector<std::uint32_t> values = fixed_stream(11, 3000, 1u << 16);

  // Reference: one accumulator fed sequentially.
  MomentAccumulator reference;
  for (const std::uint32_t v : values) reference.add(v);

  // 17 shards of uneven sizes, merged in several shuffled orders.
  std::vector<MomentAccumulator> shards(17);
  for (std::size_t i = 0; i < values.size(); ++i) {
    shards[(i * i + 3 * i) % shards.size()].add(values[i]);
  }
  std::vector<std::size_t> order(shards.size());
  std::iota(order.begin(), order.end(), 0);
  Rng rng(99);
  for (int trial = 0; trial < 8; ++trial) {
    for (std::size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[rng.bounded(i)]);
    }
    MomentAccumulator merged;
    for (const std::size_t s : order) merged.merge(shards[s]);
    EXPECT_TRUE(merged == reference);  // full integer state, bit-for-bit
    EXPECT_EQ(merged.mean(), reference.mean());
    EXPECT_EQ(merged.variance(), reference.variance());
    EXPECT_EQ(merged.ci_half_width(), reference.ci_half_width());
  }

  // Associativity: ((a+b)+c) == (a+(b+c)) on exact state.
  MomentAccumulator left = shards[0];
  left.merge(shards[1]);
  left.merge(shards[2]);
  MomentAccumulator bc = shards[1];
  bc.merge(shards[2]);
  MomentAccumulator right = shards[0];
  right.merge(bc);
  EXPECT_TRUE(left == right);
}

double exact_quantile(std::vector<double> values, double q) {
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = lo + 1 < values.size() ? lo + 1 : lo;
  const double frac = rank - static_cast<double>(lo);
  return values[lo] * (1.0 - frac) + values[hi] * frac;
}

TEST(P2Quantile, TracksExactQuantileOnFixedStream) {
  Rng rng(5);
  std::vector<double> values;
  P2Quantile p50(0.5);
  P2Quantile p90(0.9);
  for (int i = 0; i < 5000; ++i) {
    // Skewed stream (squared uniform) so the sketch is tested off-center.
    const double u =
        static_cast<double>(rng.bounded(1u << 20)) / static_cast<double>(1u << 20);
    const double v = u * u * 1000.0;
    values.push_back(v);
    p50.add(v);
    p90.add(v);
  }
  // P² is approximate: a few percent of the value range is its documented
  // accuracy regime on smooth streams.
  EXPECT_NEAR(p50.value(), exact_quantile(values, 0.5), 25.0);
  EXPECT_NEAR(p90.value(), exact_quantile(values, 0.9), 50.0);
}

TEST(P2Quantile, ExactForTinyStreams) {
  P2Quantile p50(0.5);
  EXPECT_DOUBLE_EQ(p50.value(), 0.0);
  p50.add(42.0);
  EXPECT_DOUBLE_EQ(p50.value(), 42.0);
  P2Quantile p(0.5);
  for (const double v : {9.0, 1.0, 5.0}) p.add(v);
  EXPECT_DOUBLE_EQ(p.value(), 5.0);  // exact sorted median below 5 samples
}

TEST(QuantileReservoir, DeterministicAndBounded) {
  const std::vector<std::uint32_t> values = fixed_stream(13, 2000, 1000);
  Rng words(17);
  QuantileReservoir a(64);
  QuantileReservoir b(64);
  std::vector<std::uint64_t> word_stream(values.size());
  for (std::uint64_t& w : word_stream) w = words.next();
  for (std::size_t i = 0; i < values.size(); ++i) {
    a.add(values[i], word_stream[i]);
    b.add(values[i], word_stream[i]);
  }
  EXPECT_EQ(a.seen(), values.size());
  EXPECT_EQ(a.values().size(), 64u);
  EXPECT_EQ(a.values(), b.values());  // same words -> identical contents
  for (const double v : a.values()) {
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1000.0);
  }
}

TEST(WeightedQuantile, HandComputedCases) {
  std::vector<WeightedValue> points{{10.0, 1.0}, {20.0, 1.0}, {30.0, 2.0}};
  EXPECT_DOUBLE_EQ(weighted_quantile(points, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(weighted_quantile(points, 1.0), 30.0);
  // Cumulative weights 1, 2, 4 of total 4: q=0.5 -> first point at or past 2.
  EXPECT_DOUBLE_EQ(weighted_quantile(points, 0.5), 20.0);
  std::vector<WeightedValue> empty;
  EXPECT_DOUBLE_EQ(weighted_quantile(empty, 0.5), 0.0);
}

Scenario small_scenario(std::uint32_t ases, std::uint64_t seed) {
  ScenarioParams params;
  params.topology.total_ases = ases;
  params.topology.seed = seed;
  return Scenario::generate(params);
}

TEST(AttackerStrata, PartitionsEveryAs) {
  const Scenario scenario = small_scenario(600, 3);
  const std::vector<Stratum> strata = build_attacker_strata(scenario);
  ASSERT_FALSE(strata.empty());
  double weight = 0.0;
  std::vector<bool> seen(scenario.graph().num_ases(), false);
  for (const Stratum& stratum : strata) {
    EXPECT_FALSE(stratum.attackers.empty()) << stratum.label;
    weight += stratum.weight;
    for (const AsId a : stratum.attackers) {
      ASSERT_LT(a, seen.size());
      EXPECT_FALSE(seen[a]) << "AS in two strata";
      seen[a] = true;
    }
  }
  EXPECT_NEAR(weight, 1.0, 1e-9);
  EXPECT_TRUE(std::all_of(seen.begin(), seen.end(), [](bool s) { return s; }));
}

TEST(Sampler, PureFunctionOfCoordinates) {
  const Scenario scenario = small_scenario(600, 3);
  const std::vector<Stratum> strata = build_attacker_strata(scenario);
  std::vector<AsId> victims(scenario.transit().begin(),
                            scenario.transit().begin() + 8);
  const CampaignSampler sampler(77, victims);
  const CampaignSampler clone(77, victims);
  for (std::uint32_t s = 0; s < strata.size(); ++s) {
    for (std::uint64_t i = 0; i < 64; ++i) {
      const SamplePair a = sampler.draw(strata[s], s, i);
      const SamplePair b = clone.draw(strata[s], s, i);
      EXPECT_EQ(a.attacker, b.attacker);
      EXPECT_EQ(a.victim, b.victim);
      EXPECT_EQ(a.reservoir_word, b.reservoir_word);
      EXPECT_NE(a.attacker, a.victim);
      EXPECT_TRUE(std::find(strata[s].attackers.begin(),
                            strata[s].attackers.end(),
                            a.attacker) != strata[s].attackers.end());
      EXPECT_TRUE(std::find(victims.begin(), victims.end(), a.victim) !=
                  victims.end());
    }
  }
}

std::shared_ptr<const store::BaselineStore> make_baselines(
    const Scenario& scenario, std::size_t n_victims) {
  std::vector<AsId> victims(
      scenario.transit().begin(),
      scenario.transit().begin() +
          std::min(n_victims, scenario.transit().size()));
  return std::make_shared<const store::BaselineStore>(store::BaselineStore::compute(
      scenario.graph(), scenario.policy(), victims));
}

/// Everything that must be identical across worker counts (wall time and
/// throughput legitimately differ).
void expect_identical_results(const CampaignResult& a, const CampaignResult& b) {
  EXPECT_EQ(a.samples_used, b.samples_used);
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.warm_samples, b.warm_samples);
  EXPECT_EQ(a.early_stopped, b.early_stopped);
  EXPECT_EQ(a.stop_reason, b.stop_reason);
  EXPECT_EQ(a.pooled_mean, b.pooled_mean);  // bit-exact, not NEAR
  EXPECT_EQ(a.pooled_ci_half_width, b.pooled_ci_half_width);
  EXPECT_EQ(a.pooled_p50, b.pooled_p50);
  EXPECT_EQ(a.pooled_p90, b.pooled_p90);
  EXPECT_EQ(a.pooled_detection_rate, b.pooled_detection_rate);
  EXPECT_EQ(a.pooled_mean_detection_gen, b.pooled_mean_detection_gen);
  ASSERT_EQ(a.strata.size(), b.strata.size());
  for (std::size_t s = 0; s < a.strata.size(); ++s) {
    EXPECT_EQ(a.strata[s].samples, b.strata[s].samples);
    EXPECT_EQ(a.strata[s].mean_fraction, b.strata[s].mean_fraction);
    EXPECT_EQ(a.strata[s].ci_half_width, b.strata[s].ci_half_width);
    EXPECT_EQ(a.strata[s].p50_fraction, b.strata[s].p50_fraction);
    EXPECT_EQ(a.strata[s].p90_fraction, b.strata[s].p90_fraction);
    EXPECT_EQ(a.strata[s].detected, b.strata[s].detected);
    EXPECT_EQ(a.strata[s].mean_detection_gen, b.strata[s].mean_detection_gen);
  }
  ASSERT_EQ(a.trajectory.size(), b.trajectory.size());
  for (std::size_t i = 0; i < a.trajectory.size(); ++i) {
    EXPECT_EQ(a.trajectory[i].samples, b.trajectory[i].samples);
    EXPECT_EQ(a.trajectory[i].ci_half_width, b.trajectory[i].ci_half_width);
  }
}

/// The report without its two wall-clock fields, the only nondeterministic
/// ones.
std::string strip_timing(std::string json) {
  for (const char* key : {"\"wall_seconds\":", "\"samples_per_second\":"}) {
    const std::size_t start = json.find(key);
    EXPECT_NE(start, std::string::npos) << key;
    if (start == std::string::npos) continue;
    const std::size_t end = json.find(',', start);
    EXPECT_NE(end, std::string::npos) << key;
    if (end == std::string::npos) continue;
    json.erase(start, end + 1 - start);
  }
  return json;
}

TEST(CampaignDriver, ReportIsPinned) {
  const Scenario scenario = small_scenario(400, 5);
  const auto baselines = make_baselines(scenario, 6);
  CampaignSpec spec;
  spec.seed = 9;
  spec.sample_budget = 800;
  spec.batch = 12;
  spec.deployment_top = 20;
  spec.probes = 8;
  // Every estimate, P² sketch, reservoir quantile and trajectory point, bit
  // for bit: a change to how samples are scheduled or folded shows up here.
  const std::string pinned =
      R"({"schema":"bgpsim.campaign.v1","seed":9,"samples_used":846,)"
      R"("sample_budget":800,"warm_samples":846,"rounds":68,)"
      R"("early_stopped":false,"stop_reason":"budget_exhausted",)"
      R"("target_ci":0,"workers":1,"victim_pool":6,"deployment_top":20,)"
      R"("probes":8,"pooled":{"mean_fraction":0.043349023437500002,)"
      R"("ci_half_width":0.0032889035051816835,)"
      R"("p50_fraction":0.017500000000000002,)"
      R"("p90_fraction":0.11750000000000001,)"
      R"("detection_rate":0.014999999999999999,)"
      R"("mean_detection_generation":0},"strata":[{"label":"tier1",)"
      R"("attackers":4,"weight":0.01,"samples":32,"warm":32,)"
      R"("mean_fraction":0.13140625,"ci_half_width":0.027649830224203042,)"
      R"("p50_fraction":0.095006327507053151,)"
      R"("p90_fraction":0.24700462962962963,"detected":0,)"
      R"("detection_rate":0,"mean_detection_generation":0},)"
      R"({"label":"tier2","attackers":9,"weight":0.022499999999999999,)"
      R"("samples":32,"warm":32,"mean_fraction":0.17085937500000001,)"
      R"("ci_half_width":0.023056852961119003,)"
      R"("p50_fraction":0.16317085982854748,)"
      R"("p90_fraction":0.25987453029560648,"detected":16,)"
      R"("detection_rate":0.5,"mean_detection_generation":0},)"
      R"({"label":"transit_shallow","attackers":34,)"
      R"("weight":0.085000000000000006,"samples":68,"warm":68,)"
      R"("mean_fraction":0.06790441176470588,)"
      R"("ci_half_width":0.017288966227069307,)"
      R"("p50_fraction":0.045757997110635024,)"
      R"("p90_fraction":0.17714571842602608,"detected":3,)"
      R"("detection_rate":0.044117647058823532,)"
      R"("mean_detection_generation":0},{"label":"transit_deep",)"
      R"("attackers":12,"weight":0.029999999999999999,"samples":32,)"
      R"("warm":32,"mean_fraction":0.071562500000000001,)"
      R"("ci_half_width":0.017063025973286367,)"
      R"("p50_fraction":0.074551347330423484,)"
      R"("p90_fraction":0.13763418692129631,"detected":0,)"
      R"("detection_rate":0,"mean_detection_generation":0},)"
      R"({"label":"stub_multi","attackers":291,)"
      R"("weight":0.72750000000000004,"samples":582,"warm":582,)"
      R"("mean_fraction":0.036924398625429559,)"
      R"("ci_half_width":0.00362701598297206,)"
      R"("p50_fraction":0.016083327391600139,)"
      R"("p90_fraction":0.10974463595199879,"detected":0,)"
      R"("detection_rate":0,"mean_detection_generation":0},)"
      R"({"label":"stub_single","attackers":50,"weight":0.125,)"
      R"("samples":100,"warm":100,"mean_fraction":0.027275000000000001,)"
      R"("ci_half_width":0.0083413667128467844,)"
      R"("p50_fraction":0.0027377594727917738,)"
      R"("p90_fraction":0.10303012080136485,"detected":0,)"
      R"("detection_rate":0,"mean_detection_generation":0}],)"
      R"("ci_trajectory":[{"samples":15,)"
      R"("ci_half_width":0.029513646521303401},{"samples":30,)"
      R"("ci_half_width":0.018378711393624431},{"samples":45,)"
      R"("ci_half_width":0.013312947195777426},{"samples":60,)"
      R"("ci_half_width":0.011416355916069302},{"samples":75,)"
      R"("ci_half_width":0.010814430726487948},{"samples":90,)"
      R"("ci_half_width":0.009907599034343165},{"samples":105,)"
      R"("ci_half_width":0.0092955700200515815},{"samples":120,)"
      R"("ci_half_width":0.0092926827321607383},{"samples":135,)"
      R"("ci_half_width":0.0083984673423019539},{"samples":150,)"
      R"("ci_half_width":0.0078623009790349391},{"samples":165,)"
      R"("ci_half_width":0.0075541695201144544},{"samples":180,)"
      R"("ci_half_width":0.0070644605022917454},{"samples":195,)"
      R"("ci_half_width":0.0067500415018617596},{"samples":210,)"
      R"("ci_half_width":0.0065282639551763047},{"samples":225,)"
      R"("ci_half_width":0.0066821654452898878},{"samples":240,)"
      R"("ci_half_width":0.0064516498054155314},{"samples":255,)"
      R"("ci_half_width":0.0062146393959390143},{"samples":270,)"
      R"("ci_half_width":0.0059874232384544181},{"samples":285,)"
      R"("ci_half_width":0.0058239931513916349},{"samples":300,)"
      R"("ci_half_width":0.0057030683723595429},{"samples":315,)"
      R"("ci_half_width":0.0055617292042034888},{"samples":330,)"
      R"("ci_half_width":0.0053725920736733962},{"samples":345,)"
      R"("ci_half_width":0.0051989371297475138},{"samples":360,)"
      R"("ci_half_width":0.0050934112099864128},{"samples":375,)"
      R"("ci_half_width":0.0051247366937200783},{"samples":390,)"
      R"("ci_half_width":0.0050168654605242937},{"samples":405,)"
      R"("ci_half_width":0.0048876479038455507},{"samples":420,)"
      R"("ci_half_width":0.0048639499095304121},{"samples":435,)"
      R"("ci_half_width":0.0047857228841237595},{"samples":450,)"
      R"("ci_half_width":0.004746316863129086},{"samples":465,)"
      R"("ci_half_width":0.0046634519272336448},{"samples":480,)"
      R"("ci_half_width":0.0045588515128272781},{"samples":492,)"
      R"("ci_half_width":0.0044795063952965146},{"samples":504,)"
      R"("ci_half_width":0.0044355586888599058},{"samples":516,)"
      R"("ci_half_width":0.0044121011589155707},{"samples":528,)"
      R"("ci_half_width":0.004369708065577774},{"samples":540,)"
      R"("ci_half_width":0.0043251729112368121},{"samples":552,)"
      R"("ci_half_width":0.0042380060365095071},{"samples":564,)"
      R"("ci_half_width":0.0042108772857029891},{"samples":576,)"
      R"("ci_half_width":0.0041294581565398903},{"samples":588,)"
      R"("ci_half_width":0.0040703922731378699},{"samples":600,)"
      R"("ci_half_width":0.0041962544452313049},{"samples":612,)"
      R"("ci_half_width":0.0041377305557195893},{"samples":624,)"
      R"("ci_half_width":0.0040797095118266669},{"samples":636,)"
      R"("ci_half_width":0.0040139255362752315},{"samples":648,)"
      R"("ci_half_width":0.0039561978083325578},{"samples":660,)"
      R"("ci_half_width":0.0039012791604917181},{"samples":672,)"
      R"("ci_half_width":0.0038952147867958812},{"samples":684,)"
      R"("ci_half_width":0.0038319133622678352},{"samples":696,)"
      R"("ci_half_width":0.0037818923050651752},{"samples":706,)"
      R"("ci_half_width":0.0037248706689790912},{"samples":716,)"
      R"("ci_half_width":0.0036850900956027586},{"samples":726,)"
      R"("ci_half_width":0.0036490801408904641},{"samples":736,)"
      R"("ci_half_width":0.0035983698654884315},{"samples":746,)"
      R"("ci_half_width":0.0035515129066669105},{"samples":756,)"
      R"("ci_half_width":0.0035385103943314841},{"samples":766,)"
      R"("ci_half_width":0.0035010789674350179},{"samples":776,)"
      R"("ci_half_width":0.0034801274854793802},{"samples":786,)"
      R"("ci_half_width":0.0034457391055246465},{"samples":796,)"
      R"("ci_half_width":0.0034066601427763638},{"samples":806,)"
      R"("ci_half_width":0.0033758990127306038},{"samples":816,)"
      R"("ci_half_width":0.0033746689767934933},{"samples":826,)"
      R"("ci_half_width":0.0033606680449590437},{"samples":836,)"
      R"("ci_half_width":0.0033384910460237394},{"samples":843,)"
      R"("ci_half_width":0.0033127094060186602},{"samples":844,)"
      R"("ci_half_width":0.0033058625772484839},{"samples":845,)"
      R"("ci_half_width":0.0032961340727522058},{"samples":846,)"
      R"("ci_half_width":0.0032889035051816835}]})";
  EXPECT_EQ(strip_timing(campaign_report_json(
                run_campaign(scenario, baselines, spec))),
            pinned);
}

TEST(CampaignDriver, DeterministicRunToRun) {
  const Scenario scenario = small_scenario(400, 5);
  const auto baselines = make_baselines(scenario, 6);
  CampaignSpec spec;
  spec.seed = 9;
  spec.sample_budget = 600;
  spec.batch = 128;
  spec.probes = 8;
  const CampaignResult a = run_campaign(scenario, baselines, spec);
  const CampaignResult b = run_campaign(scenario, baselines, spec);
  expect_identical_results(a, b);
  // The report is byte-identical too, once the wall-clock fields are
  // masked out.
  EXPECT_EQ(strip_timing(campaign_report_json(a)),
            strip_timing(campaign_report_json(b)));
}

TEST(CampaignDriver, WorkerCountDoesNotChangeResults) {
  const Scenario scenario = small_scenario(400, 5);
  const auto baselines = make_baselines(scenario, 6);
  CampaignSpec spec;
  spec.seed = 9;
  spec.sample_budget = 800;
  spec.batch = 128;
  spec.probes = 8;
  spec.workers = 1;
  const CampaignResult one = run_campaign(scenario, baselines, spec);
  EXPECT_EQ(one.warm_samples, one.samples_used);  // every sample warm-starts
  // 6 strata and 128-sample rounds: 8 and 16 workers exceed the stratum
  // count, and once the large strata exhaust their budgets the tail rounds
  // draw only tier1's floored samples, one per round.
  for (const unsigned workers : {2u, 3u, 4u, 8u, 16u}) {
    SCOPED_TRACE(workers);
    spec.workers = workers;
    expect_identical_results(one, run_campaign(scenario, baselines, spec));
  }
}

TEST(CampaignDriver, ReportsTheWorkersThatRan) {
  const Scenario scenario = small_scenario(400, 5);
  const auto baselines = make_baselines(scenario, 6);
  CampaignSpec spec;
  spec.seed = 9;
  spec.sample_budget = 200;
  spec.batch = 12;
  spec.workers = 100;
  // A 12-sample round over 6 strata has about a dozen samples to hand out,
  // so only that many workers start, and the report says so.
  const CampaignResult result = run_campaign(scenario, baselines, spec);
  EXPECT_GE(result.workers, 1u);
  EXPECT_LT(result.workers, 100u);
  EXPECT_LE(result.workers, 18u);
}

TEST(CampaignDriver, ProgressCountsEachSampleOnce) {
#if defined(BGPSIM_OBS_DISABLED)
  GTEST_SKIP() << "built with -DBGPSIM_OBS=OFF: progress macros compile out";
#else
  const Scenario scenario = small_scenario(400, 5);
  const auto baselines = make_baselines(scenario, 6);
  CampaignSpec spec;
  spec.seed = 9;
  spec.sample_budget = 800;
  spec.batch = 128;
  spec.workers = 4;
  obs::progress().reset();
  const CampaignResult result = run_campaign(scenario, baselines, spec);
  // Each sample's attack ticks once, and the budget is declared once.
  EXPECT_EQ(obs::progress().done(), result.samples_used);
  EXPECT_EQ(obs::progress().total(), result.sample_budget);
  obs::progress().reset();
#endif
}

TEST(CampaignDriver, EarlyStopsBelowBudgetAtTargetCi) {
  const Scenario scenario = small_scenario(400, 5);
  const auto baselines = make_baselines(scenario, 6);
  CampaignSpec spec;
  spec.seed = 9;
  spec.sample_budget = 50000;
  spec.batch = 256;
  spec.target_ci = 0.02;
  spec.workers = 2;
  const CampaignResult result = run_campaign(scenario, baselines, spec);
  EXPECT_TRUE(result.early_stopped);
  EXPECT_EQ(result.stop_reason, "target_ci_reached");
  EXPECT_LT(result.samples_used, result.sample_budget);
  EXPECT_LE(result.pooled_ci_half_width, spec.target_ci);
  for (const StratumResult& row : result.strata) {
    EXPECT_GE(row.samples, spec.min_samples_per_stratum);
  }
  // Early stop is part of the determinism contract too.
  const CampaignResult again = run_campaign(scenario, baselines, spec);
  expect_identical_results(result, again);
}

TEST(CampaignDriver, CancellationReturnsPartialEstimates) {
  const Scenario scenario = small_scenario(400, 5);
  const auto baselines = make_baselines(scenario, 6);
  CampaignSpec spec;
  spec.seed = 9;
  spec.sample_budget = 100000;
  spec.batch = 64;
  std::atomic<bool> cancel{true};  // pre-raised: stops after the first round
  const CampaignResult result =
      run_campaign(scenario, baselines, spec, &cancel);
  EXPECT_EQ(result.stop_reason, "cancelled");
  EXPECT_FALSE(result.early_stopped);
  EXPECT_LT(result.samples_used, spec.sample_budget);
}

TEST(CampaignDriver, EstimateCoversExhaustiveTruthAtSmallScale) {
  // Ground truth: the pooled estimator targets the uniform-attacker mean
  // pollution fraction (stratum weights are population shares), with the
  // victim drawn uniformly from the pool excluding the attacker. Enumerate
  // that exactly at small scale and check the campaign's CI covers it.
  const Scenario scenario = small_scenario(150, 7);
  const AsGraph& g = scenario.graph();
  std::vector<AsId> victims(scenario.transit().begin(),
                            scenario.transit().begin() +
                                std::min<std::size_t>(4, scenario.transit().size()));
  const auto baselines = std::make_shared<const store::BaselineStore>(
      store::BaselineStore::compute(g, scenario.policy(), victims));

  HijackSimulator sim(g, scenario.sim_config());
  sim.attach_baseline(baselines);
  long double truth = 0.0L;
  std::uint64_t pairs = 0;
  for (AsId attacker = 0; attacker < g.num_ases(); ++attacker) {
    for (const AsId victim : victims) {
      if (victim == attacker) continue;
      truth += sim.attack(victim, attacker).polluted_ases;
      ++pairs;
    }
  }
  truth /= static_cast<long double>(pairs) * g.num_ases();

  CampaignSpec spec;
  spec.seed = 21;
  spec.sample_budget = 4000;
  spec.batch = 512;
  spec.workers = 2;
  const CampaignResult result = run_campaign(scenario, baselines, spec);
  ASSERT_GT(result.pooled_ci_half_width, 0.0);
  // 3x the 95% half-width: essentially certain coverage on a sound estimator
  // (the seed is fixed, so this is a deterministic regression check).
  EXPECT_NEAR(result.pooled_mean, static_cast<double>(truth),
              3.0 * result.pooled_ci_half_width);
}

}  // namespace
}  // namespace bgpsim::campaign
