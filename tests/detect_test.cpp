// Unit + property tests for probe sets and detection evaluation.
#include <gtest/gtest.h>

#include "analysis/detector_experiment.hpp"
#include "detect/detector.hpp"
#include "detect/probe_set.hpp"
#include "hijack/hijack_simulator.hpp"
#include "support/error.hpp"
#include "topology/graph_builder.hpp"
#include "topology/internet_gen.hpp"

namespace bgpsim {
namespace {

TEST(ProbeSet, DeduplicatesAndSorts) {
  ProbeSet probes("p", {5, 1, 5, 3});
  EXPECT_EQ(probes.size(), 3u);
  EXPECT_TRUE(probes.contains(1));
  EXPECT_TRUE(probes.contains(3));
  EXPECT_TRUE(probes.contains(5));
  EXPECT_FALSE(probes.contains(2));
  EXPECT_EQ(probes.label(), "p");
  EXPECT_THROW(ProbeSet("empty", {}), PreconditionError);
}

TEST(ProbeSet, FactoriesOnGeneratedTopology) {
  InternetGenParams params;
  params.total_ases = 1200;
  params.seed = 5;
  const AsGraph g = generate_internet(params);
  const auto tiers = classify_tiers(g, scale_degree_threshold(1200, 120));

  const auto t1 = ProbeSet::tier1(tiers);
  EXPECT_EQ(t1.size(), tiers.tier1.size());

  const auto core = ProbeSet::degree_core(g, 20);
  for (const AsId p : core.probes()) EXPECT_GE(g.degree(p), 20u);

  const auto topk = ProbeSet::top_k(g, 15);
  EXPECT_EQ(topk.size(), 15u);

  Rng rng(2);
  const auto bgpmon = ProbeSet::bgpmon_style(g, 24, rng);
  EXPECT_GE(bgpmon.size(), 20u);
  EXPECT_LE(bgpmon.size(), 24u);
  // Deterministic with the same seed.
  Rng rng2(2);
  const auto again = ProbeSet::bgpmon_style(g, 24, rng2);
  EXPECT_TRUE(std::equal(bgpmon.probes().begin(), bgpmon.probes().end(),
                         again.probes().begin(), again.probes().end()));
}

TEST(Detector, TriggersOnPollutedProbesOnly) {
  // Diamond: attack from 3 pollutes only AS 1.
  GraphBuilder b;
  b.add_provider_customer(1, 2);
  b.add_provider_customer(1, 3);
  b.add_provider_customer(2, 4);
  b.add_provider_customer(3, 4);
  const AsGraph g = b.build();
  SimConfig cfg;
  cfg.policy.is_tier1.assign(g.num_ases(), 0);
  HijackSimulator sim(g, cfg);
  sim.attack(g.require(4), g.require(3));

  const ProbeSet at_one("at 1", {g.require(1)});
  EXPECT_EQ(evaluate_detection(sim.routes(), at_one).probes_triggered, 1u);
  EXPECT_TRUE(evaluate_detection(sim.routes(), at_one).detected());

  const ProbeSet at_two("at 2", {g.require(2)});
  EXPECT_EQ(evaluate_detection(sim.routes(), at_two).probes_triggered, 0u);
  EXPECT_FALSE(evaluate_detection(sim.routes(), at_two).detected());

  const ProbeSet both("both", {g.require(1), g.require(2)});
  EXPECT_EQ(evaluate_detection(sim.routes(), both).probes_triggered, 1u);
}

// Two first-detection quantities exist: the generation-engine replay
// (first_detection_generation; /v1/attack reports it) and the converged
// proxy min(path_len - 1) (DetectionOutcome::first_generation_proxy;
// campaigns report it). They disagree on the two shapes below. Whoever
// settles on one definition must change these expectations on purpose.
//
// T (1) is the provider of victim V (2) and probe P (3). Attacker A (4)
// peers with P, and A -> X (5) -> C (6) -> P is a customer chain.
AsGraph detection_split_graph() {
  GraphBuilder b;
  b.add_provider_customer(1, 2);
  b.add_provider_customer(1, 3);
  b.add_peer(4, 3);
  b.add_provider_customer(5, 4);
  b.add_provider_customer(6, 5);
  b.add_provider_customer(3, 6);
  return b.build();
}

struct FirstDetection {
  std::uint32_t replay = 0;
  std::uint32_t proxy = 0;
  bool detected = false;
};

FirstDetection first_detection(const AsGraph& g, Asn probe) {
  SimConfig cfg;
  cfg.engine = EngineKind::Generation;
  cfg.policy.is_tier1.assign(g.num_ases(), 0);
  HijackSimulator sim(g, cfg);
  PropagationTrace trace;
  sim.attack_with_trace(g.require(2), g.require(4), trace);
  const ProbeSet probes("probe", {g.require(probe)});
  const DetectionOutcome outcome = evaluate_detection(sim.routes(), probes);
  return {first_detection_generation(trace, probes),
          outcome.first_generation_proxy, outcome.detected()};
}

TEST(FirstDetection, TransientShorterRouteReplaysEarlierThanTheProxy) {
  // P first takes the peer route [P, A] (generation 1), then the longer
  // customer route [P, C, X, A] it prefers, which it keeps (length 4).
  const AsGraph g = detection_split_graph();
  const FirstDetection at_p = first_detection(g, 3);
  EXPECT_TRUE(at_p.detected);
  EXPECT_EQ(at_p.replay, 1u);
  EXPECT_EQ(at_p.proxy, 3u);
}

TEST(FirstDetection, ProbeAtTheAttackerReplaysTheFirstEcho) {
  // The attacker's own route has length 1 (proxy 0); the replay sees the
  // first message delivered back to it.
  const AsGraph g = detection_split_graph();
  const FirstDetection at_a = first_detection(g, 4);
  EXPECT_TRUE(at_a.detected);
  EXPECT_EQ(at_a.replay, 2u);
  EXPECT_EQ(at_a.proxy, 0u);
}

class DetectorExperimentFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    InternetGenParams params;
    params.total_ases = 1500;
    params.seed = 17;
    graph_ = generate_internet(params);
    tiers_ = classify_tiers(graph_, scale_degree_threshold(1500, 120));
    config_.policy.is_tier1.assign(tiers_.is_tier1.begin(), tiers_.is_tier1.end());
  }
  AsGraph graph_;
  TierClassification tiers_;
  SimConfig config_;
};

TEST_F(DetectorExperimentFixture, SamplesAreTransitPairs) {
  DetectorExperiment experiment(graph_, config_);
  Rng rng(1);
  const auto samples = experiment.sample_transit_attacks(50, rng);
  ASSERT_EQ(samples.size(), 50u);
  const auto transit = transit_flags(graph_);
  for (const auto& s : samples) {
    EXPECT_TRUE(transit[s.attacker]);
    EXPECT_TRUE(transit[s.target]);
    EXPECT_NE(s.attacker, s.target);
  }
}

TEST_F(DetectorExperimentFixture, HistogramsAreConsistent) {
  DetectorExperiment experiment(graph_, config_);
  Rng rng(2);
  const auto samples = experiment.sample_transit_attacks(60, rng);
  const std::vector<ProbeSet> probe_sets{
      ProbeSet::tier1(tiers_),
      ProbeSet::top_k(graph_, 12),
  };
  const auto results = experiment.run(samples, probe_sets, 3);
  ASSERT_EQ(results.size(), 2u);
  for (const auto& result : results) {
    EXPECT_EQ(result.attacks, 60u);
    std::uint64_t total = 0;
    for (const auto count : result.histogram) total += count;
    EXPECT_EQ(total, 60u);
    EXPECT_EQ(result.missed, result.histogram[0]);
    EXPECT_NEAR(result.missed_fraction, result.missed / 60.0, 1e-12);
    EXPECT_LE(result.top_undetected.size(), 3u);
    // Top undetected sorted by pollution descending.
    for (std::size_t i = 1; i < result.top_undetected.size(); ++i) {
      EXPECT_GE(result.top_undetected[i - 1].pollution,
                result.top_undetected[i].pollution);
    }
    EXPECT_EQ(result.missed_pollution.count(), result.missed);
  }
}

TEST_F(DetectorExperimentFixture, MoreProbesNeverMissMore) {
  // A superset of probes detects a superset of attacks.
  DetectorExperiment experiment(graph_, config_);
  Rng rng(3);
  const auto samples = experiment.sample_transit_attacks(60, rng);
  std::vector<ProbeSet> probe_sets;
  for (const std::size_t k : {4u, 12u, 40u, 120u}) {
    probe_sets.push_back(ProbeSet::top_k(graph_, k));
  }
  const auto results = experiment.run(samples, probe_sets);
  for (std::size_t i = 1; i < results.size(); ++i) {
    EXPECT_LE(results[i].missed, results[i - 1].missed)
        << results[i].label << " vs " << results[i - 1].label;
  }
}

TEST_F(DetectorExperimentFixture, BiggerAttacksTriggerMoreProbes) {
  // The paper's line graph: avg attack size grows with #probes triggered.
  // Check the aggregate trend: the mean pollution of attacks triggering
  // >= half the probes exceeds the mean of undetected attacks.
  DetectorExperiment experiment(graph_, config_);
  Rng rng(4);
  const auto samples = experiment.sample_transit_attacks(120, rng);
  const std::vector<ProbeSet> probe_sets{ProbeSet::top_k(graph_, 16)};
  const auto results = experiment.run(samples, probe_sets);
  const auto& r = results[0];
  RunningStats low, high;
  for (std::size_t k = 0; k < r.histogram.size(); ++k) {
    if (r.histogram[k] == 0) continue;
    (k < r.histogram.size() / 2 ? low : high)
        .add(r.avg_pollution_by_triggered[k]);
  }
  if (low.count() > 0 && high.count() > 0) {
    EXPECT_GT(high.mean(), low.mean());
  }
}

}  // namespace
}  // namespace bgpsim
