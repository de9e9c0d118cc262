// Tests for the Scenario facade and the §VII SelfInterestAdvisor.
#include <gtest/gtest.h>

#include <sstream>

#include "core/advisor.hpp"
#include "core/scenario.hpp"
#include "topology/graph_builder.hpp"
#include "topology/metrics.hpp"

namespace bgpsim {
namespace {

ScenarioParams small_params(std::uint32_t n = 1500, std::uint64_t seed = 47) {
  ScenarioParams params;
  params.topology.total_ases = n;
  params.topology.seed = seed;
  return params;
}

TEST(Scenario, GenerateWiresEverything) {
  const Scenario scenario = Scenario::generate(small_params());
  EXPECT_EQ(scenario.graph().num_ases(), 1500u);
  EXPECT_GE(scenario.tiers().tier1.size(), 3u);
  EXPECT_EQ(scenario.depth().size(), 1500u);
  EXPECT_FALSE(scenario.transit().empty());
  EXPECT_EQ(scenario.policy().is_tier1.size(), 1500u);
  // The scenario's depth counts hops to a tier-1 or tier-2 (§IV).
  EXPECT_EQ(scenario.depth(), compute_depth(scenario.graph(), scenario.tiers(),
                                            /*include_tier2=*/true));
  // tier-1-only depth is never smaller than tier-1-or-2 depth.
  const auto tier1_only = compute_depth(scenario.graph(), scenario.tiers(),
                                        /*include_tier2=*/false);
  ASSERT_EQ(tier1_only.size(), 1500u);
  for (AsId v = 0; v < 1500; ++v) {
    EXPECT_GE(tier1_only[v], scenario.depth()[v]);
  }
  // Simulator is usable out of the box.
  HijackSimulator sim = scenario.make_simulator();
  const auto result = sim.attack(scenario.transit()[0], scenario.transit()[1]);
  EXPECT_GT(result.routed_ases, 1400u);
}

TEST(Scenario, FromGraphContractsSiblings) {
  GraphBuilder b;
  b.add_peer(1, 2);
  b.add_peer(1, 3);
  b.add_peer(2, 3);
  b.add_provider_customer(1, 10);
  b.add_provider_customer(2, 11);
  b.add_sibling(10, 11);
  const AsGraph g = b.build();
  const Scenario scenario = Scenario::from_graph(g, small_params());
  // 10 and 11 merged into one node.
  EXPECT_EQ(scenario.graph().num_ases(), 4u);
  EXPECT_FALSE(scenario.graph().find(11).has_value());
}

TEST(Scenario, LoadCaidaMissingFileThrows) {
  EXPECT_THROW(Scenario::load_caida("/no/such/file", small_params()), Error);
}

TEST(Scenario, ScaledHelpers) {
  const Scenario scenario = Scenario::generate(small_params());
  EXPECT_EQ(scenario.scaled_count(62), scale_count(1500, 62));
  EXPECT_EQ(scenario.scaled_degree(500), scale_degree_threshold(1500, 500));
  EXPECT_GE(scenario.scaled_degree(500), 2u);
  EXPECT_GE(scenario.scaled_count(62), 1u);
}

/// The deepest stub in a region of at least `min_region` ASes (region 0 is
/// the unassigned pool) — the AS 55857 profile.
AsId deep_regional_stub(const Scenario& scenario, std::size_t min_region) {
  AsId target = kInvalidAs;
  std::uint16_t best_depth = 0;
  const auto& depth = scenario.depth();
  const AsGraph& g = scenario.graph();
  for (AsId v = 0; v < g.num_ases(); ++v) {
    if (!is_stub(g, v) || g.region(v) == 0) continue;
    if (g.ases_in_region(g.region(v)).size() < min_region) continue;
    if (depth[v] > best_depth) {
      best_depth = depth[v];
      target = v;
    }
  }
  return target;
}

/// The playbook run PlaybookImprovesEachStep checks and
/// PlaybookReportIsPinned pins.
struct PlaybookRun {
  Scenario scenario;
  AsId target;
  AdvisorReport report;
};

PlaybookRun run_playbook() {
  Scenario scenario = Scenario::generate(small_params(2500, 31));
  const AsId target = deep_regional_stub(scenario, 40);
  SelfInterestAdvisor advisor(scenario);
  AdvisorBudget budget;
  budget.rehome_levels = 2;
  budget.max_filters = 2;
  budget.max_probes = 4;
  budget.attack_sample = 60;
  Rng rng(9);
  AdvisorReport report = advisor.advise(target, budget, rng);
  return {std::move(scenario), target, std::move(report)};
}

TEST(Advisor, PlaybookImprovesEachStep) {
  const PlaybookRun run = run_playbook();
  const AsGraph& g = run.scenario.graph();
  const AdvisorReport& report = run.report;
  ASSERT_GE(run.scenario.depth()[run.target], 3);

  EXPECT_EQ(report.target, run.target);
  EXPECT_EQ(report.target_asn, g.asn(run.target));
  EXPECT_LT(report.depth_after, report.depth_before);
  ASSERT_GE(report.steps.size(), 3u);
  // Monotone improvement: each applied step is no worse than the previous.
  for (std::size_t i = 1; i < report.steps.size(); ++i) {
    EXPECT_LE(report.steps[i].mean_compromised,
              report.steps[i - 1].mean_compromised + 1e-9)
        << report.steps[i].action;
  }
  // The full playbook beats the baseline strictly for a deep target.
  EXPECT_LT(report.steps.back().mean_compromised,
            report.steps.front().mean_compromised);
  EXPECT_LE(report.detection_miss_rate, 0.5);
  EXPECT_FALSE(report.recommended_probes.empty());
}

TEST(Advisor, PlaybookReportIsPinned) {
  // Every field of the report, bit for bit: a change to the regional loop,
  // the re-homed scenario or either greedy placement shows up here.
  const AdvisorReport report = run_playbook().report;
  EXPECT_EQ(report.target, 195u);
  EXPECT_EQ(report.target_asn, 196u);
  EXPECT_EQ(report.region, 2u);
  EXPECT_EQ(report.region_size, 593u);
  EXPECT_EQ(report.depth_before, 7u);
  EXPECT_EQ(report.depth_after, 1u);
  ASSERT_EQ(report.steps.size(), 3u);
  EXPECT_EQ(report.steps[0].action, "baseline (no action)");
  EXPECT_EQ(report.steps[0].mean_compromised, 521.5);
  EXPECT_EQ(report.steps[0].mean_fraction, 0.87942664418212479);
  EXPECT_EQ(report.steps[1].action, "re-home 2 levels up (depth 7 -> 1)");
  EXPECT_EQ(report.steps[1].mean_compromised, 68.950000000000045);
  EXPECT_EQ(report.steps[1].mean_fraction, 0.1162731871838112);
  EXPECT_EQ(report.steps[2].action,
            "publish origins + filter at 2 strategic ASes");
  EXPECT_EQ(report.steps[2].mean_compromised, 54.733333333333334);
  EXPECT_EQ(report.steps[2].mean_fraction, 0.092299044406970204);
  EXPECT_EQ(report.recommended_filters, (std::vector<Asn>{60, 36}));
  EXPECT_EQ(report.recommended_probes, (std::vector<Asn>{42, 1030, 1510, 74}));
  EXPECT_EQ(report.detection_miss_rate, 0.16666666666666666);
}

TEST(Advisor, RehomingKeepsTheScenarioParams) {
  // A tier-2 threshold far above the default 120: fewer tier-2s, deeper
  // ASes, so the re-homed depth must come from these params.
  ScenarioParams params = small_params(1200, 3);
  params.tier2_min_degree_full_scale = 5000;
  const Scenario scenario = Scenario::generate(params);
  const AsGraph& g = scenario.graph();
  const AsId target = deep_regional_stub(scenario, 40);
  ASSERT_NE(target, kInvalidAs);

  SelfInterestAdvisor advisor(scenario);
  AdvisorBudget budget;
  budget.rehome_levels = 2;
  budget.max_filters = 0;
  budget.max_probes = 0;
  budget.attack_sample = 5;
  Rng rng(1);
  const auto report = advisor.advise(target, budget, rng);

  const AsGraph rehomed_graph =
      rehome_up(g, g.asn(target), scenario.depth(), budget.rehome_levels);
  const Scenario rehomed = Scenario::from_graph(rehomed_graph, scenario.params());
  EXPECT_EQ(report.depth_after, rehomed.depth()[target]);
  // The check discriminates: the default threshold gives another depth.
  const Scenario rehomed_default =
      Scenario::from_graph(rehomed_graph, small_params(1200, 3));
  EXPECT_NE(rehomed_default.depth()[target], rehomed.depth()[target]);
}

TEST(Advisor, GreedyProbesCoverAttacks) {
  const Scenario scenario = Scenario::generate(small_params(1200, 3));
  SelfInterestAdvisor advisor(scenario);
  const auto& transits = scenario.transit();
  const AsId target = transits.back();
  const std::vector<AsId> attackers(transits.begin(), transits.begin() + 40);
  const auto placement = advisor.greedy_probes(target, attackers, nullptr, 5);
  const auto& probes = placement.probes;
  EXPECT_LE(probes.size(), 5u);
  EXPECT_FALSE(probes.empty());
  // Probes are distinct.
  auto sorted = probes;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(std::unique(sorted.begin(), sorted.end()), sorted.end());
  EXPECT_GE(placement.miss_rate, 0.0);
  EXPECT_LT(placement.miss_rate, 1.0);
}

TEST(Advisor, GreedyFiltersReduceDamage) {
  const Scenario scenario = Scenario::generate(small_params(1200, 3));
  SelfInterestAdvisor advisor(scenario);
  const auto& transits = scenario.transit();
  const AsId target = transits.back();
  const std::vector<AsId> attackers(transits.begin(), transits.begin() + 25);
  const std::vector<AsId> candidates(transits.begin(), transits.begin() + 15);
  const auto placement = advisor.greedy_filters(target, attackers, candidates, 2);
  EXPECT_LE(placement.filters.size(), 2u);
  // The reported damage is what the picked filters leave, never above the
  // unfiltered damage.
  RegionalAnalyzer analyzer(scenario.graph(), scenario.sim_config());
  const FilterSet deployed(scenario.graph().num_ases(), placement.filters);
  EXPECT_EQ(placement.mean_compromised,
            analyzer.attacks_from(target, attackers, &deployed).compromised.mean());
  EXPECT_LE(placement.mean_compromised,
            analyzer.attacks_from(target, attackers).compromised.mean());
}

}  // namespace
}  // namespace bgpsim
