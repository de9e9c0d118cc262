// §VII validation experiments: the New-Zealand case study. Pick the region
// closest to the paper's 187-AS NZ region that contains a deep stub, then:
//   exp 1  re-home the target up two levels
//          paper: regional attacks 113 (60%) -> 46 (25%) compromised NZ ASes;
//                 200 external attacks 28 (15%) -> 12 (6%)
//   exp 2  instead add a single strategic prefix filter (the VOCUS analog)
//          paper: regional attacks -> 74 (40%); external -> 26 (14%)
#include <algorithm>
#include <cmath>
#include <cstdio>

#include "analysis/regional.hpp"
#include "bench_common.hpp"
#include "core/advisor.hpp"

using namespace bgpsim;
using namespace bgpsim::bench;

int main() {
  BenchEnv env = make_env(
      "section7_self_interest",
      "Section VII — self-interest actions (NZ case study)");
  const Scenario& scenario = env.scenario;
  const AsGraph& g = scenario.graph();
  Rng rng(derive_seed(env.seed, 70));

  // Region closest to 187 ASes that contains a deep stub.
  std::uint16_t best_region = 0;
  AsId target = kInvalidAs;
  double best_score = 1e18;
  for (std::uint16_t r = 1; r < g.num_regions(); ++r) {
    const auto members = g.ases_in_region(r);
    if (members.size() < 40) continue;
    AsId deepest = kInvalidAs;
    std::uint16_t depth = 0;
    for (const AsId v : members) {
      if (is_stub(g, v) && scenario.depth()[v] > depth) {
        depth = scenario.depth()[v];
        deepest = v;
      }
    }
    if (deepest == kInvalidAs || depth < 3) continue;
    const double score = std::abs(static_cast<double>(members.size()) - 187.0);
    if (score < best_score) {
      best_score = score;
      best_region = r;
      target = deepest;
    }
  }
  if (target == kInvalidAs) {
    std::fprintf(stderr, "no suitable region found; increase BGPSIM_SCALE\n");
    return 1;
  }
  const auto members = g.ases_in_region(best_region);
  std::printf("\nregion '%.*s': %zu ASes (paper's NZ region: 187)\n",
              static_cast<int>(g.region_name(best_region).size()),
              g.region_name(best_region).data(), members.size());
  std::printf("target: AS %u, depth %u stub (AS 55857 profile)\n", g.asn(target),
              scenario.depth()[target]);

  // 3 regional passes (region members each) + 3 external passes (200 each);
  // the greedy-filter search in experiment 2 adds untracked extra attacks.
  BGPSIM_PROGRESS(3ull * members.size() + 3ull * 200);
  RegionalAnalyzer analyzer(g, scenario.sim_config());
  const auto base_regional = analyzer.attacks_from_region(target);
  Rng ext_rng(derive_seed(env.seed, 71));
  const auto base_external = analyzer.attacks_from_outside(target, 200, ext_rng);

  const auto pct = [](const RegionalImpact& impact) {
    return 100.0 * impact.mean_fraction();
  };

  // Experiment 1: re-home up two levels (AS ids are unchanged).
  const Scenario rehomed = Scenario::from_graph(
      rehome_up(g, g.asn(target), scenario.depth(), 2), scenario.params());
  RegionalAnalyzer rehomed_analyzer(rehomed.graph(), rehomed.sim_config());
  const auto rehomed_regional = rehomed_analyzer.attacks_from_region(target);
  Rng ext_rng2(derive_seed(env.seed, 71));  // same external sample
  const auto rehomed_external =
      rehomed_analyzer.attacks_from_outside(target, 200, ext_rng2);

  // Experiment 2 (independent of exp 1): one strategic filter on the
  // original graph — greedily chosen among the region's transits.
  SelfInterestAdvisor advisor(scenario);
  std::vector<AsId> attackers = members;
  attackers.erase(std::remove(attackers.begin(), attackers.end(), target),
                  attackers.end());
  std::vector<AsId> candidates;
  for (const AsId t : scenario.transit()) {
    if (g.region(t) == best_region) candidates.push_back(t);
  }
  const auto train = std::span<const AsId>(attackers).first(
      std::min<std::size_t>(attackers.size(), 80));
  const auto filter_choice =
      advisor.greedy_filters(target, train, candidates, 1).filters;
  const FilterSet single_filter(g.num_ases(), filter_choice);
  const auto filtered_regional = analyzer.attacks_from_region(target, &single_filter);
  Rng ext_rng3(derive_seed(env.seed, 71));
  const auto filtered_external =
      analyzer.attacks_from_outside(target, 200, ext_rng3, &single_filter);

  std::printf("\nmean compromised regional ASes per attack (%% of region):\n");
  std::printf("  %-34s %10s %10s\n", "scenario", "regional", "external");
  std::printf("  %-34s %6.1f (%4.1f%%) %5.1f (%4.1f%%)\n", "baseline",
              base_regional.compromised.mean(), pct(base_regional),
              base_external.compromised.mean(), pct(base_external));
  std::printf("  %-34s %6.1f (%4.1f%%) %5.1f (%4.1f%%)\n", "re-homed up 2 levels",
              rehomed_regional.compromised.mean(), pct(rehomed_regional),
              rehomed_external.compromised.mean(), pct(rehomed_external));
  std::printf("  %-34s %6.1f (%4.1f%%) %5.1f (%4.1f%%)\n",
              "single strategic filter",
              filtered_regional.compromised.mean(), pct(filtered_regional),
              filtered_external.compromised.mean(), pct(filtered_external));
  if (!filter_choice.empty()) {
    std::printf("  (filter placed at AS %u — the VOCUS analog)\n",
                g.asn(filter_choice.front()));
  }

  std::printf("\npaper-vs-measured:\n");
  print_paper_row("baseline regional compromise", "113 of 187 (60%)",
                  fmt_count_pct(base_regional.compromised.mean(), base_regional.mean_fraction()));
  print_paper_row("re-homing: regional", "46 (25%)",
                  fmt_count_pct(rehomed_regional.compromised.mean(), rehomed_regional.mean_fraction()));
  print_paper_row("re-homing: external", "28 (15%) -> 12 (6%)",
                  fmt(base_external.compromised.mean()) + " -> " + fmt(rehomed_external.compromised.mean()));
  print_paper_row("single filter: regional", "74 (40%)",
                  fmt_count_pct(filtered_regional.compromised.mean(), filtered_regional.mean_fraction()));
  print_paper_row("re-homing beats the single filter", "46 < 74",
                  rehomed_regional.compromised.mean() <
                          filtered_regional.compromised.mean() + 1e-9
                      ? "yes"
                      : "NO");
  return 0;
}
