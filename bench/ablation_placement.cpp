// Ablation bench: is the paper's degree heuristic the right way to spend a
// deployment budget? Compare, at identical budgets:
//   * filters:  top-degree core  vs  the advisor's greedy placement
//               (victim-specific, regional damage objective),
//   * probes:   top-degree core  vs  greedy max-coverage placement.
//
// Measured outcome: greedy probe placement dominates (one well-placed probe
// sees almost every attack on the victim), while for blocking the degree
// heuristic is already near-optimal even per-victim — see the closing note.
#include <algorithm>
#include <cstdio>

#include "analysis/vulnerability.hpp"
#include "bench_common.hpp"
#include "core/advisor.hpp"
#include "defense/deployment.hpp"
#include "detect/detector.hpp"

using namespace bgpsim;
using namespace bgpsim::bench;

int main() {
  BenchEnv env = make_env(
      "ablation_placement",
      "Ablation — degree heuristic vs greedy victim-specific placement");
  const Scenario& scenario = env.scenario;
  const AsGraph& g = scenario.graph();
  Rng rng(derive_seed(env.seed, 95));

  TargetQuery query;
  query.depth = 4;
  const AsId target = representative_target(scenario, query, rng);
  std::printf("\nvictim: AS %u (depth %u)\n", g.asn(target),
              scenario.depth()[target]);

  // Attacker sample for evaluation (disjoint from the greedy training set to
  // avoid overfitting the comparison).
  const auto& transits = scenario.transit();
  auto shuffled = transits;
  rng.shuffle(shuffled);
  const std::size_t half = std::min<std::size_t>(shuffled.size() / 2, 120);
  const std::vector<AsId> train(shuffled.begin(), shuffled.begin() + half);
  const std::vector<AsId> eval(shuffled.begin() + half,
                               shuffled.begin() + 2 * half);

  VulnerabilityAnalyzer analyzer(g, scenario.sim_config());
  SelfInterestAdvisor advisor(scenario);

  // 4 filter budgets x eval sweep; the greedy training attacks on top are
  // untracked (the tracker tolerates done > declared total).
  BGPSIM_PROGRESS(4ull * eval.size());
  BGPSIM_PROGRESS_PHASE("ablation.filter_placement");
  std::printf("\n--- filter placement (mean pollution against the victim) ---\n");
  std::printf("  %8s %16s %16s\n", "budget", "top-degree", "greedy");
  for (const std::size_t budget : {1u, 2u, 4u, 8u}) {
    const auto heuristic = top_k_deployment(g, budget);
    const FilterSet heuristic_filters = to_filter_set(g, heuristic);
    const double heuristic_score =
        analyzer.sweep(target, eval, &heuristic_filters).stats.mean();

    // Greedy candidates: the victim's upstream region + the global core.
    std::vector<AsId> candidates = top_k_by_degree(g, 24);
    for (const AsId t : transits) {
      if (g.region(t) == g.region(target)) candidates.push_back(t);
    }
    std::sort(candidates.begin(), candidates.end());
    candidates.erase(std::unique(candidates.begin(), candidates.end()),
                     candidates.end());
    const FilterSet greedy_filters(
        g.num_ases(),
        advisor.greedy_filters(target, train, candidates, budget).filters);
    const double greedy_score =
        analyzer.sweep(target, eval, &greedy_filters).stats.mean();

    std::printf("  %8zu %16.1f %16.1f%s\n", budget, heuristic_score, greedy_score,
                greedy_score <= heuristic_score ? "  <- greedy wins" : "");
  }

  BGPSIM_PROGRESS(3ull * eval.size());
  BGPSIM_PROGRESS_PHASE("ablation.probe_placement");
  std::printf("\n--- probe placement (attacks on the victim missed) ---\n");
  std::printf("  %8s %16s %16s\n", "budget", "top-degree", "greedy");
  HijackSimulator sim = scenario.make_simulator();
  for (const std::size_t budget : {1u, 2u, 4u}) {
    const ProbeSet greedy_set(
        "greedy", advisor.greedy_probes(target, train, nullptr, budget).probes);
    const ProbeSet heuristic_set = ProbeSet::top_k(g, budget);

    std::uint32_t greedy_missed = 0, heuristic_missed = 0, harmful = 0;
    for (const AsId attacker : eval) {
      if (attacker == target) continue;
      const auto result = sim.attack(target, attacker);
      if (result.polluted_ases == 0) continue;
      ++harmful;
      greedy_missed += !evaluate_detection(sim.routes(), greedy_set).detected();
      heuristic_missed +=
          !evaluate_detection(sim.routes(), heuristic_set).detected();
    }
    std::printf("  %8zu %13u/%u %13u/%u%s\n", budget, heuristic_missed, harmful,
                greedy_missed, harmful,
                greedy_missed <= heuristic_missed ? "  <- greedy wins" : "");
  }

  std::printf(
      "\nreading: for *detection*, victim-specific greedy probe placement is\n"
      "dramatically more efficient than the generic top-degree heuristic —\n"
      "exactly the §VII advice to 'determine new probes that can improve\n"
      "detection accuracy'. For *blocking*, the top-degree heuristic is hard\n"
      "to beat even per-victim: a high-degree validator intercepts bogus\n"
      "routes on many attack paths at once, so greedy's advantage (if any)\n"
      "shows only at budget 1; its training sample also generalizes\n"
      "imperfectly to unseen attackers.\n");
  return 0;
}
