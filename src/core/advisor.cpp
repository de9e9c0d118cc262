#include "core/advisor.hpp"

#include <algorithm>

#include "support/assert.hpp"

namespace bgpsim {

SelfInterestAdvisor::SelfInterestAdvisor(const Scenario& scenario)
    : scenario_(scenario) {}

FilterPlacement SelfInterestAdvisor::greedy_filters(
    AsId target, std::span<const AsId> attackers, std::span<const AsId> candidates,
    std::size_t k) {
  RegionalAnalyzer analyzer(scenario_.graph(), scenario_.sim_config());
  FilterSet chosen(scenario_.graph().num_ases());
  FilterPlacement placement;
  placement.mean_compromised =
      analyzer.attacks_from(target, attackers).compromised.mean();
  std::vector<AsId> pool(candidates.begin(), candidates.end());
  for (std::size_t round = 0; round < k && !pool.empty(); ++round) {
    double best_damage = placement.mean_compromised;
    std::size_t best_idx = pool.size();
    for (std::size_t i = 0; i < pool.size(); ++i) {
      FilterSet trial = chosen;
      trial.add(pool[i]);
      const double damage =
          analyzer.attacks_from(target, attackers, &trial).compromised.mean();
      if (damage < best_damage) {
        best_damage = damage;
        best_idx = i;
      }
    }
    if (best_idx == pool.size()) break;  // no gain
    chosen.add(pool[best_idx]);
    placement.filters.push_back(pool[best_idx]);
    pool.erase(pool.begin() + static_cast<std::ptrdiff_t>(best_idx));
    placement.mean_compromised = best_damage;
  }
  return placement;
}

ProbePlacement SelfInterestAdvisor::greedy_probes(AsId target,
                                                  std::span<const AsId> attackers,
                                                  const FilterSet* filters,
                                                  std::size_t k) {
  HijackSimulator sim = scenario_.make_simulator();
  sim.set_validators(filters != nullptr
                         ? std::optional<ValidatorSet>(filters->bitset())
                         : std::nullopt);

  // Detection matrix: per candidate probe, a bitmask over sampled attacks.
  const std::vector<AsId>& candidates = scenario_.transit();
  const std::size_t words = (attackers.size() + 63) / 64;
  std::vector<std::vector<std::uint64_t>> covers(
      candidates.size(), std::vector<std::uint64_t>(words, 0));
  std::uint32_t harmful = 0;
  for (std::size_t a = 0; a < attackers.size(); ++a) {
    if (attackers[a] == target) continue;
    sim.attack(target, attackers[a]);
    const RouteTable& routes = sim.routes();
    bool polluted_any = false;
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      if (routes.routes[candidates[i]].origin == Origin::Attacker) {
        covers[i][a / 64] |= 1ULL << (a % 64);
        polluted_any = true;
      }
    }
    harmful += polluted_any;
  }

  // Greedy max-coverage.
  std::vector<std::uint64_t> covered(words, 0);
  ProbePlacement placement;
  for (std::size_t round = 0; round < k; ++round) {
    std::size_t best_gain = 0;
    std::size_t best_idx = candidates.size();
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      std::size_t gain = 0;
      for (std::size_t w = 0; w < words; ++w) {
        gain += static_cast<std::size_t>(
            __builtin_popcountll(covers[i][w] & ~covered[w]));
      }
      if (gain > best_gain) {
        best_gain = gain;
        best_idx = i;
      }
    }
    if (best_idx == candidates.size()) break;
    for (std::size_t w = 0; w < words; ++w) covered[w] |= covers[best_idx][w];
    placement.probes.push_back(candidates[best_idx]);
  }

  std::uint32_t detected = 0;
  for (const std::uint64_t word : covered) {
    detected += static_cast<std::uint32_t>(__builtin_popcountll(word));
  }
  placement.miss_rate =
      harmful == 0 ? 0.0 : static_cast<double>(harmful - detected) / harmful;
  return placement;
}

AdvisorReport SelfInterestAdvisor::advise(AsId target, const AdvisorBudget& budget,
                                          Rng& rng) {
  const AsGraph& graph = scenario_.graph();
  BGPSIM_REQUIRE(target < graph.num_ases(), "target out of range");

  AdvisorReport report;
  report.target = target;
  report.target_asn = graph.asn(target);
  report.region = graph.region(target);
  report.depth_before = scenario_.depth()[target];

  // Attacker sample: the target's whole region (capped), the §VII workload.
  std::vector<AsId> attackers = graph.ases_in_region(report.region);
  attackers.erase(std::remove(attackers.begin(), attackers.end(), target),
                  attackers.end());
  report.region_size = static_cast<std::uint32_t>(attackers.size());
  if (attackers.size() > budget.attack_sample) {
    attackers = rng.sample_without_replacement(attackers, budget.attack_sample);
  }
  const auto add_step = [&report](std::string action, double damage) {
    report.steps.push_back(
        {std::move(action), damage,
         report.region_size ? damage / report.region_size : 0.0});
  };

  // Step 0: baseline.
  add_step("baseline (no action)",
           RegionalAnalyzer(graph, scenario_.sim_config())
               .attacks_from(target, attackers)
               .compromised.mean());

  // Step 1: re-home upward to reduce depth. rehome_up keeps every AS id and
  // from_graph copies the sibling-free result unchanged, so `target` and
  // `attackers` address the same ASes in the re-homed scenario.
  const Scenario rehomed = Scenario::from_graph(
      budget.rehome_levels > 0 && report.depth_before > 1
          ? rehome_up(graph, report.target_asn, scenario_.depth(),
                      budget.rehome_levels)
          : graph,
      scenario_.params());
  const AsGraph& rehomed_graph = rehomed.graph();
  BGPSIM_ASSERT(rehomed_graph.asn(target) == report.target_asn,
                "re-homing renumbered the target");
  report.depth_after = rehomed.depth()[target];
  add_step("re-home " + std::to_string(budget.rehome_levels) + " levels up (depth " +
               std::to_string(report.depth_before) + " -> " +
               std::to_string(report.depth_after) + ")",
           RegionalAnalyzer(rehomed_graph, rehomed.sim_config())
               .attacks_from(target, attackers)
               .compromised.mean());

  // Steps 2-4: publish origins + greedy strategic filters among the region's
  // transits and the target's new providers.
  std::vector<AsId> candidates;
  for (const AsId t : rehomed.transit()) {
    if (rehomed_graph.region(t) == report.region) candidates.push_back(t);
  }
  for (const auto& nbr : rehomed_graph.neighbors(target)) {
    if (nbr.rel == Rel::Provider) candidates.push_back(nbr.id);
  }
  std::sort(candidates.begin(), candidates.end());
  candidates.erase(std::unique(candidates.begin(), candidates.end()),
                   candidates.end());
  SelfInterestAdvisor rehomed_advisor(rehomed);
  const FilterPlacement filters = rehomed_advisor.greedy_filters(
      target, attackers, candidates, budget.max_filters);
  for (const AsId f : filters.filters) {
    report.recommended_filters.push_back(rehomed_graph.asn(f));
  }
  add_step("publish origins + filter at " + std::to_string(filters.filters.size()) +
               " strategic ASes",
           filters.mean_compromised);

  // Step 5: detection with greedy probe placement behind those filters,
  // accounting blind spots.
  const FilterSet deployed(rehomed_graph.num_ases(), filters.filters);
  const ProbePlacement probes = rehomed_advisor.greedy_probes(
      target, attackers, &deployed, budget.max_probes);
  for (const AsId p : probes.probes) {
    report.recommended_probes.push_back(rehomed_graph.asn(p));
  }
  report.detection_miss_rate = probes.miss_rate;
  return report;
}

}  // namespace bgpsim
