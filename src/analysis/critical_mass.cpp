#include "analysis/critical_mass.hpp"

#include "analysis/vulnerability.hpp"
#include "defense/deployment.hpp"
#include "obs/obs.hpp"
#include "support/assert.hpp"

namespace bgpsim {

namespace {

double mean_pollution(VulnerabilityAnalyzer& analyzer,
                      std::span<const AsId> victims,
                      std::span<const AsId> attackers, const FilterSet* filters) {
  RunningStats stats;
  for (const AsId victim : victims) {
    const auto curve = analyzer.sweep(victim, attackers, filters);
    stats.merge(curve.stats);
  }
  return stats.mean();
}

}  // namespace

CriticalMassResult find_critical_mass(const AsGraph& graph, const SimConfig& config,
                                      std::span<const AsId> victims,
                                      std::span<const AsId> attackers,
                                      double reduction_target, unsigned threads) {
  BGPSIM_REQUIRE(!victims.empty(), "need at least one victim");
  BGPSIM_REQUIRE(!attackers.empty(), "need at least one attacker");
  BGPSIM_REQUIRE(reduction_target > 0.0 && reduction_target < 1.0,
                 "reduction_target must be in (0,1)");
  // Binary search: the attack count is unknown upfront, so no
  // BGPSIM_PROGRESS total here — heartbeats still show done/rate/phase.
  BGPSIM_PROGRESS_PHASE("critical_mass.search");

  VulnerabilityAnalyzer analyzer(graph, config, threads);
  CriticalMassResult result;
  result.reduction_target = reduction_target;
  result.baseline_mean = mean_pollution(analyzer, victims, attackers, nullptr);
  const double required = (1.0 - reduction_target) * result.baseline_mean;

  const auto evaluate = [&](std::uint32_t k) {
    const auto plan = top_k_deployment(graph, k);
    const FilterSet filters = to_filter_set(graph, plan);
    return mean_pollution(analyzer, victims, attackers, &filters);
  };

  // Pollution is monotone non-increasing in k (validators only remove bogus
  // routes), so the feasible region {k : defended(k) <= required} is an
  // upward-closed interval — binary search its boundary.
  std::uint32_t lo = 0, hi = graph.num_ases();
  // defended_mean is always the mean measured at hi: full deployment until
  // the search moves hi, then the evaluation that moved it.
  result.defended_mean = evaluate(hi);
  result.achievable = result.defended_mean <= required;
  if (!result.achievable) lo = hi;  // even full deployment misses the target
  while (lo < hi) {
    const std::uint32_t mid = lo + (hi - lo) / 2;
    const double defended = evaluate(mid);
    if (defended <= required) {
      hi = mid;
      result.defended_mean = defended;
    } else {
      lo = mid + 1;
    }
  }
  result.core_size = hi;
  result.core_fraction =
      static_cast<double>(hi) / static_cast<double>(graph.num_ases());
  result.achieved_reduction =
      result.baseline_mean == 0.0
          ? 1.0
          : 1.0 - result.defended_mean / result.baseline_mean;
  return result;
}

}  // namespace bgpsim
