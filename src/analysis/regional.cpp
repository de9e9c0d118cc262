#include "analysis/regional.hpp"

#include <algorithm>
#include <set>

#include "obs/obs.hpp"
#include "support/assert.hpp"
#include "topology/graph_builder.hpp"
#include "topology/metrics.hpp"

namespace bgpsim {

RegionalAnalyzer::RegionalAnalyzer(const AsGraph& graph, SimConfig config)
    : graph_(graph), simulator_(graph, std::move(config)) {}

RegionalImpact RegionalAnalyzer::attacks_from(AsId target,
                                              std::span<const AsId> attackers,
                                              const FilterSet* filters) {
  BGPSIM_REQUIRE(target < graph_.num_ases(), "target out of range");
  BGPSIM_PROGRESS_PHASE("regional.impact");
  const std::uint16_t region = graph_.region(target);
  RegionalImpact impact;
  impact.region = region;
  for (AsId v = 0; v < graph_.num_ases(); ++v) {
    if (graph_.region(v) == region && v != target) ++impact.region_size;
  }

  simulator_.set_validators(
      filters != nullptr ? std::optional<ValidatorSet>(filters->bitset())
                         : std::nullopt);

  for (const AsId attacker : attackers) {
    if (attacker == target) continue;
    simulator_.attack(target, attacker);
    const RouteTable& routes = simulator_.routes();
    std::uint32_t compromised = 0;
    for (AsId v = 0; v < graph_.num_ases(); ++v) {
      if (graph_.region(v) != region || v == target || v == attacker) continue;
      if (routes.routes[v].origin == Origin::Attacker) ++compromised;
    }
    impact.compromised.add(compromised);
    ++impact.attacks;
  }
  return impact;
}

RegionalImpact RegionalAnalyzer::attacks_from_region(AsId target,
                                                     const FilterSet* filters) {
  BGPSIM_REQUIRE(target < graph_.num_ases(), "target out of range");
  const auto attackers = graph_.ases_in_region(graph_.region(target));
  return attacks_from(target, attackers, filters);
}

RegionalImpact RegionalAnalyzer::attacks_from_outside(AsId target,
                                                      std::uint32_t count, Rng& rng,
                                                      const FilterSet* filters) {
  BGPSIM_REQUIRE(target < graph_.num_ases(), "target out of range");
  const std::uint16_t region = graph_.region(target);
  std::vector<AsId> outside;
  outside.reserve(graph_.num_ases());
  for (AsId v = 0; v < graph_.num_ases(); ++v) {
    if (graph_.region(v) != region) outside.push_back(v);
  }
  BGPSIM_REQUIRE(!outside.empty(), "no ASes outside the target's region");
  const auto attackers = rng.sample_without_replacement(
      outside, std::min<std::size_t>(count, outside.size()));
  return attacks_from(target, attackers, filters);
}

AsGraph rehome_up(const AsGraph& graph, Asn asn,
                  const std::vector<std::uint16_t>& depth, int levels,
                  std::size_t max_providers) {
  BGPSIM_REQUIRE(levels >= 1, "rehome_up needs levels >= 1");
  BGPSIM_REQUIRE(max_providers >= 1, "rehome_up needs max_providers >= 1");
  const AsId v = graph.require(asn);

  std::uint16_t provider_depth = kUnreachableDepth;
  bool has_provider = false;
  for (const auto& nbr : graph.neighbors(v)) {
    if (nbr.rel == Rel::Provider) {
      has_provider = true;
      provider_depth = std::min(provider_depth, depth[nbr.id]);
    }
  }
  BGPSIM_REQUIRE(has_provider, "rehome_up: AS has no providers");

  // "Re-home up N levels" = connect to transit providers N tiers higher in
  // the hierarchy. Among those, prefer the target's own region (the paper
  // re-homes within the national hierarchy; leaving it would lengthen
  // intra-region paths and make regional attacks *more* effective), then
  // the best-connected provider ("increase non-overlapping reach").
  const std::uint16_t desired_depth =
      provider_depth > levels ? static_cast<std::uint16_t>(provider_depth - levels)
                              : 0;
  const auto transit = transit_flags(graph);
  std::vector<AsId> candidates;
  for (AsId c = 0; c < graph.num_ases(); ++c) {
    if (c == v || !transit[c]) continue;
    if (depth[c] > desired_depth) continue;
    candidates.push_back(c);
  }
  BGPSIM_REQUIRE(!candidates.empty(), "rehome_up: no candidate providers");
  const std::uint16_t home_region = graph.region(v);
  std::sort(candidates.begin(), candidates.end(),
            [&depth, &graph, home_region](AsId a, AsId b) {
              const bool a_home = graph.region(a) == home_region;
              const bool b_home = graph.region(b) == home_region;
              if (a_home != b_home) return a_home;
              if (graph.degree(a) != graph.degree(b)) {
                return graph.degree(a) > graph.degree(b);
              }
              if (depth[a] != depth[b]) return depth[a] < depth[b];
              return a < b;
            });
  if (candidates.size() > max_providers) candidates.resize(max_providers);

  GraphBuilder builder = GraphBuilder::from(graph);
  for (const auto& nbr : graph.neighbors(v)) {
    if (nbr.rel == Rel::Provider) {
      builder.remove_link(graph.asn(v), graph.asn(nbr.id));
    }
  }
  for (const AsId p : candidates) {
    if (!builder.has_link(graph.asn(p), asn)) {
      builder.add_provider_customer(graph.asn(p), asn);
    }
  }
  return builder.build();
}

}  // namespace bgpsim
