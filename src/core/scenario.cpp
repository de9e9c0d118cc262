#include "core/scenario.hpp"

#include "topology/caida_parser.hpp"
#include "topology/sibling_contraction.hpp"

namespace bgpsim {

Scenario Scenario::generate(const ScenarioParams& params) {
  return from_graph(generate_internet(params.topology), params);
}

Scenario Scenario::from_graph(AsGraph graph, const ScenarioParams& params) {
  auto contracted = contract_siblings(graph);
  return Scenario(std::move(contracted.graph), params);
}

Scenario Scenario::load_caida(const std::string& path, const ScenarioParams& params) {
  return from_graph(load_caida_file(path), params);
}

Scenario Scenario::from_snapshot(const store::Snapshot& snapshot) {
  ScenarioParams params;
  params.tier2_min_degree_full_scale =
      snapshot.params.tier2_min_degree_full_scale;
  params.tier1_shortest_path = snapshot.params.tier1_shortest_path;
  params.stub_first_hop_filter = snapshot.params.stub_first_hop_filter;
  params.topology.seed = snapshot.params.seed;
  params.topology.total_ases = snapshot.params.scale;
  // The saved graph is already sibling-contracted — construct directly
  // instead of via from_graph, so the reloaded graph stays field-identical
  // (re-saving reproduces the snapshot's topology bytes).
  return Scenario(AsGraph(snapshot.graph), params);
}

store::SnapshotParams Scenario::snapshot_params() const {
  store::SnapshotParams snapshot;
  snapshot.tier2_min_degree_full_scale = params_.tier2_min_degree_full_scale;
  snapshot.tier1_shortest_path = params_.tier1_shortest_path;
  snapshot.stub_first_hop_filter = params_.stub_first_hop_filter;
  snapshot.seed = params_.topology.seed;
  snapshot.scale = params_.topology.total_ases;
  return snapshot;
}

Scenario::Scenario(AsGraph graph, const ScenarioParams& params)
    : params_(params), graph_(std::move(graph)) {
  const std::uint32_t tier2_min_degree = scale_degree_threshold(
      graph_.num_ases(), params.tier2_min_degree_full_scale);
  tiers_ = classify_tiers(graph_, tier2_min_degree);
  depth_ = compute_depth(graph_, tiers_, /*include_tier2=*/true);
  transit_ = transit_ases(graph_);

  sim_config_.policy.tier1_shortest_path = params.tier1_shortest_path;
  sim_config_.policy.stub_first_hop_filter = params.stub_first_hop_filter;
  sim_config_.policy.is_tier1.assign(tiers_.is_tier1.begin(), tiers_.is_tier1.end());
}

HijackSimulator Scenario::make_simulator() const {
  return HijackSimulator(graph_, sim_config_);
}

std::uint32_t Scenario::scaled_degree(std::uint32_t full_scale_value) const {
  return scale_degree_threshold(graph_.num_ases(), full_scale_value);
}

std::uint32_t Scenario::scaled_count(std::uint32_t full_scale_count) const {
  return scale_count(graph_.num_ases(), full_scale_count);
}

}  // namespace bgpsim
