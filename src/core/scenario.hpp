// Scenario: the one-stop entry point of the library.
//
// Bundles a topology (generated, parsed, or injected), its tier
// classification and depth metrics, and the policy configuration, and hands
// out correctly wired simulators and experiment drivers.
//
//   ScenarioParams params;
//   params.topology.total_ases = 8000;
//   params.topology.seed = 42;
//   Scenario scenario = Scenario::generate(params);
//   HijackSimulator sim = scenario.make_simulator();
//   auto result = sim.attack(target, attacker);
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "hijack/hijack_simulator.hpp"
#include "store/snapshot.hpp"
#include "topology/internet_gen.hpp"
#include "topology/metrics.hpp"

namespace bgpsim {

struct ScenarioParams {
  /// Synthetic-topology parameters (ignored by from_graph/load_caida).
  InternetGenParams topology;

  /// Degree bound for tier-2 classification, expressed at the paper's full
  /// scale (42,697 ASes) and scaled to the actual topology size.
  std::uint32_t tier2_min_degree_full_scale = 120;

  bool tier1_shortest_path = true;
  bool stub_first_hop_filter = false;
};

class Scenario {
 public:
  /// Generate a synthetic Internet (deterministic in params.topology.seed).
  static Scenario generate(const ScenarioParams& params);

  /// Wrap an existing graph (sibling links are contracted automatically).
  static Scenario from_graph(AsGraph graph, const ScenarioParams& params);

  /// Load a CAIDA serial-1 relationship file.
  static Scenario load_caida(const std::string& path, const ScenarioParams& params);

  /// Rebuild a scenario from a decoded snapshot. The stored graph was
  /// contracted before it was saved, so no sibling contraction runs; tiers,
  /// depths and the policy configuration are recomputed from the graph and
  /// the snapshot's params (deterministic, so they match the saving run).
  /// The snapshot's baselines are NOT attached here — pass them to
  /// HijackSimulator::attach_baseline (they are shareable across threads).
  static Scenario from_snapshot(const store::Snapshot& snapshot);

  /// The params this scenario was built from. Re-wrapping a transformed
  /// graph with them (`from_graph(rehome_up(...), params())`) classifies
  /// tiers and depth by the same rules.
  const ScenarioParams& params() const { return params_; }

  /// params() in snapshot form (what `bgpsim snapshot save` writes next to
  /// the graph).
  store::SnapshotParams snapshot_params() const;

  const AsGraph& graph() const { return graph_; }
  const TierClassification& tiers() const { return tiers_; }

  /// Depth per AS, to the nearest tier-1 *or tier-2* (§IV's redefinition).
  const std::vector<std::uint16_t>& depth() const { return depth_; }

  const std::vector<AsId>& transit() const { return transit_; }

  const PolicyConfig& policy() const { return sim_config_.policy; }
  const SimConfig& sim_config() const { return sim_config_; }

  HijackSimulator make_simulator() const;

  /// The degree threshold corresponding to a full-scale (42,697-AS) value.
  std::uint32_t scaled_degree(std::uint32_t full_scale_value) const;

  /// The AS count corresponding to a full-scale count (e.g. the "62 core").
  std::uint32_t scaled_count(std::uint32_t full_scale_count) const;

 private:
  Scenario(AsGraph graph, const ScenarioParams& params);

  ScenarioParams params_;
  AsGraph graph_;
  TierClassification tiers_;
  std::vector<std::uint16_t> depth_;
  std::vector<AsId> transit_;
  SimConfig sim_config_;
};

}  // namespace bgpsim
