// Per-target converged baselines: the data that makes hijack queries cheap.
//
// A baseline is the legitimate-only equilibrium route table of one target —
// 8 bytes per AS. It is deliberately *validator-independent*: origin
// validation only ever drops attacker-origin routes, so the no-attacker
// state is the same under every deployment set, and one stored table serves
// every (attacker, deployment) what-if against that target (see
// bgp/warm_repair.hpp for the repair step).
//
// A target may also carry a generation seed: what the generation engine's
// own legitimate-only run differs in from the baseline. With it, a
// generation-engine replay (detection latency, traces) loads the victim's
// converged state instead of propagating it again.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "bgp/policy.hpp"
#include "bgp/types.hpp"
#include "topology/as_graph.hpp"

namespace bgpsim::store {

/// What GenerationEngine's legitimate-only announce() of one target leaves
/// behind beyond the target's baseline. Its origin, class and length equal
/// the baseline's at every AS (the stable state is unique); only `via`
/// differs, where an equal-rank route arrived first from another neighbor
/// than the lowest-id one EquilibriumEngine keeps (a few tenths of a percent
/// of routed ASes). GenerationEngine::load_converged rebuilds that state from
/// the baseline and `vias`.
struct GenerationSeed {
  std::uint32_t generations = 0;  ///< generations the announce() ran
  std::vector<ViaPatch> vias;     ///< the differing vias, ASes ascending
};

class BaselineStore {
 public:
  BaselineStore() = default;

  /// Converge the legitimate-only state for each target (duplicates are
  /// computed once) on every hardware thread. Every table is produced by
  /// EquilibriumEngine::compute with no validators — the canonical baseline
  /// warm_hijack_repair expects — so the store does not depend on the
  /// thread count. Computes no generation seeds.
  static BaselineStore compute(const AsGraph& graph, const PolicyConfig& policy,
                               std::span<const AsId> targets);

  /// Fill the generation seed of every stored target: one legitimate-only
  /// GenerationEngine::announce() per target on every hardware thread,
  /// diffed against the stored table. Throws InvariantError if a run
  /// disagrees with its table in anything but `via`.
  void compute_seeds(const AsGraph& graph, const PolicyConfig& policy);

  /// Check one seed against a fresh legitimate-only GenerationEngine run:
  /// the seed with the most via patches (the most ties, so the likeliest to
  /// show a changed arrival order; the lowest target among equals). A seed
  /// records the order in which the build that computed it received
  /// equal-rank routes, which is not part of the policy, so a store read
  /// from another build's snapshot may carry seeds this build's engine does
  /// not reproduce. When the checked seed differs, every seed is dropped and
  /// replays announce instead. Returns the number of seeds dropped.
  std::size_t verify_seeds(const AsGraph& graph, const PolicyConfig& policy);

  /// Stored table for `target`, or nullptr when absent.
  const RouteTable* find(AsId target) const;

  bool contains(AsId target) const { return find(target) != nullptr; }

  /// Insert or replace one baseline (a replaced baseline loses its seed).
  /// The table size must match across all entries (enforced lazily by
  /// serialization and attach_baseline).
  void put(AsId target, RouteTable table);

  /// Generation seed of `target`, or nullptr when it has none.
  const GenerationSeed* find_seed(AsId target) const;

  /// Insert or replace the seed of a stored target.
  void put_seed(AsId target, GenerationSeed seed);

  /// Targets with stored baselines, ascending (serialization order).
  std::vector<AsId> targets() const;

  std::size_t size() const { return tables_.size(); }
  bool empty() const { return tables_.empty(); }
  /// Targets carrying a generation seed.
  std::size_t seed_count() const { return seeds_.size(); }

  /// Heap footprint of the stored tables and seeds (mem.* gauge material).
  std::uint64_t memory_bytes() const;

 private:
  // Dense-id keyed; kept sorted by target so iteration and serialization
  // are deterministic. Every seed's target has a table.
  std::vector<std::pair<AsId, RouteTable>> tables_;
  std::vector<std::pair<AsId, GenerationSeed>> seeds_;
};

}  // namespace bgpsim::store
