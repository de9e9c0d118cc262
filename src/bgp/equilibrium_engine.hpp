// Fast fixed-point route computation for bulk experiments.
//
// Computes the Gao–Rexford stable routing state for one prefix with up to two
// competing origins (the hijack scenario) in a single O(V + E) pass, using
// the standard three-stage structure from the partial-deployment literature
// (Goldberg et al., SIGCOMM'10):
//
//   stage 1  customer routes  — multi-source level-synchronous BFS climbing
//                               provider links from the origins;
//   stage 2  peer routes      — one-hop extension of neighbors' customer/self
//                               routes across peer links;
//   stage 3  provider routes  — bucket BFS descending customer links from
//                               every routed AS, in ascending path length.
//
// Tie-breaking matches GenerationEngine's first-mover semantics: the
// legitimate origin is announced before the attack, so at equal (LOCAL_PREF,
// length) the legitimate route wins; remaining ties go to the lowest
// neighbor id. The paper's tier-1 shortest-path rule is applied at selection
// time; because tier-1 peer exports depend on each other's selections, stage
// 2 runs a small fixed-point iteration over the tier-1 clique.
#pragma once

#include <cstdint>
#include <vector>

#include "bgp/policy.hpp"
#include "bgp/types.hpp"
#include "topology/as_graph.hpp"

namespace bgpsim {

class EquilibriumEngine {
 public:
  /// The graph must be sibling-free (see contract_siblings).
  EquilibriumEngine(const AsGraph& graph, PolicyConfig config);

  /// Routing state when only the legitimate origin announces.
  /// Not thread-safe: the engine reuses internal scratch buffers.
  void compute(AsId legit_origin, const ValidatorSet* validators, RouteTable& out);

  /// Single-origin propagation with an explicit tag and seed path length.
  /// Tag Attacker + no competitor models a *sub-prefix* hijack: the bogus
  /// more-specific never competes with the covering legitimate route, so
  /// every AS that hears it (and does not validate) installs it.
  /// `seed_len` > 1 models a forged-origin announcement ([attacker, victim]).
  void compute_single(AsId origin, Origin tag, std::uint16_t seed_len,
                      const ValidatorSet* validators, RouteTable& out);

  /// Joint hijack state: `legit` announced first, `attacker` second.
  /// `attacker_seed_len` = 2 models a forged-origin exact-prefix hijack.
  void compute_hijack(AsId legit_origin, AsId attacker,
                      const ValidatorSet* validators, RouteTable& out,
                      std::uint16_t attacker_seed_len = 1);

  const AsGraph& graph() const { return graph_; }

  /// Record infection edges (see obs/provenance.hpp) during subsequent
  /// compute calls; nullptr stops recording. The equilibrium engine writes
  /// each AS's route exactly once, so every recorded adopt is final; the
  /// edge `generation` field carries the adopted route's path-length level.
  void set_provenance(obs::ProvenanceRecorder* recorder) { prov_ = recorder; }

 private:
  struct Claim {
    Origin origin = Origin::None;
    std::uint16_t len = 0;
    AsId via = kInvalidAs;
  };

  void run(AsId primary, Origin primary_tag, std::uint16_t primary_len,
           AsId secondary, std::uint16_t secondary_len,
           const ValidatorSet* validators, RouteTable& out);
  void stage1_customer_routes(AsId primary, Origin primary_tag,
                              std::uint16_t primary_len, AsId secondary,
                              std::uint16_t secondary_len,
                              const ValidatorSet* validators);
  void stage2_peer_routes(const ValidatorSet* validators);
  /// True when a validator at `to` drops the bogus route `from` offers at
  /// length `len`; counts the drop and records its Blocked edge (generation
  /// = the path-length level).
  bool validator_drops(const ValidatorSet* validators, AsId to, AsId from,
                       std::uint16_t len);
  void stage3_select_and_descend(AsId primary, Origin primary_tag,
                                 std::uint16_t primary_len, AsId secondary,
                                 std::uint16_t secondary_len,
                                 const ValidatorSet* validators, RouteTable& out);

  const AsGraph& graph_;
  PolicyConfig config_;

  // Validator rejections during the current run(); flushed to the
  // defense.validator_drops counter when it returns.
  std::uint64_t validator_drop_count_ = 0;

  // Pollution provenance (see set_provenance / obs/provenance.hpp).
  obs::ProvenanceRecorder* prov_ = nullptr;

  // Scratch (sized once, reused per run).
  std::vector<Claim> customer_;
  std::vector<Claim> peer_;
  std::vector<std::uint8_t> exportable_;  // peer-exports its customer route
  std::vector<std::vector<AsId>> level_legit_;  // stage-1 frontiers by len
  std::vector<std::vector<AsId>> level_att_;
  std::vector<std::vector<AsId>> buckets_;      // stage-3 frontiers by len
};

}  // namespace bgpsim
