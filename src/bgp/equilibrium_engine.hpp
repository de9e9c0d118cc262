// Fast fixed-point route computation for bulk experiments.
//
// Computes the Gao–Rexford stable routing state for one prefix with up to two
// competing origins (the hijack scenario) in a single O(V + E) pass, using
// the standard three-stage structure from the partial-deployment literature
// (Goldberg et al., SIGCOMM'10):
//
//   stage 1  customer routes  — spread up provider links from the origins;
//   stage 2  peer routes      — one-hop extension of neighbors' customer/self
//                               routes across peer links, then selection;
//   stage 3  provider routes  — spread down customer links from every
//                               selection.
//
// Stages 1 and 3 are one bucket BFS over the output table (spread): routes
// are taken in the selection order — ascending path length, then Legit
// before Attacker, then lowest id — and the first claim on an AS wins. That
// matches GenerationEngine's first-mover semantics: the legitimate origin is
// announced before the attack, so at equal (LOCAL_PREF, length) the
// legitimate route wins; remaining ties go to the lowest neighbor id. Stage 2
// and the customer-vs-peer selection rank through bgp/policy.hpp
// (selection_key), like every other relaxation.
//
// The paper's tier-1 shortest-path rule lets a tier-1 prefer a shorter peer
// route to its customer route, and a tier-1 that does stops exporting the
// customer route to its peers. A peer offer undercuts a customer route of
// length L only if the peer's own route has length at most L - 2, so one
// pass over the tier-1s in ascending customer-route length (route_rank
// compares) decides each after every peer that matters.
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
  void run(AsId primary, Origin primary_tag, std::uint16_t primary_len,
           AsId secondary, std::uint16_t secondary_len,
           const ValidatorSet* validators, RouteTable& out);
  /// The bucket BFS of stages 1 and 3. buckets_ hold routed ASes by path
  /// length up to `highest`; each level is taken Legit before Attacker, then
  /// lowest id, and its routes go one hop over `toward` links to ASes with
  /// no route yet (toward Provider: learned as Customer; toward Customer:
  /// learned as Provider). `filtered_origin`'s own origination is dropped
  /// (the §IV first-hop filter). Stage 1 (toward Provider) observes
  /// engine.frontier_size per level; stage 3 records Adopt edges as it
  /// claims (stage-1 routes get theirs at selection, in id order).
  void spread(Rel toward, AsId filtered_origin, const ValidatorSet* validators,
              RouteTable& out, std::size_t highest);
  /// True when a validator at `to` drops the bogus route `from` offers at
  /// length `len`; counts the drop and records its Blocked edge (generation
  /// = the path-length level).
  bool validator_drops(const ValidatorSet* validators, AsId to, AsId from,
                       std::uint16_t len);

  const AsGraph& graph_;
  PolicyConfig config_;

  // Validator rejections during the current run(); flushed to the
  // defense.validator_drops counter when it returns.
  std::uint64_t validator_drop_count_ = 0;

  // Pollution provenance (see set_provenance / obs/provenance.hpp).
  obs::ProvenanceRecorder* prov_ = nullptr;

  // Scratch (sized once, reused per run).
  std::vector<Route> peer_;                  // stage-2 peer route per AS
  std::vector<std::vector<AsId>> buckets_;   // spread frontiers by length
};

}  // namespace bgpsim
