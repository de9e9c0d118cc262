// Faithful reconstruction of the paper's simulator (§III): synchronous
// generation-stepped BGP message propagation with per-neighbor Adj-RIB-In,
// LOCAL_PREF policy, valley-free export, and convergence detection.
//
// "BGP Announcements are propagated to neighboring ASes in step-wise fashion.
//  ... Generation after generation of message propagation continues until
//  convergence is reached. Convergence is generally reached within 5 to 10
//  generations."
//
// This engine is the synchronous scheduler over the shared propagation core
// (bgp/adj_rib.hpp, which keeps interned AS paths for loop rejection and
// visualization); it adds per-generation traces for the paper's polar-graph
// figures. For bulk parameter sweeps use EquilibriumEngine, which computes
// the same stable state in one O(V+E) pass; their agreement is validated in
// tests.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "bgp/adj_rib.hpp"
#include "bgp/policy.hpp"
#include "bgp/types.hpp"
#include "topology/as_graph.hpp"

namespace bgpsim {

namespace obs {
class ProvenanceRecorder;  // obs/provenance.hpp
}  // namespace obs

struct DecisionHistory;  // bgp/introspect.hpp

/// One observed message delivery, for visualization and detection replay.
struct TraceEdge {
  AsId from = kInvalidAs;
  AsId to = kInvalidAs;
  bool accepted = false;  ///< did the receiver change its selection?
  /// Origin of the receiver's selected route right after this delivery
  /// (None when it ended up routeless) — lets detection replay find the
  /// generation a probe first adopted the attacker's route.
  Origin new_origin = Origin::None;
};

/// Per-generation record of a propagation (drives the paper's figure 1).
struct GenerationFrame {
  std::uint32_t generation = 0;
  std::uint32_t messages_sent = 0;
  std::uint32_t messages_accepted = 0;
  std::uint32_t polluted_so_far = 0;  ///< ASes currently selecting the attacker
  std::vector<TraceEdge> edges;
};

struct PropagationTrace {
  std::vector<GenerationFrame> frames;
};

/// Outcome of one announce() call.
struct ConvergeStats {
  std::uint32_t generations = 0;
  std::uint64_t messages_sent = 0;
  std::uint64_t messages_accepted = 0;
  std::uint64_t withdrawals = 0;  ///< explicit WITHDRAWs among messages_sent
  bool converged = false;  ///< false only if the generation cap was hit
};

class GenerationEngine {
 public:
  /// The graph must be sibling-free (see contract_siblings).
  GenerationEngine(const AsGraph& graph, PolicyConfig config);

  /// Forget all routing state (start a new prefix).
  void reset();

  /// Start a new prefix from the state a converged legitimate-only
  /// announce() leaves behind, without propagating it (AdjRib::load_converged:
  /// `table` is EquilibriumEngine::compute's, `vias` are the ASes where this
  /// engine's arrival order picked another equal-rank neighbor). A following
  /// announce() runs exactly as after reset() + the legitimate announce().
  void load_converged(const RouteTable& table, std::span<const ViaPatch> vias);

  /// Originate the prefix at `origin` tagged with `tag` and propagate to
  /// quiescence. May be called again with a second origin (the hijack case:
  /// Legit first, then Attacker) — existing state persists and competes.
  ///
  /// `validators`, when given, marks ASes that drop Attacker-tagged routes.
  /// `trace`, when given, records per-generation frames.
  /// `forged_tail`, when valid, prepends the origin to a spoofed AS path
  /// ending in that AS ([origin, forged_tail]) — the forged-origin attack
  /// that evades origin validation; the spoofed AS itself still rejects the
  /// announcement by loop detection.
  ConvergeStats announce(AsId origin, Origin tag,
                         const ValidatorSet* validators = nullptr,
                         PropagationTrace* trace = nullptr,
                         AsId forged_tail = kInvalidAs);

  const AsGraph& graph() const { return rib_.graph(); }

  /// Selected route of each AS (valid after announce()).
  const Route& route(AsId v) const { return rib_.route(v); }

  /// Copy the selected-route table (origin/class/len/via per AS).
  void export_routes(RouteTable& out) const { rib_.export_routes(out); }

  /// True when at least one Attacker-tagged announcement was *delivered* to
  /// this AS (even if rejected by validation, loop check, or preference).
  /// Distinguishes the paper's "received and propagated onwards" detection
  /// semantics (route(v).origin == Attacker) from plain "received".
  bool offered_bogus(AsId v) const { return rib_.offered_bogus(v); }

  /// Full AS path of v's selected route: [v, next hop, ..., origin].
  /// Empty when v has no route; [v] when v originates the prefix.
  std::vector<AsId> path_of(AsId v) const { return rib_.path_of(v); }

  std::uint32_t count_origin(Origin origin) const {
    return rib_.count_origin(origin);
  }

  /// Record `watched`'s per-generation decision snapshots (Adj-RIB-In
  /// candidates, rank, why displaced) into `history` during subsequent
  /// announce() calls; nullptr stops watching. Costs O(degree(watched)) per
  /// generation while watching; collection compiles out (and this becomes a
  /// no-op) under -DBGPSIM_OBS=OFF.
  void set_decision_watch(AsId watched, DecisionHistory* history);

  /// Record infection edges (adopt/cure/blocked; see obs/provenance.hpp)
  /// into `recorder` during subsequent announce() calls; nullptr stops
  /// recording. Recording never changes routing decisions — traced and
  /// untraced runs converge bit-identically.
  void set_provenance(obs::ProvenanceRecorder* recorder) {
    rib_.set_provenance(recorder);
  }

 private:
  void snapshot_watch(std::uint32_t generation);

  AdjRib rib_;

  // Scratch for the propagation loop.
  std::vector<std::uint8_t> changed_flag_;
  std::vector<AsId> frontier_;
  std::vector<AsId> next_frontier_;

  // Decision introspection (see set_decision_watch / bgp/introspect.hpp).
  DecisionHistory* watch_history_ = nullptr;
  AsId watch_as_ = kInvalidAs;
  std::uint32_t watch_round_ = 0;  ///< announce() calls since watching began
};

}  // namespace bgpsim
