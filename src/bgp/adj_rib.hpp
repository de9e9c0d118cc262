// The propagation core shared by the message-passing engines: per-edge
// Adj-RIB-In, route selection, the export decision and pollution provenance.
//
// GenerationEngine (synchronous generations) and EventEngine (per-link
// delays) differ only in *when* a message is delivered. What a delivery does
// is defined once, here:
//   * an UPDATE replaces whatever the sender announced before, and one
//     rejected by origin validation or loop detection withdraws it
//     (RFC 7606 treat-as-withdraw);
//   * selection follows displaces(): rank, then Legit over Attacker, then
//     the incumbent (so `via` ties follow arrival order);
//   * export is valley-free with split horizon, plus the optional stub
//     first-hop filter;
//   * provenance edges obey one material-change rule.
// The rank order, the stub test and the change rule are bgp/policy.hpp's.
// Both engines therefore reach the unique stable state: the same origin,
// route class and path length at every AS.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "bgp/policy.hpp"
#include "bgp/types.hpp"
#include "support/assert.hpp"
#include "topology/as_graph.hpp"

namespace bgpsim {

class AdjRib {
 public:
  /// An interned AS path: node {head AS, tail PathId} in one append-only
  /// arena, read by walking tails to kNoPath. Nodes never change and live
  /// until reset(), so an id keeps naming the same AS sequence for the rest
  /// of the prefix; two ids may still name equal sequences.
  using PathId = std::uint32_t;
  static constexpr PathId kNoPath = 0xffffffffu;

  /// One Adj-RIB-In entry: what a neighbor currently offers (cls None:
  /// nothing).
  struct Entry {
    Origin origin = Origin::None;
    RouteClass cls = RouteClass::None;
    std::uint16_t len = 0;
  };

  /// What an AS owes a neighbor for its current selection.
  enum class Export : std::uint8_t {
    Announce,  ///< the selected route (offered())
    Withdraw,  ///< nothing: no route, valley-free export, or split horizon
    Filtered,  ///< a stub's bogus origination, dropped by its provider on
               ///< arrival (fig. 4's optimistic first-hop defense)
  };

  /// The graph must be sibling-free (see contract_siblings).
  AdjRib(const AsGraph& graph, PolicyConfig config);

  /// Forget all routing state (start a new prefix).
  void reset();

  /// Write the state a converged legitimate-only announcement leaves behind,
  /// in one pass instead of propagating it, overwriting everything reset()
  /// clears: the selected routes of `table` with `vias` (ASes ascending)
  /// replacing its vias, the interned paths along those vias, and every
  /// Adj-RIB-In entry as its sender's last message left it (the export of
  /// the sender's final route, unless split horizon or loop rejection
  /// withdrew it). `table` must be a Legit-only stable state of this policy
  /// (EquilibriumEngine::compute's), each patched via an equal-rank
  /// neighbor route.
  void load_converged(const RouteTable& table, std::span<const ViaPatch> vias);

  const AsGraph& graph() const { return graph_; }
  const PolicyConfig& config() const { return config_; }

  /// Index of v's first directed edge. v's k-th neighbor sends into
  /// Adj-RIB-In entry first_edge(v) + k, and v announces to it over
  /// directed edge first_edge(v) + k.
  std::uint32_t first_edge(AsId v) const { return edge_offset_[v]; }
  std::uint32_t num_edges() const { return edge_offset_.back(); }
  /// Adj-RIB-In index at `to` where announcements over `edge` land (CSR
  /// mirror: O(1) addressing of the receiver's entry).
  std::uint32_t mirror_index(std::uint32_t edge, AsId to) const {
    return edge_offset_[to] + mirror_[edge];
  }

  /// Selected route of v.
  const Route& route(AsId v) const { return best_[v]; }
  /// Interned path of v's selected route: what v announces.
  PathId path_id(AsId v) const { return best_path_[v]; }
  /// Full AS path of v's selected route: [v, next hop, ..., origin].
  std::vector<AsId> path_of(AsId v) const { return materialize(best_path_[v]); }
  /// True once an Attacker-tagged update was delivered to v, even if
  /// validation, loop detection, preference or the stub filter dropped it.
  bool offered_bogus(AsId v) const { return offered_bogus_[v] != 0; }
  std::uint32_t count_origin(Origin origin) const;
  void export_routes(RouteTable& out) const { out.routes = best_; }

  const Entry& entry(std::uint32_t rib_idx) const { return rib_[rib_idx]; }
  /// The AS path entry rib_idx holds (empty when it holds nothing).
  std::vector<AsId> entry_path(std::uint32_t rib_idx) const {
    return holds(rib_idx) ? materialize(rib_path_[rib_idx]) : std::vector<AsId>{};
  }
  bool holds(std::uint32_t rib_idx) const {
    return rib_[rib_idx].cls != RouteClass::None;
  }

  /// Make `origin` originate the prefix. A self route always wins locally
  /// (the attacker overrides any route it holds). `forged_tail`, when valid,
  /// is a spoofed second hop: the path becomes [origin, forged_tail].
  void originate(AsId origin, Origin tag, AsId forged_tail = kInvalidAs);

  /// What v's current selection owes `nbr`.
  Export export_action(AsId v, const Neighbor& nbr) const;
  /// The entry `nbr` stores when v announces its selected route to it.
  Entry offered(AsId v, const Neighbor& nbr) const {
    const Route& route = best_[v];
    return Entry{route.origin, route_class_from(inverse(nbr.rel)),
                 static_cast<std::uint16_t>(route.path_len + 1)};
  }

  /// Receive an UPDATE from `from` (offering `entry` along `path`) into
  /// Adj-RIB-In entry rib_idx of `to`. Returns true when `to`'s selection
  /// changed.
  bool deliver(AsId from, AsId to, std::uint32_t rib_idx, const Entry& entry,
               PathId path, const ValidatorSet* validators);
  /// Receive a WITHDRAW into entry rib_idx of `to`. Returns true when it
  /// cleared `to`'s selected route.
  bool withdraw(AsId to, std::uint32_t rib_idx);
  /// Receive an Export::Filtered update: `to` hears the bogus origination,
  /// and the dropped update still withdraws the sender's earlier route.
  bool drop_filtered(AsId to, std::uint32_t rib_idx) {
    offered_bogus_[to] = 1;
    return withdraw(to, rib_idx);
  }

  /// Record infection edges (see obs/provenance.hpp); nullptr stops.
  void set_provenance(obs::ProvenanceRecorder* recorder) { prov_ = recorder; }
  /// Generation stamped on provenance edges. The event engine has no
  /// generation clock and leaves it at 0.
  void set_generation(std::uint32_t generation) { generation_ = generation; }
  /// Add this announce()'s validator rejections to defense.validator_drops.
  void flush_validator_drops();

 private:
  static constexpr std::uint32_t kSelfSlot = 0xffffffffu;

  struct PathNode {
    AsId head;
    PathId tail;
  };

  PathId push_node(AsId head, PathId tail);
  bool path_contains(PathId path, AsId as_id) const;
  /// Equal AS sequences: equal ids, or an equal walk.
  bool same_path(PathId a, PathId b) const;
  std::vector<AsId> materialize(PathId path) const;

  void reselect(AsId v);
  void set_best_path(AsId v, PathId tail) { best_path_[v] = push_node(v, tail); }
  void record_blocked(AsId to, AsId from, std::uint16_t len);

  const AsGraph& graph_;
  PolicyConfig config_;

  // CSR mirror: for u's k-th neighbor v, mirror_[offset(u)+k] is the slot of
  // u inside v's neighbor list.
  std::vector<std::uint32_t> edge_offset_;  // per AS, into rib arrays
  std::vector<std::uint32_t> mirror_;

  // Every interned path node since the last reset().
  std::vector<PathNode> path_nodes_;

  // Adj-RIB-In, one entry per directed edge (indexed edge_offset_[v] + slot).
  // rib_path_[i] is read only while rib_[i] holds a route.
  std::vector<Entry> rib_;
  std::vector<PathId> rib_path_;

  // Selected route per AS. best_slot_ is the Adj-RIB-In index of the
  // selected route, or kSelfSlot for a self-originated one (or none).
  // best_path_ is kNoPath for no route.
  std::vector<Route> best_;
  std::vector<std::uint32_t> best_slot_;
  std::vector<PathId> best_path_;
  std::vector<std::uint8_t> offered_bogus_;

  // load_converged scratch: ASes bucketed by path length.
  std::vector<std::uint32_t> len_start_;
  std::vector<AsId> by_len_;

  // Validator rejections not yet flushed to defense.validator_drops.
  std::uint64_t validator_drops_ = 0;

  obs::ProvenanceRecorder* prov_ = nullptr;
  std::uint32_t generation_ = 0;
};

// deliver(), withdraw() and export_action() run once per message; they are
// defined here so both engines' delivery loops can inline them.

inline AdjRib::Export AdjRib::export_action(AsId v, const Neighbor& nbr) const {
  const Route& route = best_[v];
  if (!route.valid() || !exports_to(route.cls, nbr.rel) || nbr.id == route.via) {
    return Export::Withdraw;
  }
  // The §IV first-hop filter: a stub attacker's providers drop its origination.
  if (route.cls == RouteClass::Self && route.origin == Origin::Attacker &&
      nbr.rel == Rel::Provider && first_hop_filtered(graph_, config_, v)) {
    return Export::Filtered;
  }
  return Export::Announce;
}

inline AdjRib::PathId AdjRib::push_node(AsId head, PathId tail) {
  BGPSIM_REQUIRE(path_nodes_.size() < kNoPath, "AS path arena exhausted");
  path_nodes_.push_back(PathNode{head, tail});
  return static_cast<PathId>(path_nodes_.size() - 1);
}

inline bool AdjRib::path_contains(PathId path, AsId as_id) const {
  for (; path != kNoPath; path = path_nodes_[path].tail) {
    if (path_nodes_[path].head == as_id) return true;
  }
  return false;
}

inline bool AdjRib::same_path(PathId a, PathId b) const {
  // Equal ids share the rest of the walk, so stop at the first common id.
  for (; a != b; a = path_nodes_[a].tail, b = path_nodes_[b].tail) {
    if (a == kNoPath || b == kNoPath) return false;
    if (path_nodes_[a].head != path_nodes_[b].head) return false;
  }
  return true;
}

inline bool AdjRib::withdraw(AsId to, std::uint32_t rib_idx) {
  if (rib_[rib_idx].cls == RouteClass::None) return false;
  rib_[rib_idx] = Entry{};
  if (best_slot_[to] == rib_idx) {
    reselect(to);
    return true;
  }
  return false;
}

inline bool AdjRib::deliver(AsId from, AsId to, std::uint32_t rib_idx,
                            const Entry& entry, PathId path,
                            const ValidatorSet* validators) {
  if (entry.origin == Origin::Attacker) offered_bogus_[to] = 1;

  // An UPDATE replaces whatever this neighbor announced before, so a rejected
  // one leaves no route behind (RFC 7606 treat-as-withdraw). Without this,
  // the receiver keeps using a route its neighbor no longer has.
  //
  // Route-origin validation: a deploying AS drops bogus announcements.
  if (entry.origin == Origin::Attacker && validators != nullptr &&
      (*validators)[to] != 0) {
    ++validator_drops_;
    if (prov_ != nullptr) record_blocked(to, from, entry.len);
    return withdraw(to, rib_idx);
  }
  // Loop rejection: the receiver appears in the announced AS path.
  if (path_contains(path, to)) return withdraw(to, rib_idx);

  const Entry old = rib_[rib_idx];
  const bool replaced_same = old.cls == entry.cls && old.origin == entry.origin &&
                             old.len == entry.len &&
                             same_path(rib_path_[rib_idx], path);
  rib_[rib_idx] = entry;
  rib_path_[rib_idx] = path;

  const bool is_t1 = config_.as_is_tier1(to);
  Route& best = best_[to];

  if (best_slot_[to] == rib_idx) {
    // Implicit withdraw: the neighbor replaced the route we were using.
    if (replaced_same) return false;
    // Each rank is computed once: two rank_better() calls here made deliver
    // too big for GCC to inline into the generation engine's loop.
    const bool len_first = is_t1 && config_.tier1_shortest_path;
    const std::uint32_t entry_rank = route_rank(entry.cls, entry.len, len_first);
    const std::uint32_t best_rank = route_rank(best.cls, best.path_len, len_first);
    // Keep using the same neighbor when the replacement is still guaranteed
    // best: strictly improved (nothing else in the Adj-RIB-In can displace
    // it), or equal rank without downgrading to the attacker's origin (an
    // equal-rank legitimate route elsewhere in the RIB would win the tie).
    if (entry_rank > best_rank ||
        (entry_rank == best_rank && (entry.origin == best.origin ||
                                     entry.origin == Origin::Legit))) {
      const Route before = best;
      best.origin = entry.origin;
      best.cls = entry.cls;
      best.path_len = entry.len;
      set_best_path(to, path);
      record_route_change(prov_, to, best, before, generation_);
      return true;
    }
    // Degraded (or an equal-rank origin downgrade): fall back to the full
    // Adj-RIB-In.
    reselect(to);
    return true;
  }

  if (displaces(best.origin, best.cls, best.path_len, entry.origin, entry.cls,
                entry.len, is_t1, config_.tier1_shortest_path)) {
    const Route before = best;
    best = Route{entry.origin, entry.cls, entry.len, from};
    best_slot_[to] = rib_idx;
    set_best_path(to, path);
    record_route_change(prov_, to, best, before, generation_);
    return true;
  }
  return false;
}

}  // namespace bgpsim
