// Routing policy: LOCAL_PREF ordering, path-length tiebreaks, the paper's
// tier-1 shortest-path rule, and valley-free export filters.
//
// These are pure functions over small value types so they can be unit-tested
// exhaustively and shared verbatim by both engines.
#pragma once

#include <cstdint>
#include <vector>

#include "bgp/types.hpp"
#include "topology/as_graph.hpp"

namespace bgpsim {

/// Static policy configuration for a simulation.
struct PolicyConfig {
  /// Paper §III: "Tier-1 routers always accept shortest path" regardless of
  /// the relationship class (this raised their RouteViews match rate).
  bool tier1_shortest_path = true;

  /// Per-AS tier-1 flags (from classify_tiers); empty = no tier-1 special-casing.
  std::vector<std::uint8_t> is_tier1;

  /// Optimistic scenario of §IV fig. 4: providers know their stub customers'
  /// prefixes and drop bogus announcements arriving *directly* from them.
  bool stub_first_hop_filter = false;

  bool as_is_tier1(AsId v) const {
    return !is_tier1.empty() && is_tier1[v] != 0;
  }
};

/// LOCAL_PREF rank of a route class; larger is preferred.
constexpr int local_pref(RouteClass cls) {
  switch (cls) {
    case RouteClass::Self:
      return 4;
    case RouteClass::Customer:
      return 3;
    case RouteClass::Peer:
      return 2;
    case RouteClass::Provider:
      return 1;
    case RouteClass::None:
      return 0;
  }
  return 0;
}

/// Rank order of the routes at one AS: higher LOCAL_PREF, then the shorter
/// path (a tier-1 with the shortest-path quirk compares length first). True
/// when (a_cls, a_len) ranks strictly above (b_cls, b_len); displaces() adds
/// the origin tie-break on top.
constexpr bool rank_better(RouteClass a_cls, std::uint16_t a_len, RouteClass b_cls,
                           std::uint16_t b_len, bool is_tier1,
                           bool tier1_shortest_path) {
  if (a_cls == RouteClass::None) return false;
  if (b_cls == RouteClass::None) return true;
  if (is_tier1 && tier1_shortest_path) {
    if (a_len != b_len) return a_len < b_len;
    return local_pref(a_cls) > local_pref(b_cls);
  }
  if (local_pref(a_cls) != local_pref(b_cls)) {
    return local_pref(a_cls) > local_pref(b_cls);
  }
  return a_len < b_len;
}

/// Canonical displacement test for a candidate route competing with a
/// different incumbent: the candidate wins when it ranks strictly higher in
/// the total order (rank_better), or ties in rank while carrying the
/// legitimate origin against an attacker-held incumbent.
///
/// The origin tie-break encodes the paper's first-mover semantics at steady
/// state: the victim's announcement converges before the attack is injected,
/// so every equal-(LOCAL_PREF, length) contest was already decided in the
/// legitimate route's favor when the attacker arrives. Making that explicit
/// (instead of relying on arrival order) turns per-AS preferences into a
/// strict total order, under which the Gao–Rexford stable state is unique —
/// the message-driven engines and EquilibriumEngine then agree *exactly*
/// (audit_runner enforces origin_agreement == 1.0), where incumbent-keeps-
/// ties semantics was path-dependent under transient withdrawal cascades.
constexpr bool displaces(Origin inc_origin, RouteClass inc_cls,
                         std::uint16_t inc_len, Origin cand_origin,
                         RouteClass cand_cls, std::uint16_t cand_len,
                         bool is_tier1, bool tier1_shortest_path) {
  if (inc_cls == RouteClass::Self) return false;
  if (cand_cls == RouteClass::Self) return true;
  if (rank_better(cand_cls, cand_len, inc_cls, inc_len, is_tier1,
                  tier1_shortest_path)) {
    return true;
  }
  if (rank_better(inc_cls, inc_len, cand_cls, cand_len, is_tier1,
                  tier1_shortest_path)) {
    return false;
  }
  return cand_origin == Origin::Legit && inc_origin == Origin::Attacker;
}

/// Valley-free export rule: a route is announced to a customer always, and to
/// a peer/provider only when self-originated or learned from a customer.
constexpr bool exports_to(RouteClass route_cls, Rel to_rel) {
  if (to_rel == Rel::Customer) return true;
  return route_cls == RouteClass::Self || route_cls == RouteClass::Customer;
}

/// Throws ConfigError when `graph` still contains sibling links (engines
/// require contract_siblings() to have been applied) or when `config`'s
/// tier-1 flag vector does not match the graph size.
void validate_engine_inputs(const AsGraph& graph, const PolicyConfig& config);

}  // namespace bgpsim
