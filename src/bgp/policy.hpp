// Routing policy: LOCAL_PREF ordering, path-length tiebreaks, the paper's
// tier-1 shortest-path rule, valley-free export filters, the §IV stub
// first-hop filter, and the provenance material-change rule.
//
// This header is the one owner of these rules. Every relaxation (AdjRib
// under the generation and event engines, warm repair, EquilibriumEngine)
// calls them instead of keeping its own copy, because their exact
// agreement rests on all of them running the same policy. They are small
// inline functions so they can be unit-tested exhaustively.
#pragma once

#include <cstdint>
#include <vector>

#include "bgp/types.hpp"
#include "obs/provenance.hpp"
#include "topology/as_graph.hpp"
#include "topology/metrics.hpp"

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

/// The rank of a route at one AS: larger is preferred, and None ranks 0.
/// Self ranks above everything. Otherwise a higher LOCAL_PREF wins, then
/// the shorter path; a tier-1 with the shortest-path quirk
/// (`tier1_len_first`) compares length first and LOCAL_PREF second. This is
/// the one rank order: rank_better() compares it, displaces() adds the
/// origin tie on top, and selection_key() packs both with the via tie.
constexpr std::uint32_t route_rank(RouteClass cls, std::uint16_t len,
                                   bool tier1_len_first) {
  if (cls == RouteClass::None) return 0;
  const auto pref = static_cast<std::uint32_t>(local_pref(cls));
  const std::uint32_t shorter = 0xffffu - len;
  if (!tier1_len_first) return pref << 16 | shorter;
  const std::uint32_t self = cls == RouteClass::Self ? 1u : 0u;
  return self << 19 | shorter << 3 | pref;
}

/// True when (a_cls, a_len) ranks strictly above (b_cls, b_len) at an AS
/// (route_rank); displaces() adds the origin tie-break on top.
constexpr bool rank_better(RouteClass a_cls, std::uint16_t a_len, RouteClass b_cls,
                           std::uint16_t b_len, bool is_tier1,
                           bool tier1_shortest_path) {
  const bool len_first = is_tier1 && tier1_shortest_path;
  return route_rank(a_cls, a_len, len_first) > route_rank(b_cls, b_len, len_first);
}

/// Canonical displacement test for a candidate route competing with a
/// different incumbent: a Self incumbent never loses and a Self candidate
/// always wins; otherwise the candidate wins when it ranks strictly higher
/// (route_rank), or ties in rank while carrying the legitimate origin
/// against an attacker-held incumbent.
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
  const bool len_first = is_tier1 && tier1_shortest_path;
  const std::uint32_t cand = route_rank(cand_cls, cand_len, len_first);
  const std::uint32_t inc = route_rank(inc_cls, inc_len, len_first);
  if (cand != inc) return cand > inc;
  return cand_origin == Origin::Legit && inc_origin == Origin::Attacker;
}

/// The whole selection order as one integer, larger preferred: route_rank,
/// then the legitimate origin, then the lowest via. Invalid routes map to 0,
/// below every valid one. Distinct candidates at one AS have distinct vias,
/// so comparing keys is a strict total order that never contradicts
/// displaces(); one compare replaces two displaces() calls plus the via tie.
inline std::uint64_t selection_key(const Route& route, bool tier1_len_first) {
  if (!route.valid()) return 0;
  const std::uint64_t rank = route_rank(route.cls, route.path_len, tier1_len_first);
  const std::uint64_t legit = route.origin == Origin::Legit ? 1u : 0u;
  return rank << 33 | legit << 32 | static_cast<std::uint32_t>(~route.via);
}

/// Valley-free export rule: a route is announced to a customer always, and to
/// a peer/provider only when self-originated or learned from a customer.
constexpr bool exports_to(RouteClass route_cls, Rel to_rel) {
  if (to_rel == Rel::Customer) return true;
  return route_cls == RouteClass::Self || route_cls == RouteClass::Customer;
}

/// Fig. 4's optimistic first-hop filter (§IV): a provider knows its stub
/// customers' prefixes and drops a bogus origination arriving directly from
/// one. True when `attacker`'s providers drop the origination it exports to
/// them. Transit customers legitimately re-announce third-party prefixes,
/// so they cannot be filtered this way.
inline bool first_hop_filtered(const AsGraph& graph, const PolicyConfig& config,
                               AsId attacker) {
  return config.stub_first_hop_filter && is_stub(graph, attacker);
}

/// The provenance material-change rule: when `to`'s selection goes from
/// `before` to `now` and either side is Attacker-origin, record an Adopt
/// edge (now bogus) or a Cure edge (no longer bogus), from the new via, or
/// from `to` itself when it is left without a route. A bogus route that
/// keeps its via and length changed nothing material. No-op when `prov` is
/// null.
inline void record_route_change(obs::ProvenanceRecorder* prov, AsId to,
                                const Route& now, const Route& before,
                                std::uint32_t generation) {
  if (prov == nullptr) return;
  const bool now_bad = now.origin == Origin::Attacker;
  const bool was_bad = before.origin == Origin::Attacker;
  if (!now_bad && !was_bad) return;
  if (now_bad && was_bad && now.via == before.via &&
      now.path_len == before.path_len) {
    return;
  }
  prov->record_edge(obs::make_edge(
      now_bad ? obs::InfectionEdgeKind::Adopt : obs::InfectionEdgeKind::Cure,
      to, now.valid() ? now.via : to, generation, now.path_len, before.path_len,
      static_cast<std::uint8_t>(before.origin)));
}

/// Throws ConfigError when `graph` still contains sibling links (engines
/// require contract_siblings() to have been applied) or when `config`'s
/// tier-1 flag vector does not match the graph size.
void validate_engine_inputs(const AsGraph& graph, const PolicyConfig& config);

}  // namespace bgpsim
