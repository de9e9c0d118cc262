#include "bgp/equilibrium_engine.hpp"

#include <algorithm>

#include "obs/obs.hpp"
#include "support/assert.hpp"

namespace bgpsim {
namespace {

/// The best route `v` hears from its peers: the largest selection_key among
/// the routes they export to peers, one hop longer. `drops(from, len)` says
/// whether `v` drops the attacker route `from` offers. A template, so each
/// caller's copy inlines into its loop.
template <typename Drops>
Route best_peer_route(const AsGraph& graph, const RouteTable& out, AsId v,
                      Drops&& drops) {
  Route best;
  std::uint64_t best_key = 0;
  for (const auto& nbr : graph.neighbors(v)) {
    if (nbr.rel != Rel::Peer) continue;
    const Route& offer = out.routes[nbr.id];
    if (!exports_to(offer.cls, Rel::Peer)) continue;
    const Route cand{offer.origin, RouteClass::Peer,
                     static_cast<std::uint16_t>(offer.path_len + 1), nbr.id};
    if (cand.origin == Origin::Attacker && drops(nbr.id, cand.path_len)) {
      continue;
    }
    // One class, so this orders by length, then Legit, then lowest via.
    const std::uint64_t key = selection_key(cand, false);
    if (key > best_key) {
      best = cand;
      best_key = key;
    }
  }
  return best;
}

}  // namespace

EquilibriumEngine::EquilibriumEngine(const AsGraph& graph, PolicyConfig config)
    : graph_(graph), config_(std::move(config)) {
  validate_engine_inputs(graph_, config_);
  const std::uint32_t n = graph_.num_ases();
  peer_.resize(n);
  // Route lengths are bounded by the AS count; pre-sizing keeps the spread
  // free of reallocation (and of reference invalidation) on the hot path.
  buckets_.resize(static_cast<std::size_t>(n) + 2);
}

void EquilibriumEngine::compute(AsId legit_origin, const ValidatorSet* validators,
                                RouteTable& out) {
  run(legit_origin, Origin::Legit, 1, kInvalidAs, 1, validators, out);
}

void EquilibriumEngine::compute_single(AsId origin, Origin tag,
                                       std::uint16_t seed_len,
                                       const ValidatorSet* validators,
                                       RouteTable& out) {
  BGPSIM_REQUIRE(tag != Origin::None, "tag must be Legit or Attacker");
  BGPSIM_REQUIRE(seed_len >= 1, "seed_len must be >= 1");
  run(origin, tag, seed_len, kInvalidAs, 1, validators, out);
}

void EquilibriumEngine::compute_hijack(AsId legit_origin, AsId attacker,
                                       const ValidatorSet* validators,
                                       RouteTable& out,
                                       std::uint16_t attacker_seed_len) {
  BGPSIM_REQUIRE(attacker < graph_.num_ases(), "attacker out of range");
  BGPSIM_REQUIRE(attacker != legit_origin, "attacker must differ from target");
  BGPSIM_REQUIRE(attacker_seed_len >= 1, "attacker_seed_len must be >= 1");
  run(legit_origin, Origin::Legit, 1, attacker, attacker_seed_len, validators, out);
}

void EquilibriumEngine::run(AsId primary, Origin primary_tag,
                            std::uint16_t primary_len, AsId secondary,
                            std::uint16_t secondary_len,
                            const ValidatorSet* validators, RouteTable& out) {
  BGPSIM_REQUIRE(primary < graph_.num_ases(), "origin out of range");
  BGPSIM_REQUIRE(validators == nullptr || validators->size() == graph_.num_ases(),
                 "validator set size mismatch");
  BGPSIM_TIMED_SCOPE("equilibrium.compute");
  BGPSIM_EVENT(::bgpsim::obs::EventRecord ev("run_start");
               ev.str("engine", "equilibrium");
               ev.u64("origin_asn", graph_.asn(primary));
               ev.str("tag", to_string(primary_tag));
               ev.boolean("hijack", secondary != kInvalidAs);
               ev.emit());
  const std::uint32_t n = graph_.num_ases();
  validator_drop_count_ = 0;
  out.reset(n);

  // Stage 1: the origins' self routes climb provider links as customer
  // routes. Seed lengths may differ (forged-origin announcements carry an
  // extra hop), which the spread's length buckets absorb.
  const auto seed = [&](AsId origin, Origin tag, std::uint16_t len) {
    out.routes[origin] = Route{tag, RouteClass::Self, len, kInvalidAs};
    buckets_[len].push_back(origin);
  };
  seed(primary, primary_tag, primary_len);
  AsId attacker = primary_tag == Origin::Attacker ? primary : kInvalidAs;
  std::uint16_t highest = primary_len;
  if (secondary != kInvalidAs) {
    seed(secondary, Origin::Attacker, secondary_len);
    attacker = secondary;
    highest = std::max(highest, secondary_len);
  }
  const bool filtered =
      attacker != kInvalidAs && first_hop_filtered(graph_, config_, attacker);
  spread(Rel::Provider, filtered ? attacker : kInvalidAs, validators, out,
         highest);

  // Tier-1 eligibility (the paper's shortest-path quirk): a tier-1 whose
  // peers offer a shorter route selects it here, and so stops exporting its
  // customer route to peers. A peer offer undercuts a customer route of
  // length L only if the peer's own route has length at most L - 2, so in
  // ascending customer-route length every peer that matters is decided
  // first. Validators are checked without counting drops; stage 2 counts
  // each dropped offer once.
  if (config_.tier1_shortest_path && !config_.is_tier1.empty()) {
    std::vector<AsId> tier1s;
    for (AsId v = 0; v < n; ++v) {
      if (config_.is_tier1[v] != 0 && out.routes[v].cls == RouteClass::Customer) {
        tier1s.push_back(v);
      }
    }
    // Equal lengths never undercut each other, so their order is free.
    std::sort(tier1s.begin(), tier1s.end(), [&out](AsId a, AsId b) {
      return out.routes[a].path_len < out.routes[b].path_len;
    });
    for (const AsId u : tier1s) {
      Route& route = out.routes[u];
      const bool validates = validators != nullptr && (*validators)[u] != 0;
      const Route offer = best_peer_route(
          graph_, out, u, [validates](AsId, std::uint16_t) { return validates; });
      if (route_rank(offer.cls, offer.path_len, true) >
          route_rank(route.cls, route.path_len, true)) {
        route = offer;
      }
    }
  }

  // Stage 2: every AS's best peer offer (counting its validator drops), then
  // selection: the offer replaces the route where its selection_key is
  // higher. That only happens at ASes without a route; the tier-1s that
  // prefer a peer route already hold it.
  for (AsId v = 0; v < n; ++v) {
    peer_[v] = best_peer_route(graph_, out, v, [&](AsId from, std::uint16_t len) {
      return validator_drops(validators, v, from, len);
    });
  }
  highest = 1;
  for (AsId v = 0; v < n; ++v) {
    Route& sel = out.routes[v];
    const bool len_first = config_.tier1_shortest_path && config_.as_is_tier1(v);
    if (selection_key(peer_[v], len_first) > selection_key(sel, len_first)) {
      sel = peer_[v];
    }
    if (!sel.valid()) continue;
    highest = std::max(highest, sel.path_len);
    buckets_[sel.path_len].push_back(v);
    // Every route is written exactly once, so each adopt edge is final.
    // Self routes (the origins themselves) are not recorded, matching the
    // message-passing engines where origination is not a delivery.
    if (prov_ != nullptr && sel.origin == Origin::Attacker &&
        sel.via != kInvalidAs) {
      prov_->record_edge(obs::make_edge(obs::InfectionEdgeKind::Adopt, v,
                                        sel.via, sel.path_len, sel.path_len));
    }
  }

  // Stage 3: every selection descends customer links as provider routes.
  spread(Rel::Customer, kInvalidAs, validators, out, highest);

  BGPSIM_COUNTER_ADD("engine.equilibrium_runs", 1);
  if (validator_drop_count_ != 0) {
    BGPSIM_COUNTER_ADD("defense.validator_drops", validator_drop_count_);
  }
  BGPSIM_EVENT(::bgpsim::obs::EventRecord ev("run_end");
               ev.str("engine", "equilibrium");
               ev.boolean("converged", true);
               ev.u64("routed", out.count_origin(Origin::Legit) +
                                    out.count_origin(Origin::Attacker));
               ev.u64("polluted", out.count_origin(Origin::Attacker));
               ev.emit());
}

bool EquilibriumEngine::validator_drops(const ValidatorSet* validators, AsId to,
                                        AsId from, std::uint16_t len) {
  if (validators == nullptr || (*validators)[to] == 0) return false;
  ++validator_drop_count_;
  if (prov_ != nullptr) {
    prov_->record_edge(
        obs::make_edge(obs::InfectionEdgeKind::Blocked, to, from, len, len));
  }
  return true;
}

void EquilibriumEngine::spread(Rel toward, AsId filtered_origin,
                               const ValidatorSet* validators, RouteTable& out,
                               std::size_t highest) {
  const bool climbing = toward == Rel::Provider;
  const RouteClass learned = climbing ? RouteClass::Customer : RouteClass::Provider;
  // `highest` tracks the deepest occupied bucket so the loop stays O(paths),
  // not O(num_ases); buckets are left empty at exit for the next spread.
  for (std::size_t len = 1; len <= highest; ++len) {
    auto& bucket = buckets_[len];
    if (climbing) {
      // The equilibrium analogue of the generation engine's frontier: how
      // many ASes gain a customer route per path-length level. Shares the
      // engine.frontier_size histogram so BENCH extras compare engines.
      BGPSIM_HISTOGRAM_OBSERVE(
          "engine.frontier_size",
          ::bgpsim::obs::HistogramSpec::exponential(1.0, 2.0, 22),
          bucket.size());
    }
    // Legit routes go first (tie priority), then ascending id.
    std::sort(bucket.begin(), bucket.end(), [&out](AsId a, AsId b) {
      const bool a_legit = out.routes[a].origin == Origin::Legit;
      const bool b_legit = out.routes[b].origin == Origin::Legit;
      if (a_legit != b_legit) return a_legit;
      return a < b;
    });
    const auto next_len = static_cast<std::uint16_t>(len + 1);
    for (const AsId u : bucket) {
      const Route& route = out.routes[u];
      BGPSIM_DASSERT(route.valid() && route.path_len == len, "bucket mismatch");
      const bool bogus = route.origin == Origin::Attacker;
      for (const auto& nbr : graph_.neighbors(u)) {
        if (nbr.rel != toward) continue;
        const AsId w = nbr.id;
        if (out.routes[w].valid()) continue;
        if (bogus && (validator_drops(validators, w, u, next_len) ||
                      u == filtered_origin)) {
          continue;
        }
        out.routes[w] = Route{route.origin, learned, next_len, u};
        if (!climbing && bogus && prov_ != nullptr) {
          prov_->record_edge(obs::make_edge(obs::InfectionEdgeKind::Adopt, w,
                                            u, next_len, next_len));
        }
        buckets_[next_len].push_back(w);
        highest = std::max<std::size_t>(highest, next_len);
      }
    }
    bucket.clear();
  }
}

}  // namespace bgpsim
