#include "bgp/equilibrium_engine.hpp"

#include <algorithm>

#include "obs/obs.hpp"
#include "support/assert.hpp"

namespace bgpsim {

EquilibriumEngine::EquilibriumEngine(const AsGraph& graph, PolicyConfig config)
    : graph_(graph), config_(std::move(config)) {
  validate_engine_inputs(graph_, config_);
  const std::uint32_t n = graph_.num_ases();
  customer_.resize(n);
  peer_.resize(n);
  // Route lengths are bounded by the AS count; pre-sizing keeps stage 3 free
  // of reallocation (and of reference invalidation) on the hot path.
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
  validator_drop_count_ = 0;
  std::fill(customer_.begin(), customer_.end(), Claim{});
  std::fill(peer_.begin(), peer_.end(), Claim{});
  out.reset(graph_.num_ases());

  stage1_customer_routes(primary, primary_tag, primary_len, secondary,
                         secondary_len, validators);
  stage2_peer_routes(validators);
  stage3_select_and_descend(primary, primary_tag, primary_len, secondary,
                            secondary_len, validators, out);

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

void EquilibriumEngine::stage1_customer_routes(AsId primary, Origin primary_tag,
                                               std::uint16_t primary_len,
                                               AsId secondary,
                                               std::uint16_t secondary_len,
                                               const ValidatorSet* validators) {
  // Seeds: the origins' self routes behave like customer routes for export
  // purposes (they propagate to providers, peers and customers alike). Seed
  // lengths may differ (forged-origin announcements carry an extra hop), so
  // frontiers are bucketed by *path length*, not by BFS round — equal-length
  // ties must still go to the legitimate (first-announced) origin.
  const std::size_t max_level = graph_.num_ases() + 2;
  auto& legit_levels = level_legit_;
  auto& att_levels = level_att_;
  if (legit_levels.size() < max_level) legit_levels.resize(max_level);
  if (att_levels.size() < max_level) att_levels.resize(max_level);

  const auto seed = [&](AsId origin, Origin tag, std::uint16_t len) {
    customer_[origin] = Claim{tag, len, kInvalidAs};
    (tag == Origin::Legit ? legit_levels : att_levels)[len].push_back(origin);
  };
  seed(primary, primary_tag, primary_len);
  AsId attacker_seed = primary_tag == Origin::Attacker ? primary : kInvalidAs;
  if (secondary != kInvalidAs) {
    seed(secondary, Origin::Attacker, secondary_len);
    attacker_seed = secondary;
  }

  const bool stub_filter_attacker =
      attacker_seed != kInvalidAs &&
      first_hop_filtered(graph_, config_, attacker_seed);

  std::size_t highest =
      std::max<std::size_t>(primary_len,
                            secondary != kInvalidAs ? secondary_len : 0);
  for (std::size_t level = 1; level <= highest; ++level) {
    // Legitimate claims expand first: at equal path length the legitimate
    // route was announced first and keeps the tie (paper acceptance rule).
    const auto expand = [&](std::vector<AsId>& frontier, Origin origin) {
      std::sort(frontier.begin(), frontier.end());
      for (const AsId u : frontier) {
        const auto next_len = static_cast<std::uint16_t>(level + 1);
        for (const auto& nbr : graph_.neighbors(u)) {
          if (nbr.rel != Rel::Provider) continue;  // customer routes climb
          const AsId w = nbr.id;
          if (customer_[w].origin != Origin::None) continue;
          if (origin == Origin::Attacker) {
            if (validator_drops(validators, w, u, next_len)) continue;
            if (stub_filter_attacker && u == attacker_seed) continue;
          }
          customer_[w] = Claim{origin, next_len, u};
          (origin == Origin::Legit ? legit_levels : att_levels)[next_len]
              .push_back(w);
          highest = std::max(highest, static_cast<std::size_t>(next_len));
        }
      }
      frontier.clear();
    };
#if !defined(BGPSIM_OBS_DISABLED)
    // The equilibrium analogue of the generation engine's frontier: how
    // many ASes gain a customer route per path-length level. Shares the
    // engine.frontier_size histogram so BENCH extras compare engines.
    BGPSIM_HISTOGRAM_OBSERVE(
        "engine.frontier_size",
        ::bgpsim::obs::HistogramSpec::exponential(1.0, 2.0, 22),
        legit_levels[level].size() + att_levels[level].size());
#endif
    expand(legit_levels[level], Origin::Legit);
    expand(att_levels[level], Origin::Attacker);
  }
}

void EquilibriumEngine::stage2_peer_routes(const ValidatorSet* validators) {
  const std::uint32_t n = graph_.num_ases();

  // A peer w only offers its customer/self route when that route is also its
  // *selection* — a tier-1 that prefers a shorter peer route (the paper's
  // quirk) never announces its longer customer route: in the generation
  // dynamics the shorter peer route arrives first and the customer route
  // never becomes best. Non-tier-1 ASes always select an available customer
  // route (top LOCAL_PREF), so only tier-1 eligibility needs the fixed-point
  // iteration below (tier-1 selections depend on each other's exports).
  exportable_.assign(n, 0);
  for (AsId v = 0; v < n; ++v) {
    exportable_[v] = (customer_[v].origin != Origin::None) ? 1 : 0;
  }
  if (config_.tier1_shortest_path && !config_.is_tier1.empty()) {
    std::vector<AsId> tier1s;
    for (AsId v = 0; v < n; ++v) {
      if (config_.is_tier1[v] != 0 && customer_[v].origin != Origin::None &&
          customer_[v].via != kInvalidAs) {  // origins (self) always export
        tier1s.push_back(v);
      }
    }
    for (int iteration = 0; iteration < 32; ++iteration) {
      bool changed = false;
      for (const AsId u : tier1s) {
        std::uint16_t best_peer_len = 0xffff;
        for (const auto& nbr : graph_.neighbors(u)) {
          if (nbr.rel != Rel::Peer || !exportable_[nbr.id]) continue;
          const Claim& offer = customer_[nbr.id];
          if (offer.origin == Origin::Attacker && validators != nullptr &&
              (*validators)[u] != 0) {
            continue;
          }
          best_peer_len =
              std::min<std::uint16_t>(best_peer_len, offer.len + 1);
        }
        const std::uint8_t now = (customer_[u].len <= best_peer_len) ? 1 : 0;
        if (now != exportable_[u]) {
          exportable_[u] = now;
          changed = true;
        }
      }
      if (!changed) break;
    }
  }

  for (AsId v = 0; v < n; ++v) {
    Claim best{};
    for (const auto& nbr : graph_.neighbors(v)) {
      if (nbr.rel != Rel::Peer || !exportable_[nbr.id]) continue;
      const Claim& offer = customer_[nbr.id];
      const auto cand_len = static_cast<std::uint16_t>(offer.len + 1);
      if (offer.origin == Origin::Attacker &&
          validator_drops(validators, v, nbr.id, cand_len)) {
        continue;
      }
      const bool better =
          best.origin == Origin::None || cand_len < best.len ||
          (cand_len == best.len && best.origin == Origin::Attacker &&
           offer.origin == Origin::Legit);
      // Equal (len, origin): keep the earlier (lower-id) neighbor — the
      // adjacency list is sorted, so the first offer wins.
      if (better) best = Claim{offer.origin, cand_len, nbr.id};
    }
    peer_[v] = best;
  }
}

void EquilibriumEngine::stage3_select_and_descend(AsId primary, Origin primary_tag,
                                                  std::uint16_t primary_len,
                                                  AsId secondary,
                                                  std::uint16_t secondary_len,
                                                  const ValidatorSet* validators,
                                                  RouteTable& out) {
  const std::uint32_t n = graph_.num_ases();

  // Selection from customer/peer candidates (provider routes filled below).
  std::uint16_t max_len = 1;
  for (AsId v = 0; v < n; ++v) {
    Route& sel = out.routes[v];
    if (v == primary) {
      sel = Route{primary_tag, RouteClass::Self, primary_len, kInvalidAs};
    } else if (v == secondary) {
      sel = Route{Origin::Attacker, RouteClass::Self, secondary_len, kInvalidAs};
    } else {
      const Claim& cust = customer_[v];
      const Claim& peer = peer_[v];
      const bool tier1_rule = config_.as_is_tier1(v) && config_.tier1_shortest_path;
      // For tier-1s the customer-vs-peer decision was already fixed by the
      // stage-2 eligibility iteration; reuse it so exports and selections agree.
      const bool keeps_customer =
          cust.origin != Origin::None &&
          (peer.origin == Origin::None || !tier1_rule || exportable_[v] != 0);
      if (keeps_customer) {
        sel = Route{cust.origin, RouteClass::Customer, cust.len, cust.via};
      } else if (peer.origin != Origin::None) {
        sel = Route{peer.origin, RouteClass::Peer, peer.len, peer.via};
      }
    }
    if (sel.valid()) max_len = std::max(max_len, sel.path_len);
    // Every route is written exactly once, so each adopt edge is final.
    // Self routes (the origins themselves) are not recorded, matching the
    // message-passing engines where origination is not a delivery.
    if (prov_ != nullptr && sel.origin == Origin::Attacker &&
        sel.via != kInvalidAs) {
      prov_->record_edge(obs::make_edge(obs::InfectionEdgeKind::Adopt, v,
                                        sel.via, sel.path_len, sel.path_len));
    }
  }

  // Bucket BFS down provider->customer links in ascending route length.
  // `highest` tracks the deepest occupied bucket so the loop stays O(paths),
  // not O(num_ases) — buckets are left empty at loop exit for the next run.
  std::size_t highest = max_len;
  for (AsId v = 0; v < n; ++v) {
    if (out.routes[v].valid()) buckets_[out.routes[v].path_len].push_back(v);
  }

  for (std::size_t len = 1; len <= highest; ++len) {
    auto& bucket = buckets_[len];
    // Legit-selected ASes export first (tie priority), then ascending id.
    std::sort(bucket.begin(), bucket.end(), [&out](AsId a, AsId b) {
      const bool a_legit = out.routes[a].origin == Origin::Legit;
      const bool b_legit = out.routes[b].origin == Origin::Legit;
      if (a_legit != b_legit) return a_legit;
      return a < b;
    });
    for (const AsId w : bucket) {
      const Route& route = out.routes[w];
      BGPSIM_DASSERT(route.valid() && route.path_len == len, "bucket mismatch");
      for (const auto& nbr : graph_.neighbors(w)) {
        if (nbr.rel != Rel::Customer) continue;  // selections descend to customers
        const AsId v = nbr.id;
        if (out.routes[v].valid()) continue;
        const auto new_len = static_cast<std::uint16_t>(len + 1);
        if (route.origin == Origin::Attacker &&
            validator_drops(validators, v, w, new_len)) {
          continue;
        }
        out.routes[v] = Route{route.origin, RouteClass::Provider, new_len, w};
        if (prov_ != nullptr && route.origin == Origin::Attacker) {
          prov_->record_edge(obs::make_edge(obs::InfectionEdgeKind::Adopt, v,
                                            w, new_len, new_len));
        }
        buckets_[new_len].push_back(v);
        highest = std::max<std::size_t>(highest, new_len);
      }
    }
    buckets_[len].clear();
  }
}

}  // namespace bgpsim
