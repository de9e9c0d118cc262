#include "bgp/adj_rib.hpp"

#include <algorithm>

#include "obs/obs.hpp"
#include "support/assert.hpp"

namespace bgpsim {

AdjRib::AdjRib(const AsGraph& graph, PolicyConfig config)
    : graph_(graph), config_(std::move(config)) {
  validate_engine_inputs(graph_, config_);
  const std::uint32_t n = graph_.num_ases();

  edge_offset_.assign(n + 1, 0);
  for (AsId v = 0; v < n; ++v) {
    edge_offset_[v + 1] = edge_offset_[v] + graph_.degree(v);
  }
  const std::uint32_t total_edges = edge_offset_[n];

  // mirror_[edge_offset_[u] + k]: position of u inside neighbors(v) where
  // v = neighbors(u)[k].
  mirror_.assign(total_edges, 0);
  for (AsId u = 0; u < n; ++u) {
    const auto nbrs_u = graph_.neighbors(u);
    for (std::uint32_t k = 0; k < nbrs_u.size(); ++k) {
      const AsId v = nbrs_u[k].id;
      const auto nbrs_v = graph_.neighbors(v);
      const auto it = std::lower_bound(
          nbrs_v.begin(), nbrs_v.end(), u,
          [](const Neighbor& nb, AsId id) { return nb.id < id; });
      BGPSIM_ASSERT(it != nbrs_v.end() && it->id == u, "asymmetric adjacency");
      mirror_[edge_offset_[u] + k] =
          static_cast<std::uint32_t>(it - nbrs_v.begin());
    }
  }

  rib_.assign(total_edges, Entry{});
  rib_path_.assign(total_edges, kNoPath);
  best_.assign(n, Route{});
  best_slot_.assign(n, kSelfSlot);
  best_path_.assign(n, kNoPath);
  offered_bogus_.assign(n, 0);
}

void AdjRib::reset() {
  std::fill(rib_.begin(), rib_.end(), Entry{});
  std::fill(best_.begin(), best_.end(), Route{});
  std::fill(best_slot_.begin(), best_slot_.end(), kSelfSlot);
  std::fill(best_path_.begin(), best_path_.end(), kNoPath);
  // rib_path_ ids are stale but unreachable: entries with RouteClass::None
  // are never read. Clearing keeps the arena's capacity for the next prefix.
  path_nodes_.clear();
  std::fill(offered_bogus_.begin(), offered_bogus_.end(), 0);
}

void AdjRib::load_converged(const RouteTable& table,
                            std::span<const ViaPatch> vias) {
  const std::uint32_t n = graph_.num_ases();
  BGPSIM_REQUIRE(table.routes.size() == n,
                 "load_converged: table does not match the topology");
  best_ = table.routes;
  for (const ViaPatch& patch : vias) {
    BGPSIM_REQUIRE(patch.as < n && best_[patch.as].valid() &&
                       best_[patch.as].cls != RouteClass::Self,
                   "load_converged: via patch on an AS without a learned route");
    best_[patch.as].via = patch.via;
  }

  // Bucket the routed ASes by path length, so each via's path is interned
  // before the paths that extend it.
  len_start_.assign(2, 0);
  for (const Route& route : best_) {
    if (!route.valid()) continue;
    BGPSIM_REQUIRE(route.origin == Origin::Legit && route.path_len >= 1,
                   "load_converged: not a legitimate-only table");
    if (route.path_len + 1u >= len_start_.size()) {
      len_start_.resize(route.path_len + 2u, 0);
    }
    ++len_start_[route.path_len + 1u];
  }
  for (std::size_t len = 1; len < len_start_.size(); ++len) {
    len_start_[len] += len_start_[len - 1];
  }
  by_len_.resize(len_start_.back());
  for (AsId v = 0; v < n; ++v) {
    if (best_[v].valid()) by_len_[len_start_[best_[v].path_len]++] = v;
  }

  path_nodes_.clear();
  std::fill(best_path_.begin(), best_path_.end(), kNoPath);
  for (const AsId v : by_len_) {
    const Route& route = best_[v];
    if (route.cls == RouteClass::Self) {
      BGPSIM_REQUIRE(route.path_len == 1, "load_converged: bad origin route");
      best_path_[v] = push_node(v, kNoPath);
      continue;
    }
    BGPSIM_REQUIRE(route.via < n && best_path_[route.via] != kNoPath &&
                       best_[route.via].path_len + 1 == route.path_len,
                   "load_converged: via does not extend a shorter route");
    set_best_path(v, best_path_[route.via]);
  }

  // Adj-RIB-In, receiver by receiver: what each neighbor's last message
  // left. Interned paths run [AS, via, via's via, ...] with lengths falling
  // by one per hop, so `to` is on a sender's path only exactly
  // len(from) - len(to) hops up it.
  for (AsId to = 0; to < n; ++to) {
    const Route& mine = best_[to];
    const std::uint32_t base = edge_offset_[to];
    const auto nbrs = graph_.neighbors(to);
    best_slot_[to] = kSelfSlot;
    for (std::uint32_t k = 0; k < nbrs.size(); ++k) {
      const AsId from = nbrs[k].id;
      const Route& theirs = best_[from];
      Entry& entry = rib_[base + k];
      entry = Entry{};
      // Unrouted, valley-free export, split horizon (nbrs[k].rel is how
      // `to` sees `from`, so `from` sees `to` as its inverse).
      if (!theirs.valid() || theirs.via == to ||
          !exports_to(theirs.cls, inverse(nbrs[k].rel))) {
        continue;
      }
      if (mine.valid() && mine.path_len < theirs.path_len) {
        PathId hop = best_path_[from];
        for (std::uint16_t len = mine.path_len; len < theirs.path_len; ++len) {
          hop = path_nodes_[hop].tail;
        }
        if (path_nodes_[hop].head == to) continue;  // loop rejection
      }
      entry = Entry{theirs.origin, route_class_from(nbrs[k].rel),
                    static_cast<std::uint16_t>(theirs.path_len + 1)};
      rib_path_[base + k] = best_path_[from];
      if (from == mine.via) best_slot_[to] = base + k;
    }
    if (mine.valid() && mine.cls != RouteClass::Self) {
      BGPSIM_REQUIRE(best_slot_[to] != kSelfSlot &&
                         rib_[best_slot_[to]].cls == mine.cls,
                     "load_converged: a selected route has no matching "
                     "Adj-RIB-In entry from its via");
    }
  }
  std::fill(offered_bogus_.begin(), offered_bogus_.end(), 0);
}

std::uint32_t AdjRib::count_origin(Origin origin) const {
  std::uint32_t count = 0;
  for (const Route& r : best_) count += (r.origin == origin);
  return count;
}

void AdjRib::originate(AsId origin, Origin tag, AsId forged_tail) {
  const bool forged = forged_tail != kInvalidAs;
  set_best_path(origin, forged ? push_node(forged_tail, kNoPath) : kNoPath);
  best_[origin] = Route{tag, RouteClass::Self,
                        static_cast<std::uint16_t>(forged ? 2 : 1), kInvalidAs};
  best_slot_[origin] = kSelfSlot;
}

std::vector<AsId> AdjRib::materialize(PathId path) const {
  std::vector<AsId> out;
  for (; path != kNoPath; path = path_nodes_[path].tail) {
    out.push_back(path_nodes_[path].head);
  }
  return out;
}

void AdjRib::reselect(AsId v) {
  const bool is_t1 = config_.as_is_tier1(v);
  const std::uint32_t base = edge_offset_[v];
  const auto nbrs = graph_.neighbors(v);
  const Route before = best_[v];
  Route best{};
  std::uint32_t best_idx = kSelfSlot;
  for (std::uint32_t k = 0; k < nbrs.size(); ++k) {
    const Entry& entry = rib_[base + k];
    if (entry.cls == RouteClass::None) continue;
    // Ascending slot order keeps the remaining full ties on the lowest
    // neighbor id, matching EquilibriumEngine's tie order.
    if (best_idx == kSelfSlot ||
        displaces(best.origin, best.cls, best.path_len, entry.origin,
                  entry.cls, entry.len, is_t1, config_.tier1_shortest_path)) {
      best = Route{entry.origin, entry.cls, entry.len, nbrs[k].id};
      best_idx = base + k;
    }
  }
  best_[v] = best;
  best_slot_[v] = best_idx;
  if (best_idx != kSelfSlot) {
    set_best_path(v, rib_path_[best_idx]);
  } else {
    best_path_[v] = kNoPath;
  }
  record_route_change(prov_, v, best, before, generation_);
}

void AdjRib::record_blocked(AsId to, AsId from, std::uint16_t len) {
  prov_->record_edge(
      obs::make_edge(obs::InfectionEdgeKind::Blocked, to, from, generation_, len));
}

void AdjRib::flush_validator_drops() {
  if (validator_drops_ != 0) {
    BGPSIM_COUNTER_ADD("defense.validator_drops", validator_drops_);
  }
  validator_drops_ = 0;
}

}  // namespace bgpsim
