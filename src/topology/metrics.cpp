#include "topology/metrics.hpp"

#include <algorithm>
#include <deque>
#include <queue>

#include "support/assert.hpp"

namespace bgpsim {

namespace {

bool has_provider(const AsGraph& graph, AsId v) {
  for (const auto& nbr : graph.neighbors(v)) {
    if (nbr.rel == Rel::Provider) return true;
  }
  return false;
}

}  // namespace

TierClassification classify_tiers(const AsGraph& graph,
                                  std::uint32_t tier2_min_degree) {
  const std::uint32_t n = graph.num_ases();
  TierClassification tiers;
  tiers.is_tier1.assign(n, 0);
  tiers.is_tier2.assign(n, 0);

  // Candidates: provider-free ASes, considered in descending degree so the
  // greedy clique is seeded from the best-connected one.
  std::vector<AsId> candidates;
  for (AsId v = 0; v < n; ++v) {
    if (!has_provider(graph, v)) candidates.push_back(v);
  }
  std::sort(candidates.begin(), candidates.end(), [&graph](AsId a, AsId b) {
    const auto da = graph.degree(a), db = graph.degree(b);
    return da != db ? da > db : a < b;
  });

  for (const AsId cand : candidates) {
    bool peers_with_all = true;
    for (const AsId member : tiers.tier1) {
      const auto rel = graph.relationship(cand, member);
      if (!rel.has_value() || *rel != Rel::Peer) {
        peers_with_all = false;
        break;
      }
    }
    if (peers_with_all) {
      tiers.tier1.push_back(cand);
      tiers.is_tier1[cand] = 1;
    }
  }
  std::sort(tiers.tier1.begin(), tiers.tier1.end());

  const auto transit = transit_flags(graph);
  for (const AsId t1 : tiers.tier1) {
    for (const auto& nbr : graph.neighbors(t1)) {
      if (nbr.rel != Rel::Customer) continue;
      const AsId v = nbr.id;
      if (tiers.is_tier1[v] || tiers.is_tier2[v]) continue;
      if (transit[v] && graph.degree(v) >= tier2_min_degree) {
        tiers.is_tier2[v] = 1;
        tiers.tier2.push_back(v);
      }
    }
  }
  std::sort(tiers.tier2.begin(), tiers.tier2.end());
  return tiers;
}

std::vector<std::uint8_t> transit_flags(const AsGraph& graph) {
  const std::uint32_t n = graph.num_ases();
  std::vector<std::uint8_t> flags(n, 0);
  for (AsId v = 0; v < n; ++v) {
    for (const auto& nbr : graph.neighbors(v)) {
      if (nbr.rel == Rel::Customer) {
        flags[v] = 1;
        break;
      }
    }
  }
  return flags;
}

std::vector<AsId> transit_ases(const AsGraph& graph) {
  const auto flags = transit_flags(graph);
  std::vector<AsId> out;
  for (AsId v = 0; v < graph.num_ases(); ++v) {
    if (flags[v]) out.push_back(v);
  }
  return out;
}

std::vector<std::uint16_t> compute_depth(const AsGraph& graph,
                                         const std::vector<AsId>& roots) {
  const std::uint32_t n = graph.num_ases();
  std::vector<std::uint16_t> depth(n, kUnreachableDepth);
  std::deque<AsId> queue;
  for (const AsId root : roots) {
    depth[root] = 0;
    queue.push_back(root);
  }
  while (!queue.empty()) {
    const AsId v = queue.front();
    queue.pop_front();
    for (const auto& nbr : graph.neighbors(v)) {
      // Descend provider->customer links: nbr is v's customer, so nbr's
      // provider chain through v has length depth[v] + 1.
      if (nbr.rel != Rel::Customer) continue;
      if (depth[nbr.id] != kUnreachableDepth) continue;
      depth[nbr.id] = static_cast<std::uint16_t>(depth[v] + 1);
      queue.push_back(nbr.id);
    }
  }
  return depth;
}

std::vector<std::uint16_t> compute_depth(const AsGraph& graph,
                                         const TierClassification& tiers,
                                         bool include_tier2) {
  std::vector<AsId> roots = tiers.tier1;
  if (include_tier2) {
    roots.insert(roots.end(), tiers.tier2.begin(), tiers.tier2.end());
  }
  return compute_depth(graph, roots);
}

std::uint64_t customer_cone_size(const AsGraph& graph, AsId as_id) {
  std::vector<std::uint8_t> seen(graph.num_ases(), 0);
  std::deque<AsId> queue{as_id};
  seen[as_id] = 1;
  std::uint64_t count = 0;
  while (!queue.empty()) {
    const AsId v = queue.front();
    queue.pop_front();
    ++count;
    for (const auto& nbr : graph.neighbors(v)) {
      if (nbr.rel != Rel::Customer || seen[nbr.id]) continue;
      seen[nbr.id] = 1;
      queue.push_back(nbr.id);
    }
  }
  return count;
}

std::uint64_t reach(const AsGraph& graph, AsId as_id) {
  // Two-state BFS over the valley-free automaton without peer edges:
  // state Up (still climbing provider links) may continue Up or turn Down;
  // state Down (descending customer links) may only continue Down.
  const std::uint32_t n = graph.num_ases();
  std::vector<std::uint8_t> seen_up(n, 0), seen_down(n, 0);
  std::deque<std::pair<AsId, bool>> queue;  // bool: true = Up state
  queue.emplace_back(as_id, true);
  seen_up[as_id] = 1;
  seen_down[as_id] = 1;  // the AS reaches itself
  while (!queue.empty()) {
    const auto [v, up] = queue.front();
    queue.pop_front();
    for (const auto& nbr : graph.neighbors(v)) {
      if (up && nbr.rel == Rel::Provider) {
        if (!seen_up[nbr.id]) {
          seen_up[nbr.id] = 1;
          queue.emplace_back(nbr.id, true);
        }
      }
      if (nbr.rel == Rel::Customer) {
        if (!seen_down[nbr.id]) {
          seen_down[nbr.id] = 1;
          queue.emplace_back(nbr.id, false);
        }
      }
    }
  }
  std::uint64_t count = 0;
  for (AsId v = 0; v < n; ++v) {
    if (seen_down[v] || seen_up[v]) ++count;
  }
  return count;
}

std::vector<std::uint32_t> degrees(const AsGraph& graph) {
  std::vector<std::uint32_t> out(graph.num_ases());
  for (AsId v = 0; v < graph.num_ases(); ++v) out[v] = graph.degree(v);
  return out;
}

std::vector<AsId> ases_with_degree_at_least(const AsGraph& graph,
                                            std::uint32_t min_degree) {
  std::vector<AsId> out;
  for (AsId v = 0; v < graph.num_ases(); ++v) {
    if (graph.degree(v) >= min_degree) out.push_back(v);
  }
  std::sort(out.begin(), out.end(), [&graph](AsId a, AsId b) {
    const auto da = graph.degree(a), db = graph.degree(b);
    return da != db ? da > db : a < b;
  });
  return out;
}

std::vector<AsId> top_k_by_degree(const AsGraph& graph, std::size_t k) {
  std::vector<AsId> all(graph.num_ases());
  for (AsId v = 0; v < graph.num_ases(); ++v) all[v] = v;
  k = std::min(k, all.size());
  // Sort only the k winners: one pass over the ASes that mostly loses to
  // the k-th best degree, instead of sorting all n. The order is total, so
  // this is exactly a full sort cut to k.
  std::partial_sort(all.begin(), all.begin() + static_cast<std::ptrdiff_t>(k),
                    all.end(), [&graph](AsId a, AsId b) {
                      const auto da = graph.degree(a), db = graph.degree(b);
                      return da != db ? da > db : a < b;
                    });
  all.resize(k);
  return all;
}

bool is_stub(const AsGraph& graph, AsId as_id) {
  for (const auto& nbr : graph.neighbors(as_id)) {
    if (nbr.rel == Rel::Customer) return false;
  }
  return true;
}

bool is_multi_homed(const AsGraph& graph, AsId as_id, std::uint32_t n) {
  std::uint32_t providers = 0;
  for (const auto& nbr : graph.neighbors(as_id)) {
    if (nbr.rel == Rel::Provider && ++providers >= n) return true;
  }
  return false;
}

std::uint64_t topology_checksum(const AsGraph& graph) {
  std::uint64_t hash = 0xcbf29ce484222325ull;  // FNV-1a offset basis
  const auto fold = [&hash](std::uint64_t value) {
    // Byte-wise FNV-1a keeps the fold sensitive to byte order and width.
    for (int shift = 0; shift < 64; shift += 8) {
      hash ^= (value >> shift) & 0xffull;
      hash *= 0x100000001b3ull;  // FNV prime
    }
  };
  fold(graph.num_ases());
  for (AsId v = 0; v < graph.num_ases(); ++v) {
    fold(graph.asn(v));
    fold(graph.address_space(v));
    fold(graph.region(v));
    for (const auto& nbr : graph.neighbors(v)) {
      fold((static_cast<std::uint64_t>(nbr.id) << 8) |
           static_cast<std::uint64_t>(nbr.rel));
    }
  }
  return hash;
}

}  // namespace bgpsim
