#include "bgp/warm_repair.hpp"

#include <vector>

#include "obs/obs.hpp"
#include "support/assert.hpp"

namespace bgpsim {
namespace {

struct RepairContext {
  const AsGraph& graph;
  const std::uint8_t* vmask;  // validator flags, or nullptr
  RouteTable& table;
  AsId attacker;
  bool stub_filter_attacker;  // first_hop_filtered(graph, config, attacker)
};

/// Full re-selection at `w` from every neighbor's current offer: the
/// candidate with the maximum selection_key, exactly the fold the cold
/// engines realize via sorted frontiers and sorted adjacency scans. Each
/// neighbor entry `nbr` is the sender as stored in `w`'s adjacency, so
/// `nbr.rel` is the sender's relationship from `w`'s viewpoint: the sender
/// exports everything when `w` is its customer (nbr.rel == Provider) and
/// only self/customer routes otherwise (valley-free), and the learned class
/// is route_class_from(nbr.rel). Split horizon, origin validation at `w`,
/// and the §IV stub first-hop filter all suppress the candidate.
Route reselect(const RepairContext& ctx, AsId w, bool tier1_len_first,
               std::uint64_t& scanned) {
  const bool w_validates = ctx.vmask != nullptr && ctx.vmask[w] != 0;
  Route best{};
  std::uint64_t best_key = 0;
  scanned += ctx.graph.neighbors(w).size();
  for (const auto& nbr : ctx.graph.neighbors(w)) {
    const Route& sent = ctx.table.routes[nbr.id];
    if (!sent.valid() || sent.via == w) continue;
    // exports_to(sent.cls, inverse(nbr.rel)), tested from the receiver's
    // side; this spelling keeps the hot scan fast.
    if (nbr.rel != Rel::Provider && sent.cls != RouteClass::Self &&
        sent.cls != RouteClass::Customer) {
      continue;
    }
    if (sent.origin == Origin::Attacker) {
      if (w_validates) continue;
      if (ctx.stub_filter_attacker && nbr.id == ctx.attacker &&
          nbr.rel == Rel::Customer) {
        continue;
      }
    }
    if (sent.path_len >= 0xffff) continue;  // transient churn; budget fires
    const Route cand{sent.origin, route_class_from(nbr.rel),
                     static_cast<std::uint16_t>(sent.path_len + 1), nbr.id};
    const std::uint64_t key = selection_key(cand, tier1_len_first);
    if (key > best_key) {
      best = cand;
      best_key = key;
    }
  }
  return best;
}

}  // namespace

bool warm_hijack_repair(const AsGraph& graph, const PolicyConfig& config,
                        AsId target, AsId attacker,
                        std::uint16_t attacker_seed_len,
                        const ValidatorSet* validators, RouteTable& table,
                        obs::ProvenanceRecorder* prov) {
  const std::uint32_t n = graph.num_ases();
  BGPSIM_REQUIRE(target < n, "target out of range");
  BGPSIM_REQUIRE(attacker < n, "attacker out of range");
  BGPSIM_REQUIRE(attacker != target, "attacker must differ from target");
  BGPSIM_REQUIRE(attacker_seed_len >= 1, "attacker_seed_len must be >= 1");
  BGPSIM_REQUIRE(table.routes.size() == n, "baseline table size mismatch");
  BGPSIM_REQUIRE(validators == nullptr || validators->size() == n,
                 "validator set size mismatch");
  BGPSIM_TIMED_SCOPE("warm.repair");

  const std::uint8_t* vmask = validators != nullptr ? validators->data() : nullptr;
  const bool t1sp = config.tier1_shortest_path;
  const std::uint8_t* tier1 =
      config.is_tier1.empty() ? nullptr : config.is_tier1.data();
  RepairContext ctx{graph, vmask, table, attacker,
                    first_hop_filtered(graph, config, attacker)};

  // Inject the bogus origin and seed the worklist there. FIFO order with an
  // in-queue bitmap keeps each AS at most once in flight.
  table.routes[attacker] =
      Route{Origin::Attacker, RouteClass::Self, attacker_seed_len, kInvalidAs};
  std::vector<AsId> queue;
  queue.reserve(256);
  std::vector<std::uint8_t> queued(n, 0);
  queue.push_back(attacker);
  queued[attacker] = 1;

  // Budget: the repair touches O(changed region); 64 pops per AS plus slack
  // is orders of magnitude above anything observed. Exhaustion means the
  // caller recomputes cold — slower, never wrong.
  const std::uint64_t budget = 64ull * n + 1024;
  std::uint64_t pops = 0;
  std::uint64_t reselects = 0;
  std::uint64_t reselect_scanned = 0;
  std::uint64_t pop_scanned = 0;

  std::size_t head = 0;
  [[maybe_unused]] std::size_t worklist_peak = queue.size();
  while (head < queue.size()) {
    if (queue.size() - head > worklist_peak) worklist_peak = queue.size() - head;
    const AsId v = queue[head++];
    queued[v] = 0;
    if (++pops > budget) {
      BGPSIM_COUNTER_ADD("warm.fallbacks", 1);
      return false;
    }
    // Compact the queue occasionally so it cannot grow without bound.
    if (head > 4096 && head * 2 > queue.size()) {
      queue.erase(queue.begin(),
                  queue.begin() + static_cast<std::ptrdiff_t>(head));
      head = 0;
    }

    // v's selection is fixed for this whole neighbor scan, so the offer each
    // receiver class would see (export rule, learned class, length) is
    // computable once per pop. Indexed by Neighbor::rel — the receiver's
    // role from v's viewpoint; siblings are contracted before simulation but
    // keep their slot.
    const Route sent = table.routes[v];
    const bool bogus = sent.origin == Origin::Attacker;
    Route offered[4];
    if (sent.valid() && sent.path_len < 0xffff) {
      const auto len = static_cast<std::uint16_t>(sent.path_len + 1);
      for (const Rel to : {Rel::Customer, Rel::Peer, Rel::Provider, Rel::Sibling}) {
        if (exports_to(sent.cls, to)) {
          offered[static_cast<int>(to)] =
              Route{sent.origin, route_class_from(inverse(to)), len, v};
        }
      }
    }
    // §IV stub filtering: v's own providers (receivers whose rel-from-v is
    // Provider) drop the bogus announcement arriving directly from v.
    if (bogus && ctx.stub_filter_attacker && v == attacker) {
      offered[static_cast<int>(Rel::Provider)] = Route{};
    }
    std::uint64_t key_plain[4];
    std::uint64_t key_t1[4];
    for (int rel = 0; rel < 4; ++rel) {
      key_plain[rel] = selection_key(offered[rel], false);
      key_t1[rel] = selection_key(offered[rel], t1sp);
    }

    // v's selection changed: every neighbor re-evaluates what v now offers.
    const auto nbrs = graph.neighbors(v);
    pop_scanned += nbrs.size();
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      // The adjacency walk is sequential but each neighbor's current route is
      // a dependent random load; fetch a few iterations ahead so the loads
      // overlap instead of serializing on cache misses.
      if (i + 6 < nbrs.size()) {
        __builtin_prefetch(&table.routes[nbrs[i + 6].id]);
      }
      const Neighbor nbr = nbrs[i];
      const AsId w = nbr.id;
      if (w == target || w == attacker) continue;  // origins keep Self routes
      const int rel = static_cast<int>(nbr.rel);
      const bool w_t1len = tier1 != nullptr && tier1[w] != 0 && t1sp;
      // Per-receiver blocks: split horizon and origin validation.
      std::uint64_t cand_key = w_t1len ? key_t1[rel] : key_plain[rel];
      if (sent.via == w) {
        cand_key = 0;
      } else if (bogus && vmask != nullptr && vmask[w] != 0) {
        if (prov != nullptr && cand_key != 0) {
          prov->record_edge(obs::make_edge(
              obs::InfectionEdgeKind::Blocked, w, v, 0,
              static_cast<std::uint16_t>(sent.path_len + 1)));
        }
        cand_key = 0;
      }
      const Route& cur = table.routes[w];
      const std::uint64_t cur_key = selection_key(cur, w_t1len);
      if (cand_key > cur_key) {
        const Route before = cur;  // cur aliases table.routes[w]; copy first
        table.routes[w] = offered[rel];
        record_route_change(prov, w, table.routes[w], before, 0);
        if (!queued[w]) {
          queue.push_back(w);
          queued[w] = 1;
        }
      } else if (cur.via == v &&
                 (cand_key == 0 || offered[rel].origin != cur.origin ||
                  offered[rel].path_len != cur.path_len)) {
        // w's current route came through v, and v no longer offers that
        // exact route (degraded or withdrawn): full re-selection.
        ++reselects;
        const Route sel = reselect(ctx, w, w_t1len, reselect_scanned);
        if (sel.origin != cur.origin || sel.cls != cur.cls ||
            sel.path_len != cur.path_len || sel.via != cur.via) {
          const Route before = cur;  // cur aliases table.routes[w]; copy first
          table.routes[w] = sel;
          record_route_change(prov, w, table.routes[w], before, 0);
          if (!queued[w]) {
            queue.push_back(w);
            queued[w] = 1;
          }
        }
      }
    }
  }

  BGPSIM_COUNTER_ADD("warm.repairs", 1);
  // High-water mark of pending (unpopped) worklist entries: how wide the
  // changed region gets, the warm-path analogue of engine.frontier_size.
  BGPSIM_HISTOGRAM_OBSERVE("warm.worklist_peak",
                           ::bgpsim::obs::HistogramSpec::exponential(1.0, 2.0, 22),
                           worklist_peak);
  BGPSIM_COUNTER_ADD("warm.pops", pops);
  BGPSIM_COUNTER_ADD("warm.reselects", reselects);
  BGPSIM_COUNTER_ADD("warm.reselect_scanned", reselect_scanned);
  BGPSIM_COUNTER_ADD("warm.pop_scanned", pop_scanned);
  return true;
}

}  // namespace bgpsim
