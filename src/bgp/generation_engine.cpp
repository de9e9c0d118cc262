#include "bgp/generation_engine.hpp"

#include <algorithm>

#include "bgp/introspect.hpp"
#include "obs/obs.hpp"
#include "support/assert.hpp"

namespace bgpsim {

GenerationEngine::GenerationEngine(const AsGraph& graph, PolicyConfig config)
    : rib_(graph, std::move(config)) {
  changed_flag_.assign(graph.num_ases(), 0);
}

void GenerationEngine::reset() {
  rib_.reset();
  std::fill(changed_flag_.begin(), changed_flag_.end(), 0);
  frontier_.clear();
  next_frontier_.clear();
}

void GenerationEngine::load_converged(const RouteTable& table,
                                      std::span<const ViaPatch> vias) {
  rib_.load_converged(table, vias);
  std::fill(changed_flag_.begin(), changed_flag_.end(), 0);
  frontier_.clear();
  next_frontier_.clear();
}

void GenerationEngine::set_decision_watch(AsId watched, DecisionHistory* history) {
#if defined(BGPSIM_OBS_DISABLED)
  (void)watched;
  (void)history;
#else
  if (history != nullptr) {
    BGPSIM_REQUIRE(watched < graph().num_ases(),
                   "set_decision_watch: AS out of range");
    history->watched = watched;
  }
  watch_history_ = history;
  watch_as_ = history != nullptr ? watched : kInvalidAs;
  watch_round_ = 0;
#endif
}

void GenerationEngine::snapshot_watch(std::uint32_t generation) {
#if defined(BGPSIM_OBS_DISABLED)
  (void)generation;
#else
  const AsId v = watch_as_;
  const PolicyConfig& config = rib_.config();
  const bool is_t1 = config.as_is_tier1(v);

  DecisionSnapshot snap;
  snap.announce_round = watch_round_;
  snap.generation = generation;
  snap.selected = rib_.route(v);
  snap.selected_path = rib_.path_of(v);

  if (snap.selected.cls == RouteClass::Self) {
    DecisionCandidate self;
    self.neighbor = kInvalidAs;
    self.origin = snap.selected.origin;
    self.cls = RouteClass::Self;
    self.len = snap.selected.path_len;
    snap.candidates.push_back(std::move(self));
  }
  const std::uint32_t base = rib_.first_edge(v);
  const auto nbrs = graph().neighbors(v);
  for (std::uint32_t k = 0; k < nbrs.size(); ++k) {
    const AdjRib::Entry& entry = rib_.entry(base + k);
    if (entry.cls == RouteClass::None) continue;
    DecisionCandidate cand;
    cand.neighbor = nbrs[k].id;
    cand.origin = entry.origin;
    cand.cls = entry.cls;
    cand.len = entry.len;
    cand.path = rib_.entry_path(base + k);
    snap.candidates.push_back(std::move(cand));
  }

  // Rank in the engine's strict total order (a precedes b when a would
  // displace b); stable sort keeps the residual ascending-neighbor tie order
  // candidates were gathered in.
  std::stable_sort(
      snap.candidates.begin(), snap.candidates.end(),
      [&](const DecisionCandidate& a, const DecisionCandidate& b) {
        return displaces(b.origin, b.cls, b.len, a.origin, a.cls, a.len, is_t1,
                         config.tier1_shortest_path);
      });
  for (std::uint32_t rank = 0; rank < snap.candidates.size(); ++rank) {
    DecisionCandidate& cand = snap.candidates[rank];
    cand.rank = rank + 1;
    cand.selected = rank == 0;
    cand.reason = rank == 0
                      ? (snap.candidates.size() == 1
                             ? "only candidate"
                             : "best rank among " +
                                   std::to_string(snap.candidates.size()) +
                                   " candidates")
                      : losing_reason(snap.selected, cand.origin, cand.cls,
                                      cand.len, is_t1,
                                      config.tier1_shortest_path);
  }

  // Record only generations where the watched state actually moved.
  if (!watch_history_->snapshots.empty()) {
    const DecisionSnapshot& last = watch_history_->snapshots.back();
    const auto same_route = [](const Route& a, const Route& b) {
      return a.origin == b.origin && a.cls == b.cls && a.path_len == b.path_len &&
             a.via == b.via;
    };
    bool unchanged = same_route(last.selected, snap.selected) &&
                     last.selected_path == snap.selected_path &&
                     last.candidates.size() == snap.candidates.size();
    for (std::size_t i = 0; unchanged && i < snap.candidates.size(); ++i) {
      const DecisionCandidate& a = last.candidates[i];
      const DecisionCandidate& b = snap.candidates[i];
      unchanged = a.neighbor == b.neighbor && a.origin == b.origin &&
                  a.cls == b.cls && a.len == b.len && a.path == b.path;
    }
    if (unchanged) return;
  }
  watch_history_->snapshots.push_back(std::move(snap));
#endif
}

ConvergeStats GenerationEngine::announce(AsId origin, Origin tag,
                                         const ValidatorSet* validators,
                                         PropagationTrace* trace,
                                         AsId forged_tail) {
  const AsGraph& graph = rib_.graph();
  BGPSIM_REQUIRE(origin < graph.num_ases(), "announce: origin out of range");
  BGPSIM_REQUIRE(tag != Origin::None, "announce: tag must be Legit or Attacker");
  BGPSIM_REQUIRE(validators == nullptr || validators->size() == graph.num_ases(),
                 "validator set size mismatch");
  BGPSIM_REQUIRE(forged_tail == kInvalidAs ||
                     (forged_tail < graph.num_ases() && forged_tail != origin),
                 "announce: bad forged_tail");

  BGPSIM_TIMED_SCOPE("generation.announce");

  BGPSIM_EVENT(::bgpsim::obs::EventRecord ev("run_start");
               ev.str("engine", "generation");
               ev.u64("origin_asn", graph.asn(origin));
               ev.str("tag", to_string(tag));
               ev.boolean("forged_path", forged_tail != kInvalidAs);
               ev.emit());

  ConvergeStats stats;

  rib_.originate(origin, tag, forged_tail);
  frontier_.assign(1, origin);
  changed_flag_[origin] = 1;

#if !defined(BGPSIM_OBS_DISABLED)
  if (watch_history_ != nullptr) {
    ++watch_round_;
    snapshot_watch(0);  // state at origination (before any propagation)
  }
#endif

  // Safety cap only; Gao–Rexford-compatible policies converge long before.
  const std::uint32_t generation_cap = 4 * graph.num_ases() + 16;

#if !defined(BGPSIM_OBS_DISABLED)
  ::bgpsim::obs::StopWatch gen_watch;
#endif

  while (!frontier_.empty() && stats.generations < generation_cap) {
    ++stats.generations;
    rib_.set_generation(stats.generations);
    next_frontier_.clear();
    std::sort(frontier_.begin(), frontier_.end());

    [[maybe_unused]] const std::uint64_t gen_sent_before = stats.messages_sent;
    [[maybe_unused]] const std::uint64_t gen_accepted_before =
        stats.messages_accepted;
    [[maybe_unused]] const std::uint64_t gen_withdrawals_before =
        stats.withdrawals;

    BGPSIM_TRACE_SPAN(gen_span, "generation");
    gen_span.arg("generation", stats.generations);
    gen_span.arg("frontier", static_cast<double>(frontier_.size()));

    GenerationFrame frame;
    if (trace != nullptr) frame.generation = stats.generations;

    for (const AsId v : frontier_) {
      changed_flag_[v] = 0;
      const AdjRib::PathId announce_path = rib_.path_id(v);
      const std::uint32_t base = rib_.first_edge(v);
      const auto nbrs = graph.neighbors(v);
      for (std::uint32_t k = 0; k < nbrs.size(); ++k) {
        const Neighbor& nbr = nbrs[k];
        const std::uint32_t peer_rib_idx = rib_.mirror_index(base + k, nbr.id);
        const AdjRib::Export action = rib_.export_action(v, nbr);
        bool changed = false;
        switch (action) {
          case AdjRib::Export::Withdraw:
            // Nothing to offer. If an earlier selection WAS exported on this
            // edge, the neighbor still holds it (no message is in flight
            // between generations), so send an explicit WITHDRAW —
            // announce-only propagation would leave the neighbor routing
            // through a path that no longer exists (e.g. below a tier-1 that
            // switched from its customer route to a shorter peer route).
            if (!rib_.holds(peer_rib_idx)) continue;
            ++stats.messages_sent;
            ++stats.withdrawals;
            changed = rib_.withdraw(nbr.id, peer_rib_idx);
            break;
          case AdjRib::Export::Filtered:
            // The provider still *receives* the bogus origination before
            // discarding it ("heard" detection semantics). Not traced.
            ++stats.messages_sent;
            changed = rib_.drop_filtered(nbr.id, peer_rib_idx);
            break;
          case AdjRib::Export::Announce:
            ++stats.messages_sent;
            changed = rib_.deliver(v, nbr.id, peer_rib_idx, rib_.offered(v, nbr),
                                   announce_path, validators);
            break;
        }
        if (changed) {
          ++stats.messages_accepted;
          if (!changed_flag_[nbr.id]) {
            changed_flag_[nbr.id] = 1;
            next_frontier_.push_back(nbr.id);
          }
        }
        if (trace != nullptr && action != AdjRib::Export::Filtered) {
          frame.edges.emplace_back(v, nbr.id, changed, rib_.route(nbr.id).origin);
        }
      }
    }

    if (trace != nullptr) {
      frame.messages_sent = static_cast<std::uint32_t>(frame.edges.size());
      frame.messages_accepted = 0;
      for (const TraceEdge& e : frame.edges) frame.messages_accepted += e.accepted;
      frame.polluted_so_far = count_origin(Origin::Attacker);
      trace->frames.push_back(std::move(frame));
    }
    // Perfetto counter track: pollution over simulated generations. The
    // count is O(n), so only pay for it when a trace file is being written.
    BGPSIM_TRACE_COUNTER("engine.polluted_ases",
                         static_cast<double>(count_origin(Origin::Attacker)));
#if !defined(BGPSIM_OBS_DISABLED)
    // Per-generation convergence shape: frontier width, traffic, and wall
    // time. These histograms are what decides how ROADMAP item 4's
    // frontier-parallel inner loop gets chunked — a run dominated by a few
    // huge generations parallelizes very differently from one with many
    // narrow ones.
    const double gen_us = gen_watch.elapsed_seconds() * 1e6;
    gen_watch.restart();
    BGPSIM_HISTOGRAM_OBSERVE(
        "engine.frontier_size",
        ::bgpsim::obs::HistogramSpec::exponential(1.0, 2.0, 22),
        frontier_.size());
    BGPSIM_HISTOGRAM_OBSERVE(
        "engine.frontier_messages",
        ::bgpsim::obs::HistogramSpec::exponential(1.0, 2.0, 26),
        stats.messages_sent - gen_sent_before);
    BGPSIM_HISTOGRAM_OBSERVE(
        "engine.frontier_withdrawals",
        ::bgpsim::obs::HistogramSpec::exponential(1.0, 2.0, 26),
        stats.withdrawals - gen_withdrawals_before);
    BGPSIM_HISTOGRAM_OBSERVE(
        "engine.frontier_gen_us",
        ::bgpsim::obs::HistogramSpec::exponential(1.0, 2.0, 30), gen_us);
#endif
    // Same O(n) caveat for the event-log pollution field: the count runs
    // only when an event log is active.
    BGPSIM_EVENT(::bgpsim::obs::EventRecord ev("generation_end");
                 ev.u64("generation", stats.generations);
                 ev.u64("frontier", frontier_.size());
                 ev.u64("messages_sent", stats.messages_sent - gen_sent_before);
                 ev.u64("messages_accepted",
                        stats.messages_accepted - gen_accepted_before);
                 ev.u64("withdrawals", stats.withdrawals - gen_withdrawals_before);
                 ev.f64("gen_us", gen_us);
                 ev.u64("polluted", count_origin(Origin::Attacker));
                 ev.emit());

#if !defined(BGPSIM_OBS_DISABLED)
    if (watch_history_ != nullptr) snapshot_watch(stats.generations);
#endif

    frontier_.swap(next_frontier_);
  }

  stats.converged = frontier_.empty();
  BGPSIM_COUNTER_ADD("engine.announce_runs", 1);
  BGPSIM_COUNTER_ADD("engine.msgs_propagated", stats.messages_sent);
  BGPSIM_COUNTER_ADD("engine.msgs_accepted", stats.messages_accepted);
  BGPSIM_COUNTER_ADD("engine.withdrawals", stats.withdrawals);
  rib_.flush_validator_drops();
  BGPSIM_HISTOGRAM_OBSERVE("engine.generations_to_converge",
                           ::bgpsim::obs::HistogramSpec::linear(0, 64, 64),
                           stats.generations);
  BGPSIM_EVENT(::bgpsim::obs::EventRecord ev("run_end");
               ev.str("engine", "generation");
               ev.boolean("converged", stats.converged);
               ev.u64("generations", stats.generations);
               ev.u64("messages_sent", stats.messages_sent);
               ev.u64("messages_accepted", stats.messages_accepted);
               ev.u64("withdrawals", stats.withdrawals);
               ev.u64("polluted", count_origin(Origin::Attacker));
               ev.emit());
  return stats;
}

}  // namespace bgpsim
