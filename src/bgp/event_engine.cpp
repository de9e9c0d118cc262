#include "bgp/event_engine.hpp"

#include <algorithm>

#include "obs/obs.hpp"
#include "support/assert.hpp"
#include "support/rng.hpp"

namespace bgpsim {

EventEngine::EventEngine(const AsGraph& graph, EventEngineConfig config)
    : rib_(graph, std::move(config.policy)), max_events_(config.max_events) {
  BGPSIM_REQUIRE(config.min_delay > 0.0 && config.max_delay >= config.min_delay,
                 "bad delay range");
  Rng rng(config.delay_seed);
  delay_.resize(rib_.num_edges());
  for (auto& d : delay_) d = rng.uniform(config.min_delay, config.max_delay);
  announced_.assign(rib_.num_edges(), 0);
  first_bogus_.assign(graph.num_ases(), -1.0);
}

void EventEngine::reset() {
  rib_.reset();
  std::fill(announced_.begin(), announced_.end(), 0);
  std::fill(first_bogus_.begin(), first_bogus_.end(), -1.0);
  queue_ = {};
  next_seq_ = 0;
}

void EventEngine::schedule_exports(AsId v, double now) {
  const std::uint32_t base = rib_.first_edge(v);
  const auto nbrs = rib_.graph().neighbors(v);
  for (std::uint32_t k = 0; k < nbrs.size(); ++k) {
    const Neighbor& nbr = nbrs[k];
    const std::uint32_t edge = base + k;
    const AdjRib::Export kind = rib_.export_action(v, nbr);
    if (kind == AdjRib::Export::Withdraw && announced_[edge] == 0) continue;
    announced_[edge] = kind == AdjRib::Export::Announce;

    Message msg;
    msg.time = now + delay_[edge];
    msg.seq = next_seq_++;
    msg.from = v;
    msg.to = nbr.id;
    msg.rib_idx = rib_.mirror_index(edge, nbr.id);
    msg.kind = kind;
    if (kind == AdjRib::Export::Announce) {
      msg.entry = rib_.offered(v, nbr);
      msg.path = rib_.path_id(v);
    }
    queue_.push(msg);
  }
}

EventRunStats EventEngine::announce(AsId origin, Origin tag, double at_time,
                                    const ValidatorSet* validators) {
  const AsGraph& graph = rib_.graph();
  BGPSIM_REQUIRE(origin < graph.num_ases(), "announce: origin out of range");
  BGPSIM_REQUIRE(tag != Origin::None, "announce: tag must be Legit or Attacker");
  BGPSIM_REQUIRE(validators == nullptr || validators->size() == graph.num_ases(),
                 "validator set size mismatch");
  BGPSIM_TIMED_SCOPE("event.announce");
  BGPSIM_EVENT(::bgpsim::obs::EventRecord ev("run_start");
               ev.str("engine", "event");
               ev.u64("origin_asn", graph.asn(origin));
               ev.str("tag", to_string(tag));
               ev.f64("at_time", at_time);
               ev.emit());

  rib_.originate(origin, tag);
  if (tag == Origin::Attacker && first_bogus_[origin] < 0.0) {
    first_bogus_[origin] = at_time;
  }
  schedule_exports(origin, at_time);

  EventRunStats stats;
  stats.quiescent_time = at_time;
  [[maybe_unused]] std::size_t queue_peak = queue_.size();
  while (!queue_.empty()) {
    if (queue_.size() > queue_peak) queue_peak = queue_.size();
    if (stats.messages_delivered >= max_events_) {
      stats.converged = false;
      break;
    }
    const Message msg = queue_.top();
    queue_.pop();
    ++stats.messages_delivered;
    stats.quiescent_time = msg.time;
    bool changed = false;
    switch (msg.kind) {
      case AdjRib::Export::Announce:
        changed = rib_.deliver(msg.from, msg.to, msg.rib_idx, msg.entry,
                               msg.path, validators);
        break;
      case AdjRib::Export::Withdraw:
        changed = rib_.withdraw(msg.to, msg.rib_idx);
        break;
      case AdjRib::Export::Filtered:
        changed = rib_.drop_filtered(msg.to, msg.rib_idx);
        break;
    }
    if (!changed) continue;
    ++stats.messages_accepted;
    if (rib_.route(msg.to).origin == Origin::Attacker &&
        first_bogus_[msg.to] < 0.0) {
      first_bogus_[msg.to] = msg.time;
    }
    schedule_exports(msg.to, msg.time);
  }

  BGPSIM_COUNTER_ADD("engine.event_msgs_delivered", stats.messages_delivered);
  BGPSIM_COUNTER_ADD("engine.event_msgs_accepted", stats.messages_accepted);
  rib_.flush_validator_drops();
  // The event engine has no synchronous frontier; the in-flight message
  // queue's high-water mark is its convergence-shape equivalent.
  BGPSIM_HISTOGRAM_OBSERVE("engine.event_queue_peak",
                           ::bgpsim::obs::HistogramSpec::exponential(1.0, 2.0, 26),
                           queue_peak);
  BGPSIM_EVENT(::bgpsim::obs::EventRecord ev("run_end");
               ev.str("engine", "event");
               ev.boolean("converged", stats.converged);
               ev.u64("messages_delivered", stats.messages_delivered);
               ev.u64("messages_accepted", stats.messages_accepted);
               ev.u64("queue_peak", queue_peak);
               ev.f64("quiescent_time", stats.quiescent_time);
               ev.emit());
  return stats;
}

}  // namespace bgpsim
