// Asynchronous discrete-event BGP propagation with per-link delays.
//
// The paper's simulator is generation-synchronous ("in the next simulated
// clock tick"), which cannot express *when* things happen. This engine
// delivers each UPDATE or WITHDRAW after a deterministic per-link latency
// drawn once at construction, processing a global time-ordered event queue.
// What a delivery does (Adj-RIB-In, LOCAL_PREF, valley-free export, loop
// rejection, treat-as-withdraw) is GenerationEngine's own propagation core
// (bgp/adj_rib.hpp); only the scheduler differs. It answers two questions
// the synchronous model cannot:
//   * are the paper's end-state results robust to asynchronous timing?
//     (the same origin, route class and path length at every AS as
//     GenerationEngine; audit_runner and the tests assert it), and
//   * how long until a detector's probe sees a hijack? (first_bogus_time).
#pragma once

#include <cstdint>
#include <queue>
#include <vector>

#include "bgp/adj_rib.hpp"
#include "bgp/policy.hpp"
#include "bgp/types.hpp"
#include "topology/as_graph.hpp"

namespace bgpsim {

namespace obs {
class ProvenanceRecorder;  // obs/provenance.hpp
}  // namespace obs

struct EventEngineConfig {
  PolicyConfig policy;

  /// Per-link one-way delay is uniform in [min_delay, max_delay) seconds,
  /// sampled once per directed edge from `delay_seed`.
  double min_delay = 0.01;
  double max_delay = 0.20;
  std::uint64_t delay_seed = 1;

  /// Safety cap on processed messages (converged=false when exceeded).
  std::uint64_t max_events = 50'000'000;
};

struct EventRunStats {
  std::uint64_t messages_delivered = 0;
  std::uint64_t messages_accepted = 0;
  double quiescent_time = 0.0;  ///< timestamp of the last delivery
  bool converged = true;
};

class EventEngine {
 public:
  /// The graph must be sibling-free (see contract_siblings).
  EventEngine(const AsGraph& graph, EventEngineConfig config);

  void reset();

  /// Originate at `at_time` and process events to quiescence. Like
  /// GenerationEngine, can be called again (hijack = Legit then Attacker).
  EventRunStats announce(AsId origin, Origin tag, double at_time,
                         const ValidatorSet* validators = nullptr);

  const AsGraph& graph() const { return rib_.graph(); }
  const Route& route(AsId v) const { return rib_.route(v); }
  void export_routes(RouteTable& out) const { rib_.export_routes(out); }
  std::uint32_t count_origin(Origin origin) const {
    return rib_.count_origin(origin);
  }

  /// Time the AS first *selected* an Attacker-tagged route, or a negative
  /// value when it never did. Survives across announce() calls until reset().
  double first_bogus_time(AsId v) const { return first_bogus_[v]; }

  /// One-way delay of the directed link (u -> its k-th neighbor).
  double link_delay(AsId u, std::uint32_t slot) const {
    return delay_[rib_.first_edge(u) + slot];
  }

  /// Record infection edges (adopt/cure/blocked; see obs/provenance.hpp)
  /// into `recorder` during subsequent announce() calls; nullptr stops
  /// recording. The event engine has no generation clock, so the edge
  /// `generation` field is always 0. Recording never changes routing.
  void set_provenance(obs::ProvenanceRecorder* recorder) {
    rib_.set_provenance(recorder);
  }

 private:
  struct Message {
    double time = 0.0;
    std::uint64_t seq = 0;  ///< deterministic tiebreak for equal timestamps
    AsId from = kInvalidAs;
    AsId to = kInvalidAs;
    std::uint32_t rib_idx = 0;  ///< where it lands in `to`'s Adj-RIB-In
    AdjRib::Export kind = AdjRib::Export::Announce;
    AdjRib::Entry entry;                    ///< Announce only
    AdjRib::PathId path = AdjRib::kNoPath;  ///< Announce only

    bool operator>(const Message& other) const {
      if (time != other.time) return time > other.time;
      return seq > other.seq;
    }
  };

  /// Queue what v's current selection owes each neighbor, sent at `now`.
  void schedule_exports(AsId v, double now);

  AdjRib rib_;
  std::uint64_t max_events_;

  std::vector<double> delay_;  // per directed edge
  // Per directed edge: was the last message sent an announcement? A WITHDRAW
  // is due only then. The receiver's Adj-RIB-In cannot tell, because that
  // announcement may still be in flight.
  std::vector<std::uint8_t> announced_;
  std::vector<double> first_bogus_;

  std::priority_queue<Message, std::vector<Message>, std::greater<>> queue_;
  std::uint64_t next_seq_ = 0;
};

}  // namespace bgpsim
