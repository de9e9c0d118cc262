// Detection evaluation: given the converged routing state of a hijack, how
// many vantage points saw the bogus route?
#pragma once

#include <cstdint>

#include "bgp/generation_engine.hpp"
#include "bgp/types.hpp"
#include "detect/probe_set.hpp"

namespace bgpsim {

struct DetectionOutcome {
  std::uint32_t probes_triggered = 0;
  /// Converged-table estimate of the first-detection generation: the bogus
  /// route reaches path length L at generation L-1 (the attacker originates
  /// at length 1, generation 0), so this is min(path_len - 1) over the
  /// triggered probes; 0 when none triggered. Campaigns report it.
  /// /v1/attack reports the generation-engine replay instead
  /// (first_detection_generation). Over samples of 400 transit attacks
  /// (DetectorExperiment::sample_transit_attacks) with 62 top-degree probes
  /// the two differ on 2-7 of ~390 detected attacks at 42,697 ASes / seed
  /// 2014, and on 25-37 of ~539 at 8,000 ASes. Two shapes cause it:
  ///  - the attacker is itself a probe: this reads 0, while the replay never
  ///    sees the origination and reads the next selection by a probe (a
  ///    neighbour at generation 1, or the echo back to the attacker at 2);
  ///  - a probe first selects a shorter bogus route and later a longer,
  ///    preferred one: this reads the final length, 1-3 above the replay.
  /// tests/detect_test.cpp (FirstDetection.*) pins both shapes.
  std::uint32_t first_generation_proxy = 0;
  bool detected() const { return probes_triggered > 0; }
};

/// A probe is triggered when its AS selected the attacker's route — the
/// paper's "seen (i.e. received and propagated onwards)" semantics: a BGP
/// monitor peered with a router observes that router's best paths.
/// Also fills the converged first-generation proxy.
DetectionOutcome evaluate_detection(const RouteTable& routes, const ProbeSet& probes);

/// Alternative "received" semantics: a probe is triggered when the bogus
/// announcement was merely *delivered* to its AS, even if rejected. An upper
/// bound on detector power (a monitor session would see the update before
/// the router's policy discards it). Generation engine only.
DetectionOutcome evaluate_detection_heard(const GenerationEngine& engine,
                                          const ProbeSet& probes);

/// Replay a propagation trace and return the generation in which some probe
/// first *selected* the attacker's route (TraceEdge::new_origin), i.e. the
/// earliest clock tick the detection service could have raised an alarm.
/// Returns 0 when no probe ever adopted the bogus route. /v1/attack reports
/// this; see DetectionOutcome::first_generation_proxy for how it differs
/// from the converged estimate campaigns report.
std::uint32_t first_detection_generation(const PropagationTrace& trace,
                                         const ProbeSet& probes);

}  // namespace bgpsim
