#include "detect/detector.hpp"

#include "obs/obs.hpp"
#include "support/assert.hpp"

namespace bgpsim {

namespace {

void record_outcome(const DetectionOutcome& outcome) {
  BGPSIM_COUNTER_ADD("detect.evaluations", 1);
  if (!outcome.detected()) BGPSIM_COUNTER_ADD("detect.missed", 1);
}

}  // namespace

DetectionOutcome evaluate_detection(const RouteTable& routes,
                                    const ProbeSet& probes) {
  DetectionOutcome outcome;
  for (const AsId probe : probes.probes()) {
    BGPSIM_REQUIRE(probe < routes.routes.size(), "probe outside route table");
    const Route& route = routes.routes[probe];
    if (route.origin != Origin::Attacker) continue;
    const std::uint32_t gen = route.path_len > 0 ? route.path_len - 1U : 0U;
    if (outcome.probes_triggered == 0 || gen < outcome.first_generation_proxy) {
      outcome.first_generation_proxy = gen;
    }
    ++outcome.probes_triggered;
  }
  record_outcome(outcome);
  return outcome;
}

DetectionOutcome evaluate_detection_heard(const GenerationEngine& engine,
                                          const ProbeSet& probes) {
  DetectionOutcome outcome;
  for (const AsId probe : probes.probes()) {
    BGPSIM_REQUIRE(probe < engine.graph().num_ases(), "probe outside topology");
    if (engine.offered_bogus(probe)) ++outcome.probes_triggered;
  }
  record_outcome(outcome);
  return outcome;
}

std::uint32_t first_detection_generation(const PropagationTrace& trace,
                                         const ProbeSet& probes) {
  for (const GenerationFrame& frame : trace.frames) {
    for (const TraceEdge& edge : frame.edges) {
      if (edge.new_origin == Origin::Attacker && probes.contains(edge.to)) {
        BGPSIM_HISTOGRAM_OBSERVE("detect.first_detection_generation",
                                 ::bgpsim::obs::HistogramSpec::linear(0, 32, 32),
                                 frame.generation);
        BGPSIM_EVENT(::bgpsim::obs::EventRecord ev("first_detection");
                     ev.u64("generation", frame.generation);
                     ev.u64("probe", edge.to);
                     ev.emit());
        return frame.generation;
      }
    }
  }
  return 0;
}

}  // namespace bgpsim
