#include "obs/provenance.hpp"

#if !defined(BGPSIM_OBS_DISABLED)

#include "obs/config.hpp"
#include "obs/eventlog.hpp"

namespace bgpsim::obs {

ProvenanceRecorder::ProvenanceRecorder(std::size_t capacity)
    : capacity_(capacity != 0 ? capacity : active_config().provenance_ring),
      edges_(capacity_) {}

EventLogSink& provenance_stream() {
  static EventLogSink sink;
  return sink;
}

EventLogSink* provenance_sink() {
  EventLogSink& sink = provenance_stream();
  return sink.enabled() ? &sink : nullptr;
}

}  // namespace bgpsim::obs

#endif  // BGPSIM_OBS_DISABLED
