// One configuration for every observability sink: the BGPSIM_* knobs read
// once by Config::from_env(), CLI flags laid over them, and one
// start()/stop() pair that arms and tears down the sinks, the serve access
// log included. Layers above obs (HijackSimulator, /statusz) read
// active_config().
// Knob table (env var, CLI flag, default, field): DESIGN.md §7.
#pragma once

#include <cstddef>
#include <cstdint>
#include <fstream>
#include <optional>
#include <string>
#include <string_view>

#include "obs/profiler.hpp"
#include "obs/provenance.hpp"

namespace bgpsim::obs {

class EventLogSink;  // obs/eventlog.hpp

struct Config {
  std::string trace;       ///< BGPSIM_TRACE / --trace: Chrome trace path
  std::string eventlog;    ///< BGPSIM_EVENTLOG / --eventlog: NDJSON event log
  std::string access_log;  ///< BGPSIM_ACCESS_LOG / --access-log (serve)
  std::uint64_t slow_req_us = 0;  ///< BGPSIM_SLOW_REQ_US: 0 = no capture
  /// BGPSIM_PROVENANCE: unset = off; set = every HijackSimulator records
  /// infection edges; a non-empty value also streams them to that path.
  std::optional<std::string> provenance;
  std::size_t provenance_ring = kDefaultProvenanceRing;  ///< BGPSIM_PROVENANCE_RING
  std::string profile;                      ///< BGPSIM_PROFILE / --profile
  unsigned profile_hz = kDefaultProfileHz;  ///< BGPSIM_PROFILE_HZ
  std::size_t profile_ring = kDefaultProfileRing;  ///< BGPSIM_PROFILE_RING
  double heartbeat_secs = 1.0;   ///< BGPSIM_HEARTBEAT_SECS
  bool progress_stderr = false;  ///< BGPSIM_PROGRESS_STDERR / --progress
  std::string prom_file;         ///< BGPSIM_PROM_FILE
  std::uint16_t prom_port = 0;   ///< BGPSIM_PROM_PORT: 0 = no endpoint

  /// Every knob from the environment; unset or unparsable ones keep the
  /// defaults above.
  static Config from_env();

  /// Lay one CLI option (name without the leading "--") over the config: a
  /// flag wins over its env var. trace/eventlog/profile/access-log take a
  /// path (an empty one changes nothing); progress is a switch. Other names
  /// are ignored, so a caller can pass every option it parsed.
  void apply_flag(std::string_view name, const std::string& value);
};

/// Make `config` the active configuration and arm its sinks: trace, event
/// log, provenance stream, access log and its slow threshold, profiler, then
/// the heartbeat (which reads the open event log). Call once at startup,
/// before the work it observes.
void start(const Config& config);

/// Tear down what start() armed: final heartbeat, folded profile, trace
/// flush, event-log, provenance and access-log close; the active
/// configuration returns to the default. Idempotent.
void stop();

/// The configuration start() made active: the default before start() and
/// after stop(), and always under -DBGPSIM_OBS=OFF (where no sink is armed).
Config active_config();

#if !defined(BGPSIM_OBS_DISABLED)
/// The serve access log's NDJSON stream, open at Config::access_log between
/// start() and stop(). It is its own sink, so access records never
/// interleave with simulation events.
EventLogSink& access_log_stream();

/// Config::slow_req_us between start() and stop(), 0 otherwise: access
/// records of requests at least this slow carry the request parameters.
std::uint64_t slow_request_us();
#endif

/// Open `path` for writing (truncating), creating its parent directory
/// first. Every file sink opens through here; failure shows as a stream in
/// a failed state, and observability never takes down the run.
std::ofstream open_sink_file(const std::string& path);

}  // namespace bgpsim::obs
