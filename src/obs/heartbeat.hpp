// Background heartbeat sampler: one thread per process (spawned lazily,
// joined at exit) that periodically turns the live state of a campaign into
// telemetry a human or a scraper can watch:
//
//   - a `heartbeat` NDJSON event in the event log
//     (done/total/rate/eta_seconds/phase/rss_bytes/rss_peak_bytes),
//   - `mem.*` and `progress.*` gauges in the metrics registry,
//   - a Prometheus exposition file (Config::prom_file, atomic rename per
//     interval — node_exporter textfile-collector compatible),
//   - an HTTP GET /metrics endpoint (Config::prom_port): a one-worker
//     net::LoopbackServer, the accept loop the query service also runs on,
//     answering each scrape with net::answer_metrics_scrape,
//   - an optional one-line stderr status (Config::progress_stderr).
//
// obs::start() calls heartbeat_start(), which is idempotent and does
// nothing unless at least one of those sinks is configured; the interval is
// Config::heartbeat_secs. Under -DBGPSIM_OBS=OFF everything here is an
// inline no-op and no thread code is emitted at all (kHeartbeatCompiled
// lets tests prove it at compile time).
#pragma once

#include "obs/config.hpp"

namespace bgpsim::obs {

#if defined(BGPSIM_OBS_DISABLED)

inline constexpr bool kHeartbeatCompiled = false;

inline void heartbeat_start(const Config& /*config*/) {}
inline void heartbeat_stop() {}
inline void emit_heartbeat_now() {}

#else

inline constexpr bool kHeartbeatCompiled = true;

/// Spawn the sampler thread if any of `config`'s heartbeat sinks (or the
/// open event log) is configured and it is not already running.
void heartbeat_start(const Config& config);

/// Emit one final heartbeat, stop the sampler, and join the thread.
/// Idempotent; also registered via atexit by heartbeat_start().
void heartbeat_stop();

/// Synchronously emit one heartbeat (events + gauges + prom file), whether
/// or not the sampler thread runs. Deterministic hook for tests.
void emit_heartbeat_now();

#endif  // BGPSIM_OBS_DISABLED

}  // namespace bgpsim::obs
