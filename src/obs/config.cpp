#include "obs/config.hpp"

#include <atomic>
#include <cctype>
#include <filesystem>
#include <system_error>

#include "obs/eventlog.hpp"
#include "obs/heartbeat.hpp"
#include "obs/trace.hpp"
#include "support/env.hpp"
#include "support/thread_annotations.hpp"

namespace bgpsim::obs {
namespace {

/// BGPSIM_PROVENANCE: "1"/"true"/"on"/"yes" arm without a stream;
/// "0"/"false"/"off"/"no"/"" disarm; anything else is the stream path.
std::optional<std::string> parse_provenance(const std::string& raw) {
  std::string lower = raw;
  for (char& c : lower) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  if (lower.empty() || lower == "0" || lower == "false" || lower == "off" ||
      lower == "no") {
    return std::nullopt;
  }
  if (lower == "1" || lower == "true" || lower == "on" || lower == "yes") {
    return std::string();
  }
  return raw;
}

#if !defined(BGPSIM_OBS_DISABLED)
Mutex g_active_mutex;
Config g_active BGPSIM_GUARDED_BY(g_active_mutex);
std::atomic<std::uint64_t> g_slow_request_us{0};
#endif

}  // namespace

Config Config::from_env() {
  Config c;
  c.trace = env_string("BGPSIM_TRACE", c.trace);
  c.eventlog = env_string("BGPSIM_EVENTLOG", c.eventlog);
  c.access_log = env_string("BGPSIM_ACCESS_LOG", c.access_log);
  c.slow_req_us = env_u64("BGPSIM_SLOW_REQ_US", c.slow_req_us);
  c.provenance = parse_provenance(env_string("BGPSIM_PROVENANCE", ""));
  const std::uint64_t ring = env_u64("BGPSIM_PROVENANCE_RING", c.provenance_ring);
  c.provenance_ring = ring != 0 ? static_cast<std::size_t>(ring) : 1;
  c.profile = env_string("BGPSIM_PROFILE", c.profile);
  c.profile_hz = static_cast<unsigned>(env_u64("BGPSIM_PROFILE_HZ", c.profile_hz));
  c.profile_ring =
      static_cast<std::size_t>(env_u64("BGPSIM_PROFILE_RING", c.profile_ring));
  c.heartbeat_secs = env_f64("BGPSIM_HEARTBEAT_SECS", c.heartbeat_secs);
  c.progress_stderr = env_bool("BGPSIM_PROGRESS_STDERR", c.progress_stderr);
  c.prom_file = env_string("BGPSIM_PROM_FILE", c.prom_file);
  c.prom_port = static_cast<std::uint16_t>(env_u64("BGPSIM_PROM_PORT", c.prom_port));
  return c;
}

void Config::apply_flag(std::string_view name, const std::string& value) {
  if (name == "progress") {
    progress_stderr = true;
    return;
  }
  if (value.empty()) return;
  if (name == "trace") trace = value;
  if (name == "eventlog") eventlog = value;
  if (name == "profile") profile = value;
  if (name == "access-log") access_log = value;
}

#if defined(BGPSIM_OBS_DISABLED)

void start(const Config& /*config*/) {}
void stop() {}
Config active_config() { return {}; }

#else

void start(const Config& config) {
  {
    MutexLock lock(&g_active_mutex);
    g_active = config;
  }
  TraceSink::instance().set_output(config.trace);
  EventLogSink::instance().set_output(config.eventlog);
  provenance_stream().set_output(config.provenance.value_or(""));
  access_log_stream().set_output(config.access_log);
  g_slow_request_us.store(config.slow_req_us, std::memory_order_relaxed);
  if (!config.profile.empty()) {
    (void)profiler_start(config.profile, config.profile_hz, config.profile_ring);
  }
  heartbeat_start(config);  // last: an open event log is one of its sinks
}

void stop() {
  heartbeat_stop();  // final beat while the event log is still open
  profiler_stop();
  TraceSink& trace = TraceSink::instance();
  trace.flush();
  trace.set_output("");
  EventLogSink::instance().set_output("");
  provenance_stream().set_output("");
  access_log_stream().set_output("");
  g_slow_request_us.store(0, std::memory_order_relaxed);
  MutexLock lock(&g_active_mutex);
  g_active = Config{};
}

Config active_config() {
  MutexLock lock(&g_active_mutex);
  return g_active;
}

EventLogSink& access_log_stream() {
  static EventLogSink sink;
  return sink;
}

std::uint64_t slow_request_us() {
  return g_slow_request_us.load(std::memory_order_relaxed);
}

#endif  // BGPSIM_OBS_DISABLED

std::ofstream open_sink_file(const std::string& path) {
  const std::filesystem::path target(path);
  if (target.has_parent_path()) {
    // A failure here shows up as the open below failing.
    std::error_code ec;
    std::filesystem::create_directories(target.parent_path(), ec);
  }
  return std::ofstream(target, std::ios::binary | std::ios::trunc);
}

}  // namespace bgpsim::obs
