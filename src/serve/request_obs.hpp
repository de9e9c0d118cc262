// Request-level observability for the query service: the per-request
// context threaded query_server -> router -> service, request-id
// assignment, phase timing, status-class accounting, and the records of the
// NDJSON access log (obs::access_log_stream(), armed by obs::start at
// Config::access_log, with slow-request capture at Config::slow_req_us;
// DESIGN.md §7).
//
// Phase taxonomy (all microseconds, DESIGN.md §12):
//   queue_wait  accept() -> first request byte (client/network idle; the
//               closest observable proxy for time spent queued — kernel
//               backlog wait is not visible to userspace)
//   read        first byte -> request fully read and parsed
//   handle      router dispatch, i.e. parse + convergence for /v1/attack
//   write       response serialization handed to the socket
//   total       read + handle + write — queue_wait is deliberately excluded
//               so latency numbers are honest about *our* cost
//
// Under -DBGPSIM_OBS=OFF the timers, histograms, and access log compile to
// no-ops; request ids, the X-Request-Id echo, and the always-on ServeStats
// totals behind /statusz remain.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#if !defined(BGPSIM_OBS_DISABLED)
#include "obs/timer.hpp"
#endif

namespace bgpsim::serve {

/// Per-request state handed through the router to handlers. The server
/// fills identity (request_id, worker), Router::dispatch the route; the
/// attack handler reports engine facts back (warm, generations) for the
/// access log.
struct RequestContext {
  std::string request_id;
  unsigned worker = 0;
  const char* route = "other";  ///< metric label: the matched route's (Router::add)
  bool attack = false;          ///< true once /v1/attack ran the engine
  bool warm = false;
  std::uint64_t generations = 0;
  bool trace_enabled = false;  ///< request asked for pollution provenance
  /// Provenance edges lost to ring overflow (0 when untraced or complete);
  /// logged so a truncated trace is visible at the access-log layer too.
  std::uint64_t provenance_dropped = 0;
};

/// Always-compiled request totals behind GET /statusz. Separate from the
/// obs registry so the endpoint answers identically under -DBGPSIM_OBS=OFF.
struct ServeStats {
  std::atomic<std::uint64_t> total{0};  ///< counted at read, before dispatch
  std::atomic<std::uint64_t> status_2xx{0};
  std::atomic<std::uint64_t> status_4xx{0};
  std::atomic<std::uint64_t> status_5xx{0};
  std::atomic<std::uint64_t> dropped{0};  ///< closed/stalled, never answered
  std::atomic<std::int64_t> in_flight{0};

  /// Bump the status-class counter for one answered request (total is
  /// counted separately, before dispatch, so /metrics and /statusz see the
  /// request that is fetching them).
  void count_status(int status);
  /// Zero everything (tests; the stats are process-wide).
  void reset();
};

/// Process-wide instance (the serve stack runs one server per process).
ServeStats& serve_stats();

/// "2xx" / "4xx" / "5xx" / "other" for a response status code.
const char* status_class(int status);

/// Echo a client-supplied X-Request-Id (sanitized: [A-Za-z0-9._-] only,
/// capped at 64 chars) or mint "r<pid>-w<worker>-<seq>" when absent.
std::string make_request_id(std::string_view passthrough, unsigned worker);

#if !defined(BGPSIM_OBS_DISABLED)

/// Phase clock for one connection. Construct right after accept(); feed
/// first_byte_hook to net::read_http_request; mark the remaining phase
/// boundaries in order. Unmarked phases read as zero.
class RequestTimer {
 public:
  /// net::HttpReadHook trampoline; `user` is the RequestTimer.
  static void first_byte_hook(void* user) {
    static_cast<RequestTimer*>(user)->mark_first_byte();
  }

  void mark_first_byte() { first_byte_s_ = watch_.elapsed_seconds(); }
  void mark_read_done() {
    read_done_s_ = watch_.elapsed_seconds();
    if (first_byte_s_ < 0.0) first_byte_s_ = read_done_s_;
  }
  void mark_handled() { handled_s_ = watch_.elapsed_seconds(); }
  void mark_written() { written_s_ = watch_.elapsed_seconds(); }

  std::uint64_t queue_wait_us() const { return micros(first_byte_s_); }
  std::uint64_t read_us() const { return micros(read_done_s_ - first_byte_s_); }
  std::uint64_t handle_us() const { return micros(handled_s_ - read_done_s_); }
  std::uint64_t write_us() const { return micros(written_s_ - handled_s_); }
  std::uint64_t total_us() const { return micros(written_s_ - first_byte_s_); }

 private:
  static std::uint64_t micros(double seconds) {
    return seconds > 0.0 ? static_cast<std::uint64_t>(seconds * 1e6) : 0;
  }

  obs::StopWatch watch_;
  double first_byte_s_ = -1.0;
  double read_done_s_ = 0.0;
  double handled_s_ = 0.0;
  double written_s_ = 0.0;
};

#else  // BGPSIM_OBS_DISABLED

/// Instrumentation compiled out: every mark is free, every reading is zero.
class RequestTimer {
 public:
  static void first_byte_hook(void*) {}
  void mark_first_byte() {}
  void mark_read_done() {}
  void mark_handled() {}
  void mark_written() {}
  std::uint64_t queue_wait_us() const { return 0; }
  std::uint64_t read_us() const { return 0; }
  std::uint64_t handle_us() const { return 0; }
  std::uint64_t write_us() const { return 0; }
  std::uint64_t total_us() const { return 0; }
};

#endif  // BGPSIM_OBS_DISABLED

/// Publishes the request id to obs::thread_request_id() for the scope of a
/// handler, so engine-level event-log records (attack_result) can carry it.
class ScopedRequestId {
 public:
  explicit ScopedRequestId(const std::string& id);
  ~ScopedRequestId();

  ScopedRequestId(const ScopedRequestId&) = delete;
  ScopedRequestId& operator=(const ScopedRequestId&) = delete;
};

/// Full per-request accounting: status-class counters, per-route latency and
/// phase histograms in the obs registry, and, while obs::start has the
/// access log open, one access-log record. A request whose total phase time
/// reaches obs::slow_request_us() (when nonzero) is marked "slow": true and
/// carries its raw body as "params"; `request_body` is only read then. No-op under -DBGPSIM_OBS=OFF (ServeStats is the caller's job —
/// it must be counted in both modes).
void record_request(const RequestContext& ctx, int status,
                    std::size_t bytes_out, std::string_view request_body,
                    const RequestTimer& timer);

}  // namespace bgpsim::serve
