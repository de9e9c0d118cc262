#include "serve/request_obs.hpp"

#include <unistd.h>

#include <algorithm>

#include "obs/obs.hpp"

namespace bgpsim::serve {
namespace {

bool id_char_ok(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9') || c == '.' || c == '_' || c == '-';
}

}  // namespace

void ServeStats::count_status(int status) {
  if (status >= 200 && status < 300) {
    status_2xx.fetch_add(1, std::memory_order_relaxed);
  } else if (status >= 400 && status < 500) {
    status_4xx.fetch_add(1, std::memory_order_relaxed);
  } else if (status >= 500 && status < 600) {
    status_5xx.fetch_add(1, std::memory_order_relaxed);
  }
}

void ServeStats::reset() {
  total.store(0, std::memory_order_relaxed);
  status_2xx.store(0, std::memory_order_relaxed);
  status_4xx.store(0, std::memory_order_relaxed);
  status_5xx.store(0, std::memory_order_relaxed);
  dropped.store(0, std::memory_order_relaxed);
  in_flight.store(0, std::memory_order_relaxed);
}

ServeStats& serve_stats() {
  static ServeStats stats;
  return stats;
}

const char* status_class(int status) {
  if (status >= 200 && status < 300) return "2xx";
  if (status >= 400 && status < 500) return "4xx";
  if (status >= 500 && status < 600) return "5xx";
  return "other";
}

std::string make_request_id(std::string_view passthrough, unsigned worker) {
  if (!passthrough.empty()) {
    std::string id;
    id.reserve(std::min<std::size_t>(passthrough.size(), 64));
    for (const char c : passthrough) {
      if (id.size() >= 64) break;
      id.push_back(id_char_ok(c) ? c : '-');
    }
    return id;
  }
  // Minted ids only need per-process uniqueness plus enough cross-process
  // disambiguation to join logs from restarts; pid + worker + a relaxed
  // counter does that without touching clocks or RNG policy.
  static std::atomic<std::uint64_t> next_seq{0};
  const std::uint64_t seq = next_seq.fetch_add(1, std::memory_order_relaxed);
  // Appends, not operator+ chains: GCC 12's -Werror=restrict false-fires on
  // the temporaries the chain creates at -O3.
  std::string id("r");
  id += std::to_string(static_cast<long>(getpid()));
  id += "-w";
  id += std::to_string(worker);
  id += '-';
  id += std::to_string(seq);
  return id;
}

#if !defined(BGPSIM_OBS_DISABLED)

namespace {

/// Bucket layout for microsecond phase/latency histograms: 1µs .. ~1.2h,
/// doubling (same shape as latency_spec(), in µs instead of seconds).
const obs::HistogramSpec& us_spec() {
  static const obs::HistogramSpec spec =
      obs::HistogramSpec::exponential(1.0, 2.0, 32);
  return spec;
}

}  // namespace

ScopedRequestId::ScopedRequestId(const std::string& id) {
  obs::set_thread_request_id(id);
}

ScopedRequestId::~ScopedRequestId() { obs::set_thread_request_id({}); }

void record_request(const RequestContext& ctx, int status,
                    std::size_t bytes_out, std::string_view request_body,
                    const RequestTimer& timer) {
  const char* cls = status_class(status);

  // Status-class counters + per-endpoint-and-class latency. Names are
  // composed (route and class vary), so these go through the registry
  // directly instead of the static-caching macros.
  obs::registry().counter(std::string("serve.status.") + cls).add(1);
  obs::registry()
      .histogram(std::string("serve.latency_us.") + ctx.route + "." + cls,
                 us_spec())
      .observe(static_cast<double>(timer.total_us()));

  BGPSIM_HISTOGRAM_OBSERVE("serve.phase.queue_wait_us", us_spec(),
                           timer.queue_wait_us());
  BGPSIM_HISTOGRAM_OBSERVE("serve.phase.read_us", us_spec(), timer.read_us());
  BGPSIM_HISTOGRAM_OBSERVE("serve.phase.handle_us", us_spec(),
                           timer.handle_us());
  BGPSIM_HISTOGRAM_OBSERVE("serve.phase.write_us", us_spec(), timer.write_us());

  obs::EventLogSink& log = obs::access_log_stream();
  if (!log.enabled()) return;

  const std::uint64_t slow_at = obs::slow_request_us();
  const bool slow = slow_at > 0 && timer.total_us() >= slow_at;

  obs::EventRecord ev("access", &log);
  ev.str("request_id", ctx.request_id)
      .str("route", ctx.route)
      .u64("worker", ctx.worker)
      .u64("status", static_cast<std::uint64_t>(status))
      .u64("bytes_out", static_cast<std::uint64_t>(bytes_out))
      .u64("queue_wait_us", timer.queue_wait_us())
      .u64("read_us", timer.read_us())
      .u64("handle_us", timer.handle_us())
      .u64("write_us", timer.write_us())
      .u64("total_us", timer.total_us());
  if (ctx.attack) {
    ev.boolean("warm", ctx.warm)
        .u64("generations", ctx.generations)
        .boolean("trace_enabled", ctx.trace_enabled)
        .u64("provenance_dropped", ctx.provenance_dropped);
  }
  if (slow) {
    // Slow-request capture: keep the full attack parameters so the exact
    // scenario can be replayed offline.
    ev.boolean("slow", true).str("params", request_body);
  }
  ev.emit();
}

#else  // BGPSIM_OBS_DISABLED

ScopedRequestId::ScopedRequestId(const std::string&) {}

ScopedRequestId::~ScopedRequestId() = default;

void record_request(const RequestContext&, int, std::size_t, std::string_view,
                    const RequestTimer&) {}

#endif  // BGPSIM_OBS_DISABLED

}  // namespace bgpsim::serve
