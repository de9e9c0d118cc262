#include "obs/heartbeat.hpp"

#ifndef BGPSIM_OBS_DISABLED

#include <unistd.h>

#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <utility>

#include "net/http_common.hpp"
#include "net/loopback_server.hpp"
#include "obs/eventlog.hpp"
#include "obs/mem.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/progress.hpp"
#include "obs/promtext.hpp"
#include "support/thread_annotations.hpp"

namespace bgpsim::obs {
namespace {

void format_eta(double eta_seconds, char* buf, std::size_t size) {
  if (eta_seconds < 0.0) {
    std::snprintf(buf, size, "?");
  } else if (eta_seconds < 120.0) {
    std::snprintf(buf, size, "%.0fs", eta_seconds);
  } else if (eta_seconds < 7200.0) {
    std::snprintf(buf, size, "%.0fm%02.0fs", eta_seconds / 60.0,
                  std::fmod(eta_seconds, 60.0));
  } else {
    std::snprintf(buf, size, "%.0fh%02.0fm", eta_seconds / 3600.0,
                  std::fmod(eta_seconds, 3600.0) / 60.0);
  }
}

void format_bytes(double bytes, char* buf, std::size_t size) {
  const char* units[] = {"B", "KiB", "MiB", "GiB", "TiB"};
  std::size_t u = 0;
  while (bytes >= 1024.0 && u + 1 < sizeof(units) / sizeof(units[0])) {
    bytes /= 1024.0;
    ++u;
  }
  std::snprintf(buf, size, "%.1f%s", bytes, units[u]);
}

/// Refresh the sampled gauges and snapshot the registry; shared by the
/// heartbeat interval and ad-hoc HTTP scrapes so both see fresh numbers.
std::string scrape_prom_text() {
  publish_mem_gauges();
  return to_prom_text(registry().snapshot());
}

/// One background sampler per process. Two capabilities:
///
///   mutex_       the lifecycle lock — guards running_/stop_requested_/the
///                thread handle, pairs with cv_ for the interval wait.
///   emit_mutex_  the emission lock — serializes emitters (sampler thread,
///                tests via emit_heartbeat_now, the stop path) and guards the
///                sink configuration they read; the prom-file atomic rename
///                uses one well-known temp name per target, so concurrent
///                rewrites must not interleave.
///
/// Lock order: mutex_ before emit_mutex_ (start() emits the first beat while
/// still holding the lifecycle lock); emit_mutex_ never takes mutex_.
///
/// stop() is careful about join ordering: it flips running_ and moves the
/// thread handle out under mutex_, then joins *outside* the lock (the
/// sampler thread takes mutex_ to wait, so joining under it would deadlock).
/// Because running_ is already false when the lock drops, a second stop() —
/// the destructor racing the atexit hook, or two threads draining at once —
/// returns immediately instead of joining a thread someone else owns.
class HeartbeatSampler {
 public:
  static HeartbeatSampler& instance() {
    static HeartbeatSampler sampler;
    return sampler;
  }

  void start(const Config& config) BGPSIM_EXCLUDES(mutex_, emit_mutex_) {
    MutexLock lock(&mutex_);
    if (running_) return;

    const bool any_sink = eventlog_enabled() || config.progress_stderr ||
                          !config.prom_file.empty() || config.prom_port != 0;
    if (!any_sink) return;

    // Touch the sink singletons before registering our atexit hook: atexit
    // handlers run before the destructors of statics constructed earlier, so
    // the final heartbeat in heartbeat_stop() always finds them alive.
    (void)registry();
    (void)EventLogSink::instance();
    (void)ProgressTracker::instance();

    {
      MutexLock emit_lock(&emit_mutex_);
      config_ = config;
    }

    if (config.prom_port != 0) {
      server_.start(config.prom_port, /*workers=*/1,
                    [](unsigned /*worker*/, int conn) {
                      net::answer_metrics_scrape(conn, scrape_prom_text);
                    });
    }
    stop_requested_ = false;
    running_ = true;

    emit();  // heartbeat at start — with the final one, always >= 2
    thread_ = std::thread([this] { loop(); });

    static const bool atexit_registered = [] {
      std::atexit([] { heartbeat_stop(); });
      return true;
    }();
    (void)atexit_registered;
  }

  void stop() BGPSIM_EXCLUDES(mutex_, emit_mutex_) {
    std::thread sampler;
    {
      MutexLock lock(&mutex_);
      if (!running_) return;
      running_ = false;
      stop_requested_ = true;
      sampler = std::move(thread_);
    }
    cv_.notify_all();
    if (sampler.joinable()) sampler.join();
    server_.stop();
    emit();  // final heartbeat: campaign-end state reaches every sink
    bool newline = false;
    {
      MutexLock emit_lock(&emit_mutex_);
      newline = config_.progress_stderr;
      config_ = Config{};  // later emit_heartbeat_now() calls reach no sink
    }
    if (newline && isatty(2) != 0) {
      std::fprintf(stderr, "\n");  // leave the live status line in place
    }
  }

  void emit() BGPSIM_EXCLUDES(emit_mutex_) {
    MutexLock lock(&emit_mutex_);
    const double now = EventLogSink::instance().now_seconds();
    const ProgressStats stats = ProgressTracker::instance().sample(now);
    const MemUsage mem = publish_mem_gauges();

    Registry& reg = registry();
    reg.gauge("progress.done").set(static_cast<double>(stats.done));
    reg.gauge("progress.total").set(static_cast<double>(stats.total));
    reg.gauge("progress.rate_per_second").set(stats.rate_per_second);
    reg.gauge("progress.eta_seconds").set(stats.eta_seconds);

    if (eventlog_enabled()) {
      EventRecord ev("heartbeat");
      ev.u64("done", stats.done).u64("total", stats.total);
      ev.f64("rate", stats.rate_per_second);
      ev.f64("eta_seconds", stats.eta_seconds);
      ev.str("phase", stats.phase);
      ev.u64("rss_bytes", mem.rss_bytes);
      ev.u64("rss_peak_bytes", mem.rss_peak_bytes);
      // Profiler health: a long sweep with a silently full sample ring
      // should be visible in the heartbeat stream, not only at stop time.
      const ProfilerStatus prof = profiler_status();
      ev.boolean("profiling", prof.active);
      ev.u64("profile_samples", prof.samples);
      ev.u64("profile_samples_dropped", prof.dropped);
      ev.emit();
    }

    if (!config_.prom_file.empty()) {
      write_prom_file(config_.prom_file, to_prom_text(reg.snapshot()));
    }
    if (config_.progress_stderr) print_status(stats, mem);
  }

 private:
  HeartbeatSampler() = default;

  void loop() BGPSIM_EXCLUDES(mutex_, emit_mutex_) {
    double interval = 1.0;
    {
      MutexLock emit_lock(&emit_mutex_);
      interval = config_.heartbeat_secs < 0.05 ? 0.05 : config_.heartbeat_secs;
    }
    for (;;) {
      bool stopping = false;
      {
        MutexLock lock(&mutex_);
        if (!stop_requested_) {
          // condition_variable_any releases and reacquires the Mutex itself;
          // a spurious or timeout wakeup just emits one beat early.
          cv_.wait_for(mutex_, std::chrono::duration<double>(interval));
        }
        stopping = stop_requested_;
      }
      if (stopping) return;  // stop() emits the final beat after the join
      emit();
    }
  }

  void print_status(const ProgressStats& stats, const MemUsage& mem)
      BGPSIM_REQUIRES(emit_mutex_) {
    char eta[32];
    char rss[32];
    format_eta(stats.eta_seconds, eta, sizeof(eta));
    format_bytes(static_cast<double>(mem.rss_bytes), rss, sizeof(rss));
    const double pct = stats.total > 0
                           ? 100.0 * static_cast<double>(stats.done) /
                                 static_cast<double>(stats.total)
                           : 0.0;
    char line[256];
    std::snprintf(line, sizeof(line),
                  "[bgpsim] %s%s%llu/%llu (%.1f%%) %.1f/s eta %s rss %s",
                  stats.phase, stats.phase[0] != '\0' ? " " : "",
                  static_cast<unsigned long long>(stats.done),
                  static_cast<unsigned long long>(stats.total), pct,
                  stats.rate_per_second, eta, rss);
    if (isatty(2) != 0) {
      std::fprintf(stderr, "\r\x1b[K%s", line);  // live-updating status line
    } else {
      std::fprintf(stderr, "%s\n", line);  // one parseable line per beat
    }
  }

  Mutex mutex_;
  std::condition_variable_any cv_;
  bool running_ BGPSIM_GUARDED_BY(mutex_) = false;
  bool stop_requested_ BGPSIM_GUARDED_BY(mutex_) = false;
  std::thread thread_ BGPSIM_GUARDED_BY(mutex_);

  Mutex emit_mutex_;
  Config config_ BGPSIM_GUARDED_BY(emit_mutex_);  // the sinks of this run
  net::LoopbackServer server_;  // GET /metrics; lifecycle-safe on its own lock
};

}  // namespace

void heartbeat_start(const Config& config) {
  HeartbeatSampler::instance().start(config);
}
void heartbeat_stop() { HeartbeatSampler::instance().stop(); }
void emit_heartbeat_now() { HeartbeatSampler::instance().emit(); }

}  // namespace bgpsim::obs

#endif  // BGPSIM_OBS_DISABLED
