// Chrome trace-event / Perfetto-compatible trace sink.
//
// Once obs::start() gives it a path (Config::trace: BGPSIM_TRACE or
// --trace), spans emitted through TraceSpan are buffered and flushed to the
// path as trace-event JSON: open the file in chrome://tracing or
// https://ui.perfetto.dev. Each span is a complete ("ph":"X") event with
// microsecond timestamps relative to process start, a per-thread track, and
// optional numeric args.
//
// When tracing is inactive (the default) a span is a branch on one bool; a
// -DBGPSIM_OBS=OFF build compiles spans out entirely (see obs/obs.hpp).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "support/thread_annotations.hpp"

namespace bgpsim::obs {

class TraceSink {
 public:
  /// Process-wide sink; disabled until set_output() names a path.
  static TraceSink& instance();

  /// Buffered events (spans and counter points) kept per trace, about
  /// 28 MiB, so a traced daemon holds bounded memory. Later events are
  /// dropped and counted in trace.events_dropped.
  static constexpr std::size_t kMaxEvents = 262144;

  /// Lock-free fast-path check: spans branch on this before doing any work.
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// (Re)direct output (obs::start, tests) and start a fresh trace: events
  /// buffered so far are discarded, so flush() first to keep them. An empty
  /// path disables tracing.
  void set_output(std::string path) BGPSIM_EXCLUDES(mutex_);

  /// Microseconds since process trace epoch (steady clock).
  double now_us() const;

  /// Up to this many numeric args survive per span (small and fixed so the
  /// hot path never allocates for metadata).
  static constexpr std::size_t kMaxArgs = 4;

  struct Event {
    const char* name = "";  ///< must be a string literal / static storage
    const char* category = "bgpsim";
    double ts_us = 0.0;
    double dur_us = 0.0;
    std::uint32_t tid = 0;
    bool counter = false;  ///< a counter-track point (value in arg 0), not a span
    std::size_t n_args = 0;
    const char* arg_names[kMaxArgs] = {};
    double arg_values[kMaxArgs] = {};
  };

  void record(const Event& event) BGPSIM_EXCLUDES(mutex_);

  /// Emit a counter-track event ("ph":"C"): a named series Perfetto plots
  /// over time (e.g. polluted ASes per generation).
  void counter(const char* name, double value) BGPSIM_EXCLUDES(mutex_);

  /// Write everything buffered so far to the output path. Safe to call
  /// repeatedly; the file is rewritten with the full buffer each time.
  /// obs::stop() calls it, and so does process exit.
  void flush() BGPSIM_EXCLUDES(mutex_);

  /// Small dense id for the calling thread (trace "tid").
  std::uint32_t thread_id();

  ~TraceSink();

 private:
  TraceSink();

  /// Take the sink mutex once per thread to hand out the next dense id.
  std::uint32_t alloc_tid() BGPSIM_EXCLUDES(mutex_);

  std::atomic<bool> enabled_{false};
  std::int64_t epoch_ns_ = 0;  // set once in the constructor, then read-only
  Mutex mutex_;
  std::string path_ BGPSIM_GUARDED_BY(mutex_);
  std::vector<Event> events_ BGPSIM_GUARDED_BY(mutex_);
  std::uint32_t next_tid_ BGPSIM_GUARDED_BY(mutex_) = 0;
};

inline bool trace_enabled() { return TraceSink::instance().enabled(); }

/// RAII span: times its scope and records a complete event at destruction.
/// All methods no-op when tracing is inactive.
class TraceSpan {
 public:
  explicit TraceSpan(const char* name, const char* category = "bgpsim") {
    TraceSink& sink = TraceSink::instance();
    if (!sink.enabled()) return;
    active_ = true;
    event_.name = name;
    event_.category = category;
    event_.ts_us = sink.now_us();
  }

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  /// Attach a numeric arg (generation number, frontier size, ...). Silently
  /// drops args beyond kMaxArgs.
  void arg(const char* name, double value) {
    if (!active_ || event_.n_args >= TraceSink::kMaxArgs) return;
    event_.arg_names[event_.n_args] = name;
    event_.arg_values[event_.n_args] = value;
    ++event_.n_args;
  }

  ~TraceSpan() {
    if (!active_) return;
    TraceSink& sink = TraceSink::instance();
    event_.dur_us = sink.now_us() - event_.ts_us;
    event_.tid = sink.thread_id();
    sink.record(event_);
  }

 private:
  bool active_ = false;
  TraceSink::Event event_;
};

/// Drop-in for TraceSpan where instrumentation is compiled out.
struct NullSpan {
  void arg(const char*, double) {}
};

}  // namespace bgpsim::obs
