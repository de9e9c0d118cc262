// bgpsim::obs — umbrella header and instrumentation macros.
//
// All instrumentation points in library code go through these macros so one
// CMake switch (-DBGPSIM_OBS=OFF, which defines BGPSIM_OBS_DISABLED) reduces
// every one of them to a no-op with zero runtime cost. With instrumentation
// compiled in, each macro caches its metric handle in a function-local
// static: the name lookup (mutex) happens once per call site, and the per-hit
// cost is a relaxed atomic operation.
//
//   BGPSIM_COUNTER_ADD("engine.msgs_propagated", n);
//   BGPSIM_GAUGE_SET("defense.deployed_ases", k);
//   BGPSIM_HISTOGRAM_OBSERVE("engine.generations_to_converge",
//                            ::bgpsim::obs::HistogramSpec::linear(0, 32, 32),
//                            stats.generations);
//   BGPSIM_TIMED_SCOPE("generation.announce");   // -> time.generation.announce
//   BGPSIM_TRACE_SPAN(span, "generation");       // span.arg("n", g);
//   BGPSIM_EVENT(EventRecord ev("run_end"); ev.u64("gens", g); ev.emit());
//
// The registry, trace sink, and report emitter remain available as ordinary
// classes even when the macros are disabled (tools and benches may always
// snapshot or emit reports; they will simply be empty).
#pragma once

#include "obs/config.hpp"
#include "obs/eventlog.hpp"
#include "obs/heartbeat.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/progress.hpp"
#include "obs/provenance.hpp"
#include "obs/report.hpp"
#include "obs/timer.hpp"
#include "obs/trace.hpp"

#define BGPSIM_OBS_CAT2(a, b) a##b
#define BGPSIM_OBS_CAT(a, b) BGPSIM_OBS_CAT2(a, b)

#if defined(BGPSIM_OBS_DISABLED)

#define BGPSIM_COUNTER_ADD(name, n) ((void)0)
#define BGPSIM_GAUGE_SET(name, v) ((void)0)
#define BGPSIM_HISTOGRAM_OBSERVE(name, spec, x) ((void)0)
#define BGPSIM_TIMED_SCOPE(name) ((void)0)
#define BGPSIM_TRACE_SPAN(var, name) [[maybe_unused]] ::bgpsim::obs::NullSpan var
#define BGPSIM_TRACE_COUNTER(name, value) ((void)0)
#define BGPSIM_EVENT(...) ((void)0)
#define BGPSIM_PROGRESS(total) ((void)0)
#define BGPSIM_PROGRESS_TICK() ((void)0)
#define BGPSIM_PROGRESS_PHASE(name) ((void)0)

#else

#define BGPSIM_COUNTER_ADD(name, n)                                      \
  do {                                                                   \
    static ::bgpsim::obs::Counter& bgpsim_obs_counter =                  \
        ::bgpsim::obs::registry().counter(name);                         \
    bgpsim_obs_counter.add(static_cast<std::uint64_t>(n));               \
  } while (0)

#define BGPSIM_GAUGE_SET(name, v)                                        \
  do {                                                                   \
    static ::bgpsim::obs::Gauge& bgpsim_obs_gauge =                      \
        ::bgpsim::obs::registry().gauge(name);                           \
    bgpsim_obs_gauge.set(static_cast<double>(v));                        \
  } while (0)

#define BGPSIM_HISTOGRAM_OBSERVE(name, spec, x)                          \
  do {                                                                   \
    static ::bgpsim::obs::HistogramMetric& bgpsim_obs_hist =             \
        ::bgpsim::obs::registry().histogram(name, spec);                 \
    bgpsim_obs_hist.observe(static_cast<double>(x));                     \
  } while (0)

/// Declares a scoped timer: observes into histogram "time.<name>" and emits
/// a trace span. Two statements — do not use as a single-statement body.
#define BGPSIM_TIMED_SCOPE(name)                                         \
  static ::bgpsim::obs::HistogramMetric& BGPSIM_OBS_CAT(                 \
      bgpsim_obs_timed_hist_, __LINE__) =                                \
      ::bgpsim::obs::registry().histogram(std::string("time.") + (name), \
                                          ::bgpsim::obs::latency_spec());\
  ::bgpsim::obs::TimedScope BGPSIM_OBS_CAT(bgpsim_obs_timed_scope_,      \
                                           __LINE__)(                    \
      (name), BGPSIM_OBS_CAT(bgpsim_obs_timed_hist_, __LINE__))

/// Declares a named trace span variable; attach args with var.arg(k, v).
#define BGPSIM_TRACE_SPAN(var, name) ::bgpsim::obs::TraceSpan var(name)

/// Point on a Perfetto counter track (no-op unless tracing is active).
#define BGPSIM_TRACE_COUNTER(name, value)                                \
  do {                                                                   \
    if (::bgpsim::obs::trace_enabled()) {                                \
      ::bgpsim::obs::TraceSink::instance().counter((name), (value));     \
    }                                                                    \
  } while (0)

/// Emit one structured event-log record; the statements run only when an
/// event log is active (one relaxed bool load otherwise):
///
///   BGPSIM_EVENT(::bgpsim::obs::EventRecord ev("run_end");
///                ev.u64("generations", stats.generations);
///                ev.emit());
#define BGPSIM_EVENT(...)                                                \
  do {                                                                   \
    if (::bgpsim::obs::eventlog_enabled()) {                             \
      __VA_ARGS__;                                                       \
    }                                                                    \
  } while (0)

/// Declare `total` more units of expected work (attacks). Additive: nested
/// sweep stages each announce their own share and the campaign total
/// accretes; the heartbeat sampler turns it into done/total/rate/ETA.
#define BGPSIM_PROGRESS(total) \
  ::bgpsim::obs::progress().add_total(static_cast<std::uint64_t>(total))

/// Record one finished unit of work. Call at the completion choke point
/// (HijackSimulator::summarize and the drivers that bypass it), not in every
/// loop that merely forwards to it — ticks must count each attack once.
#define BGPSIM_PROGRESS_TICK() ::bgpsim::obs::progress().tick()

/// Name the current campaign phase for heartbeats. `name` must be a string
/// literal (the pointer is published to the sampler thread).
#define BGPSIM_PROGRESS_PHASE(name) ::bgpsim::obs::progress().set_phase(name)

#endif  // BGPSIM_OBS_DISABLED
