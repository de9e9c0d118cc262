#include "obs/trace.hpp"

#include <chrono>
#include <fstream>

#include "obs/config.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"

namespace bgpsim::obs {

namespace {

std::int64_t steady_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

TraceSink& TraceSink::instance() {
  static TraceSink sink;
  return sink;
}

TraceSink::TraceSink() : epoch_ns_(steady_ns()) {}

TraceSink::~TraceSink() { flush(); }

void TraceSink::set_output(std::string path) {
  MutexLock lock(&mutex_);
  path_ = std::move(path);
  events_.clear();
  enabled_.store(!path_.empty(), std::memory_order_relaxed);
}

double TraceSink::now_us() const {
  return static_cast<double>(steady_ns() - epoch_ns_) / 1000.0;
}

std::uint32_t TraceSink::alloc_tid() {
  MutexLock lock(&mutex_);
  return next_tid_++;
}

std::uint32_t TraceSink::thread_id() {
  // thread_local caches the assignment so the sink's mutex is only touched
  // on a thread's first event.
  thread_local std::uint32_t tid = alloc_tid();
  return tid;
}

void TraceSink::record(const Event& event) {
  MutexLock lock(&mutex_);
  if (events_.size() < kMaxEvents) {
    events_.push_back(event);
    return;
  }
  // Registered on the first drop only, so reports and /metrics of a run
  // that stays under the cap carry no trace.* counter at all.
  static Counter& dropped = registry().counter("trace.events_dropped");
  dropped.add(1);
}

void TraceSink::counter(const char* name, double value) {
  if (!enabled()) return;
  Event event;
  event.name = name;
  event.ts_us = now_us();
  event.counter = true;
  event.n_args = 1;
  event.arg_names[0] = "value";
  event.arg_values[0] = value;
  record(event);
}

void TraceSink::flush() {
  MutexLock lock(&mutex_);
  if (path_.empty() || events_.empty()) return;

  JsonWriter json;
  json.begin_object();
  json.field("displayTimeUnit", "ms");
  json.key("traceEvents");
  json.begin_array();
  for (const Event& e : events_) {
    json.begin_object();
    json.field("name", e.name);
    json.field("cat", e.category);
    json.field("ph", e.counter ? "C" : "X");
    json.field("ts", e.ts_us);
    if (!e.counter) json.field("dur", e.dur_us);
    json.field("pid", std::uint64_t{1});
    if (!e.counter) json.field("tid", static_cast<std::uint64_t>(e.tid));
    if (e.n_args > 0) {
      json.key("args");
      json.begin_object();
      for (std::size_t i = 0; i < e.n_args; ++i) {
        json.field(e.arg_names[i], e.arg_values[i]);
      }
      json.end_object();
    }
    json.end_object();
  }
  json.end_array();
  json.end_object();

  std::ofstream out = open_sink_file(path_);
  if (out) out << json.str();
}

}  // namespace bgpsim::obs
