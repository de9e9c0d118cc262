#include "obs/eventlog.hpp"

#include <chrono>

#include "obs/config.hpp"

namespace bgpsim::obs {

namespace {

std::int64_t steady_now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

EventLogSink& EventLogSink::instance() {
  static EventLogSink sink;
  return sink;
}

EventLogSink::EventLogSink() : epoch_ns_(steady_now_ns()) {}

EventLogSink::~EventLogSink() { flush(); }

void EventLogSink::set_output(const std::string& path) {
  MutexLock lock(&mutex_);
  if (out_.is_open()) {
    out_.flush();
    out_.close();
  }
  if (path.empty()) {
    enabled_.store(false, std::memory_order_relaxed);
    return;
  }
  // Observability must never take down an experiment: a failed open just
  // leaves the log disabled.
  out_ = open_sink_file(path);
  enabled_.store(out_.is_open(), std::memory_order_relaxed);
}

double EventLogSink::now_seconds() const {
  return static_cast<double>(steady_now_ns() - epoch_ns_) * 1e-9;
}

std::uint64_t EventLogSink::write_record(std::string_view open_object) {
  MutexLock lock(&mutex_);
  const std::uint64_t seq = next_seq_++;
  if (out_.is_open()) {
    // Crash safety: flush every line. A killed sweep (OOM, Ctrl-C, CI
    // timeout) leaves at worst one torn trailing line; every complete line
    // stays parseable. Heartbeats make the log a liveness signal, which only
    // works if records reach the file as they happen.
    out_ << open_object << ",\"seq\":" << seq << "}\n";
    out_.flush();
  }
  return seq;
}

void EventLogSink::flush() {
  MutexLock lock(&mutex_);
  if (out_.is_open()) out_.flush();
}

namespace {

thread_local std::string t_request_id;  // NOLINT

}  // namespace

void set_thread_request_id(std::string_view id) { t_request_id.assign(id); }

const std::string& thread_request_id() { return t_request_id; }

EventRecord::EventRecord(const char* type, EventLogSink* sink)
    : sink_(sink != nullptr ? sink : &EventLogSink::instance()) {
  json_.begin_object();
  json_.field("type", type);
  json_.field("ts", sink_->now_seconds());
}

void EventRecord::emit() {
  if (emitted_) return;
  emitted_ = true;
  EventLogSink& sink = *sink_;
  if (!sink.enabled()) return;
  // The writer's object is still open (no end_object): the sink appends the
  // seq field and the closing brace under its lock.
  sink.write_record(json_.str());
}

}  // namespace bgpsim::obs
