// Structured NDJSON event log: one JSON object per line, one line per
// simulation event, appended to the file the eventlog knob names (DESIGN.md
// §7 knob table). Where the metrics registry aggregates and the trace
// sink times, the event log *narrates*: run_start / generation_end /
// attack_injected / first_detection / run_end records carry enough context
// to reconstruct what a run did without re-running it.
//
// Schema (every record):
//   type  string   record type (see below)
//   ts    number   seconds since the sink's epoch (steady clock)
//   seq   number   strictly increasing per process, assigned at write
// plus per-type fields documented in DESIGN.md §7. Consumers must ignore
// unknown fields; emitters must never remove or retype the required three.
//
// Emission sites go through the BGPSIM_EVENT(...) macro in obs/obs.hpp: one
// relaxed atomic load when the log is disabled (the default), nothing at all
// under -DBGPSIM_OBS=OFF.
#pragma once

#include <atomic>
#include <cstdint>
#include <fstream>
#include <string>
#include <string_view>

#include "obs/json.hpp"
#include "support/thread_annotations.hpp"

namespace bgpsim::obs {

class EventLogSink {
 public:
  /// A standalone, disabled sink. Secondary NDJSON streams — the serve
  /// access log, say — construct their own sink so they get the same
  /// locked-seq/flush-per-line discipline without interleaving with the
  /// simulation event log.
  EventLogSink();

  /// Process-wide sink; disabled until set_output() names a path.
  static EventLogSink& instance();

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// (Re)direct output (obs::start, tests). An empty path disables logging
  /// and flushes what was written. The file is truncated on open — an event
  /// log documents one run, not a history of runs.
  void set_output(const std::string& path) BGPSIM_EXCLUDES(mutex_);

  /// Seconds since the sink epoch (steady clock).
  double now_seconds() const;

  /// Append one NDJSON line. `open_object` is the record's JSON object up
  /// to (excluding) the closing brace — the sink appends the "seq" field
  /// and closes it, so sequence numbers match file order even under
  /// concurrent emitters. Returns the assigned sequence number.
  std::uint64_t write_record(std::string_view open_object)
      BGPSIM_EXCLUDES(mutex_);

  /// Flush buffered lines to disk. write_record already flushes each line
  /// (crash safety: a killed sweep leaves at worst one torn trailing line);
  /// this remains for set_output("") and the destructor.
  void flush() BGPSIM_EXCLUDES(mutex_);

  ~EventLogSink();

 private:
  // enabled_ is the lock-free fast-path check (one relaxed load per
  // BGPSIM_EVENT site when no log is configured); mutex_ serializes the
  // stream and the seq counter so records land whole and in seq order.
  std::atomic<bool> enabled_{false};
  Mutex mutex_;
  std::ofstream out_ BGPSIM_GUARDED_BY(mutex_);
  std::uint64_t next_seq_ BGPSIM_GUARDED_BY(mutex_) = 0;
  std::int64_t epoch_ns_ = 0;  // set once in the constructor, then read-only
};

inline bool eventlog_enabled() { return EventLogSink::instance().enabled(); }

/// Per-thread correlation id joining engine-level event-log records to the
/// serve request that triggered them. Empty (the default) means "not inside
/// a request"; emitters that care (attack_result) attach it when set. The
/// serve layer scopes it around handler dispatch.
void set_thread_request_id(std::string_view id);
const std::string& thread_request_id();

/// Builder for one event record. Construct with the type, add fields, then
/// emit() exactly once; ts is sampled at construction, seq at emission.
/// Records target the process-wide sink unless a specific one is given.
///
///   EventRecord ev("generation_end");
///   ev.u64("generation", g).u64("messages_sent", n);
///   ev.emit();
class EventRecord {
 public:
  explicit EventRecord(const char* type, EventLogSink* sink = nullptr);

  EventRecord& u64(std::string_view key, std::uint64_t value) {
    json_.field(key, value);
    return *this;
  }
  EventRecord& f64(std::string_view key, double value) {
    json_.field(key, value);
    return *this;
  }
  EventRecord& str(std::string_view key, std::string_view value) {
    json_.field(key, value);
    return *this;
  }
  EventRecord& boolean(std::string_view key, bool value) {
    json_.field(key, value);
    return *this;
  }

  /// Close the record and append it to the sink (no-op when disabled).
  void emit();

 private:
  JsonWriter json_;
  EventLogSink* sink_;
  bool emitted_ = false;
};

}  // namespace bgpsim::obs
