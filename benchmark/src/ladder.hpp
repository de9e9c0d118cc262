// The traced layer pass (`--trace 1`): replays a workload's first inputs
// in-process on one thread, timing each call into a layer's public
// function with steady_clock. Spans stay in memory, carry the input's
// request id, and are written at the end as Chrome trace JSON (spans.json)
// plus the per-layer means (layers.json).
#pragma once

#include <string>
#include <vector>

#include "client.hpp"
#include "workloads.hpp"

namespace bgpbench {

struct Span {
  const char* name = "";
  const char* parent = "";  ///< the enclosing span, "" at top level
  std::size_t request = 0;
  double start_s = 0.0;
  double end_s = 0.0;
};

/// In-memory span log of one traced pass.
class SpanLog {
 public:
  /// Time `fn` as layer `name` of input `request`; steps inside `fn` record
  /// this span as their parent. When recording is off the call runs
  /// untimed (the untraced replay the overhead is taken against).
  template <typename Fn>
  void step(const char* name, std::size_t request, Fn&& fn) {
    if (!recording_) {
      fn();
      return;
    }
    const char* parent = open_.empty() ? "" : open_.back();
    open_.push_back(name);
    const double start = now_s();
    fn();
    const double end = now_s();
    open_.pop_back();
    spans_.push_back({name, parent, request, start, end});
  }

  void set_recording(bool on) { recording_ = on; }

  /// Sum of the durations of spans named `name`, in seconds.
  double total_s(const char* name) const;

  /// The same sum per input, for inputs 0 .. inputs-1.
  std::vector<double> per_input_s(const char* name, std::size_t inputs) const;

  /// Chrome trace JSON ("traceEvents", complete events, µs).
  void write_chrome_trace(const std::string& path) const;

 private:
  bool recording_ = true;
  std::vector<const char*> open_;
  std::vector<Span> spans_;
};

/// Serve workloads: dispatch through an in-process WhatIfService plus the
/// handler's layers replayed one by one.
void trace_serve(const Workload& workload, const RunOptions& opt,
                 const RequestStream& stream, const std::string& snapshot_path,
                 RunResult& result);

/// Campaign: draw, warm attack, detection, fold and merge per sample.
void trace_campaign(const Workload& workload, const RunOptions& opt,
                    const std::string& snapshot_path, double samples_per_s,
                    RunResult& result);

/// Sweep: cold attack and the equilibrium engine per attack.
void trace_sweep(const Workload& workload, const RunOptions& opt,
                 double attacks_per_s, RunResult& result);

/// Write layers.json (the traced run's per-layer metrics) into opt.out_dir.
void write_layers_json(const Workload& workload, const RunOptions& opt,
                       const RunResult& result);

}  // namespace bgpbench
