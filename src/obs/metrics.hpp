// Process-wide metrics registry: named counters, gauges, and fixed-bucket
// histograms. Registration (name lookup) takes a mutex once; the returned
// handles are stable for the process lifetime and every hot-path operation
// on them (add/set/observe) is a relaxed atomic — no locks, no allocation.
//
// Instrumentation call sites should go through the macros in obs/obs.hpp,
// which cache the handle in a function-local static and compile to nothing
// under -DBGPSIM_OBS=OFF.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "support/thread_annotations.hpp"

namespace bgpsim::obs {

/// Monotonically increasing event count (messages, attacks, drops, ...).
class Counter {
 public:
  void add(std::uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-written instantaneous value (frontier size, deployment count, ...).
class Gauge {
 public:
  void set(double v) { value_.store(v, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Bucket layout of a histogram: ascending upper bounds. A sample x lands in
/// the first bucket with x < bound; samples >= the last bound land in an
/// implicit overflow bucket.
struct HistogramSpec {
  std::vector<double> bounds;

  /// `bins` equal-width buckets covering [lo, hi).
  static HistogramSpec linear(double lo, double hi, std::size_t bins);
  /// Geometric buckets: start, start*factor, start*factor^2, ...
  static HistogramSpec exponential(double start, double factor, std::size_t bins);
};

/// Canonical spec for scoped-timer latencies: 1µs .. ~4.7h, doubling.
const HistogramSpec& latency_spec();

/// Fixed-bucket distribution with atomic per-bucket counts plus running
/// count/sum/min/max. observe() is lock-free (relaxed atomics only).
class HistogramMetric {
 public:
  explicit HistogramMetric(HistogramSpec spec);

  void observe(double x);

  const std::vector<double>& bounds() const { return spec_.bounds; }
  /// counts_[i] pairs with bounds[i]; counts_[bounds.size()] is overflow.
  std::uint64_t bucket_count(std::size_t bucket) const {
    return counts_[bucket].load(std::memory_order_relaxed);
  }
  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  double min() const;  ///< 0 when empty
  double max() const;  ///< 0 when empty
  double mean() const;

  /// Observations in buckets fully contained in [lo, hi). Exact for
  /// integer-valued samples on unit-width buckets (e.g. generation counts:
  /// count_between(5, 11) == observations with 5 <= generations <= 10).
  std::uint64_t count_between(double lo, double hi) const;

  void reset();

 private:
  HistogramSpec spec_;
  std::vector<std::atomic<std::uint64_t>> counts_;  // bounds.size() + overflow
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_{0.0};
  std::atomic<double> max_{0.0};
};

/// Snapshot of one histogram for reporting (no atomics, plain data).
struct HistogramSnapshot {
  std::vector<double> bounds;
  std::vector<std::uint64_t> counts;  // bounds.size() + 1 (overflow last)
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;

  /// Approximate quantile (q in [0,1]) by linear interpolation inside the
  /// bucket containing the target rank, clamped to the observed [min, max].
  /// Exact at the bucket resolution — good enough for p50/p90/p99 latency
  /// summaries on the doubling latency_spec() buckets.
  double approx_quantile(double q) const;
};

/// Point-in-time copy of the whole registry.
struct RegistrySnapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, HistogramSnapshot> histograms;

  std::string to_json() const;
};

/// Name → metric registry. instance() is a process-wide singleton; tests may
/// construct private registries. Metric references remain valid until the
/// registry is destroyed (node-based storage).
class Registry {
 public:
  static Registry& instance();

  Counter& counter(std::string_view name) BGPSIM_EXCLUDES(mutex_);
  Gauge& gauge(std::string_view name) BGPSIM_EXCLUDES(mutex_);
  /// First call under a name fixes the bucket layout; later calls ignore
  /// `spec` and return the existing histogram.
  HistogramMetric& histogram(std::string_view name, const HistogramSpec& spec)
      BGPSIM_EXCLUDES(mutex_);
  /// Lookup without creating; nullptr when the name was never registered.
  const HistogramMetric* find_histogram(std::string_view name) const
      BGPSIM_EXCLUDES(mutex_);

  RegistrySnapshot snapshot() const BGPSIM_EXCLUDES(mutex_);
  std::string to_json() const { return snapshot().to_json(); }

  /// Zero every registered metric (names stay registered). Test helper.
  void reset() BGPSIM_EXCLUDES(mutex_);

 private:
  // mutex_ guards name registration only; the returned metric handles are
  // stable for the registry's lifetime (node-based maps) and every hot-path
  // operation on them is a relaxed atomic taken without this lock.
  mutable Mutex mutex_;
  std::map<std::string, Counter, std::less<>> counters_ BGPSIM_GUARDED_BY(mutex_);
  std::map<std::string, Gauge, std::less<>> gauges_ BGPSIM_GUARDED_BY(mutex_);
  std::map<std::string, std::unique_ptr<HistogramMetric>, std::less<>>
      histograms_ BGPSIM_GUARDED_BY(mutex_);
};

/// Shorthand for Registry::instance().
inline Registry& registry() { return Registry::instance(); }

}  // namespace bgpsim::obs
