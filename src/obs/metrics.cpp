#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>

#include "obs/json.hpp"
#include "support/assert.hpp"

namespace bgpsim::obs {

HistogramSpec HistogramSpec::linear(double lo, double hi, std::size_t bins) {
  BGPSIM_REQUIRE(bins > 0 && hi > lo, "bad linear histogram spec");
  HistogramSpec spec;
  spec.bounds.reserve(bins);
  const double width = (hi - lo) / static_cast<double>(bins);
  for (std::size_t i = 1; i <= bins; ++i) {
    spec.bounds.push_back(lo + width * static_cast<double>(i));
  }
  return spec;
}

HistogramSpec HistogramSpec::exponential(double start, double factor,
                                         std::size_t bins) {
  BGPSIM_REQUIRE(bins > 0 && start > 0.0 && factor > 1.0,
                 "bad exponential histogram spec");
  HistogramSpec spec;
  spec.bounds.reserve(bins);
  double bound = start;
  for (std::size_t i = 0; i < bins; ++i) {
    spec.bounds.push_back(bound);
    bound *= factor;
  }
  return spec;
}

const HistogramSpec& latency_spec() {
  static const HistogramSpec spec = HistogramSpec::exponential(1e-6, 2.0, 34);
  return spec;
}

HistogramMetric::HistogramMetric(HistogramSpec spec)
    : spec_(std::move(spec)), counts_(spec_.bounds.size() + 1) {
  BGPSIM_REQUIRE(!spec_.bounds.empty(), "histogram needs at least one bound");
  BGPSIM_REQUIRE(std::is_sorted(spec_.bounds.begin(), spec_.bounds.end()),
                 "histogram bounds must ascend");
}

void HistogramMetric::observe(double x) {
  const auto it = std::upper_bound(spec_.bounds.begin(), spec_.bounds.end(), x);
  counts_[static_cast<std::size_t>(it - spec_.bounds.begin())].fetch_add(
      1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(x, std::memory_order_relaxed);
  // First observation seeds min/max; later ones CAS only when they extend the
  // range, so the steady state is a pair of relaxed loads.
  if (count_.load(std::memory_order_relaxed) == 1) {
    min_.store(x, std::memory_order_relaxed);
    max_.store(x, std::memory_order_relaxed);
    return;
  }
  double seen = min_.load(std::memory_order_relaxed);
  while (x < seen &&
         !min_.compare_exchange_weak(seen, x, std::memory_order_relaxed)) {
  }
  seen = max_.load(std::memory_order_relaxed);
  while (x > seen &&
         !max_.compare_exchange_weak(seen, x, std::memory_order_relaxed)) {
  }
}

double HistogramMetric::min() const {
  return count() ? min_.load(std::memory_order_relaxed) : 0.0;
}

double HistogramMetric::max() const {
  return count() ? max_.load(std::memory_order_relaxed) : 0.0;
}

double HistogramMetric::mean() const {
  const auto n = count();
  return n ? sum() / static_cast<double>(n) : 0.0;
}

std::uint64_t HistogramMetric::count_between(double lo, double hi) const {
  // Bucket i covers [bounds[i-1], bounds[i]); sum the buckets fully inside
  // the half-open query range [lo, hi).
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    const double bucket_lo = i == 0 ? -HUGE_VAL : spec_.bounds[i - 1];
    const double bucket_hi =
        i == spec_.bounds.size() ? HUGE_VAL : spec_.bounds[i];
    if (bucket_lo >= lo && bucket_hi <= hi) {
      total += counts_[i].load(std::memory_order_relaxed);
    }
  }
  return total;
}

void HistogramMetric::reset() {
  for (auto& c : counts_) c.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
  min_.store(0.0, std::memory_order_relaxed);
  max_.store(0.0, std::memory_order_relaxed);
}

Registry& Registry::instance() {
  static Registry registry;
  return registry;
}

Counter& Registry::counter(std::string_view name) {
  MutexLock lock(&mutex_);
  const auto it = counters_.find(name);
  if (it != counters_.end()) return it->second;
  return counters_[std::string(name)];
}

Gauge& Registry::gauge(std::string_view name) {
  MutexLock lock(&mutex_);
  const auto it = gauges_.find(name);
  if (it != gauges_.end()) return it->second;
  return gauges_[std::string(name)];
}

HistogramMetric& Registry::histogram(std::string_view name,
                                     const HistogramSpec& spec) {
  MutexLock lock(&mutex_);
  const auto it = histograms_.find(name);
  if (it != histograms_.end()) return *it->second;
  auto& slot = histograms_[std::string(name)];
  slot = std::make_unique<HistogramMetric>(spec);
  return *slot;
}

const HistogramMetric* Registry::find_histogram(std::string_view name) const {
  MutexLock lock(&mutex_);
  const auto it = histograms_.find(name);
  return it != histograms_.end() ? it->second.get() : nullptr;
}

RegistrySnapshot Registry::snapshot() const {
  MutexLock lock(&mutex_);
  RegistrySnapshot snap;
  for (const auto& [name, counter] : counters_) {
    snap.counters.emplace(name, counter.value());
  }
  for (const auto& [name, gauge] : gauges_) {
    snap.gauges.emplace(name, gauge.value());
  }
  for (const auto& [name, hist] : histograms_) {
    HistogramSnapshot h;
    h.bounds = hist->bounds();
    h.counts.reserve(h.bounds.size() + 1);
    for (std::size_t i = 0; i <= h.bounds.size(); ++i) {
      h.counts.push_back(hist->bucket_count(i));
    }
    h.count = hist->count();
    h.sum = hist->sum();
    h.min = hist->min();
    h.max = hist->max();
    snap.histograms.emplace(name, std::move(h));
  }
  return snap;
}

void Registry::reset() {
  MutexLock lock(&mutex_);
  for (auto& [name, counter] : counters_) counter.reset();
  for (auto& [name, gauge] : gauges_) gauge.reset();
  for (auto& [name, hist] : histograms_) hist->reset();
}

double HistogramSnapshot::approx_quantile(double q) const {
  if (count == 0) return 0.0;
  if (q <= 0.0) return min;
  if (q >= 1.0) return max;
  const double target = q * static_cast<double>(count);
  double cumulative = 0.0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    const double in_bucket = static_cast<double>(counts[i]);
    if (cumulative + in_bucket < target) {
      cumulative += in_bucket;
      continue;
    }
    // Interpolate inside bucket i, whose nominal range is
    // [bounds[i-1], bounds[i]) with min/max standing in at the extremes.
    const double lo = i == 0 ? min : bounds[i - 1];
    const double hi = i >= bounds.size() ? max : bounds[i];
    const double fraction = in_bucket == 0.0 ? 0.0 : (target - cumulative) / in_bucket;
    const double value = lo + (hi - lo) * fraction;
    return std::min(std::max(value, min), max);
  }
  return max;
}

namespace {

/// Emit one histogram as a JSON object: moments, p50/p90/p99, bucket bounds
/// and counts (the schema bgpsim-perfdiff parses).
void write_histogram_json(JsonWriter& json, const HistogramSnapshot& hist) {
  json.begin_object();
  json.field("count", hist.count);
  json.field("sum", hist.sum);
  json.field("min", hist.min);
  json.field("max", hist.max);
  json.field("p50", hist.approx_quantile(0.50));
  json.field("p90", hist.approx_quantile(0.90));
  json.field("p99", hist.approx_quantile(0.99));
  json.key("bounds");
  json.begin_array();
  for (const double b : hist.bounds) json.value(b);
  json.end_array();
  json.key("counts");
  json.begin_array();
  for (const std::uint64_t c : hist.counts) json.value(c);
  json.end_array();
  // The last slot of `counts` is the overflow bucket (observations above
  // bounds.back()). Surfaced explicitly so saturated tails are visible
  // without knowing the bucket-layout convention.
  json.field("overflow", hist.counts.empty() ? std::uint64_t{0}
                                             : hist.counts.back());
  json.end_object();
}

}  // namespace

std::string RegistrySnapshot::to_json() const {
  JsonWriter json;
  json.begin_object();
  json.key("counters");
  json.begin_object();
  for (const auto& [name, value] : counters) json.field(name, value);
  json.end_object();
  json.key("gauges");
  json.begin_object();
  for (const auto& [name, value] : gauges) json.field(name, value);
  json.end_object();
  json.key("histograms");
  json.begin_object();
  for (const auto& [name, hist] : histograms) {
    json.key(name);
    write_histogram_json(json, hist);
  }
  json.end_object();
  json.end_object();
  return std::move(json).str();
}

}  // namespace bgpsim::obs
