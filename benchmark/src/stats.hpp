// Sample statistics used by every bgpbench metric and by `bgpbench compare`.
#pragma once

#include <cstddef>
#include <vector>

namespace bgpbench {

/// Nearest-rank percentile, q in (0, 1]: the smallest sample with at least
/// q·n samples at or below it. 0 for an empty sample.
double percentile(std::vector<double> values, double q);

/// Samples strictly beyond the nearest-rank q-percentile of n samples.
std::size_t samples_beyond(std::size_t n, double q);

/// The reporting rule for a timing's tail: a percentile is only quoted when
/// at least ten samples lie beyond it.
bool tail_supported(std::size_t n, double q);

double median(std::vector<double> values);

double sum(const std::vector<double>& values);

/// First and third quartile as Python's statistics.quantiles(values, n=4)
/// (the default "exclusive" method) gives them. Needs >= 2 values; a single
/// value is its own quartiles.
struct Quartiles {
  double q1 = 0.0;
  double q3 = 0.0;
};
Quartiles quartiles(std::vector<double> values);

/// Whether a set-up step that has taken `times_s` so far runs again: at
/// least 3 times, then until the runs add up to 2 s, at most 15 times.
/// Set-up metrics are the medians. One 0.1 s topology generation varies by
/// ±20% from run to run, so short steps get more runs behind their median;
/// a 1 s snapshot save runs 3 times, which keeps a serve or campaign run
/// under 30 s when the VM is slow.
bool more_setup_reps(const std::vector<double>& times_s);

/// An interval on the monotonic clock, in seconds.
struct Interval {
  double from_s = 0.0;
  double to_s = 0.0;
};

/// The length of each interval.
std::vector<double> durations(const std::vector<Interval>& intervals);

/// Units of work completed in one stretch of a timed phase.
struct Segment {
  Interval wall;
  double units = 0.0;
};

/// Units per wall second of each segment.
std::vector<double> rates(const std::vector<Segment>& segments);

/// The tail of a run's step latencies, given in the order the steps ran:
/// the median of the q-percentile over consecutive chunks of the run, as
/// many as leave about 20 samples beyond q in each (one chunk when the run
/// has fewer than 40 beyond). A stall of the VM then moves the percentile
/// of the chunk it falls in, not the run's tail.
double chunked_percentile(const std::vector<double>& steps, double q);

/// How many chunks chunked_percentile cuts n steps into.
std::size_t tail_chunks(std::size_t n, double q);

/// Open-loop schedule: request i is due `i / rate` seconds after `start`.
/// Latency is counted from the due time, not the send time, so a stall
/// that delays later sends shows up in their latency (no coordinated
/// omission); lateness is how far behind the schedule a send went out.
struct OpenLoopSchedule {
  double start_s = 0.0;
  double rate_per_s = 1.0;

  double due_s(std::size_t index) const {
    return start_s + static_cast<double>(index) / rate_per_s;
  }
  Interval latency(std::size_t index, double done_s) const { return {due_s(index), done_s}; }
  double lateness_s(std::size_t index, double sent_s) const {
    const double late = sent_s - due_s(index);
    return late > 0.0 ? late : 0.0;
  }
};

}  // namespace bgpbench
