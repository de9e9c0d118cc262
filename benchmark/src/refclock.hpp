// Timings at the reference machine's speed.
//
// The cores of the reference VM change speed with other tenants' load, by
// up to 1.7x for seconds to minutes (results/host-drift.txt), so two runs
// of the same code read different wall times. A run therefore pauses its
// load about once a second for a calibration burst: a fixed route
// computation (refclock.cpp), written here apart from bgpsim, run on every
// core at once. Its time over its time on the reference VM is the host's
// slowdown at that moment; between two bursts the slowdown is their mean.
// End-to-end timings are wall time divided by that slowdown: the time the
// same work would have taken on the reference VM at its usual speed. The
// calibration never changes with the code under test, so a change that
// makes bgpsim faster shows in full.
#pragma once

#include <vector>

#include "stats.hpp"

namespace bgpbench {

/// Seconds of timed work between two calibration bursts.
inline constexpr double kBurstEveryS = 1.0;

struct Burst {
  double start_s = 0.0;
  double end_s = 0.0;
  double slowdown = 1.0;  ///< calibration time / reference calibration time
};

/// One calibration burst on kThreads threads; returns its slowdown. Any
/// load the caller drives must be paused while it runs.
double measure_slowdown();

class ReferenceClock {
 public:
  /// Run a calibration burst now and record it.
  void burst();

  /// Record a burst measured elsewhere (tests).
  void add(const Burst& burst) { bursts_.push_back(burst); }

  /// A wall interval in reference seconds: the integral of dt / slowdown(t),
  /// where time inside a burst does not count and slowdown(t) is the mean
  /// of the bursts on either side of t (the nearest burst before the first
  /// or after the last one). With no bursts, wall time.
  double ref_s(const Interval& wall) const { return integrate(wall, true); }

  /// ref_s of each interval.
  std::vector<double> ref_durations(const std::vector<Interval>& wall) const;

  /// Units per reference second of each segment.
  std::vector<double> ref_rates(const std::vector<Segment>& segments) const;

  /// A wall interval without the bursts inside it, in wall seconds.
  double busy_s(const Interval& wall) const { return integrate(wall, false); }

  /// Mean slowdown of the recorded bursts (1 with none).
  double mean_slowdown() const;

  std::size_t bursts() const { return bursts_.size(); }

 private:
  double integrate(const Interval& wall, bool scaled) const;

  std::vector<Burst> bursts_;  ///< in time order
};

}  // namespace bgpbench
