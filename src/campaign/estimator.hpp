// Streaming estimators for Monte-Carlo hijack campaigns.
//
// A campaign observes integer-valued outcomes (polluted-AS counts,
// detection generations) one sample at a time and must report means,
// variances, confidence intervals and quantiles without ever holding the
// sample stream in memory. Workers run samples in parallel, but the driver
// folds every outcome into its stratum's estimators in sample-index order
// after each round, so nothing here is merged on the campaign path. Three
// fixed-memory summaries cover that:
//
//   MomentAccumulator   count/sum/sum-of-squares kept in *exact integer*
//                       arithmetic (64-bit sum, 128-bit sum of squares via a
//                       manual carry), so estimates round only at the final
//                       read. merge() is a plain integer add — bit-for-bit
//                       associative and commutative — for callers that do
//                       shard a stream: the bgpbench ladder's campaign.merge
//                       layer and the merge-order tests.
//   P2Quantile          Jain & Chlamtac's P² marker algorithm: one running
//                       quantile estimate in O(1) memory. Stream-order
//                       dependent by construction, so the driver keeps one
//                       per stratum and feeds it in deterministic sample-index
//                       order; P² states are never merged.
//   QuantileReservoir   fixed-capacity uniform sample of the stream
//                       (Algorithm R), randomized by caller-supplied words
//                       from the campaign's counter-based RNG — deterministic
//                       regardless of thread interleaving. Pooled quantiles
//                       across strata come from the weighted union of the
//                       per-stratum reservoirs (weighted_quantile below).
//
// These types are campaign-internal: bgpsim-lint's campaign-home rule keeps
// them out of other subsystems so there is exactly one implementation of the
// campaign statistics to audit.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "support/assert.hpp"

namespace bgpsim::campaign {

/// z for the normal-approximation 95% confidence interval.
inline constexpr double kZ95 = 1.959963984540054;

/// Exact integer moment sums of a stream of u32 values. All state is
/// integral, so merging two accumulators (integer additions, min/max) is
/// exactly associative and commutative — merge order can never change a
/// reported estimate, which the campaign tests pin bit-for-bit.
class MomentAccumulator {
 public:
  void add(std::uint32_t value) {
    count_ += 1;
    sum_ += value;
    // value^2 < 2^64 always (value < 2^32); accumulate into a manual
    // 128-bit (hi, lo) pair so the sum of squares never saturates.
    const std::uint64_t sq = static_cast<std::uint64_t>(value) * value;
    const std::uint64_t lo = sq_lo_ + sq;
    sq_hi_ += (lo < sq_lo_) ? 1 : 0;
    sq_lo_ = lo;
    if (count_ == 1 || value < min_) min_ = value;
    if (count_ == 1 || value > max_) max_ = value;
  }

  void merge(const MomentAccumulator& other) {
    if (other.count_ == 0) return;
    if (count_ == 0) {
      *this = other;
      return;
    }
    count_ += other.count_;
    sum_ += other.sum_;
    const std::uint64_t lo = sq_lo_ + other.sq_lo_;
    sq_hi_ += other.sq_hi_ + ((lo < sq_lo_) ? 1 : 0);
    sq_lo_ = lo;
    if (other.min_ < min_) min_ = other.min_;
    if (other.max_ > max_) max_ = other.max_;
  }

  std::uint64_t count() const { return count_; }
  std::uint64_t sum() const { return sum_; }
  std::uint32_t min() const { return min_; }
  std::uint32_t max() const { return max_; }

  double mean() const {
    return count_ == 0 ? 0.0
                       : static_cast<double>(sum_) / static_cast<double>(count_);
  }

  /// Unbiased sample variance, computed from the exact sums in extended
  /// precision (the sums are exact; only this final division rounds).
  double variance() const {
    if (count_ < 2) return 0.0;
    const long double n = static_cast<long double>(count_);
    const long double s = static_cast<long double>(sum_);
    const long double s2 = static_cast<long double>(sq_hi_) * 18446744073709551616.0L +
                           static_cast<long double>(sq_lo_);
    const long double var = (s2 - (s * s) / n) / (n - 1.0L);
    return var > 0.0L ? static_cast<double>(var) : 0.0;
  }

  /// Normal-approximation CI half-width on the mean: z * sqrt(var / n).
  double ci_half_width(double z = kZ95) const;

  bool operator==(const MomentAccumulator& other) const {
    return count_ == other.count_ && sum_ == other.sum_ &&
           sq_lo_ == other.sq_lo_ && sq_hi_ == other.sq_hi_ &&
           min_ == other.min_ && max_ == other.max_;
  }

 private:
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t sq_lo_ = 0;  ///< low 64 bits of the exact sum of squares
  std::uint64_t sq_hi_ = 0;  ///< high 64 bits (carry) of the same
  std::uint32_t min_ = 0;
  std::uint32_t max_ = 0;
};

/// P² running quantile (Jain & Chlamtac 1985): five markers whose heights
/// track the q-quantile of the stream in O(1) memory. Exact for the first
/// five observations, piecewise-parabolic interpolation afterwards. The
/// estimate depends on stream order, so the driver feeds each instance one
/// stratum's samples in deterministic index order and never merges sketches.
class P2Quantile {
 public:
  explicit P2Quantile(double q);

  void add(double value);

  /// Current estimate of the q-quantile (0 before any sample).
  double value() const;

  std::uint64_t count() const { return count_; }
  double q() const { return q_; }

 private:
  double q_;
  std::uint64_t count_ = 0;
  double heights_[5] = {0, 0, 0, 0, 0};
  double positions_[5] = {1, 2, 3, 4, 5};
  double desired_[5] = {1, 2, 3, 4, 5};
  double increments_[5] = {0, 0, 0, 0, 0};
};

/// Fixed-capacity uniform sample of a stream (Vitter's Algorithm R). The
/// replacement index for observation i comes from `rand_word`, a 64-bit
/// word the caller derives from the campaign's counter-based RNG — so the
/// reservoir contents are a pure function of (seed, stratum, sample index),
/// independent of worker count or interleaving.
class QuantileReservoir {
 public:
  explicit QuantileReservoir(std::size_t capacity) : capacity_(capacity) {
    BGPSIM_REQUIRE(capacity > 0, "reservoir capacity must be positive");
    values_.reserve(capacity);
  }

  void add(double value, std::uint64_t rand_word);

  std::uint64_t seen() const { return seen_; }
  const std::vector<double>& values() const { return values_; }
  std::size_t capacity() const { return capacity_; }

 private:
  std::size_t capacity_;
  std::uint64_t seen_ = 0;
  std::vector<double> values_;
};

/// One (value, weight) observation of a pooled empirical distribution.
struct WeightedValue {
  double value = 0.0;
  double weight = 0.0;
};

/// Weighted empirical quantile: sort by value, walk the cumulative weight
/// until it reaches q * total. `points` is sorted in place.
double weighted_quantile(std::vector<WeightedValue>& points, double q);

/// Everything the campaign tracks for one attacker stratum. The driver feeds
/// it the stratum's samples in index order and never merges two; the P²
/// sketches and the reservoir depend on that order and are reported per
/// stratum.
struct StratumEstimator {
  MomentAccumulator polluted;       ///< polluted-AS count per sample
  MomentAccumulator detection_gen;  ///< first-detection generation, detected samples only
  std::uint64_t samples = 0;
  std::uint64_t detected = 0;  ///< samples some probe saw
  std::uint64_t warm = 0;      ///< samples answered from the warm baseline
  P2Quantile polluted_p50{0.5};
  P2Quantile polluted_p90{0.9};
  QuantileReservoir reservoir{256};

  void add_sample(std::uint32_t polluted_ases, bool was_warm, bool was_detected,
                  std::uint32_t first_gen, std::uint64_t reservoir_word) {
    samples += 1;
    polluted.add(polluted_ases);
    if (was_warm) warm += 1;
    if (was_detected) {
      detected += 1;
      detection_gen.add(first_gen);
    }
    const double value = static_cast<double>(polluted_ases);
    polluted_p50.add(value);
    polluted_p90.add(value);
    reservoir.add(value, reservoir_word);
  }
};

}  // namespace bgpsim::campaign
