// Deterministic pseudo-random number generation.
//
// Every stochastic component of bgpsim (topology generation, workload
// sampling, random deployment strategies) draws from an explicitly seeded
// Rng so that whole experiments are reproducible from a single seed.
// The generator is xoshiro256++ seeded via splitmix64, which is fast,
// high-quality, and — unlike std::mt19937 with std::uniform_int_distribution —
// produces identical streams on every platform and standard library.
#pragma once

#include <cstdint>
#include <vector>

#include "support/assert.hpp"

namespace bgpsim {

/// One step of the splitmix64 sequence; used for seeding and hashing.
constexpr std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// xoshiro256++ deterministic random generator.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x5eed5eed5eed5eedULL) { reseed(seed); }

  void reseed(std::uint64_t seed) {
    std::uint64_t sm = seed;
    for (auto& word : state_) word = splitmix64(sm);
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~0ULL; }

  result_type operator()() { return next(); }

  std::uint64_t next() {
    const std::uint64_t result = rotl(state_[0] + state_[3], 23) + state_[0];
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform integer in [0, bound). bound must be > 0.
  /// Uses Lemire's multiply-shift rejection method (unbiased).
  std::uint64_t bounded(std::uint64_t bound) {
    BGPSIM_DASSERT(bound > 0, "bounded() needs bound > 0");
    // Fast path avoids 128-bit ops bias for tiny bounds; rejection keeps it exact.
    std::uint64_t x = next();
    __uint128_t m = static_cast<__uint128_t>(x) * bound;
    auto low = static_cast<std::uint64_t>(m);
    if (low < bound) {
      const std::uint64_t threshold = (0 - bound) % bound;
      while (low < threshold) {
        x = next();
        m = static_cast<__uint128_t>(x) * bound;
        low = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    BGPSIM_DASSERT(lo <= hi, "uniform_int() needs lo <= hi");
    const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
    return lo + static_cast<std::int64_t>(bounded(span));
  }

  /// Uniform double in [0, 1).
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

  /// Bernoulli trial with probability p of returning true.
  bool chance(double p) { return uniform() < p; }

  /// Sample from a discrete distribution given cumulative weights
  /// (non-decreasing, last element is the total). Returns an index.
  std::size_t sample_cumulative(const std::vector<double>& cumulative) {
    BGPSIM_DASSERT(!cumulative.empty(), "empty cumulative weights");
    const double total = cumulative.back();
    const double draw = uniform() * total;
    std::size_t lo = 0, hi = cumulative.size() - 1;
    while (lo < hi) {
      const std::size_t mid = (lo + hi) / 2;
      if (cumulative[mid] <= draw)
        lo = mid + 1;
      else
        hi = mid;
    }
    return lo;
  }

  /// Fisher–Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& items) {
    for (std::size_t i = items.size(); i > 1; --i) {
      const std::size_t j = bounded(i);
      std::swap(items[i - 1], items[j]);
    }
  }

  /// Sample k distinct elements from items (k <= items.size()), preserving
  /// determinism. Partial Fisher–Yates over a copied index array.
  template <typename T>
  std::vector<T> sample_without_replacement(const std::vector<T>& items, std::size_t k) {
    BGPSIM_REQUIRE(k <= items.size(), "sample size exceeds population");
    std::vector<T> pool = items;
    for (std::size_t i = 0; i < k; ++i) {
      const std::size_t j = i + bounded(pool.size() - i);
      std::swap(pool[i], pool[j]);
    }
    pool.resize(k);
    return pool;
  }

  /// Zipf-like integer in [1, n] with exponent s (probability ∝ rank^-s).
  /// Approximate inverse-CDF sampling; adequate for synthetic size fields.
  std::uint64_t zipf(std::uint64_t n, double s);

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t state_[4] = {};
};

/// Derive an independent child seed from (seed, stream-id); used to give each
/// experiment component its own reproducible stream.
constexpr std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t s = seed ^ (0x6a09e667f3bcc909ULL + stream * 0x9e3779b97f4a7c15ULL);
  std::uint64_t a = splitmix64(s);
  std::uint64_t b = splitmix64(s);
  return a ^ (b << 1);
}

}  // namespace bgpsim
