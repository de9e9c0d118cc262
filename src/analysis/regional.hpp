// §VII regional self-interest experiments: measure hijack impact *within a
// region* (the paper's New-Zealand study), and the two mitigations it
// validates — re-homing the target to reduce depth, and placing a single
// strategic prefix filter on the regional transit.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "defense/filter_set.hpp"
#include "hijack/hijack_simulator.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"

namespace bgpsim {

/// Average regional damage over a batch of attacks on one target.
struct RegionalImpact {
  std::uint16_t region = 0;
  std::uint32_t region_size = 0;  ///< ASes in the region (target excluded)
  std::uint32_t attacks = 0;
  RunningStats compromised;       ///< regional ASes polluted per attack
  double mean_fraction() const {
    return region_size == 0 ? 0.0 : compromised.mean() / region_size;
  }
};

class RegionalAnalyzer {
 public:
  RegionalAnalyzer(const AsGraph& graph, SimConfig config);

  /// Attack `target` from every other AS of its own region.
  RegionalImpact attacks_from_region(AsId target, const FilterSet* filters = nullptr);

  /// Attack `target` from `count` ASes sampled outside its region
  /// (the paper ran "a sample of 200 attacks from outside the region").
  RegionalImpact attacks_from_outside(AsId target, std::uint32_t count, Rng& rng,
                                      const FilterSet* filters = nullptr);

  /// Attack `target` from every AS in `attackers` (the target is skipped)
  /// and count the polluted ASes of its region. The two sweeps above and
  /// SelfInterestAdvisor's sampled evaluations all run through this loop.
  RegionalImpact attacks_from(AsId target, std::span<const AsId> attackers,
                              const FilterSet* filters = nullptr);

  const AsGraph& graph() const { return graph_; }

 private:
  const AsGraph& graph_;
  HijackSimulator simulator_;
};

/// Re-home an AS at least `levels` tiers upward: replace its providers with
/// the best-connected transit ASes of depth <= (current provider depth -
/// levels) — same-region providers preferred, up to `max_providers`
/// (keeping multi-homing). This is the paper's "re-homed AS 55857 up two
/// levels ... connecting to a lower-depth transit AS" transform combined
/// with §VII's "increase non-overlapping reach".
AsGraph rehome_up(const AsGraph& graph, Asn asn,
                  const std::vector<std::uint16_t>& depth, int levels,
                  std::size_t max_providers = 2);

}  // namespace bgpsim
