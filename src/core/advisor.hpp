// §VII "pragmatic self-interest actions" as an API.
//
// The paper proposes a playbook an AS owner can run unilaterally:
//   1. analyze the relevant AS topology (depth = vulnerability proxy),
//   2. reduce vulnerability (re-home / multi-home),
//   3. publish route origins (modeled as enabling filters/detectors),
//   4. build prefix filters at strategic ASes,
//   5. use detection and check it for blind spots.
//
// SelfInterestAdvisor quantifies each step for a concrete target: it
// measures the baseline with RegionalAnalyzer, re-homes the target into a new
// Scenario built with the same params, runs that scenario's greedy_filters and
// greedy_probes on the budget, and reports the measured improvement of every
// step.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "analysis/regional.hpp"
#include "core/scenario.hpp"

namespace bgpsim {

struct AdvisorBudget {
  int rehome_levels = 2;          ///< how far up to re-home (0 = skip)
  std::uint32_t max_filters = 3;  ///< prefix filters we can convince ASes to run
  std::uint32_t max_probes = 8;   ///< detector peers we can establish
  std::uint32_t attack_sample = 200;  ///< Monte-Carlo attacks per evaluation
};

struct AdvisorStep {
  std::string action;       ///< human-readable recommendation
  double mean_compromised;  ///< mean compromised ASes in the target's region
  double mean_fraction;     ///< same, as a fraction of the region
};

struct AdvisorReport {
  AsId target = kInvalidAs;
  Asn target_asn = 0;
  std::uint16_t depth_before = 0;
  std::uint16_t depth_after = 0;
  std::uint16_t region = 0;
  std::uint32_t region_size = 0;

  /// Baseline, then one entry per applied step (monotone improvements).
  std::vector<AdvisorStep> steps;

  /// Strategic filter ASes chosen greedily (ASNs).
  std::vector<Asn> recommended_filters;

  /// Probe ASes that cover the sampled attacks (ASNs), and the residual
  /// blind-spot rate of that probe set.
  std::vector<Asn> recommended_probes;
  double detection_miss_rate = 1.0;
};

/// Filters picked by greedy_filters, in pick order, and the mean compromised
/// regional ASes per attack they leave (the unfiltered mean when no candidate
/// helps).
struct FilterPlacement {
  std::vector<AsId> filters;
  double mean_compromised = 0.0;
};

/// Probes picked by greedy_probes, in pick order, and the share of harmful
/// sampled attacks (those polluting some transit AS) that none of them sees.
struct ProbePlacement {
  std::vector<AsId> probes;
  double miss_rate = 0.0;
};

class SelfInterestAdvisor {
 public:
  explicit SelfInterestAdvisor(const Scenario& scenario);

  /// Run the full playbook for one target AS.
  AdvisorReport advise(AsId target, const AdvisorBudget& budget, Rng& rng);

  /// Greedy filter placement: choose up to `k` of `candidates` whose origin
  /// validation most reduces mean regional pollution of `target` under the
  /// sampled attacker set; stops early when no candidate lowers it.
  FilterPlacement greedy_filters(AsId target, std::span<const AsId> attackers,
                                 std::span<const AsId> candidates, std::size_t k);

  /// Greedy probe placement: choose up to `k` transit ASes maximizing the
  /// number of sampled attacks on `target` detected while `filters` (null:
  /// none) validate origins.
  ProbePlacement greedy_probes(AsId target, std::span<const AsId> attackers,
                               const FilterSet* filters, std::size_t k);

 private:
  const Scenario& scenario_;
};

}  // namespace bgpsim
