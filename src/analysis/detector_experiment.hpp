// §VI detector-deployment experiments (figure 7 and the three case tables):
// subject several probe configurations to the same batch of random hijacks
// between transit ASes and measure what each configuration misses.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "detect/detector.hpp"
#include "detect/probe_set.hpp"
#include "hijack/hijack_simulator.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"

namespace bgpsim {

/// One random (attacker, target) pair.
struct AttackSample {
  AsId attacker = kInvalidAs;
  AsId target = kInvalidAs;
};

/// A row of the paper's "top 5 undetected attacks" tables.
struct UndetectedAttack {
  Asn attacker_asn = 0;
  Asn target_asn = 0;
  std::uint32_t pollution = 0;
};

/// Everything figure 7 plots for one probe configuration.
struct DetectorCaseResult {
  std::string label;
  std::size_t probe_count = 0;
  std::uint32_t attacks = 0;

  /// histogram[k] = number of attacks seen by exactly k probes
  /// (histogram[0] = attacks that completely escape detection).
  std::vector<std::uint32_t> histogram;

  /// Average pollution of attacks seen by exactly k probes (the line graph).
  std::vector<double> avg_pollution_by_triggered;

  std::uint32_t missed = 0;
  double missed_fraction = 0.0;
  RunningStats missed_pollution;  ///< over undetected attacks
  std::vector<UndetectedAttack> top_undetected;
};

class DetectorExperiment {
 public:
  /// run() evaluates attacks on worker_count(threads, items) workers, one
  /// simulator each; results are identical at any thread count. 0 = use
  /// hardware_concurrency.
  DetectorExperiment(const AsGraph& graph, SimConfig config, unsigned threads = 1);

  /// Draw `count` attacker/target pairs uniformly from the transit ASes
  /// ("Attackers and targets were chosen from the 6318 transit ASes").
  std::vector<AttackSample> sample_transit_attacks(std::uint32_t count, Rng& rng) const;

  /// Run every attack once and score all probe configurations against it.
  /// `top_k` limits the undetected-attack tables.
  std::vector<DetectorCaseResult> run(std::span<const AttackSample> attacks,
                                      std::span<const ProbeSet> probe_sets,
                                      std::size_t top_k = 5);

 private:
  const AsGraph& graph_;
  SimConfig config_;
  unsigned threads_;
};

}  // namespace bgpsim
