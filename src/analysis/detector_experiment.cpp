#include "analysis/detector_experiment.hpp"

#include <algorithm>

#include "obs/obs.hpp"
#include "support/assert.hpp"
#include "support/parallel.hpp"
#include "topology/metrics.hpp"

namespace bgpsim {

namespace {

/// Tallies for one probe configuration, fed one attack at a time in attack
/// order.
struct Accumulator {
  std::vector<std::uint32_t> histogram;
  std::vector<RunningStats> pollution_by_triggered;
  RunningStats missed_pollution;
  std::vector<UndetectedAttack> undetected;  // kept sorted desc, <= top_k

  explicit Accumulator(std::size_t probe_count)
      : histogram(probe_count + 1, 0),
        pollution_by_triggered(probe_count + 1) {}

  void record(std::uint32_t triggered, const AttackSample& sample,
              std::uint32_t pollution, const AsGraph& graph, std::size_t top_k) {
    ++histogram[triggered];
    pollution_by_triggered[triggered].add(pollution);
    if (triggered != 0) return;
    missed_pollution.add(pollution);
    const UndetectedAttack entry{graph.asn(sample.attacker),
                                 graph.asn(sample.target), pollution};
    const auto pos = std::lower_bound(
        undetected.begin(), undetected.end(), entry,
        [](const UndetectedAttack& a, const UndetectedAttack& b) {
          return a.pollution > b.pollution;
        });
    undetected.insert(pos, entry);
    if (undetected.size() > top_k) undetected.pop_back();
  }
};

}  // namespace

DetectorExperiment::DetectorExperiment(const AsGraph& graph, SimConfig config,
                                       unsigned threads)
    : graph_(graph), config_(std::move(config)),
      threads_(threads == 0 ? hardware_threads() : threads) {}

std::vector<AttackSample> DetectorExperiment::sample_transit_attacks(
    std::uint32_t count, Rng& rng) const {
  const auto transits = transit_ases(graph_);
  BGPSIM_REQUIRE(transits.size() >= 2, "need at least two transit ASes");
  std::vector<AttackSample> samples;
  samples.reserve(count);
  while (samples.size() < count) {
    const AsId attacker = transits[rng.bounded(transits.size())];
    const AsId target = transits[rng.bounded(transits.size())];
    if (attacker == target) continue;
    samples.emplace_back(attacker, target);
  }
  return samples;
}

std::vector<DetectorCaseResult> DetectorExperiment::run(
    std::span<const AttackSample> attacks, std::span<const ProbeSet> probe_sets,
    std::size_t top_k) {
  BGPSIM_TIMED_SCOPE("detector.experiment");
  BGPSIM_COUNTER_ADD("detect.attack_samples", attacks.size());
  BGPSIM_PROGRESS_PHASE("detector.experiment");
  // Each attack writes its pollution and the probes it triggered in every
  // set into its own slots; the fold below feeds them to the accumulators in
  // attack order, so the tables are the same at any thread count.
  const std::size_t sets = probe_sets.size();
  std::vector<std::uint32_t> pollution(attacks.size());
  std::vector<std::uint32_t> triggered(attacks.size() * sets);
  const unsigned workers = worker_count(threads_, attacks.size());
  std::vector<HijackSimulator> sims;
  sims.reserve(workers);
  for (unsigned w = 0; w < workers; ++w) sims.emplace_back(graph_, config_);
  parallel_for(attacks.size(), workers,
               [&](unsigned worker, std::size_t i) {
                 HijackSimulator& sim = sims[worker];
                 pollution[i] =
                     sim.attack(attacks[i].target, attacks[i].attacker).polluted_ases;
                 for (std::size_t c = 0; c < sets; ++c) {
                   triggered[i * sets + c] =
                       evaluate_detection(sim.routes(), probe_sets[c]).probes_triggered;
                 }
               });

  std::vector<Accumulator> totals;
  totals.reserve(sets);
  for (const ProbeSet& probes : probe_sets) totals.emplace_back(probes.size());
  for (std::size_t i = 0; i < attacks.size(); ++i) {
    for (std::size_t c = 0; c < sets; ++c) {
      totals[c].record(triggered[i * sets + c], attacks[i], pollution[i], graph_,
                       top_k);
    }
  }

  std::vector<DetectorCaseResult> results;
  results.reserve(probe_sets.size());
  for (std::size_t c = 0; c < probe_sets.size(); ++c) {
    DetectorCaseResult result;
    result.label = probe_sets[c].label();
    result.probe_count = probe_sets[c].size();
    result.attacks = static_cast<std::uint32_t>(attacks.size());
    result.histogram = std::move(totals[c].histogram);
    result.avg_pollution_by_triggered.reserve(result.histogram.size());
    for (const auto& stats : totals[c].pollution_by_triggered) {
      result.avg_pollution_by_triggered.push_back(stats.mean());
    }
    result.missed = result.histogram[0];
    result.missed_fraction = attacks.empty()
                                 ? 0.0
                                 : static_cast<double>(result.missed) /
                                       static_cast<double>(attacks.size());
    result.missed_pollution = totals[c].missed_pollution;
    result.top_undetected = std::move(totals[c].undetected);
    results.push_back(std::move(result));
  }
  return results;
}

}  // namespace bgpsim
