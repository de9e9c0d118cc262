#include "campaign/driver.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <utility>

#include "defense/deployment.hpp"
#include "detect/detector.hpp"
#include "detect/probe_set.hpp"
#include "hijack/hijack_simulator.hpp"
#include "obs/json.hpp"
#include "obs/obs.hpp"
#include "obs/timer.hpp"
#include "support/assert.hpp"
#include "support/parallel.hpp"

namespace bgpsim::campaign {

namespace {

/// Mutable per-stratum campaign state. Workers only read it (to map a round
/// item to its sample); the driver thread writes it between rounds, when it
/// folds the round's outcomes after the join — no locking needed.
struct StratumRun {
  const Stratum* stratum = nullptr;
  std::uint32_t index = 0;       ///< stratum index (RNG stream id)
  std::uint64_t budget = 0;      ///< this stratum's slice of the sample budget
  std::uint64_t round_quota = 0; ///< samples added per round
  std::uint64_t next = 0;        ///< first unprocessed sample index
  StratumEstimator est;
};

/// What one sample leaves for the fold: the arguments of
/// StratumEstimator::add_sample, in 24 bytes.
struct SampleOutcome {
  std::uint64_t reservoir_word = 0;
  std::uint32_t polluted = 0;
  std::uint32_t first_gen = 0;
  bool warm = false;
  bool detected = false;
};
static_assert(sizeof(SampleOutcome) <= 24, "keep the round buffer compact");

struct Pooled {
  double mean = 0.0;
  double ci_half_width = 0.0;
};

/// Stratified pooling over the per-stratum polluted-count moments, in fixed
/// stratum order so the floating-point result is identical for every worker
/// count (the moments themselves are exact integers).
Pooled pool_fraction(const std::vector<StratumRun>& runs, double inv_ases) {
  Pooled out;
  double variance = 0.0;
  for (const StratumRun& run : runs) {
    const MomentAccumulator& polluted = run.est.polluted;
    if (polluted.count() == 0) continue;
    const double w = run.stratum->weight;
    out.mean += w * polluted.mean() * inv_ases;
    variance += w * w * (polluted.variance() * inv_ases * inv_ases) /
                static_cast<double>(polluted.count());
  }
  out.ci_half_width = kZ95 * std::sqrt(variance);
  return out;
}

std::uint64_t total_samples(const std::vector<StratumRun>& runs) {
  std::uint64_t total = 0;
  for (const StratumRun& run : runs) total += run.est.samples;
  return total;
}

}  // namespace

CampaignResult run_campaign(const Scenario& scenario,
                            std::shared_ptr<const store::BaselineStore> baselines,
                            const CampaignSpec& spec,
                            const std::atomic<bool>* cancel,
                            const ProgressFn& progress) {
  BGPSIM_REQUIRE(baselines != nullptr, "campaign needs a baseline store");
  BGPSIM_REQUIRE(spec.sample_budget > 0, "campaign needs a sample budget");
  const obs::StopWatch wall;
  const AsGraph& graph = scenario.graph();
  const double inv_ases = 1.0 / static_cast<double>(graph.num_ases());

  const std::vector<Stratum> strata = build_attacker_strata(scenario);
  BGPSIM_REQUIRE(!strata.empty(), "topology produced no attacker strata");
  const CampaignSampler sampler(spec.seed, baselines->targets());

  // Optional ROV deployment and detection probes, shared read-only.
  std::optional<ValidatorSet> validators;
  if (spec.deployment_top > 0) {
    validators =
        to_filter_set(graph, top_k_deployment(graph, spec.deployment_top)).bitset();
  }
  std::optional<ProbeSet> probes;
  if (spec.probes > 0) probes.emplace(ProbeSet::top_k(graph, spec.probes));

  const std::uint64_t batch =
      spec.batch > 0 ? spec.batch
                     : std::clamp<std::uint64_t>(spec.sample_budget / 16, 256, 8192);
  const std::uint64_t min_floor = std::max<std::uint64_t>(spec.min_samples_per_stratum, 1);

  // Proportional budget allocation by largest remainder, so the per-stratum
  // budgets sum to the sample budget exactly. The per-stratum floor is then
  // applied on top (variance estimates must be usable when the stop rule
  // fires), which can push the total a few samples past the budget on tiny
  // budgets — never by more than strata × floor.
  std::vector<std::uint64_t> alloc(strata.size(), 0);
  {
    std::uint64_t allocated = 0;
    std::vector<std::pair<double, std::size_t>> remainders;
    for (std::size_t s = 0; s < strata.size(); ++s) {
      const double exact =
          strata[s].weight * static_cast<double>(spec.sample_budget);
      alloc[s] = static_cast<std::uint64_t>(exact);
      allocated += alloc[s];
      remainders.push_back({exact - static_cast<double>(alloc[s]), s});
    }
    std::sort(remainders.begin(), remainders.end(),
              [](const auto& a, const auto& b) {
                if (a.first != b.first) return a.first > b.first;
                return a.second < b.second;  // deterministic tie-break
              });
    for (std::size_t i = 0;
         allocated < spec.sample_budget && i < remainders.size(); ++i) {
      ++alloc[remainders[i].second];
      ++allocated;
    }
  }

  std::vector<StratumRun> runs(strata.size());
  std::uint64_t round_capacity = 0;  // Σ round quotas: the largest round
  for (std::size_t s = 0; s < strata.size(); ++s) {
    StratumRun& run = runs[s];
    run.stratum = &strata[s];
    run.index = static_cast<std::uint32_t>(s);
    run.budget = std::max<std::uint64_t>(min_floor, alloc[s]);
    run.round_quota = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(std::llround(
               strata[s].weight * static_cast<double>(batch))));
    round_capacity += run.round_quota;
  }

  // One simulator per worker for the whole campaign. A warm attack starts
  // from a copy of the victim's baseline, so which simulator runs a sample
  // never changes its outcome.
  std::vector<std::unique_ptr<HijackSimulator>> sims(
      worker_count(spec.workers, round_capacity));
  for (std::unique_ptr<HijackSimulator>& sim : sims) {
    sim = std::make_unique<HijackSimulator>(graph, scenario.sim_config());
    sim->attach_baseline(baselines);
    if (validators) sim->set_validators(*validators);
  }

  BGPSIM_PROGRESS(spec.sample_budget);
  BGPSIM_PROGRESS_PHASE("campaign");

  CampaignResult result;
  result.sample_budget = spec.sample_budget;
  result.target_ci = spec.target_ci;
  result.workers = static_cast<unsigned>(sims.size());
  result.seed = spec.seed;
  result.victim_pool = static_cast<std::uint32_t>(sampler.victims().size());
  result.deployment_top = spec.deployment_top;
  result.probes = spec.probes;

  // A round's items: stratum s owns [offsets[s], offsets[s + 1]), its
  // samples next, next + 1, ... in index order. Workers claim items through
  // parallel_for and write each outcome into its own slot; after the join the
  // driver folds the slots into the estimators in item order, so every
  // stratum's estimator sees its samples in index order whatever the
  // interleaving.
  std::vector<std::size_t> offsets(runs.size() + 1, 0);
  std::vector<SampleOutcome> outcomes;
  for (;;) {
    for (std::size_t s = 0; s < runs.size(); ++s) {
      const StratumRun& run = runs[s];
      const std::uint64_t stop = std::min(run.budget, run.next + run.round_quota);
      offsets[s + 1] = offsets[s] + (run.next < stop ? stop - run.next : 0);
    }
    const std::size_t round_size = offsets.back();
    if (round_size == 0) {
      result.stop_reason = "budget_exhausted";
      break;
    }
    outcomes.resize(round_size);

    // Exceptions must not escape parallel_for's fn, and the engine calls
    // below don't throw on any in-range input, so the body is plain
    // straight-line code. A cancel leaves the finished prefix
    // [0, finished) of the round.
    const std::size_t finished = parallel_for(
        round_size, static_cast<unsigned>(sims.size()),
        [&](unsigned worker, std::size_t k) {
          HijackSimulator& sim = *sims[worker];
          // k's stratum: the last s with offsets[s] <= k, which skips empty
          // strata (their offset equals the next stratum's).
          const auto s = static_cast<std::size_t>(
              std::upper_bound(offsets.begin(), offsets.end(), k) -
              offsets.begin() - 1);
          const StratumRun& run = runs[s];
          const SamplePair pair =
              sampler.draw(*run.stratum, run.index, run.next + (k - offsets[s]));
          const AttackResult attack = sim.attack(pair.victim, pair.attacker);
          const DetectionOutcome detection =
              probes ? evaluate_detection(sim.routes(), *probes)
                     : DetectionOutcome{};
          outcomes[k] = {pair.reservoir_word, attack.polluted_ases,
                         detection.first_generation_proxy,
                         sim.last_attack_warm(), detection.detected()};
        },
        cancel);

    for (std::size_t s = 0; s < runs.size(); ++s) {
      StratumRun& run = runs[s];
      const std::size_t end = std::min(offsets[s + 1], finished);
      for (std::size_t k = offsets[s]; k < end; ++k) {
        const SampleOutcome& o = outcomes[k];
        run.est.add_sample(o.polluted, o.warm, o.detected, o.first_gen,
                           o.reservoir_word);
        run.next += 1;
      }
    }
    result.rounds += 1;
    BGPSIM_COUNTER_ADD("campaign.rounds", 1);

    const std::uint64_t done = total_samples(runs);
    const Pooled pooled = pool_fraction(runs, inv_ases);
    result.trajectory.push_back({done, pooled.ci_half_width});
    BGPSIM_GAUGE_SET("campaign.ci_half_width", pooled.ci_half_width);
    if (progress) {
      progress({done, spec.sample_budget, result.rounds, pooled.mean,
                pooled.ci_half_width});
    }

    if (cancel != nullptr && cancel->load(std::memory_order_relaxed)) {
      result.stop_reason = "cancelled";
      break;
    }
    if (spec.target_ci > 0.0 && pooled.ci_half_width <= spec.target_ci) {
      bool floors_met = true;
      for (const StratumRun& run : runs) {
        floors_met &= run.est.samples >= std::min(min_floor, run.budget);
      }
      if (floors_met) {
        result.early_stopped = true;
        result.stop_reason = "target_ci_reached";
        BGPSIM_COUNTER_ADD("campaign.early_stops", 1);
        break;
      }
    }
  }

  // Final fold + report rows, in stratum order (deterministic FP).
  const Pooled pooled = pool_fraction(runs, inv_ases);
  result.pooled_mean = pooled.mean;
  result.pooled_ci_half_width = pooled.ci_half_width;

  std::vector<WeightedValue> union_points;
  double detect_rate = 0.0;
  double detect_gen_num = 0.0;
  double detect_gen_den = 0.0;
  for (const StratumRun& run : runs) {
    const StratumEstimator& est = run.est;
    StratumResult row;
    row.label = run.stratum->label;
    row.attacker_count = run.stratum->attackers.size();
    row.weight = run.stratum->weight;
    row.samples = est.samples;
    row.warm = est.warm;
    row.mean_fraction = est.polluted.mean() * inv_ases;
    row.ci_half_width =
        est.polluted.ci_half_width() * inv_ases;
    row.p50_fraction = est.polluted_p50.value() * inv_ases;
    row.p90_fraction = est.polluted_p90.value() * inv_ases;
    row.detected = est.detected;
    row.detection_rate =
        est.samples > 0
            ? static_cast<double>(est.detected) / static_cast<double>(est.samples)
            : 0.0;
    row.mean_detection_gen = est.detection_gen.mean();
    result.samples_used += est.samples;
    result.warm_samples += est.warm;
    detect_rate += run.stratum->weight * row.detection_rate;
    if (est.detected > 0) {
      detect_gen_num += run.stratum->weight * row.detection_rate *
                        est.detection_gen.mean();
      detect_gen_den += run.stratum->weight * row.detection_rate;
    }
    if (!est.reservoir.values().empty()) {
      const double w = run.stratum->weight /
                       static_cast<double>(est.reservoir.values().size());
      for (const double v : est.reservoir.values()) {
        union_points.push_back({v * inv_ases, w});
      }
    }
    result.strata.push_back(std::move(row));
  }
  result.pooled_p50 = weighted_quantile(union_points, 0.5);
  result.pooled_p90 = weighted_quantile(union_points, 0.9);
  result.pooled_detection_rate = detect_rate;
  result.pooled_mean_detection_gen =
      detect_gen_den > 0.0 ? detect_gen_num / detect_gen_den : 0.0;

  result.wall_seconds = wall.elapsed_seconds();
  result.samples_per_second =
      result.wall_seconds > 0.0
          ? static_cast<double>(result.samples_used) / result.wall_seconds
          : 0.0;
  BGPSIM_COUNTER_ADD("campaign.samples", result.samples_used);
  BGPSIM_COUNTER_ADD("campaign.samples_warm", result.warm_samples);
  return result;
}

std::string campaign_report_json(const CampaignResult& result) {
  obs::JsonWriter json;
  json.begin_object();
  json.field("schema", "bgpsim.campaign.v1");
  json.field("seed", result.seed);
  json.field("samples_used", result.samples_used);
  json.field("sample_budget", result.sample_budget);
  json.field("warm_samples", result.warm_samples);
  json.field("rounds", result.rounds);
  json.field("early_stopped", result.early_stopped);
  json.field("stop_reason", result.stop_reason);
  json.field("target_ci", result.target_ci);
  json.field("workers", static_cast<std::uint64_t>(result.workers));
  json.field("victim_pool", static_cast<std::uint64_t>(result.victim_pool));
  json.field("deployment_top", static_cast<std::uint64_t>(result.deployment_top));
  json.field("probes", static_cast<std::uint64_t>(result.probes));
  json.field("wall_seconds", result.wall_seconds);
  json.field("samples_per_second", result.samples_per_second);
  json.key("pooled");
  json.begin_object();
  json.field("mean_fraction", result.pooled_mean);
  json.field("ci_half_width", result.pooled_ci_half_width);
  json.field("p50_fraction", result.pooled_p50);
  json.field("p90_fraction", result.pooled_p90);
  json.field("detection_rate", result.pooled_detection_rate);
  json.field("mean_detection_generation", result.pooled_mean_detection_gen);
  json.end_object();
  json.key("strata");
  json.begin_array();
  for (const StratumResult& row : result.strata) {
    json.begin_object();
    json.field("label", row.label);
    json.field("attackers", row.attacker_count);
    json.field("weight", row.weight);
    json.field("samples", row.samples);
    json.field("warm", row.warm);
    json.field("mean_fraction", row.mean_fraction);
    json.field("ci_half_width", row.ci_half_width);
    json.field("p50_fraction", row.p50_fraction);
    json.field("p90_fraction", row.p90_fraction);
    json.field("detected", row.detected);
    json.field("detection_rate", row.detection_rate);
    json.field("mean_detection_generation", row.mean_detection_gen);
    json.end_object();
  }
  json.end_array();
  json.key("ci_trajectory");
  json.begin_array();
  for (const TrajectoryPoint& point : result.trajectory) {
    json.begin_object();
    json.field("samples", point.samples);
    json.field("ci_half_width", point.ci_half_width);
    json.end_object();
  }
  json.end_array();
  json.end_object();
  return std::move(json).str();
}

}  // namespace bgpsim::campaign
