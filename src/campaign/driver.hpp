// Sharded Monte-Carlo campaign driver: stratified hijack-impact estimation
// over the warm-start snapshot engine (ROADMAP item 5).
//
// One campaign draws (attacker, victim) pairs per attacker stratum
// (campaign/sampler.hpp), replays each through warm_hijack_repair against
// the shared read-only BaselineStore, and folds the outcomes into streaming
// estimators (campaign/estimator.hpp). Work proceeds in synchronized
// *rounds*: each round extends every stratum's sample range by its quota,
// and the unit of parallel work is one sample. Up to `workers` threads
// (bgpsim::parallel_for), each with its own HijackSimulator for the whole
// campaign, claim the round's samples one at a time and write each outcome
// into that sample's slot of a round buffer. After the join the
// driver thread folds the slots into the per-stratum estimators in
// sample-index order, and the pooled CI half-width decides whether to stop
// early. A sample's outcome is a pure function of (seed, stratum, index) —
// the sampler is counter-based and a warm attack starts from a copy of the
// baseline — the fold order is fixed, and the stop rule only reads
// post-fold state, so the full result — estimates, CI trajectory, samples
// used — is bit-identical for any worker count.
//
// Pooling uses the standard stratified formulas over attacker-population
// weights w_s: mean = Σ w_s·μ_s, Var(mean) = Σ w_s²·σ_s²/n_s, CI half-width
// = z·√Var. "Pollution fraction" divides polluted-AS counts by the AS total;
// "first-detection generation" is evaluate_detection's converged-table proxy
// min(path_len−1) over triggered probes. It is not the generation-engine
// replay /v1/attack reports; DetectionOutcome::first_generation_proxy
// (detect/detector.hpp) gives the measured disagreement.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "campaign/estimator.hpp"
#include "campaign/sampler.hpp"
#include "core/scenario.hpp"
#include "store/baseline.hpp"

namespace bgpsim::campaign {

struct CampaignSpec {
  /// Sampling seed (independent of the topology seed): the whole campaign
  /// is a deterministic function of this, the snapshot, and the knobs below.
  std::uint64_t seed = 1;

  /// Cap on total samples across all strata (split proportionally by
  /// stratum weight; min_samples_per_stratum floors can push the total a
  /// few samples over on tiny budgets).
  std::uint64_t sample_budget = 100000;

  /// Stop once the pooled pollution-fraction CI half-width falls to this
  /// (0 disables early stopping — the full budget runs).
  double target_ci = 0.0;

  /// Samples per round across all strata (split by stratum weight);
  /// 0 = auto (budget/16, clamped to [256, 8192]).
  std::uint64_t batch = 0;

  /// Floor per stratum before the stop rule may fire, so a lucky early
  /// round cannot truncate a stratum to a handful of samples.
  std::uint64_t min_samples_per_stratum = 32;

  /// Sample threads per round, each with its own simulator; no more run
  /// than kMaxWorkers (64) or than a round has samples (worker_count).
  unsigned workers = 1;

  /// Top-K-by-degree ROV deployment applied to every sample (0 = none).
  std::uint32_t deployment_top = 0;

  /// Top-K-by-degree detection probes (0 = no detection estimators).
  std::uint32_t probes = 0;
};

/// Per-stratum slice of the report.
struct StratumResult {
  std::string label;
  std::uint64_t attacker_count = 0;
  double weight = 0.0;
  std::uint64_t samples = 0;
  std::uint64_t warm = 0;
  double mean_fraction = 0.0;
  double ci_half_width = 0.0;
  double p50_fraction = 0.0;  ///< P² sketch
  double p90_fraction = 0.0;  ///< P² sketch
  std::uint64_t detected = 0;
  double detection_rate = 0.0;
  double mean_detection_gen = 0.0;  ///< over detected samples; 0 when none
};

/// One point of the CI-width-vs-samples trajectory (recorded per round).
struct TrajectoryPoint {
  std::uint64_t samples = 0;
  double ci_half_width = 0.0;
};

struct CampaignResult {
  std::vector<StratumResult> strata;
  double pooled_mean = 0.0;          ///< pollution fraction
  double pooled_ci_half_width = 0.0;
  double pooled_p50 = 0.0;           ///< weighted reservoir union
  double pooled_p90 = 0.0;
  double pooled_detection_rate = 0.0;
  double pooled_mean_detection_gen = 0.0;
  std::uint64_t samples_used = 0;
  std::uint64_t sample_budget = 0;
  std::uint64_t warm_samples = 0;
  std::uint64_t rounds = 0;
  bool early_stopped = false;
  std::string stop_reason;  ///< "target_ci_reached" | "budget_exhausted" | "cancelled"
  double target_ci = 0.0;
  unsigned workers = 0;  ///< threads that ran: the request, capped
  std::uint64_t seed = 0;
  std::uint32_t victim_pool = 0;
  std::uint32_t deployment_top = 0;
  std::uint32_t probes = 0;
  double wall_seconds = 0.0;
  double samples_per_second = 0.0;
  std::vector<TrajectoryPoint> trajectory;
};

/// Post-round progress snapshot for job surfaces (serve polling, heartbeat).
struct CampaignProgress {
  std::uint64_t samples_done = 0;
  std::uint64_t sample_budget = 0;
  std::uint64_t rounds = 0;
  double pooled_mean = 0.0;
  double ci_half_width = 0.0;
};
using ProgressFn = std::function<void(const CampaignProgress&)>;

/// Run one campaign. `baselines` must cover the victim pool (its targets
/// ARE the victim pool — every sample warm-starts). `cancel`, when non-null,
/// is polled before each sample; a cancelled campaign returns the partial
/// estimates — a prefix of every stratum's samples — with stop_reason
/// "cancelled". `progress` (optional) fires after every round barrier, off
/// the worker threads.
CampaignResult run_campaign(const Scenario& scenario,
                            std::shared_ptr<const store::BaselineStore> baselines,
                            const CampaignSpec& spec,
                            const std::atomic<bool>* cancel = nullptr,
                            const ProgressFn& progress = {});

/// The canonical JSON report (schema v1): per-stratum and pooled estimates,
/// CI widths, samples vs budget, stop reason, CI trajectory. Shared by the
/// CLI sweep and the serve job result so both surfaces stay in lock-step.
std::string campaign_report_json(const CampaignResult& result);

}  // namespace bgpsim::campaign
