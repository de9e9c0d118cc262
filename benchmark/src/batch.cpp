// The batch workloads, campaign and sweep-cold. Each measured run happens
// in a `bgpbench worker` child process, so its peak RSS is that of the
// working process alone; the worker prints one JSON line that this process
// turns into metrics.
//
//   campaign    `bgpsim snapshot save` (CLI) of the attack-mix recipe, then
//               the worker loads it (as `bgpsim campaign --snapshot` does)
//               and runs run_campaign to the target CI, campaign after
//               campaign (sample seeds derived from the run seed) for the
//               run's seconds, cancelling the last one at the deadline. A
//               step is one round barrier, timed from the public ProgressFn
//               callback.
//   sweep-cold  the worker generates the topology and attacks three Fig. 2
//               targets from the same seeded transit attackers on kThreads
//               threads, one cold HijackSimulator per thread (as
//               VulnerabilityAnalyzer::sweep fans out), timing every attack.
//
// Both workers time their set-up and their load between calibration bursts
// (refclock.hpp) and report wall and reference times.
#include <algorithm>
#include <atomic>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <thread>

#include <unistd.h>

#include "analysis/vulnerability.hpp"
#include "campaign/driver.hpp"
#include "client.hpp"
#include "ladder.hpp"
#include "obs/json.hpp"
#include "obs/json_parse.hpp"
#include "obs/obs.hpp"
#include "refclock.hpp"
#include "stats.hpp"
#include "store/snapshot.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"
#include "workloads.hpp"

namespace bgpbench {

using namespace bgpsim;

namespace {

using Options = std::map<std::string, std::string>;

const std::string& option(const Options& options, const std::string& key) {
  const auto it = options.find(key);
  if (it == options.end()) throw ConfigError("worker needs --" + key);
  return it->second;
}

std::uint64_t option_u64(const Options& options, const std::string& key) {
  return std::stoull(option(options, key));
}

double option_f64(const Options& options, const std::string& key) {
  return std::stod(option(options, key));
}

void write_array(obs::JsonWriter& json, const char* key, const std::vector<double>& values) {
  json.key(key);
  json.begin_array();
  for (const double v : values) json.value(v);
  json.end_array();
}

std::vector<double> read_array(const obs::JsonValue& doc, const char* key) {
  std::vector<double> out;
  if (const obs::JsonValue* array = doc.find(key)) {
    for (const obs::JsonValue& v : array->items()) out.push_back(v.as_number());
  }
  return out;
}

/// Spawn a worker, return its parsed result line (failures noted).
std::optional<obs::JsonValue> run_worker_child(const RunOptions& opt,
                                               const std::vector<std::string>& args,
                                               RunResult& result) {
  std::vector<std::string> argv{opt.self_exe, "worker"};
  argv.insert(argv.end(), args.begin(), args.end());
  std::string out;
  const int rc = run_child(argv, &out);
  if (rc != 0) {
    result.fail("worker exited " + std::to_string(rc));
    return std::nullopt;
  }
  try {
    obs::JsonValue doc = obs::JsonValue::parse(last_line(out));
    const obs::JsonValue* failures = doc.find("failures");
    if (failures == nullptr) throw ConfigError("no failures list");
    for (const obs::JsonValue& why : failures->items()) result.fail(why.as_string());
    return doc;
  } catch (const std::exception& e) {
    result.fail(std::string("unreadable worker output: ") + e.what());
    return std::nullopt;
  }
}

int campaign_worker(const Options& options) {
  const std::string& snapshot_path = option(options, "snapshot");
  const std::uint64_t seed = option_u64(options, "seed");
  const double seconds = option_f64(options, "seconds");

  // Set-up: what `bgpsim campaign --snapshot` does before sampling.
  ReferenceClock clock;
  std::vector<Interval> load;
  std::optional<Scenario> scenario;
  std::shared_ptr<const store::BaselineStore> baselines;
  clock.burst();
  while (more_setup_reps(durations(load))) {
    scenario.reset();  // one copy alive at a time, as in the CLI (rss_mb)
    baselines.reset();
    const double t0 = now_s();
    store::Snapshot snapshot = store::load_snapshot(snapshot_path);
    scenario.emplace(Scenario::from_snapshot(snapshot));
    baselines = std::make_shared<const store::BaselineStore>(std::move(snapshot.baselines));
    load.push_back({t0, now_s()});
    clock.burst();
  }

  campaign::CampaignSpec spec;
  spec.sample_budget = 100000;
  spec.target_ci = option_f64(options, "target-ci");
  spec.batch = option_u64(options, "batch");
  spec.probes = static_cast<std::uint32_t>(option_u64(options, "probes"));
  spec.workers = kThreads;

  std::vector<Interval> rounds, campaigns;
  std::vector<Segment> segments;
  std::vector<std::string> failures;
  std::uint64_t samples = 0, first_samples = 0, first_rounds = 0, warm = 0;
  double largest_share = 0.0;
  // Campaign after campaign for the run's seconds. The first one always
  // runs to the target CI; a later one still running at the deadline is
  // cancelled at its next round barrier and counts for the timings only.
  // Calibration bursts run at round barriers, where the workers wait for
  // the driver.
  const double deadline = now_s() + seconds;
  double last_burst = now_s();
  std::atomic<bool> cancel{false};
  for (std::uint64_t k = 0; now_s() < deadline; ++k) {
    spec.seed = derive_seed(seed, k);
    double last = now_s();
    const double begin = last;
    double segment_start = begin;
    std::uint64_t segment_from = 0;  // samples done when the segment began
    const campaign::CampaignResult run = campaign::run_campaign(
        *scenario, baselines, spec, &cancel, [&](const campaign::CampaignProgress& p) {
          const double t = now_s();
          rounds.push_back({last, t});
          if (t - last_burst >= kBurstEveryS) {
            segments.push_back(
                {{segment_start, t}, static_cast<double>(p.samples_done - segment_from)});
            segment_from = p.samples_done;
            clock.burst();
            last_burst = now_s();
            segment_start = last_burst;
          }
          if (k > 0 && now_s() >= deadline) cancel.store(true);
          last = now_s();
        });
    const double end = now_s();
    // The rounds since the last burst, unless the burst came at the final
    // barrier and only the campaign's wrap-up is left.
    if (run.samples_used > segment_from) {
      segments.push_back(
          {{segment_start, end}, static_cast<double>(run.samples_used - segment_from)});
    }
    samples += run.samples_used;
    warm += run.warm_samples;

    const obs::JsonValue report = obs::JsonValue::parse(campaign::campaign_report_json(run));
    const obs::JsonValue* schema = report.find("schema");
    const std::string tag = "campaign " + std::to_string(k) + ": ";
    if (schema == nullptr || schema->as_string() != "bgpsim.campaign.v1") {
      failures.push_back(tag + "report schema is not bgpsim.campaign.v1");
    }
    if (report.number_at("warm_samples", -1) != report.number_at("samples_used", -2)) {
      failures.push_back(tag + "warm_samples != samples_used");
    }
    if (run.stop_reason == "cancelled" && k > 0) break;
    campaigns.push_back({begin, end});
    if (run.stop_reason != "target_ci_reached") {
      failures.push_back(tag + "stopped by " + run.stop_reason + ", not by the target CI");
    }
    const obs::JsonValue* ci = report.find_path({"pooled", "ci_half_width"});
    if (ci == nullptr || ci->as_number() > spec.target_ci) {
      failures.push_back(tag + "CI above the target");
    }
    if (k == 0) {
      first_samples = run.samples_used;
      first_rounds = run.rounds;
      for (const campaign::StratumResult& row : run.strata) {
        largest_share = std::max(largest_share, static_cast<double>(row.samples) /
                                                    static_cast<double>(run.samples_used));
      }
    }
  }
  const obs::RegistrySnapshot counters = obs::registry().snapshot();
  const auto counter = [&](const char* name) {
    const auto it = counters.counters.find(name);
    return it == counters.counters.end() ? 0.0 : static_cast<double>(it->second);
  };

  clock.burst();
  std::vector<double> time_to_ci_s;
  for (const Interval& c : campaigns) time_to_ci_s.push_back(clock.busy_s(c));

  obs::JsonWriter json;
  json.begin_object();
  json.field("load_s", median(durations(load)));
  json.field("load_ref_s", median(clock.ref_durations(load)));
  json.field("samples", samples);
  json.field("warm", warm);
  write_array(json, "rate", rates(segments));
  write_array(json, "rate_ref", clock.ref_rates(segments));
  write_array(json, "round_s", durations(rounds));
  write_array(json, "round_ref_s", clock.ref_durations(rounds));
  write_array(json, "time_to_ci_s", time_to_ci_s);
  json.field("slowdown", clock.mean_slowdown());
  json.field("first_samples", first_samples);
  json.field("first_rounds", first_rounds);
  json.field("largest_stratum_share", largest_share);
  json.field("warm_fallbacks", counter("warm.fallbacks"));
  json.field("warm_pops", counter("warm.pops"));
  json.field("warm_repairs", counter("warm.repairs"));
  json.field("warm_reselects", counter("warm.reselects"));
  json.field("rss_mb", vm_hwm_mb(getpid()));
  json.key("failures");
  json.begin_array();
  for (const std::string& f : failures) json.value(f);
  json.end_array();
  json.end_object();
  std::printf("%s\n", json.str().c_str());
  return 0;
}

}  // namespace

SweepPlan plan_sweep(const Scenario& scenario, std::uint32_t attackers, std::uint64_t seed) {
  const AsGraph& graph = scenario.graph();
  SweepPlan plan;
  plan.targets.push_back(scenario.tiers().tier1.front());
  TargetQuery query;
  query.depth = 1;
  query.multi_homed = true;
  if (const auto t = find_target(graph, scenario.tiers(), scenario.depth(), query)) {
    plan.targets.push_back(*t);
  }
  std::uint16_t deepest = 0;
  for (const std::uint16_t d : scenario.depth()) {
    if (d != kUnreachableDepth) deepest = std::max(deepest, d);
  }
  for (std::uint16_t d = deepest; d >= 1; --d) {
    TargetQuery deep;
    deep.depth = d;
    if (const auto t = find_target(graph, scenario.tiers(), scenario.depth(), deep)) {
      plan.targets.push_back(*t);
      break;
    }
  }
  std::vector<AsId> pool;
  for (const AsId a : scenario.transit()) {
    if (std::find(plan.targets.begin(), plan.targets.end(), a) == plan.targets.end()) {
      pool.push_back(a);
    }
  }
  Rng rng(derive_seed(seed, 0x7377656570));
  plan.attackers =
      rng.sample_without_replacement(pool, std::min<std::size_t>(attackers, pool.size()));
  return plan;
}

namespace {

int sweep_worker(const Options& options) {
  Workload workload = *find_workload("sweep-cold");
  workload.ases = static_cast<std::uint32_t>(option_u64(options, "ases"));
  const std::uint64_t seed = option_u64(options, "seed");
  const double seconds = option_f64(options, "seconds");

  ReferenceClock clock;
  std::vector<Interval> generate;
  std::optional<Scenario> scenario;
  clock.burst();
  while (more_setup_reps(durations(generate))) {
    scenario.reset();  // one topology alive at a time (rss_mb)
    const double t0 = now_s();
    scenario.emplace(make_scenario(workload, seed));
    generate.push_back({t0, now_s()});
    clock.burst();
  }
  const SweepPlan plan =
      plan_sweep(*scenario, static_cast<std::uint32_t>(option_u64(options, "attackers")), seed);
  const std::size_t items = plan.size();
  std::vector<std::unique_ptr<HijackSimulator>> sims;
  for (unsigned t = 0; t < kThreads; ++t) {
    sims.push_back(std::make_unique<HijackSimulator>(scenario->graph(), scenario->sim_config()));
  }

  // Attacks interleave the targets, so a time-bounded prefix covers all
  // three alike. Threads take 8 attacks at a time, in segments of about
  // kBurstEveryS with a calibration burst after each.
  constexpr std::size_t kGrab = 8;
  std::vector<std::uint32_t> pollution(items, std::numeric_limits<std::uint32_t>::max());
  std::vector<std::vector<Interval>> per_thread(kThreads);
  std::vector<Segment> segments;
  std::atomic<std::size_t> next{0};
  const auto attacks_done = [&per_thread] {
    std::size_t total = 0;
    for (const auto& l : per_thread) total += l.size();
    return static_cast<double>(total);
  };
  clock.burst();
  const double start = now_s();
  while (now_s() - start < seconds && next.load() < items) {
    const double segment_start = now_s();
    const double done_before = attacks_done();
    const double end = std::min(start + seconds, segment_start + kBurstEveryS);
    std::vector<double> last_done(kThreads, segment_start);
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        for (;;) {
          if (now_s() >= end) break;
          const std::size_t begin = next.fetch_add(kGrab, std::memory_order_relaxed);
          if (begin >= items) break;
          for (std::size_t k = begin; k < std::min(items, begin + kGrab); ++k) {
            const auto [target, attacker] = plan.item(k);
            const double t0 = now_s();
            pollution[k] = sims[t]->attack(target, attacker).polluted_ases;
            last_done[t] = now_s();
            per_thread[t].push_back({t0, last_done[t]});
          }
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
    segments.push_back({{segment_start, *std::max_element(last_done.begin(), last_done.end())},
                        attacks_done() - done_before});
    clock.burst();
  }
  std::vector<Interval> attacks;
  for (const auto& l : per_thread) attacks.insert(attacks.end(), l.begin(), l.end());
  std::sort(attacks.begin(), attacks.end(),
            [](const Interval& a, const Interval& b) { return a.from_s < b.from_s; });

  // The uniqueness theorem (a strict per-AS preference order has one stable
  // state, DESIGN.md): the fixed point the cold equilibrium engine
  // computes is the one the message-passing generation engine converges to.
  std::vector<std::string> failures;
  std::vector<std::size_t> done;
  for (std::size_t k = 0; k < items; ++k) {
    if (pollution[k] != std::numeric_limits<std::uint32_t>::max()) done.push_back(k);
  }
  Rng rng(derive_seed(seed, 0x636865636b));
  SimConfig generation = scenario->sim_config();
  generation.engine = EngineKind::Generation;
  HijackSimulator reference(scenario->graph(), generation);
  const std::vector<std::size_t> checks =
      rng.sample_without_replacement(done, std::min<std::size_t>(32, done.size()));
  for (const std::size_t k : checks) {
    const auto [target, attacker] = plan.item(k);
    const std::uint32_t expected = reference.attack(target, attacker).polluted_ases;
    if (expected != pollution[k]) {
      failures.push_back("sweep attack " + std::to_string(k) + ": equilibrium " +
                         std::to_string(pollution[k]) + " != generation " +
                         std::to_string(expected));
    }
  }

  obs::JsonWriter json;
  json.begin_object();
  json.field("generate_s", median(durations(generate)));
  json.field("generate_ref_s", median(clock.ref_durations(generate)));
  json.field("attacks", static_cast<std::uint64_t>(attacks.size()));
  write_array(json, "rate", rates(segments));
  write_array(json, "rate_ref", clock.ref_rates(segments));
  write_array(json, "attack_s", durations(attacks));
  write_array(json, "attack_ref_s", clock.ref_durations(attacks));
  json.field("slowdown", clock.mean_slowdown());
  json.field("checked", static_cast<std::uint64_t>(checks.size()));
  json.field("targets", static_cast<std::uint64_t>(plan.targets.size()));
  json.field("rss_mb", vm_hwm_mb(getpid()));
  json.key("failures");
  json.begin_array();
  for (const std::string& f : failures) json.value(f);
  json.end_array();
  json.end_object();
  std::printf("%s\n", json.str().c_str());
  return 0;
}

}  // namespace

int run_worker(const std::string& kind, const std::map<std::string, std::string>& options) {
  if (kind == "campaign") return campaign_worker(options);
  if (kind == "sweep") return sweep_worker(options);
  throw ConfigError("worker needs campaign|sweep, not '" + kind + "'");
}

void run_campaign_workload(const Workload& workload, const RunOptions& opt,
                           RunResult& result) {
  const Scenario scenario = make_scenario(workload, opt.seed);
  const std::vector<AsId> victims = pick_victims(scenario, workload.victims, opt.seed);
  const std::string snapshot = opt.work_dir + "/world.snap";
  ReferenceClock clock;
  std::vector<Interval> save;
  clock.burst();
  while (more_setup_reps(durations(save))) {
    const double t0 = now_s();
    const int rc = save_snapshot(workload, opt.seed, scenario, victims, snapshot);
    save.push_back({t0, now_s()});
    clock.burst();
    if (rc != 0) {
      result.fail("bgpsim snapshot save exited " + std::to_string(rc));
      return;
    }
  }
  char target_ci[32];
  std::snprintf(target_ci, sizeof(target_ci), "%.17g", workload.target_ci);
  const std::optional<obs::JsonValue> doc = run_worker_child(
      opt,
      {"campaign", "--snapshot", snapshot, "--seed", std::to_string(opt.seed), "--seconds",
       std::to_string(opt.seconds), "--batch", std::to_string(workload.batch), "--target-ci",
       target_ci, "--probes", std::to_string(workload.probes)},
      result);
  if (!doc) return;

  const double samples = doc->number_at("samples");
  const std::vector<double> round_s = read_array(*doc, "round_s");
  const std::vector<double> time_to_ci = read_array(*doc, "time_to_ci_s");
  result.attempted += static_cast<std::uint64_t>(samples);
  const Timings wall{median(durations(save)) + doc->number_at("load_s"),
                     read_array(*doc, "rate"), round_s};
  const Timings ref{median(clock.ref_durations(save)) + doc->number_at("load_ref_s"),
                    read_array(*doc, "rate_ref"), read_array(*doc, "round_ref_s")};
  report_timings(workload, wall, ref, doc->number_at("slowdown"), result);
  result.set_e2e("rss_mb", doc->number_at("rss_mb"));
  result.notes.push_back("ops_per_s: " + std::to_string(static_cast<std::uint64_t>(samples)) +
                         " samples; " + std::to_string(time_to_ci.size()) +
                         " campaigns reached the target CI before the deadline; steps are "
                         "campaign rounds");

  const double pops = doc->number_at("warm_pops");
  const double repairs = doc->number_at("warm_repairs");
  result.set_layer("store.snapshot_save_s", median(durations(save)));
  result.set_layer("campaign.round_ms_p50", 1e3 * median(round_s));
  result.set_layer("campaign.round_ms_max",
                   round_s.empty() ? 0.0 : 1e3 * *std::max_element(round_s.begin(), round_s.end()));
  result.set_layer("campaign.time_to_ci_s", median(time_to_ci));
  result.set_layer("campaign.samples_used", doc->number_at("first_samples"));
  result.set_layer("campaign.rounds", doc->number_at("first_rounds"));
  result.set_layer("campaign.largest_stratum_share", doc->number_at("largest_stratum_share"));
  result.set_layer("hijack.warm_hit_ratio", samples > 0 ? doc->number_at("warm") / samples : 0.0);
  result.set_layer("bgp.warm_fallbacks", doc->number_at("warm_fallbacks"));
  result.set_layer("bgp.warm_pops_per_attack", repairs > 0 ? pops / repairs : 0.0);
  result.set_layer("bgp.warm_reselect_ratio",
                   pops > 0 ? doc->number_at("warm_reselects") / pops : 0.0);
  result.set_layer("loadgen.sent", samples);

  if (!opt.trace) return;
  time_setup_layers(workload, opt.seed, victims, result);
  trace_campaign(workload, opt, snapshot, wall.ops_per_s(), result);
}

void run_sweep_workload(const Workload& workload, const RunOptions& opt, RunResult& result) {
  const std::optional<obs::JsonValue> doc = run_worker_child(
      opt,
      {"sweep", "--ases", std::to_string(workload.ases), "--seed", std::to_string(opt.seed),
       "--seconds", std::to_string(opt.seconds), "--attackers",
       std::to_string(workload.attackers)},
      result);
  if (!doc) return;
  const double attacks = doc->number_at("attacks");
  result.attempted += static_cast<std::uint64_t>(attacks);
  const Timings wall{doc->number_at("generate_s"), read_array(*doc, "rate"),
                     read_array(*doc, "attack_s")};
  const Timings ref{doc->number_at("generate_ref_s"), read_array(*doc, "rate_ref"),
                    read_array(*doc, "attack_ref_s")};
  report_timings(workload, wall, ref, doc->number_at("slowdown"), result);
  result.set_e2e("rss_mb", doc->number_at("rss_mb"));
  result.notes.push_back(std::to_string(static_cast<std::uint64_t>(attacks)) +
                         " cold attacks on " +
                         std::to_string(static_cast<int>(doc->number_at("targets"))) +
                         " targets, " + std::to_string(kThreads) + " threads; " +
                         std::to_string(static_cast<int>(doc->number_at("checked"))) +
                         " checked against the generation engine");
  result.set_layer("topology.generate_s", wall.setup_s);
  result.set_layer("loadgen.sent", attacks);

  if (!opt.trace) return;
  trace_sweep(workload, opt, wall.ops_per_s(), result);
}

}  // namespace bgpbench
