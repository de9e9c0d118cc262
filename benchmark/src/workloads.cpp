#include "workloads.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

#include "client.hpp"
#include "stats.hpp"
#include "store/baseline.hpp"
#include "support/rng.hpp"

namespace bgpbench {

using namespace bgpsim;

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = [] {
    std::vector<Workload> w(5);
    w[0].name = "attack-mix";
    w[0].shape = Shape::Mix;
    w[0].open_rate = 150.0;
    w[0].trace_inputs = 240;

    w[1].name = "attack-detect";
    w[1].shape = Shape::Detect;
    w[1].open_rate = 20.0;
    w[1].tail_q = 0.98;
    w[1].trace_inputs = 48;

    w[2].name = "attack-small";
    w[2].ases = 1000;
    w[2].victims = 16;
    w[2].open_rate = 2000.0;
    w[2].trace_inputs = 2000;

    w[3].name = "campaign";
    w[3].kind = Kind::Campaign;
    w[3].batch = 32;
    w[3].target_ci = 0.0115;
    w[3].probes = 62;
    w[3].tail_q = 0.90;
    w[3].trace_inputs = 600;

    w[4].name = "sweep-cold";
    w[4].kind = Kind::Sweep;
    w[4].victims = 0;
    w[4].attackers = 4096;
    w[4].trace_inputs = 200;
    return w;
  }();
  return all;
}

const Workload* find_workload(std::string_view name) {
  for (const Workload& w : workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

Workload smoke_variant(const Workload& workload) {
  Workload w = workload;
  w.ases = 1000;
  w.victims = std::min<std::uint32_t>(w.victims, 16);
  // Inputs are ~50x cheaper at this size; more of them keep the traced
  // layers' sum check clear of timing noise.
  w.trace_inputs = 256;
  w.attackers = std::min<std::uint32_t>(w.attackers, 256);
  // Pollution varies more on a small graph; a looser target still stops on
  // the CI rather than on the budget.
  if (w.kind == Kind::Campaign) w.target_ci = 0.03;
  return w;
}

namespace {

void set_metric(std::vector<Metric>& metrics, const std::string& name, double value) {
  for (Metric& m : metrics) {
    if (m.name == name) {
      m.value = value;
      return;
    }
  }
  throw std::logic_error("metric not in the catalog: " + name);
}

}  // namespace

void RunResult::set_e2e(const std::string& name, double value) { set_metric(e2e, name, value); }

void RunResult::set_layer(const std::string& name, double value) {
  set_metric(layers, name, value);
}

void RunResult::fail(const std::string& what) {
  correct = false;
  ++failed;
  if (notes.size() < 64) notes.push_back("FAIL " + what);
}

const std::vector<std::pair<std::string, std::string>>& e2e_catalog() {
  static const std::vector<std::pair<std::string, std::string>> catalog = {
      {"setup_s", "s"}, {"ops_per_s", "1/s"}, {"p50_ms", "ms"},
      {"tail_ms", "ms"}, {"rss_mb", "MiB"}};
  return catalog;
}

void report_timings(const Workload& workload, const Timings& wall, const Timings& ref,
                    double slowdown, RunResult& result) {
  result.set_e2e("setup_s", ref.setup_s);
  result.set_e2e("ops_per_s", ref.ops_per_s());
  result.set_e2e("p50_ms", 1e3 * median(ref.step_s));
  result.set_e2e("tail_ms", 1e3 * chunked_percentile(ref.step_s, workload.tail_q));
  const std::size_t n = ref.step_s.size();
  char line[256];
  std::snprintf(line, sizeof(line),
                "wall time: setup_s %.4g, ops_per_s %.4g, p50_ms %.4g, tail_ms %.4g; host "
                "slowdown %.3f",
                wall.setup_s, wall.ops_per_s(), 1e3 * median(wall.step_s),
                1e3 * chunked_percentile(wall.step_s, workload.tail_q), slowdown);
  result.notes.push_back(line);
  result.notes.push_back("ops_per_s: median of " + std::to_string(ref.rates.size()) +
                         " segments; tail_ms = p" +
                         std::to_string(static_cast<int>(100 * workload.tail_q)) + " of " +
                         std::to_string(n) + " steps, " +
                         std::to_string(samples_beyond(n, workload.tail_q)) +
                         " beyond it, median over " +
                         std::to_string(tail_chunks(n, workload.tail_q)) + " chunks");
  if (!tail_supported(n, workload.tail_q)) {
    result.notes.push_back("WARN fewer than 10 samples beyond the tail percentile");
  }
  result.set_layer("host.slowdown", slowdown);
  result.set_layer("e2e.latency_samples", static_cast<double>(n));
}

const std::vector<std::pair<std::string, std::string>>& layer_catalog() {
  static const std::vector<std::pair<std::string, std::string>> catalog = {
      // Set-up steps (medians of the repeated steps).
      {"topology.generate_s", "s"},
      {"store.baseline_build_s", "s"},
      {"store.snapshot_save_s", "s"},
      {"serve.startup_s", "s"},
      // /v1/attack handler layers, mean per request (they sum to dispatch).
      {"obs.json_parse_us", "us"},
      {"topology.asn_resolve_us", "us"},
      {"defense.deployment_build_us", "us"},
      {"hijack.attack_us", "us"},
      {"detect.probe_build_us", "us"},
      {"detect.evaluate_us", "us"},
      {"detect.first_generation_us", "us"},
      {"obs.json_encode_us", "us"},
      // Breakdown of hijack.attack_us, replayed on a scratch table.
      {"store.baseline_clone_us", "us"},
      {"bgp.warm_repair_us", "us"},
      {"serve.dispatch_us", "us"},
      {"net.roundtrip_us", "us"},
      {"net.overhead_us", "us"},
      {"trace.unattributed_pct", "%"},
      {"trace.overhead_pct", "%"},
      // Cold path.
      {"hijack.attack_cold_us", "us"},
      {"bgp.equilibrium_hijack_us", "us"},
      // Campaign sample layers and rounds.
      {"campaign.draw_us", "us"},
      {"campaign.fold_us", "us"},
      {"campaign.merge_us", "us"},
      {"campaign.round_ms_p50", "ms"},
      {"campaign.round_ms_max", "ms"},
      {"campaign.time_to_ci_s", "s"},
      {"campaign.samples_used", "count"},
      {"campaign.rounds", "count"},
      {"campaign.largest_stratum_share", "ratio"},
      // End-to-end rate over 4 x the single-thread rate of the ladder.
      {"analysis.parallel_efficiency", "ratio"},
      {"serve.parallel_efficiency", "ratio"},
      {"campaign.parallel_efficiency", "ratio"},
      // Counts from the untraced end-to-end phases.
      {"hijack.warm_hit_ratio", "ratio"},
      {"bgp.warm_fallbacks", "count"},
      {"bgp.warm_pops_per_attack", "count"},
      {"bgp.warm_reselect_ratio", "ratio"},
      {"bgp.generation_msgs_per_attack", "count"},
      // Server phase histograms (/metrics, bucket-interpolated).
      {"serve.queue_wait_us_p99", "us"},
      {"serve.handle_us_p50", "us"},
      {"serve.handle_us_p99", "us"},
      {"serve.write_us_p99", "us"},
      // Load generator.
      {"loadgen.open_p50_ms", "ms"},
      {"loadgen.open_tail_ms", "ms"},
      {"loadgen.late_ms_p99", "ms"},
      {"loadgen.sent", "count"},
      {"loadgen.failed", "count"},
      {"e2e.latency_samples", "count"},
      // Calibration bursts (refclock.hpp): mean wall / reference time.
      {"host.slowdown", "ratio"},
  };
  return catalog;
}

Scenario make_scenario(const Workload& workload, std::uint64_t seed) {
  ScenarioParams params;
  params.topology.total_ases = workload.ases;
  params.topology.seed = seed;
  return Scenario::generate(params);
}

std::vector<AsId> pick_victims(const Scenario& scenario, std::uint32_t count,
                               std::uint64_t seed) {
  Rng rng(derive_seed(seed, 0x76696374));
  const std::vector<AsId>& transit = scenario.transit();
  std::vector<AsId> victims = rng.sample_without_replacement(
      transit, std::min<std::size_t>(count, transit.size()));
  std::sort(victims.begin(), victims.end());
  return victims;
}

int save_snapshot(const Workload& workload, std::uint64_t seed, const Scenario& scenario,
                  const std::vector<AsId>& victims, const std::string& path) {
  std::string targets;
  for (const AsId v : victims) {
    if (!targets.empty()) targets += ',';
    targets += std::to_string(scenario.graph().asn(v));
  }
  return run_child({BGPBENCH_BGPSIM, "snapshot", "save", "--ases", std::to_string(workload.ases),
                    "--seed", std::to_string(seed), "--targets", targets, "--out", path});
}

void time_setup_layers(const Workload& workload, std::uint64_t seed,
                       const std::vector<AsId>& victims, RunResult& result) {
  std::vector<double> generate_s, build_s, total_s;
  while (more_setup_reps(total_s)) {
    const double t0 = now_s();
    const Scenario scenario = make_scenario(workload, seed);
    const double t1 = now_s();
    const store::BaselineStore baselines =
        store::BaselineStore::compute(scenario.graph(), scenario.policy(), victims);
    const double t2 = now_s();
    generate_s.push_back(t1 - t0);
    build_s.push_back(t2 - t1);
    total_s.push_back(t2 - t0);
  }
  result.set_layer("topology.generate_s", median(generate_s));
  result.set_layer("store.baseline_build_s", median(build_s));
}

RequestStream::RequestStream(const Scenario& scenario, std::vector<AsId> victims,
                             Shape shape, std::uint64_t seed)
    : scenario_(scenario), victims_(std::move(victims)), shape_(shape), seed_(seed) {}

AttackRequest RequestStream::make(Phase phase, std::uint64_t index) const {
  Rng rng(derive_seed(derive_seed(seed_, static_cast<std::uint64_t>(phase)), index));
  const std::vector<AsId>& transit = scenario_.transit();
  const AsGraph& graph = scenario_.graph();
  AttackRequest r;
  r.victim = victims_[rng.bounded(victims_.size())];
  do {
    r.attacker = transit[rng.bounded(transit.size())];
  } while (r.attacker == r.victim);
  r.body = "{\"victim\": " + std::to_string(graph.asn(r.victim)) +
           ", \"attacker\": " + std::to_string(graph.asn(r.attacker));
  if (shape_ == Shape::Mix) {
    static constexpr std::uint32_t kRotation[3] = {0, 20, 100};
    r.deployment_top = kRotation[index % 3];
    if (r.deployment_top > 0) {
      r.body += ", \"deployment_top\": " + std::to_string(r.deployment_top);
    }
  } else if (shape_ == Shape::Detect) {
    r.probes = 62;
    r.body += ", \"probes\": 62";
  }
  r.body += "}";
  return r;
}

PhasePlan plan_phases(double seconds) {
  PhasePlan plan;
  plan.warmup_s = std::min(1.0, 0.1 * seconds);
  const double rest = seconds - plan.warmup_s;
  // The closed loop gives every end-to-end timing, so it gets the larger
  // share; the open loop feeds the per-layer loadgen.* metrics.
  plan.closed_s = 0.6 * rest;
  plan.open_s = rest - plan.closed_s;
  return plan;
}

RunResult run_workload(const Workload& workload, const RunOptions& opt) {
  RunResult result;
  for (const auto& [name, unit] : e2e_catalog()) result.e2e.push_back({name, 0.0, unit});
  for (const auto& [name, unit] : layer_catalog()) result.layers.push_back({name, 0.0, unit});
  switch (workload.kind) {
    case Kind::Serve:
      run_serve(workload, opt, result);
      break;
    case Kind::Campaign:
      run_campaign_workload(workload, opt, result);
      break;
    case Kind::Sweep:
      run_sweep_workload(workload, opt, result);
      break;
  }
  return result;
}

}  // namespace bgpbench
