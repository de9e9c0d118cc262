#include "ladder.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <optional>

#include "bgp/equilibrium_engine.hpp"
#include "bgp/warm_repair.hpp"
#include "campaign/estimator.hpp"
#include "campaign/sampler.hpp"
#include "client.hpp"
#include "defense/deployment.hpp"
#include "detect/detector.hpp"
#include "detect/probe_set.hpp"
#include "obs/json.hpp"
#include "obs/json_parse.hpp"
#include "serve/service.hpp"
#include "stats.hpp"
#include "store/snapshot.hpp"
#include "support/rng.hpp"

namespace bgpbench {

using namespace bgpsim;

double SpanLog::total_s(const char* name) const {
  const std::string_view wanted(name);
  double total = 0.0;
  for (const Span& span : spans_) {
    if (wanted == span.name) total += span.end_s - span.start_s;
  }
  return total;
}

std::vector<double> SpanLog::per_input_s(const char* name, std::size_t inputs) const {
  const std::string_view wanted(name);
  std::vector<double> totals(inputs, 0.0);
  for (const Span& span : spans_) {
    if (span.request < inputs && wanted == span.name) {
      totals[span.request] += span.end_s - span.start_s;
    }
  }
  return totals;
}

void SpanLog::write_chrome_trace(const std::string& path) const {
  const double origin = spans_.empty() ? 0.0 : spans_.front().start_s;
  obs::JsonWriter json;
  json.begin_object();
  json.key("traceEvents");
  json.begin_array();
  for (const Span& span : spans_) {
    json.begin_object();
    json.field("name", span.name);
    json.field("ph", "X");
    json.field("ts", 1e6 * (span.start_s - origin));
    json.field("dur", 1e6 * (span.end_s - span.start_s));
    json.field("pid", std::uint64_t{1});
    json.field("tid", std::uint64_t{1});
    json.key("args");
    json.begin_object();
    json.field("request", "r" + std::to_string(span.request));
    if (*span.parent != '\0') json.field("parent", span.parent);
    json.end_object();
    json.end_object();
  }
  json.end_array();
  json.end_object();
  std::ofstream(path) << json.str() << '\n';
}

namespace {

double mean_us(const SpanLog& log, const char* name, std::size_t n) {
  return n == 0 ? 0.0 : 1e6 * log.total_s(name) / static_cast<double>(n);
}

void write_spans(const RunOptions& opt, const SpanLog& log) {
  if (opt.out_dir.empty()) return;
  std::filesystem::create_directories(opt.out_dir);
  log.write_chrome_trace(opt.out_dir + "/spans.json");
}

/// The /v1/attack handler (serve/service.cpp) replayed call by call through
/// the same public functions, one span per layer. Returns the response body
/// it builds, which must equal the handler's.
class HandlerLadder {
 public:
  HandlerLadder(const Scenario& scenario, std::shared_ptr<const store::BaselineStore> baselines)
      : graph_(scenario.graph()), policy_(scenario.policy()), baselines_(baselines),
        sim_(graph_, scenario.sim_config()) {
    sim_.attach_baseline(std::move(baselines));
  }

  std::string run(SpanLog& log, std::size_t request, const std::string& body) {
    obs::JsonValue doc;
    log.step("obs.json_parse", request, [&] { doc = obs::JsonValue::parse(body); });
    AsId victim = kInvalidAs;
    AsId attacker = kInvalidAs;
    log.step("topology.asn_resolve", request, [&] {
      victim = *graph_.find(static_cast<Asn>(doc.find("victim")->as_u64()));
      attacker = *graph_.find(static_cast<Asn>(doc.find("attacker")->as_u64()));
    });
    std::optional<FilterSet> filters;
    log.step("defense.deployment_build", request, [&] {
      filters.emplace(graph_.num_ases());
      if (const obs::JsonValue* top = doc.find("deployment_top")) {
        for (const AsId id : top_k_deployment(graph_, top->as_u64()).deployers) filters->add(id);
      }
      if (filters->count() > 0) {
        sim_.set_validators(filters->bitset());
      } else {
        sim_.set_validators(std::nullopt);
      }
    });
    validators_ = filters->count() > 0 ? std::optional(filters->bitset()) : std::nullopt;
    ExtendedAttackResult result;
    bool warm = false;
    log.step("hijack.attack", request, [&] {
      result = sim_.attack_ex(victim, attacker, AttackOptions{});
      warm = sim_.last_attack_warm();
    });
    const obs::JsonValue* probes_field = doc.find("probes");
    const std::uint32_t probes =
        probes_field == nullptr ? 0 : static_cast<std::uint32_t>(probes_field->as_u64());
    std::optional<ProbeSet> probe_set;
    DetectionOutcome outcome;
    std::uint32_t first = 0;
    if (probes > 0) {
      log.step("detect.probe_build", request,
               [&] { probe_set.emplace(ProbeSet::top_k(graph_, probes)); });
      log.step("detect.evaluate", request,
               [&] { outcome = evaluate_detection(sim_.routes(), *probe_set); });
      if (outcome.detected()) {
        log.step("detect.first_generation", request, [&] {
          PropagationTrace trace;
          sim_.attack_with_trace(victim, attacker, trace);
          first = first_detection_generation(trace, *probe_set);
        });
      }
    }
    std::string out;
    log.step("obs.json_encode", request, [&] {
      obs::JsonWriter json;
      json.begin_object();
      json.field("victim", static_cast<std::uint64_t>(graph_.asn(victim)));
      json.field("attacker", static_cast<std::uint64_t>(graph_.asn(attacker)));
      json.field("polluted_ases", static_cast<std::uint64_t>(result.polluted_ases));
      json.field("polluted_fraction", result.polluted_address_fraction);
      json.field("routed_ases", static_cast<std::uint64_t>(result.routed_ases));
      json.field("deployment_size", static_cast<std::uint64_t>(filters->count()));
      json.field("forged_origin", false);
      json.field("warm", warm);
      json.field("generations", static_cast<std::uint64_t>(result.generations));
      if (probes > 0) {
        json.key("detection");
        json.begin_object();
        json.field("probes", static_cast<std::uint64_t>(probes));
        json.field("triggered", static_cast<std::uint64_t>(outcome.probes_triggered));
        json.field("detected", outcome.detected());
        json.field("first_generation", static_cast<std::uint64_t>(first));
        json.end_object();
      }
      json.end_object();
      out = std::move(json).str();
    });
    victim_ = victim;
    attacker_ = attacker;
    return out;
  }

  /// hijack.attack_us broken down: the baseline copy and the warm repair of
  /// the last request, replayed on a scratch table (not part of the sum).
  void breakdown(SpanLog& log, std::size_t request) {
    log.step("store.baseline_clone", request, [&] { scratch_ = *baselines_->find(victim_); });
    log.step("bgp.warm_repair", request, [&] {
      warm_hijack_repair(graph_, policy_, victim_, attacker_, 1,
                         validators_ ? &*validators_ : nullptr, scratch_);
    });
  }

 private:
  const AsGraph& graph_;
  const PolicyConfig& policy_;
  std::shared_ptr<const store::BaselineStore> baselines_;
  HijackSimulator sim_;
  AsId victim_ = kInvalidAs;
  AsId attacker_ = kInvalidAs;
  std::optional<ValidatorSet> validators_;
  RouteTable scratch_;
};

}  // namespace

void trace_serve(const Workload& workload, const RunOptions& opt,
                 const RequestStream& stream, const std::string& snapshot_path,
                 RunResult& result) {
  store::Snapshot snapshot = store::load_snapshot(snapshot_path);
  const auto baselines = std::make_shared<const store::BaselineStore>(snapshot.baselines);
  serve::WhatIfService service(std::move(snapshot), 1);
  const serve::Router router = service.make_router();
  HandlerLadder ladder(service.scenario(), baselines);

  const auto dispatch = [&](std::size_t i, const std::string& body) {
    net::HttpRequest http;
    http.method = "POST";
    http.target = "/v1/attack";
    http.body = body;
    serve::RequestContext ctx;
    ctx.request_id = "r" + std::to_string(i);
    ctx.route = "attack";
    return router.dispatch(http, ctx);
  };
  const std::size_t n = workload.trace_inputs;
  {
    // Lazy state (the generation engine, built by the first detected
    // attack; first-touch pages) is built here, outside the timed replay.
    SpanLog warmup;
    for (std::size_t i = 0; i < std::min<std::size_t>(n, 8); ++i) {
      const std::string body = stream.make(Phase::Closed, i).body;
      dispatch(i, body);
      ladder.run(warmup, i, body);
    }
  }
  settle();

  // Each input runs three times: through the router (dispatch), as the
  // traced ladder, and as the untraced ladder. The order cycles through all
  // six permutations, so no variant always finds the caches another one
  // warmed.
  static constexpr int kOrders[6][3] = {{0, 1, 2}, {0, 2, 1}, {1, 0, 2},
                                        {1, 2, 0}, {2, 0, 1}, {2, 1, 0}};
  SpanLog log;
  double traced_s = 0.0;
  double untraced_s = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::string body = stream.make(Phase::Closed, i).body;
    serve::HttpResponse response;
    std::string replayed[2];
    for (const int variant : kOrders[i % 6]) {
      if (variant == 0) {
        log.set_recording(true);
        log.step("serve.dispatch", i, [&] { response = dispatch(i, body); });
        continue;
      }
      const bool traced = variant == 1;
      log.set_recording(traced);
      const double t0 = now_s();
      log.step("serve.handler_replay", i,
               [&] { replayed[variant - 1] = ladder.run(log, i, body); });
      (traced ? traced_s : untraced_s) += now_s() - t0;
    }
    if (response.status != 200) {
      result.fail("in-process dispatch answered " + std::to_string(response.status));
    }
    if (replayed[0] != response.body || replayed[1] != response.body) {
      result.fail("traced replay diverged from the handler for " + body);
    }
    log.set_recording(true);
    ladder.breakdown(log, i);
  }
  write_spans(opt, log);

  static const char* const kHandlerLayers[] = {
      "obs.json_parse",   "topology.asn_resolve", "defense.deployment_build",
      "hijack.attack",    "detect.probe_build",   "detect.evaluate",
      "detect.first_generation", "obs.json_encode"};
  std::vector<double> layers_s(n, 0.0);
  for (const char* layer : kHandlerLayers) {
    result.set_layer(std::string(layer) + "_us", mean_us(log, layer, n));
    const std::vector<double> per_input = log.per_input_s(layer, n);
    for (std::size_t i = 0; i < n; ++i) layers_s[i] += per_input[i];
  }
  const double dispatch_us = mean_us(log, "serve.dispatch", n);
  // Per cycle through the six orders, in which each variant ran first as
  // often as the others, then the median over cycles: a stall of the VM
  // inside one span moves one cycle's share, not the whole replay's. (The
  // median of per-input shares read -5% to +7% on attack-small, moved by
  // the order alone.)
  const std::vector<double> dispatch_s = log.per_input_s("serve.dispatch", n);
  const std::size_t cycle = std::size(kOrders);
  std::vector<double> shares;
  for (std::size_t from = 0; from < n; from += cycle) {
    double dispatched = 0.0, layered = 0.0;
    for (std::size_t i = from; i < std::min(n, from + cycle); ++i) {
      dispatched += dispatch_s[i];
      layered += layers_s[i];
    }
    if (dispatched > 0.0) shares.push_back(100.0 * (dispatched - layered) / dispatched);
  }
  const double unattributed_pct = median(shares);
  result.set_layer("store.baseline_clone_us", mean_us(log, "store.baseline_clone", n));
  result.set_layer("bgp.warm_repair_us", mean_us(log, "bgp.warm_repair", n));
  result.set_layer("serve.dispatch_us", dispatch_us);
  result.set_layer("trace.unattributed_pct", unattributed_pct);
  // The ladder is a copy of the handler. When the handler stops making a
  // call the ladder still times, the body stays the same but the layers no
  // longer add up to dispatch: caching the probe set would read about -18%
  // on attack-detect, caching the deployment about -60% on attack-mix.
  if (unattributed_pct < -5.0 || unattributed_pct > 10.0) {
    result.fail("handler layers do not add up to serve.dispatch_us (unattributed " +
                std::to_string(unattributed_pct) +
                "%, allowed -5..10): the ladder no longer matches the handler");
  }
  result.set_layer("trace.overhead_pct",
                   untraced_s > 0.0 ? 100.0 * (traced_s - untraced_s) / untraced_s : 0.0);
}

void trace_campaign(const Workload& workload, const RunOptions& opt,
                    const std::string& snapshot_path, double samples_per_s,
                    RunResult& result) {
  store::Snapshot snapshot = store::load_snapshot(snapshot_path);
  const Scenario scenario = Scenario::from_snapshot(snapshot);
  const AsGraph& graph = scenario.graph();
  const auto baselines =
      std::make_shared<const store::BaselineStore>(std::move(snapshot.baselines));
  const std::vector<campaign::Stratum> strata = campaign::build_attacker_strata(scenario);
  // The first campaign of the end-to-end run samples with this seed.
  const campaign::CampaignSampler sampler(derive_seed(opt.seed, 0), baselines->targets());
  HijackSimulator sim(graph, scenario.sim_config());
  sim.attach_baseline(baselines);
  const ProbeSet probes = ProbeSet::top_k(graph, workload.probes);
  std::vector<campaign::StratumEstimator> estimators(strata.size());
  std::vector<campaign::MomentAccumulator> shards(strata.size());
  std::vector<campaign::MomentAccumulator> folded(strata.size());
  RouteTable scratch;

  // Samples visit the strata round-robin; every full pass closes one shard
  // per stratum and merges it, as a round barrier does. The first sample
  // runs once untimed, so lazy state is built outside the spans.
  SpanLog log;
  const std::size_t n = workload.trace_inputs;
  const campaign::SamplePair first = sampler.draw(strata[0], 0, 0);
  sim.attack(first.victim, first.attacker);
  settle();
  for (std::size_t k = 0; k < n; ++k) {
    const auto s = static_cast<std::uint32_t>(k % strata.size());
    campaign::SamplePair pair;
    log.step("campaign.sample", k, [&] {
      log.step("campaign.draw", k,
               [&] { pair = sampler.draw(strata[s], s, k / strata.size()); });
      AttackResult attack;
      log.step("hijack.attack", k, [&] { attack = sim.attack(pair.victim, pair.attacker); });
      DetectionOutcome outcome;
      log.step("detect.evaluate", k,
               [&] { outcome = evaluate_detection(sim.routes(), probes); });
      log.step("campaign.fold", k, [&] {
        estimators[s].add_sample(attack.polluted_ases, sim.last_attack_warm(),
                                 outcome.detected(), 0, pair.reservoir_word);
        shards[s].add(attack.polluted_ases);
      });
    });
    log.step("store.baseline_clone", k, [&] { scratch = *baselines->find(pair.victim); });
    log.step("bgp.warm_repair", k, [&] {
      warm_hijack_repair(graph, scenario.policy(), pair.victim, pair.attacker, 1, nullptr,
                         scratch);
    });
    if (s + 1 == strata.size()) {
      log.step("campaign.merge", k, [&] {
        for (std::size_t j = 0; j < strata.size(); ++j) {
          folded[j].merge(shards[j]);
          shards[j] = campaign::MomentAccumulator{};
        }
      });
    }
  }
  write_spans(opt, log);

  double per_sample_us = 0.0;
  for (const char* layer :
       {"campaign.draw", "hijack.attack", "detect.evaluate", "campaign.fold", "campaign.merge"}) {
    const double us = mean_us(log, layer, n);
    result.set_layer(std::string(layer) + "_us", us);
    per_sample_us += us;
  }
  result.set_layer("store.baseline_clone_us", mean_us(log, "store.baseline_clone", n));
  result.set_layer("bgp.warm_repair_us", mean_us(log, "bgp.warm_repair", n));
  result.set_layer("campaign.parallel_efficiency",
                   per_sample_us > 0.0 ? samples_per_s / (kThreads * 1e6 / per_sample_us) : 0.0);
}

void trace_sweep(const Workload& workload, const RunOptions& opt, double attacks_per_s,
                 RunResult& result) {
  const Scenario scenario = make_scenario(workload, opt.seed);
  const AsGraph& graph = scenario.graph();
  const SweepPlan plan = plan_sweep(scenario, workload.attackers, opt.seed);
  HijackSimulator sim(graph, scenario.sim_config());
  EquilibriumEngine engine(graph, scenario.policy());
  RouteTable table;
  SpanLog log;
  const std::size_t n = std::min(workload.trace_inputs, plan.size());
  // One pass per layer, so the scratch buffers of the two engines do not
  // evict each other between spans (each sweep thread owns one engine).
  sim.attack(plan.item(0).first, plan.item(0).second);
  settle();
  for (std::size_t k = 0; k < n; ++k) {
    const auto [target, attacker] = plan.item(k);
    log.step("hijack.attack_cold", k, [&] { sim.attack(target, attacker); });
  }
  engine.compute_hijack(plan.item(0).first, plan.item(0).second, nullptr, table);
  for (std::size_t k = 0; k < n; ++k) {
    const auto [target, attacker] = plan.item(k);
    log.step("bgp.equilibrium_hijack", k,
             [&] { engine.compute_hijack(target, attacker, nullptr, table); });
  }
  write_spans(opt, log);
  const double cold_us = mean_us(log, "hijack.attack_cold", n);
  result.set_layer("hijack.attack_cold_us", cold_us);
  result.set_layer("bgp.equilibrium_hijack_us", mean_us(log, "bgp.equilibrium_hijack", n));
  result.set_layer("analysis.parallel_efficiency",
                   cold_us > 0.0 ? attacks_per_s / (kThreads * 1e6 / cold_us) : 0.0);
}

void write_layers_json(const Workload& workload, const RunOptions& opt,
                       const RunResult& result) {
  if (opt.out_dir.empty()) return;
  std::filesystem::create_directories(opt.out_dir);
  obs::JsonWriter json;
  json.begin_object();
  json.field("workload", workload.name);
  json.field("seed", opt.seed);
  json.field("inputs", static_cast<std::uint64_t>(workload.trace_inputs));
  json.key("layers");
  json.begin_object();
  for (const Metric& m : result.layers) {
    json.key(m.name);
    json.begin_object();
    json.field("value", m.value);
    json.field("unit", m.unit);
    json.end_object();
  }
  json.end_object();
  json.end_object();
  std::ofstream(opt.out_dir + "/layers.json") << json.str() << '\n';
}

}  // namespace bgpbench
