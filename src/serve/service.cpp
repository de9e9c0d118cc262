#include "serve/service.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>

#include "analysis/attribution.hpp"
#include "defense/deployment.hpp"
#include "defense/filter_set.hpp"
#include "detect/detector.hpp"
#include "detect/probe_set.hpp"
#include "obs/json.hpp"
#include "obs/json_parse.hpp"
#include "obs/obs.hpp"
#include "obs/promtext.hpp"
#include "obs/provenance.hpp"
#include "support/error.hpp"
#include "support/parallel.hpp"

namespace bgpsim::serve {
namespace {

/// The integer a JSON number holds, when it is one in [0, limit).
std::optional<std::uint64_t> integer_below(const obs::JsonValue& value,
                                           double limit) {
  const double number = value.as_number();
  if (!(number >= 0.0 && number < limit) || number != std::trunc(number)) {
    return std::nullopt;
  }
  return static_cast<std::uint64_t>(number);
}

/// Resolve a JSON member holding an ASN to a dense id, or explain why not.
/// Returns kInvalidAs and fills `error` on failure.
AsId resolve_asn(const AsGraph& graph, const obs::JsonValue& value,
                 const char* what, std::string& error) {
  if (!value.is_number()) {
    error = std::string(what) + " must be a number (an ASN)";
    return kInvalidAs;
  }
  const std::optional<std::uint64_t> number = integer_below(value, 0x1p32);
  if (!number) {
    error = std::string(what) + " must be an integer ASN in [0, 4294967295]";
    return kInvalidAs;
  }
  const auto asn = static_cast<Asn>(*number);
  const std::optional<AsId> id = graph.find(asn);
  if (!id) {
    error = std::string("unknown ") + what + " asn " + std::to_string(asn);
    return kInvalidAs;
  }
  return *id;
}

/// Extract the numeric job id from a /v1/campaign/<id> target ("c7" or
/// bare "7"); 0 = malformed (never a valid id — ids are dense from 1).
std::uint64_t parse_job_id(std::string_view target) {
  const std::string_view path = path_of(target);
  constexpr std::string_view kPrefix = "/v1/campaign/";
  if (path.size() <= kPrefix.size()) return 0;
  std::string_view tail = path.substr(kPrefix.size());
  if (!tail.empty() && tail.front() == 'c') tail.remove_prefix(1);
  if (tail.empty() || tail.size() > 18) return 0;
  std::uint64_t id = 0;
  for (const char c : tail) {
    if (c < '0' || c > '9') return 0;
    id = id * 10 + static_cast<std::uint64_t>(c - '0');
  }
  return id;
}

/// Parse a request body that must be one JSON object; false + `error` (the
/// 400 message) otherwise.
bool parse_object(const std::string& body, obs::JsonValue& doc,
                  std::string& error) {
  try {
    doc = obs::JsonValue::parse(body);
  } catch (const ParseError& e) {
    error = std::string("bad JSON: ") + e.what();
    return false;
  }
  if (!doc.is_object()) {
    error = "request body must be a JSON object";
    return false;
  }
  return true;
}

/// Read an optional non-negative integer member; false + `error` on a
/// non-number or a number outside the integers in [0, 2^64), true (leaving
/// `out` untouched) when the member is absent.
bool read_u64(const obs::JsonValue& doc, const char* name, std::uint64_t& out,
              std::string& error) {
  const obs::JsonValue* field = doc.find(name);
  if (field == nullptr) return true;
  if (!field->is_number()) {
    error = std::string(name) + " must be a number";
    return false;
  }
  const std::optional<std::uint64_t> value = integer_below(*field, 0x1p64);
  if (!value) {
    error = std::string(name) + " must be an integer in [0, 2^64)";
    return false;
  }
  out = *value;
  return true;
}

/// read_u64's boolean twin.
bool read_bool(const obs::JsonValue& doc, const char* name, bool& out,
               std::string& error) {
  const obs::JsonValue* field = doc.find(name);
  if (field == nullptr) return true;
  if (!field->is_bool()) {
    error = std::string(name) + " must be a boolean";
    return false;
  }
  out = field->as_bool();
  return true;
}

}  // namespace

WhatIfService::WhatIfService(store::Snapshot snapshot, unsigned workers)
    : scenario_(Scenario::from_snapshot(snapshot)),
      info_(store::describe_snapshot(snapshot)),
      baselines_(std::make_shared<const store::BaselineStore>(
          std::move(snapshot.baselines))) {
  workers = std::clamp(workers, 1u, kMaxWorkers);
  sims_.reserve(workers);
  for (unsigned i = 0; i < workers; ++i) {
    sims_.push_back(std::make_unique<HijackSimulator>(scenario_.graph(),
                                                      scenario_.sim_config()));
    sims_.back()->attach_baseline(baselines_);
  }
  campaigns_ = std::make_unique<CampaignJobRunner>(scenario_, baselines_);
  campaigns_->start();
  BGPSIM_GAUGE_SET("serve.baseline_targets", baselines_->size());
  BGPSIM_GAUGE_SET("mem.baseline_bytes", baselines_->memory_bytes());
}

Router WhatIfService::make_router() {
  Router router;
  router.add("POST", "/v1/attack", "attack",
             [this](const net::HttpRequest& request, RequestContext& ctx) {
               return handle_attack(request, ctx);
             });
  router.add("GET", "/v1/topology", "topology",
             [this](const net::HttpRequest&, RequestContext&) {
               return handle_topology();
             });
  router.add("POST", "/v1/campaign", "campaign",
             [this](const net::HttpRequest& request, RequestContext&) {
               return handle_campaign_submit(request);
             });
  router.add_prefix("GET", "/v1/campaign/", "campaign_job",
                    [this](const net::HttpRequest& request, RequestContext&) {
                      return handle_campaign_get(request);
                    });
  router.add_prefix("DELETE", "/v1/campaign/", "campaign_job",
                    [this](const net::HttpRequest& request, RequestContext&) {
                      return handle_campaign_cancel(request);
                    });
  router.add("GET", "/metrics", "metrics",
             [](const net::HttpRequest&, RequestContext&) {
               return HttpResponse{200, "text/plain; version=0.0.4; charset=utf-8",
                                   obs::to_prom_text(obs::registry().snapshot())};
             });
  router.add("GET", "/healthz", "healthz",
             [](const net::HttpRequest&, RequestContext&) {
               // Liveness only: no locks, no engine state — safe to probe at
               // any rate.
               return HttpResponse{200, "text/plain", "ok\n"};
             });
  router.add("GET", "/statusz", "statusz",
             [this](const net::HttpRequest&, RequestContext&) {
               return handle_statusz();
             });
  return router;
}

HttpResponse WhatIfService::handle_attack(const net::HttpRequest& request,
                                          RequestContext& ctx) {
  BGPSIM_TIMED_SCOPE("serve.attack");
  const unsigned worker = ctx.worker;
  BGPSIM_REQUIRE(worker < sims_.size(), "worker index out of range");
  // Publish the request id for the scope of the engine run so attack_result
  // event-log records can be joined back to this access-log line.
  ScopedRequestId correlate(ctx.request_id);
  HijackSimulator& sim = *sims_[worker];
  const AsGraph& graph = scenario_.graph();

  obs::JsonValue doc;
  std::string error;
  if (!parse_object(request.body, doc, error)) return error_response(400, error);
  const obs::JsonValue* victim_field = doc.find("victim");
  const obs::JsonValue* attacker_field = doc.find("attacker");
  if (victim_field == nullptr || attacker_field == nullptr) {
    return error_response(400, "victim and attacker are required");
  }
  const AsId victim = resolve_asn(graph, *victim_field, "victim", error);
  if (victim == kInvalidAs) return error_response(400, error);
  const AsId attacker = resolve_asn(graph, *attacker_field, "attacker", error);
  if (attacker == kInvalidAs) return error_response(400, error);
  if (victim == attacker) {
    return error_response(400, "victim and attacker must differ");
  }

  // Deployment: explicit ASNs, a top-K-by-degree core, or both (union).
  FilterSet filters(graph.num_ases());
  if (const obs::JsonValue* deployment = doc.find("deployment")) {
    if (!deployment->is_array()) {
      return error_response(400, "deployment must be an array of ASNs");
    }
    for (const obs::JsonValue& member : deployment->items()) {
      const AsId id = resolve_asn(graph, member, "deployment", error);
      if (id == kInvalidAs) return error_response(400, error);
      filters.add(id);
    }
  }
  std::uint64_t top = 0;
  if (!read_u64(doc, "deployment_top", top, error)) {
    return error_response(400, error);
  }
  if (doc.find("deployment_top") != nullptr) {
    for (const AsId id : top_k_deployment(graph, top).deployers) filters.add(id);
  }
  if (filters.count() > 0) {
    sim.set_validators(filters.bitset());
  } else {
    sim.set_validators(std::nullopt);
  }

  AttackOptions options;
  std::uint64_t probes = 0;
  bool trace_requested = false;
  if (!read_bool(doc, "forged_origin", options.forged_origin, error) ||
      !read_u64(doc, "probes", probes, error) ||
      !read_bool(doc, "trace", trace_requested, error)) {
    return error_response(400, error);
  }
  const auto probe_count = static_cast<std::uint32_t>(
      std::min<std::uint64_t>(probes, graph.num_ases()));

  // Per-request provenance ring: worker sims are reused across requests, so
  // the recorder must be detached again before this frame unwinds.
  std::optional<obs::ProvenanceRecorder> recorder;
  if (trace_requested) {
    recorder.emplace();
    sim.set_provenance(&*recorder);
  }

  const ExtendedAttackResult result = sim.attack_ex(victim, attacker, options);
  const bool warm = sim.last_attack_warm();
  ctx.attack = true;
  ctx.warm = warm;
  ctx.generations = result.generations;

  // Attribution reads the converged table, so it must run before the
  // detection branch below replays the attack (attack_with_trace overwrites
  // sim.routes()). Counterfactual cuts are deliberately skipped here — each
  // one costs a full cold attack, too slow for a query path; use the
  // `bgpsim attribution` CLI for exact cuts.
  std::string trace_json;
  if (trace_requested) {
    const AttributionReport report = compute_attribution(
        graph, sim.routes(), victim, attacker, &*recorder);
    trace_json = attribution_trace_json(graph, report);
    ctx.trace_enabled = true;
    ctx.provenance_dropped = recorder->dropped();
    sim.set_provenance(nullptr);
  }

  // Detection runs against the converged table before any trace replay
  // (attack_with_trace reconverges on the generation engine and would
  // overwrite it).
  DetectionOutcome outcome;
  std::uint32_t first_generation = 0;
  if (probe_count > 0) {
    const ProbeSet probe_set = ProbeSet::top_k(graph, probe_count);
    outcome = evaluate_detection(sim.routes(), probe_set);
    if (outcome.detected() && !options.forged_origin) {
      PropagationTrace trace;
      sim.attack_with_trace(victim, attacker, trace);
      first_generation = first_detection_generation(trace, probe_set);
    }
  }

  obs::JsonWriter json;
  json.begin_object();
  json.field("victim", static_cast<std::uint64_t>(graph.asn(victim)));
  json.field("attacker", static_cast<std::uint64_t>(graph.asn(attacker)));
  json.field("polluted_ases", static_cast<std::uint64_t>(result.polluted_ases));
  json.field("polluted_fraction", result.polluted_address_fraction);
  json.field("routed_ases", static_cast<std::uint64_t>(result.routed_ases));
  json.field("deployment_size", static_cast<std::uint64_t>(filters.count()));
  json.field("forged_origin", options.forged_origin);
  json.field("warm", warm);
  json.field("generations", static_cast<std::uint64_t>(result.generations));
  if (probe_count > 0) {
    json.key("detection");
    json.begin_object();
    json.field("probes", static_cast<std::uint64_t>(probe_count));
    json.field("triggered", static_cast<std::uint64_t>(outcome.probes_triggered));
    json.field("detected", outcome.detected());
    json.field("first_generation", static_cast<std::uint64_t>(first_generation));
    json.end_object();
  }
  if (!trace_json.empty()) {
    json.key("trace");
    json.raw(trace_json);
  }
  json.end_object();
  BGPSIM_COUNTER_ADD(warm ? "serve.attacks_warm" : "serve.attacks_cold", 1);
  return HttpResponse{200, "application/json", std::move(json).str()};
}

HttpResponse WhatIfService::handle_topology() const {
  const AsGraph& graph = scenario_.graph();
  obs::JsonWriter json;
  json.begin_object();
  store::write_snapshot_info(json, info_);

  // Sample ASNs so a client (or the CI smoke test) can pick attack
  // endpoints without downloading the graph: baseline targets make warm
  // victims, transit ASes make effective attackers.
  json.key("baseline_sample");
  json.begin_array();
  {
    const std::vector<AsId> targets = baselines_->targets();
    const std::size_t n = std::min<std::size_t>(targets.size(), 16);
    for (std::size_t i = 0; i < n; ++i) {
      json.value(static_cast<std::uint64_t>(graph.asn(targets[i])));
    }
  }
  json.end_array();
  json.key("transit_sample");
  json.begin_array();
  {
    const std::vector<AsId>& transit = scenario_.transit();
    const std::size_t n = std::min<std::size_t>(transit.size(), 16);
    for (std::size_t i = 0; i < n; ++i) {
      json.value(static_cast<std::uint64_t>(graph.asn(transit[i])));
    }
  }
  json.end_array();
  json.end_object();
  return HttpResponse{200, "application/json", std::move(json).str()};
}

HttpResponse WhatIfService::handle_campaign_submit(
    const net::HttpRequest& request) {
  obs::JsonValue doc;
  std::string error;
  if (!parse_object(request.body, doc, error)) return error_response(400, error);

  campaign::CampaignSpec spec;
  std::uint64_t samples = spec.sample_budget;
  std::uint64_t batch = spec.batch;
  std::uint64_t seed = spec.seed;
  std::uint64_t workers = 2;
  std::uint64_t deployment_top = 0;
  std::uint64_t probes = 0;
  if (!read_u64(doc, "samples", samples, error) ||
      !read_u64(doc, "batch", batch, error) ||
      !read_u64(doc, "seed", seed, error) ||
      !read_u64(doc, "workers", workers, error) ||
      !read_u64(doc, "deployment_top", deployment_top, error) ||
      !read_u64(doc, "probes", probes, error)) {
    return error_response(400, error);
  }
  if (const obs::JsonValue* target = doc.find("target_ci")) {
    if (!target->is_number()) {
      return error_response(400, "target_ci must be a number");
    }
    spec.target_ci = target->as_number();
    if (spec.target_ci < 0.0) {
      return error_response(400, "target_ci must be >= 0");
    }
  }
  if (samples == 0) return error_response(400, "samples must be > 0");
  // Service-side guardrails: one request cannot pin the runner for hours or
  // oversubscribe the host; bigger sweeps belong on the CLI.
  spec.sample_budget = std::min<std::uint64_t>(samples, 10000000);
  spec.batch = std::min<std::uint64_t>(batch, 1000000);
  spec.seed = seed;
  spec.workers = static_cast<unsigned>(std::clamp<std::uint64_t>(workers, 1, 16));
  spec.deployment_top = static_cast<std::uint32_t>(
      std::min<std::uint64_t>(deployment_top, scenario_.graph().num_ases()));
  spec.probes = static_cast<std::uint32_t>(
      std::min<std::uint64_t>(probes, scenario_.graph().num_ases()));

  const std::uint64_t id = campaigns_->submit(spec);
  // Appends, not operator+ chains: GCC 12's -Werror=restrict false-fires on
  // the temporaries the chain creates at -O3 (same workaround as
  // make_request_id in request_obs.cpp).
  std::string job("c");
  job += std::to_string(id);
  std::string poll("/v1/campaign/");
  poll += job;
  obs::JsonWriter json;
  json.begin_object();
  json.field("job_id", job);
  json.field("state", "queued");
  json.field("samples", spec.sample_budget);
  json.field("target_ci", spec.target_ci);
  json.field("poll", poll);
  json.end_object();
  return HttpResponse{202, "application/json", std::move(json).str()};
}

HttpResponse WhatIfService::handle_campaign_get(const net::HttpRequest& request) {
  const std::uint64_t id = parse_job_id(request.target);
  const std::optional<CampaignJobSnapshot> snap =
      id == 0 ? std::nullopt : campaigns_->get(id);
  if (!snap) return error_response(404, "no such campaign job");

  std::string job("c");
  job += std::to_string(snap->id);
  obs::JsonWriter json;
  json.begin_object();
  json.field("job_id", job);
  json.field("state", to_string(snap->state));
  json.field("samples_done", snap->samples_done);
  json.field("sample_budget", snap->sample_budget);
  json.field("rounds", snap->rounds);
  json.field("pooled_mean", snap->pooled_mean);
  json.field("ci_half_width", snap->ci_half_width);
  json.field("target_ci", snap->target_ci);
  if (!snap->error.empty()) json.field("error", snap->error);
  if (!snap->result_json.empty()) {
    json.key("result");
    json.raw(snap->result_json);
  }
  json.end_object();
  return HttpResponse{200, "application/json", std::move(json).str()};
}

HttpResponse WhatIfService::handle_campaign_cancel(
    const net::HttpRequest& request) {
  const std::uint64_t id = parse_job_id(request.target);
  const CancelOutcome outcome =
      id == 0 ? CancelOutcome::NotFound : campaigns_->cancel(id);
  switch (outcome) {
    case CancelOutcome::NotFound:
      return error_response(404, "no such campaign job");
    case CancelOutcome::AlreadyFinished:
      return error_response(409, "campaign job already finished");
    case CancelOutcome::Cancelled:
      break;
  }
  std::string job("c");
  job += std::to_string(id);
  obs::JsonWriter json;
  json.begin_object();
  json.field("job_id", job);
  json.field("state", "cancelling");
  json.end_object();
  return HttpResponse{200, "application/json", std::move(json).str()};
}

HttpResponse WhatIfService::handle_statusz() const {
  const ServeStats& stats = serve_stats();
  obs::JsonWriter json;
  json.begin_object();
  json.field("status", "serving");
  json.field("uptime_seconds", uptime_.elapsed_seconds());
  json.field("git_rev", obs::git_rev());
  json.field("format_version", static_cast<std::uint64_t>(info_.format_version));
  json.field("topology_checksum", std::to_string(info_.topology_checksum));
  json.field("ases", static_cast<std::uint64_t>(info_.ases));
  json.field("baseline_targets",
             static_cast<std::uint64_t>(info_.baseline_targets));
  json.field("workers", static_cast<std::uint64_t>(sims_.size()));
#if defined(BGPSIM_OBS_DISABLED)
  json.field("obs_enabled", false);
#else
  json.field("obs_enabled", true);
#endif
  {
    // Compiles to an all-zero block under -DBGPSIM_OBS=OFF (profiler_status
    // is an inline no-op there), so the statusz schema stays stable.
    const obs::ProfilerStatus prof = obs::profiler_status();
    json.key("profiling");
    json.begin_object();
    json.field("active", prof.active);
    json.field("hz", static_cast<std::uint64_t>(prof.hz));
    json.field("samples", prof.samples);
    json.field("samples_dropped", prof.dropped);
    json.end_object();
    // Where each file sink writes, echoed from the active obs::Config: ""
    // when unconfigured, and always under -DBGPSIM_OBS=OFF. One glance
    // answers "is this server logging, and to which files?".
    const obs::Config config = obs::active_config();
    json.key("sinks");
    json.begin_object();
    json.field("access_log", config.access_log);
    json.field("eventlog", config.eventlog);
    json.field("profile", config.profile);
    json.field("prom_file", config.prom_file);
    json.field("provenance", config.provenance.value_or(""));
    json.field("trace", config.trace);
    json.end_object();
  }
  {
    const CampaignRegistryStats jobs = campaigns_->stats();
    json.key("campaign");
    json.begin_object();
    json.field("jobs", jobs.submitted);
    json.field("queued", jobs.queued);
    json.field("running", jobs.running);
    json.field("done", jobs.done);
    json.field("cancelled", jobs.cancelled);
    json.field("failed", jobs.failed);
    json.end_object();
  }
  json.field("in_flight", static_cast<std::uint64_t>(std::max<std::int64_t>(
                              0, stats.in_flight.load(std::memory_order_relaxed))));
  json.key("requests");
  json.begin_object();
  json.field("total", stats.total.load(std::memory_order_relaxed));
  json.field("status_2xx", stats.status_2xx.load(std::memory_order_relaxed));
  json.field("status_4xx", stats.status_4xx.load(std::memory_order_relaxed));
  json.field("status_5xx", stats.status_5xx.load(std::memory_order_relaxed));
  json.field("dropped", stats.dropped.load(std::memory_order_relaxed));
  json.end_object();
  json.end_object();
  return HttpResponse{200, "application/json", std::move(json).str()};
}

}  // namespace bgpsim::serve
