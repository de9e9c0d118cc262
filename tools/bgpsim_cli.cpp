// bgpsim — command-line front end to the library.
//
//   bgpsim generate --ases N [--seed S] --out topo.txt
//       synthesize an Internet and export it in CAIDA serial-1 format
//   bgpsim info (--topo file | --ases N [--seed S])
//       topology statistics: tiers, transit share, depth histogram
//   bgpsim attack (--topo file | --ases N) --victim ASN --attacker ASN
//                 [--subprefix] [--forged] [--core K] [--explain ASN]
//                 [--trace-pollution]
//       simulate one hijack, optionally with ROV deployed at the top-K core;
//       --explain replays it on the generation engine and prints the named
//       AS's per-generation route-decision history (candidates, rank, why
//       displaced); --trace-pollution records infection provenance and
//       appends a pollution_trace JSON block (depth histogram, choke
//       points, deployment frontier) — BGPSIM_PROVENANCE=1 turns on the
//       recording for every attack but prints no block
//   bgpsim attribution (--topo file | --ases N) --victim ASN --attacker ASN
//                      [--core K] [--top K] [--cuts N] [--json]
//       traced exact-prefix hijack plus choke-point attribution: rank
//       transit ASes by infection-subtree size and (for the top N, default
//       3) re-run the attack with each added to the validator set to report
//       the exact counterfactual pollution cut
//   bgpsim sweep (--topo file | --ases N) --victim ASN [--core K]
//       attack the victim from every transit AS; print the profile
//   bgpsim detect (--topo file | --ases N) [--attacks N] [--probes K]
//       random transit attacks vs a top-K probe set; print the miss rate
//   bgpsim promcheck --file metrics.prom
//       validate a Prometheus text exposition file with the in-repo parser
//       (the `promtool check metrics` stand-in CI uses); prints a summary
//   bgpsim snapshot save (--topo file | --ases N [--seed S]) --out world.snap
//                        [--targets all|transit|ASN,ASN,...]
//       converge the legitimate baseline and the generation seed for each
//       target AS and persist topology + params + baselines + seeds as a
//       versioned binary snapshot (default targets: every transit AS)
//   bgpsim snapshot info --file world.snap [--json]
//       header and section summary of a snapshot
//   bgpsim snapshot load --file world.snap
//       load + validate (generation seeds against a fresh generation-engine
//       run), then recompute one stored baseline cold and compare
//       route-for-route (an end-to-end integrity check)
//   bgpsim campaign (--snapshot world.snap | --topo file | --ases N)
//                   [--samples N] [--target-ci X] [--batch N] [--workers N]
//                   [--victims all|transit|ASN,ASN,...] [--deployment-top K]
//                   [--probes K] [--sample-seed S]
//       streaming Monte-Carlo hijack-impact campaign: stratified
//       (attacker, victim) sampling over the warm-start engine, pooled
//       pollution-fraction estimate with a normal-approximation CI, early
//       stop once the CI half-width reaches --target-ci; prints the JSON
//       report (schema bgpsim.campaign.v1) to stdout. With --snapshot the
//       victim pool is the snapshot's baseline targets; otherwise baselines
//       for --victims (default: every transit AS) are converged first
//   bgpsim serve --snapshot world.snap [--port N] [--workers N]
//                [--max-body BYTES] [--access-log file.ndjson]
//       long-lived loopback query service: POST /v1/attack, GET
//       /v1/topology, GET /metrics, GET /healthz, GET /statusz; drains and
//       exits 0 on SIGTERM/SIGINT. --access-log writes one NDJSON record
//       per request
//
// Observability (any command):
//   --obs [file]       dump the metrics-registry snapshot after the command:
//                      a human summary to stdout (time.* histograms as
//                      p50/p90/p99), or full JSON when <file> is given
//   --trace <file>     write a chrome://tracing / Perfetto trace of the run
//   --eventlog <file>  write the structured NDJSON event log there
//   --progress         heartbeat status line on stderr while the command runs
//   --profile <file>   sample the command with the in-process SIGPROF CPU
//                      profiler and write a collapsed-stack (folded) profile
//                      there on exit — feed it to flamegraph.pl, speedscope,
//                      or bgpsim-profview
// Each of these flags (and --access-log) wins over its BGPSIM_* env var;
// every obs knob, its default and its flag are the DESIGN.md §7 knob table.
#include <poll.h>

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/attribution.hpp"
#include "campaign/driver.hpp"
#include "analysis/detector_experiment.hpp"
#include "analysis/vulnerability.hpp"
#include "bgp/introspect.hpp"
#include "core/scenario.hpp"
#include "defense/deployment.hpp"
#include "obs/obs.hpp"
#include "obs/promtext.hpp"
#include "serve/query_server.hpp"
#include "serve/service.hpp"
#include "store/snapshot.hpp"
#include "support/error.hpp"
#include "support/strings.hpp"
#include "topology/caida_writer.hpp"

using namespace bgpsim;

namespace {

struct Args {
  std::string command;
  std::map<std::string, std::string> options;

  /// The option's value as a T; nullopt when the option is absent. A value
  /// that is not a decimal integer or does not fit in T is a ConfigError
  /// naming the option, never a default or a wrapped number.
  template <typename T = std::uint64_t>
  std::optional<T> number(const std::string& key) const {
    const auto it = options.find(key);
    if (it == options.end()) return std::nullopt;
    const std::optional<std::uint64_t> value = parse_u64(it->second);
    if (!value || *value > std::numeric_limits<T>::max()) {
      throw ConfigError("bad --" + key + " value: '" + it->second +
                        "' (want an integer in [0, " +
                        std::to_string(std::numeric_limits<T>::max()) + "])");
    }
    return static_cast<T>(*value);
  }

  std::optional<std::string> text(const std::string& key) const {
    const auto it = options.find(key);
    if (it == options.end()) return std::nullopt;
    return it->second;
  }

  bool flag(const std::string& key) const { return options.contains(key); }
};

Args parse_args(int argc, char** argv) {
  Args args;
  int first_option = 2;
  if (argc >= 2) args.command = argv[1];
  // `snapshot` takes a subcommand word: fold "snapshot save" into the
  // command key so option parsing stays uniform.
  if (args.command == "snapshot" && argc >= 3 &&
      std::string(argv[2]).rfind("--", 0) != 0) {
    args.command += std::string("-") + argv[2];
    first_option = 3;
  }
  for (int i = first_option; i < argc; ++i) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) throw ConfigError("unexpected argument: " + key);
    key = key.substr(2);
    if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      args.options[key] = argv[++i];
    } else {
      args.options[key] = "";  // boolean flag
    }
  }
  return args;
}

Scenario load_scenario(const Args& args) {
  ScenarioParams params;
  if (const auto path = args.text("topo")) {
    return Scenario::load_caida(*path, params);
  }
  params.topology.total_ases = args.number<std::uint32_t>("ases").value_or(4000);
  params.topology.seed = args.number("seed").value_or(42);
  return Scenario::generate(params);
}

int cmd_generate(const Args& args) {
  const auto out = args.text("out");
  if (!out) throw ConfigError("generate requires --out <file>");
  InternetGenParams params;
  params.total_ases = args.number<std::uint32_t>("ases").value_or(4000);
  params.seed = args.number("seed").value_or(42);
  const AsGraph graph = generate_internet(params);
  save_caida_file(*out, graph);
  std::printf("wrote %u ASes / %llu links to %s\n", graph.num_ases(),
              static_cast<unsigned long long>(graph.num_links()), out->c_str());
  return 0;
}

int cmd_info(const Args& args) {
  const Scenario scenario = load_scenario(args);
  const AsGraph& g = scenario.graph();
  std::printf("ases: %u  links: %llu  (E/N %.2f)\n", g.num_ases(),
              static_cast<unsigned long long>(g.num_links()),
              static_cast<double>(g.num_links()) / g.num_ases());
  std::printf("tier-1 clique (%zu):", scenario.tiers().tier1.size());
  for (const AsId t1 : scenario.tiers().tier1) std::printf(" %u", g.asn(t1));
  std::printf("\ntier-2: %zu   transit: %zu (%.1f%%)   regions: %u\n",
              scenario.tiers().tier2.size(), scenario.transit().size(),
              100.0 * scenario.transit().size() / g.num_ases(), g.num_regions());
  std::map<std::uint16_t, std::uint32_t> depth_hist;
  for (AsId v = 0; v < g.num_ases(); ++v) ++depth_hist[scenario.depth()[v]];
  std::printf("depth histogram:");
  for (const auto& [depth, count] : depth_hist) {
    if (depth == kUnreachableDepth) {
      std::printf("  unreachable:%u", count);
    } else {
      std::printf("  %u:%u", depth, count);
    }
  }
  std::printf("\n");
  return 0;
}

/// The attack commands' `pollution_trace` block: attribution of the most
/// recent (traced) attack, rendered as one JSON line on stdout.
void print_pollution_trace(const AsGraph& g, const HijackSimulator& sim,
                           AsId target, AsId attacker) {
  const AttributionReport report = compute_attribution(
      g, sim.routes(), target, attacker, sim.last_provenance());
  std::printf("pollution_trace: %s\n",
              attribution_trace_json(g, report).c_str());
}

int cmd_attack(const Args& args) {
  const Scenario scenario = load_scenario(args);
  const AsGraph& g = scenario.graph();
  const auto victim_asn = args.number<Asn>("victim");
  const auto attacker_asn = args.number<Asn>("attacker");
  if (!victim_asn || !attacker_asn) {
    throw ConfigError("attack requires --victim and --attacker ASNs");
  }
  BGPSIM_PROGRESS(1);
  BGPSIM_PROGRESS_PHASE("cli.attack");
  HijackSimulator sim = scenario.make_simulator();
  if (const auto core = args.number("core")) {
    sim.set_validators(
        to_filter_set(g, top_k_deployment(g, *core)).bitset());
  }
  // Constructed only when tracing (the edge buffer is megabytes).
  std::optional<obs::ProvenanceRecorder> recorder;
  if (args.flag("trace-pollution")) {
    recorder.emplace();
    sim.set_provenance(&*recorder);
  }
  AttackOptions options;
  if (args.flag("subprefix")) options.kind = AttackKind::SubPrefix;
  options.forged_origin = args.flag("forged");
  DecisionHistory history;
  const auto explain_asn = args.number<Asn>("explain");
  if (explain_asn) {
    if (options.forged_origin || options.kind == AttackKind::SubPrefix) {
      throw ConfigError("--explain supports the plain exact-prefix attack");
    }
    history.watched = g.require(*explain_asn);
    options.history = &history;
  }

  const auto result =
      sim.attack_ex(g.require(*victim_asn), g.require(*attacker_asn), options);
  if (explain_asn) {
    std::printf("exact-prefix hijack of AS%llu by AS%llu "
                "(generation engine, %u generations):\n",
                static_cast<unsigned long long>(*victim_asn),
                static_cast<unsigned long long>(*attacker_asn),
                result.generations);
    std::printf("  polluted: %u of %u ASes (%.1f%%)\n\n", result.polluted_ases,
                g.num_ases(), 100.0 * result.polluted_ases / g.num_ases());
    std::fputs(render_decision_history(g, history).c_str(), stdout);
  } else {
    std::printf("%s%s hijack of AS%llu by AS%llu:\n",
                options.forged_origin ? "forged-origin " : "",
                options.kind == AttackKind::SubPrefix ? "sub-prefix" : "exact-prefix",
                static_cast<unsigned long long>(*victim_asn),
                static_cast<unsigned long long>(*attacker_asn));
    std::printf("  polluted: %u of %u ASes (%.1f%%), %.1f%% of address space\n",
                result.polluted_ases, g.num_ases(),
                100.0 * result.polluted_ases / g.num_ases(),
                100.0 * result.polluted_address_fraction);
  }
  if (recorder) {
    print_pollution_trace(g, sim, result.target, result.attacker);
  }
  return 0;
}

int cmd_attribution(const Args& args) {
  const Scenario scenario = load_scenario(args);
  const AsGraph& g = scenario.graph();
  const auto victim_asn = args.number<Asn>("victim");
  const auto attacker_asn = args.number<Asn>("attacker");
  if (!victim_asn || !attacker_asn) {
    throw ConfigError("attribution requires --victim and --attacker ASNs");
  }
  const auto top = args.number<std::size_t>("top").value_or(10);
  const auto cuts = args.number<std::size_t>("cuts").value_or(3);
  const AsId victim = g.require(*victim_asn);
  const AsId attacker = g.require(*attacker_asn);

  // The traced attack plus one exact counterfactual re-run per cut.
  BGPSIM_PROGRESS(1 + (cuts < top ? cuts : top));
  BGPSIM_PROGRESS_PHASE("cli.attribution");
  HijackSimulator sim = scenario.make_simulator();
  if (const auto core = args.number("core")) {
    sim.set_validators(
        to_filter_set(g, top_k_deployment(g, *core)).bitset());
  }
  obs::ProvenanceRecorder recorder;
  sim.set_provenance(&recorder);
  sim.attack(victim, attacker);

  AttributionReport report = compute_attribution(
      g, sim.routes(), victim, attacker, sim.last_provenance(), top);
  annotate_counterfactual_cuts(g, scenario.sim_config(), sim.validators(),
                               report, cuts);

  if (args.flag("json")) {
    std::printf("%s\n", attribution_trace_json(g, report).c_str());
    return 0;
  }

  std::printf("attribution: AS%llu hijacked by AS%llu — %u polluted ASes, "
              "max depth %u\n",
              static_cast<unsigned long long>(*victim_asn),
              static_cast<unsigned long long>(*attacker_asn), report.polluted,
              report.max_depth);
  std::printf("  trace: %llu edges recorded, %llu dropped%s\n",
              static_cast<unsigned long long>(report.edges_recorded),
              static_cast<unsigned long long>(report.edges_dropped),
              report.trace_complete ? "" : "  (incomplete: raise "
                                           "BGPSIM_PROVENANCE_RING)");
  std::printf("  depth histogram:");
  for (std::uint32_t d = 1; d < report.depth_histogram.size(); ++d) {
    std::printf("  %u:%u", d, report.depth_histogram[d]);
  }
  std::printf("\n");
  if (report.blocked_offers != 0) {
    std::printf("  deployment frontier: %llu bogus offers blocked at %u "
                "validators (min depth %u, mean %.1f)\n",
                static_cast<unsigned long long>(report.blocked_offers),
                report.blocked_sites, report.frontier_min_depth,
                report.frontier_mean_depth);
  }
  std::printf("  choke points (subtree = polluted ASes routed through):\n");
  for (const ChokePoint& cp : report.choke_points) {
    if (cp.counterfactual_cut >= 0) {
      std::printf("    AS%-10u subtree %-8u exact cut if validating: %lld\n",
                  g.asn(cp.as), cp.subtree,
                  static_cast<long long>(cp.counterfactual_cut));
    } else {
      std::printf("    AS%-10u subtree %-8u\n", g.asn(cp.as), cp.subtree);
    }
  }
  return 0;
}

int cmd_sweep(const Args& args) {
  const Scenario scenario = load_scenario(args);
  const AsGraph& g = scenario.graph();
  const auto victim_asn = args.number<Asn>("victim");
  if (!victim_asn) throw ConfigError("sweep requires --victim ASN");
  const AsId victim = g.require(*victim_asn);

  VulnerabilityAnalyzer analyzer(g, scenario.sim_config());
  std::optional<FilterSet> filters;
  if (const auto core = args.number("core")) {
    filters = to_filter_set(g, top_k_deployment(g, *core));
  }
  BGPSIM_PROGRESS(scenario.transit().size());
  const auto curve = analyzer.sweep(victim, scenario.transit(),
                                    filters ? &*filters : nullptr);
  std::printf("AS%llu (depth %u): %zu transit attackers\n",
              static_cast<unsigned long long>(*victim_asn),
              scenario.depth()[victim], curve.attackers.size());
  std::printf("  mean pollution %.1f  median %.0f  max %.0f\n",
              curve.stats.mean(),
              quantile(std::vector<double>(curve.pollution.begin(),
                                           curve.pollution.end()),
                       0.5),
              curve.stats.max());
  std::printf("  attackers polluting >=10%% of the net: %u\n",
              curve.attackers_at_least(g.num_ases() / 10));
  return 0;
}

int cmd_detect(const Args& args) {
  const Scenario scenario = load_scenario(args);
  const AsGraph& g = scenario.graph();
  const auto attacks = args.number<std::uint32_t>("attacks").value_or(1000);
  const auto k = args.number<std::size_t>("probes").value_or(scenario.scaled_count(62));

  DetectorExperiment experiment(g, scenario.sim_config());
  Rng rng(args.number("seed").value_or(42));
  BGPSIM_PROGRESS(attacks);
  const auto samples = experiment.sample_transit_attacks(attacks, rng);
  const std::vector<ProbeSet> probe_sets{ProbeSet::top_k(g, k)};
  const auto results = experiment.run(samples, probe_sets);
  const auto& r = results[0];
  std::printf("%s vs %u random transit attacks:\n", r.label.c_str(), attacks);
  std::printf("  missed completely: %u (%.1f%%)\n", r.missed,
              100.0 * r.missed_fraction);
  if (r.missed > 0) {
    std::printf("  largest undetected attack: %u polluted ASes\n",
                static_cast<std::uint32_t>(r.missed_pollution.max()));
  }
  return 0;
}

int cmd_promcheck(const Args& args) {
  const auto file = args.text("file");
  if (!file) throw ConfigError("promcheck requires --file <metrics.prom>");
  std::ifstream in(*file, std::ios::binary);
  if (!in) throw ConfigError("cannot read " + *file);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const obs::RegistrySnapshot snap = obs::parse_prom_text(buffer.str());
  std::uint64_t samples = 0;
  for (const auto& [name, hist] : snap.histograms) {
    (void)name;
    samples += hist.count;
  }
  std::printf("%s: ok — %zu counters, %zu gauges, %zu histograms "
              "(%llu observations)\n",
              file->c_str(), snap.counters.size(), snap.gauges.size(),
              snap.histograms.size(), static_cast<unsigned long long>(samples));
  return 0;
}

/// Resolve an AS-set option (--targets, --victims) into dense ids: "all",
/// "transit" (default), or a comma-separated ASN list.
std::vector<AsId> as_set_option(const Scenario& scenario, const Args& args,
                                const std::string& option) {
  const std::string spec = args.text(option).value_or("transit");
  if (spec == "transit" || spec.empty()) return scenario.transit();
  if (spec == "all") {
    std::vector<AsId> all(scenario.graph().num_ases());
    for (AsId v = 0; v < scenario.graph().num_ases(); ++v) all[v] = v;
    return all;
  }
  std::vector<AsId> ases;
  for (const std::string_view field : split(spec, ',')) {
    const auto asn = parse_u64(trim(field));
    if (!asn || *asn > std::numeric_limits<Asn>::max()) {
      throw ConfigError("bad --" + option + " entry: " + std::string(field));
    }
    ases.push_back(scenario.graph().require(static_cast<Asn>(*asn)));
  }
  return ases;
}

int cmd_snapshot_save(const Args& args) {
  const auto out = args.text("out");
  if (!out) throw ConfigError("snapshot save requires --out <file>");
  const Scenario scenario = load_scenario(args);

  const std::vector<AsId> targets = as_set_option(scenario, args, "targets");
  BGPSIM_PROGRESS(targets.size());
  BGPSIM_PROGRESS_PHASE("snapshot.baselines");

  store::Snapshot snapshot;
  snapshot.graph = scenario.graph();
  snapshot.params = scenario.snapshot_params();
  snapshot.baselines = store::BaselineStore::compute(
      scenario.graph(), scenario.policy(), targets);
  snapshot.baselines.compute_seeds(scenario.graph(), scenario.policy());
  store::save_snapshot(*out, snapshot);

  const store::SnapshotInfo info = store::describe_snapshot(snapshot);
  std::printf("wrote %s: %u ASes, %llu links, %u baseline targets "
              "(checksum %llu)\n",
              out->c_str(), info.ases,
              static_cast<unsigned long long>(info.links),
              info.baseline_targets,
              static_cast<unsigned long long>(info.topology_checksum));
  return 0;
}

int cmd_snapshot_info(const Args& args) {
  const auto file = args.text("file");
  if (!file) throw ConfigError("snapshot info requires --file <file>");
  const store::Snapshot snapshot = store::load_snapshot(*file);
  const store::SnapshotInfo info = store::describe_snapshot(snapshot);
  if (args.flag("json")) {
    std::printf("%s\n", store::snapshot_info_json(info).c_str());
    return 0;
  }
  std::printf("snapshot: %s\n", file->c_str());
  std::printf("  format version: %u\n", info.format_version);
  std::printf("  topology checksum: %llu\n",
              static_cast<unsigned long long>(info.topology_checksum));
  std::printf("  ases: %u  links: %llu  regions: %u\n", info.ases,
              static_cast<unsigned long long>(info.links), info.regions);
  std::printf("  baseline targets: %u\n", info.baseline_targets);
  std::printf("  params: seed=%llu scale=%u tier1_shortest_path=%d "
              "stub_first_hop_filter=%d\n",
              static_cast<unsigned long long>(info.params.seed),
              info.params.scale, info.params.tier1_shortest_path ? 1 : 0,
              info.params.stub_first_hop_filter ? 1 : 0);
  return 0;
}

int cmd_snapshot_load(const Args& args) {
  const auto file = args.text("file");
  if (!file) throw ConfigError("snapshot load requires --file <file>");
  const store::Snapshot snapshot = store::load_snapshot(*file);
  const Scenario scenario = Scenario::from_snapshot(snapshot);

  // End-to-end integrity check beyond the checksums: recompute the first
  // stored baseline cold and compare route-for-route. Loading already
  // checked the generation seeds against a fresh generation-engine run.
  const std::vector<AsId> targets = snapshot.baselines.targets();
  if (!targets.empty()) {
    const AsId probe = targets.front();
    const store::BaselineStore recomputed = store::BaselineStore::compute(
        scenario.graph(), scenario.policy(), std::vector<AsId>{probe});
    const RouteTable* stored = snapshot.baselines.find(probe);
    const RouteTable* fresh = recomputed.find(probe);
    for (AsId v = 0; v < scenario.graph().num_ases(); ++v) {
      const Route& a = stored->routes[v];
      const Route& b = fresh->routes[v];
      if (a.origin != b.origin || a.cls != b.cls || a.path_len != b.path_len ||
          a.via != b.via) {
        throw ConfigError("stored baseline for target " + std::to_string(probe) +
                          " diverges from a fresh convergence at AS " +
                          std::to_string(v));
      }
    }
  }
  std::string seeds;
  if (snapshot.seeds_dropped != 0) {
    seeds = "; " + std::to_string(snapshot.seeds_dropped) +
            " generation seeds dropped: they differ from a fresh "
            "generation-engine run, so detection replays announce";
  } else if (snapshot.baselines.seed_count() != 0) {
    seeds = "; " + std::to_string(snapshot.baselines.seed_count()) +
            " generation seeds, one checked against a fresh generation-engine "
            "run";
  }
  std::printf("%s: ok — %u ASes, %zu baselines, first baseline verified "
              "against a cold convergence%s\n",
              file->c_str(), scenario.graph().num_ases(),
              snapshot.baselines.size(), seeds.c_str());
  return 0;
}

/// Parse a decimal option (e.g. --target-ci 0.005); absent -> fallback.
double parse_fraction_option(const Args& args, const std::string& key,
                             double fallback) {
  const auto text = args.text(key);
  if (!text || text->empty()) return fallback;
  char* end = nullptr;
  const double value = std::strtod(text->c_str(), &end);
  if (end == nullptr || *end != '\0' || value < 0.0 || value > 1.0) {
    throw ConfigError("bad --" + key + " value: " + *text +
                      " (want a fraction in [0, 1])");
  }
  return value;
}

int cmd_campaign(const Args& args) {
  campaign::CampaignSpec spec;
  spec.seed = args.number("sample-seed").value_or(1);
  spec.sample_budget = args.number("samples").value_or(100000);
  spec.target_ci = parse_fraction_option(args, "target-ci", 0.0);
  spec.batch = args.number("batch").value_or(0);
  spec.workers = args.number<unsigned>("workers").value_or(1);
  spec.deployment_top = args.number<std::uint32_t>("deployment-top").value_or(0);
  spec.probes = args.number<std::uint32_t>("probes").value_or(0);
  if (spec.sample_budget == 0) throw ConfigError("--samples must be positive");
  if (spec.workers == 0) spec.workers = 1;

  // Scenario + victim-pool baselines: reuse a snapshot's stored baselines
  // verbatim, or converge them here for the generated/loaded topology.
  std::optional<Scenario> scenario;
  std::shared_ptr<const store::BaselineStore> baselines;
  if (const auto snapshot_path = args.text("snapshot")) {
    store::Snapshot snapshot = store::load_snapshot(*snapshot_path);
    scenario.emplace(Scenario::from_snapshot(snapshot));
    baselines = std::make_shared<const store::BaselineStore>(
        std::move(snapshot.baselines));
  } else {
    scenario.emplace(load_scenario(args));
    const std::vector<AsId> victims =
        as_set_option(*scenario, args, "victims");
    BGPSIM_PROGRESS(victims.size());
    BGPSIM_PROGRESS_PHASE("campaign.baselines");
    baselines = std::make_shared<const store::BaselineStore>(
        store::BaselineStore::compute(scenario->graph(), scenario->policy(),
                                      victims));
  }
  if (baselines->size() == 0) {
    throw ConfigError("victim pool is empty — nothing to sample");
  }

  const campaign::CampaignResult result =
      campaign::run_campaign(*scenario, baselines, spec);
  std::printf("%s\n", campaign::campaign_report_json(result).c_str());
  return 0;
}

volatile std::sig_atomic_t g_serve_stop = 0;

void serve_signal_handler(int) { g_serve_stop = 1; }

int cmd_serve(const Args& args) {
  const auto snapshot_path = args.text("snapshot");
  if (!snapshot_path) throw ConfigError("serve requires --snapshot <file>");
  const auto workers = args.number<unsigned>("workers").value_or(4);

  serve::WhatIfService service(store::load_snapshot(*snapshot_path), workers);

  serve::QueryServerOptions options;
  options.port = args.number<std::uint16_t>("port").value_or(0);
  options.workers = workers;
  if (const auto max_body = args.number<std::size_t>("max-body")) {
    options.limits.max_body_bytes = *max_body;
  }
  serve::QueryServer server(service.make_router(), options);
  if (!server.start()) {
    std::fprintf(stderr, "error: cannot bind 127.0.0.1:%u\n", options.port);
    return 1;
  }

  std::signal(SIGTERM, serve_signal_handler);  // bgpsim-lint: allow(signal-safety)
  std::signal(SIGINT, serve_signal_handler);   // bgpsim-lint: allow(signal-safety)
  std::printf("serving %s on 127.0.0.1:%u (%u workers, %u ASes, %zu baselines)\n",
              snapshot_path->c_str(), server.port(), workers,
              service.scenario().graph().num_ases(),
              static_cast<std::size_t>(service.info().baseline_targets));
  std::fflush(stdout);

  while (g_serve_stop == 0) {
    poll(nullptr, 0, 200);  // sleep; interrupted early by signals
  }
  std::printf("signal received, draining...\n");
  server.stop();
  std::printf("drained, exiting\n");
  return 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: bgpsim <generate|info|attack|attribution|sweep|detect"
               "|promcheck|snapshot save|snapshot info|snapshot load|campaign"
               "|serve> [options]\n"
               "see the header of tools/bgpsim_cli.cpp for details\n");
  return 2;
}

/// Dump the metrics-registry snapshot after a command ran under --obs:
/// full JSON to a file, or a human-readable summary to stdout where time.*
/// histograms show latency quantiles instead of raw bucket counts.
void emit_obs_snapshot(const std::string& destination) {
  const obs::RegistrySnapshot snap = obs::registry().snapshot();
  if (!destination.empty()) {
    std::ofstream out = obs::open_sink_file(destination);
    out << snap.to_json() << '\n';
    if (!out) {
      std::fprintf(stderr, "error: cannot write metrics snapshot to %s\n",
                   destination.c_str());
    } else {
      std::printf("metrics snapshot: %s\n", destination.c_str());
    }
    return;
  }

  std::printf("-- metrics snapshot --\n");
  for (const auto& [name, value] : snap.counters) {
    std::printf("  counter  %-40s %llu\n", name.c_str(),
                static_cast<unsigned long long>(value));
  }
  for (const auto& [name, value] : snap.gauges) {
    std::printf("  gauge    %-40s %g\n", name.c_str(), value);
  }
  for (const auto& [name, hist] : snap.histograms) {
    if (name.rfind("time.", 0) == 0) {
      std::printf("  time     %-40s n=%llu  p50=%.3gms p90=%.3gms p99=%.3gms\n",
                  name.c_str(), static_cast<unsigned long long>(hist.count),
                  hist.approx_quantile(0.50) * 1e3,
                  hist.approx_quantile(0.90) * 1e3,
                  hist.approx_quantile(0.99) * 1e3);
    } else {
      std::printf("  hist     %-40s n=%llu  mean=%.6g min=%g max=%g\n",
                  name.c_str(), static_cast<unsigned long long>(hist.count),
                  hist.count > 0 ? hist.sum / static_cast<double>(hist.count)
                                 : 0.0,
                  hist.min, hist.max);
    }
  }
}

int run_command(const Args& args) {
  if (args.command == "generate") return cmd_generate(args);
  if (args.command == "info") return cmd_info(args);
  if (args.command == "attack") return cmd_attack(args);
  if (args.command == "attribution") return cmd_attribution(args);
  if (args.command == "sweep") return cmd_sweep(args);
  if (args.command == "detect") return cmd_detect(args);
  if (args.command == "promcheck") return cmd_promcheck(args);
  if (args.command == "snapshot-save") return cmd_snapshot_save(args);
  if (args.command == "snapshot-info") return cmd_snapshot_info(args);
  if (args.command == "snapshot-load") return cmd_snapshot_load(args);
  if (args.command == "campaign") return cmd_campaign(args);
  if (args.command == "serve") return cmd_serve(args);
  return usage();
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse_args(argc, argv);
    obs::Config config = obs::Config::from_env();
    for (const auto& [name, value] : args.options) config.apply_flag(name, value);
    obs::start(config);
    const int status = run_command(args);
    obs::stop();
    if (args.flag("obs")) emit_obs_snapshot(args.text("obs").value_or(""));
    return status;
  } catch (const Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
