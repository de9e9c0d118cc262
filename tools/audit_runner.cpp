// audit_runner — differential engine-audit harness.
//
// Generates a synthetic Internet, then runs the two independently implemented
// routing engines (GenerationEngine: message-passing reconstruction of the
// paper's simulator; EquilibriumEngine: O(V+E) fixed-point) side by side over
// a batch of hijack scenarios, plus EventEngine (the generation engine's
// propagation core under per-link delays drawn from --seed), and checks:
//   * audit_route_table() is clean on every equilibrium table (loop-free,
//     valley-free, consistent via chains and lengths),
//   * every GenerationEngine stored path is loop-free and valley-free,
//   * origin_agreement == 1.0 — the engines pick the same origin everywhere
//     (the paper's pollution metrics depend only on this choice),
//   * EventEngine matches GenerationEngine on origin, route class and path
//     length at every AS (asynchronous timing may only change `via` ties).
//
// This is the runtime counterpart of the paper's RouteViews validation (62 %
// exact/equivalent matches): two engines written from different designs
// agreeing on every scenario is strong evidence neither mis-implements the
// Gao–Rexford policy model. Registered as CTest cases (also under the asan /
// ubsan presets); any disagreement prints the scenario coordinates so it can
// be replayed with --seed/--victim/--attacker.
//
// Exit status: 0 all scenarios pass, 1 any check failed or a numeric option
// did not parse or fit its range (the option is named on stderr), 2 usage
// error.
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <optional>
#include <string>

#include "bgp/equilibrium_engine.hpp"
#include "bgp/event_engine.hpp"
#include "bgp/generation_engine.hpp"
#include "bgp/route_audit.hpp"
#include "support/rng.hpp"
#include "support/strings.hpp"
#include "topology/internet_gen.hpp"
#include "topology/metrics.hpp"

namespace {

struct Options {
  std::uint32_t ases = 1000;
  std::uint64_t seed = 1;
  std::uint32_t trials = 8;
  // Replay a single scenario instead of sampling `trials` random ones.
  std::int64_t victim = -1;
  std::int64_t attacker = -1;
  bool tier1_shortest = true;
  bool explain = false;  ///< dump per-AS detail for every disagreement
};

/// `text` as an integer in [lo, hi], or nullopt after naming `option` on
/// stderr.
std::optional<std::int64_t> number_option(const std::string& option,
                                          const std::string& text,
                                          std::int64_t lo, std::int64_t hi) {
  const std::optional<std::int64_t> value = bgpsim::parse_i64(text);
  if (!value || *value < lo || *value > hi) {
    std::cerr << "audit_runner: bad " << option << " value: " << text
              << " (want an integer in [" << lo << ", " << hi << "])\n";
    return std::nullopt;
  }
  return value;
}

std::optional<std::uint64_t> seed_option(const std::string& text) {
  const std::optional<std::uint64_t> value = bgpsim::parse_u64(text);
  if (!value) {
    std::cerr << "audit_runner: bad --seed value: " << text
              << " (want an unsigned 64-bit integer)\n";
  }
  return value;
}

int usage() {
  std::cerr << "usage: audit_runner [--ases N] [--seed S] [--trials T]\n"
               "                    [--victim ID --attacker ID] [--explain]\n"
               "                    [--no-tier1-shortest]\n";
  return 2;
}

const char* rel_name(const bgpsim::AsGraph& graph, bgpsim::AsId a, bgpsim::AsId b) {
  const auto rel = graph.relationship(a, b);
  if (!rel) return "none";
  switch (*rel) {
    case bgpsim::Rel::Provider:
      return "provider";
    case bgpsim::Rel::Peer:
      return "peer";
    case bgpsim::Rel::Customer:
      return "customer";
    case bgpsim::Rel::Sibling:
      return "sibling";
  }
  return "?";
}

void explain_route(const bgpsim::AsGraph& graph, const char* label,
                   const bgpsim::Route& route, bgpsim::AsId v) {
  std::cout << "    " << label << ": origin=" << to_string(route.origin)
            << " cls=" << static_cast<int>(route.cls)
            << " len=" << route.path_len;
  if (route.via != bgpsim::kInvalidAs) {
    std::cout << " via=" << route.via << " (" << rel_name(graph, v, route.via)
              << " of AS " << v << ")";
  }
  std::cout << '\n';
}

bool same_origin(const bgpsim::Route& a, const bgpsim::Route& b) {
  return a.origin == b.origin;
}

bool same_outcome(const bgpsim::Route& a, const bgpsim::Route& b) {
  return a.origin == b.origin && a.cls == b.cls && a.path_len == b.path_len;
}

template <typename Agree>
void explain_disagreements(const bgpsim::AsGraph& graph, const char* label,
                           const bgpsim::RouteTable& table,
                           const bgpsim::RouteTable& gen_table,
                           const bgpsim::GenerationEngine& generation,
                           const bgpsim::PolicyConfig& config, Agree agree) {
  using namespace bgpsim;
  std::uint32_t shown = 0;
  for (AsId v = 0; v < graph.num_ases(); ++v) {
    if (agree(table.routes[v], gen_table.routes[v])) continue;
    if (++shown > 16) {
      std::cout << "  ... (more disagreements elided)\n";
      break;
    }
    std::cout << "  AS " << v << " disagrees (tier1=" << config.as_is_tier1(v)
              << "):\n";
    explain_route(graph, label, table.routes[v], v);
    explain_route(graph, "generation ", gen_table.routes[v], v);
    std::cout << "    generation path:";
    for (const AsId hop : generation.path_of(v)) std::cout << ' ' << hop;
    std::cout << '\n';
  }
}

struct Failure {
  std::uint32_t count = 0;

  void report(const Options& opts, bgpsim::AsId victim, bgpsim::AsId attacker,
              const std::string& what) {
    ++count;
    std::cout << "FAIL: " << what << "  [replay: --ases " << opts.ases
              << " --seed " << opts.seed << " --victim " << victim
              << " --attacker " << attacker << "]\n";
  }
};

void audit_scenario(const Options& opts, const bgpsim::AsGraph& graph,
                    const bgpsim::PolicyConfig& config,
                    bgpsim::EquilibriumEngine& equilibrium,
                    bgpsim::GenerationEngine& generation,
                    bgpsim::EventEngine& event, bgpsim::AsId victim,
                    bgpsim::AsId attacker, Failure& failure) {
  using namespace bgpsim;

  RouteTable eq_table;
  equilibrium.compute_hijack(victim, attacker, nullptr, eq_table);
  const AuditReport eq_report = audit_route_table(graph, eq_table);
  if (!eq_report.clean()) {
    failure.report(opts, victim, attacker,
                   "equilibrium table not clean: loops=" +
                       std::to_string(eq_report.loops) + " valleys=" +
                       std::to_string(eq_report.valley_violations) +
                       " broken=" + std::to_string(eq_report.broken_via_chains) +
                       " len=" + std::to_string(eq_report.length_mismatches));
  }

  generation.reset();
  const auto legit_stats = generation.announce(victim, Origin::Legit);
  const auto attack_stats = generation.announce(attacker, Origin::Attacker);
  if (!legit_stats.converged || !attack_stats.converged) {
    failure.report(opts, victim, attacker, "generation engine did not converge");
    return;
  }

  std::uint64_t bad_paths = 0;
  for (AsId v = 0; v < graph.num_ases(); ++v) {
    const auto& path = generation.path_of(v);
    if (path.empty()) continue;
    if (!path_is_loop_free(path) || !path_is_valley_free(graph, path)) ++bad_paths;
  }
  if (bad_paths != 0) {
    failure.report(opts, victim, attacker,
                   "generation engine produced " + std::to_string(bad_paths) +
                       " non-policy-compliant path(s)");
  }

  RouteTable gen_table;
  generation.export_routes(gen_table);
  const double agreement = origin_agreement(eq_table, gen_table);
  if (agreement != 1.0) {
    failure.report(opts, victim, attacker,
                   "origin agreement " + std::to_string(agreement) +
                       " != 1.0 between engines");
    if (opts.explain) {
      explain_disagreements(graph, "equilibrium", eq_table, gen_table,
                            generation, config, same_origin);
    }
  }

  // The same propagation core under per-link delays: asynchronous timing may
  // reorder `via` ties but must reach the same stable state.
  event.reset();
  const auto event_legit = event.announce(victim, Origin::Legit, 0.0);
  const auto event_attack = event.announce(attacker, Origin::Attacker,
                                           event_legit.quiescent_time + 1.0);
  if (!event_legit.converged || !event_attack.converged) {
    failure.report(opts, victim, attacker, "event engine did not converge");
    return;
  }
  RouteTable event_table;
  event.export_routes(event_table);
  std::uint32_t event_mismatches = 0;
  for (AsId v = 0; v < graph.num_ases(); ++v) {
    event_mismatches += !same_outcome(event_table.routes[v], gen_table.routes[v]);
  }
  if (event_mismatches != 0) {
    failure.report(opts, victim, attacker,
                   "event engine differs from generation engine in origin, "
                   "class or length at " +
                       std::to_string(event_mismatches) + " AS(es)");
    if (opts.explain) {
      explain_disagreements(graph, "event      ", event_table, gen_table,
                            generation, config, same_outcome);
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace bgpsim;

  constexpr std::int64_t kMaxU32 = std::numeric_limits<std::uint32_t>::max();
  Options opts;
  std::string victim_text, attacker_text;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--ases" && has_value) {
      // generate_internet needs at least 50 ASes.
      const auto ases = number_option(arg, argv[++i], 50, kMaxU32);
      if (!ases) return 1;
      opts.ases = static_cast<std::uint32_t>(*ases);
    } else if (arg == "--seed" && has_value) {
      const auto seed = seed_option(argv[++i]);
      if (!seed) return 1;
      opts.seed = *seed;
    } else if (arg == "--trials" && has_value) {
      const auto trials = number_option(arg, argv[++i], 0, kMaxU32);
      if (!trials) return 1;
      opts.trials = static_cast<std::uint32_t>(*trials);
    } else if (arg == "--victim" && has_value) {
      victim_text = argv[++i];
    } else if (arg == "--attacker" && has_value) {
      attacker_text = argv[++i];
    } else if (arg == "--no-tier1-shortest") {
      opts.tier1_shortest = false;
    } else if (arg == "--explain") {
      opts.explain = true;
    } else if (arg == "--help" || arg == "-h") {
      usage();
      return 0;
    } else {
      return usage();
    }
  }
  if (victim_text.empty() != attacker_text.empty()) return usage();
  // Scenario ids index the generated graph, so they are checked against
  // --ases once every option is read.
  if (!victim_text.empty()) {
    const auto victim = number_option("--victim", victim_text, 0, opts.ases - 1);
    const auto attacker =
        number_option("--attacker", attacker_text, 0, opts.ases - 1);
    if (!victim || !attacker) return 1;
    opts.victim = *victim;
    opts.attacker = *attacker;
  }

  InternetGenParams params;
  params.total_ases = opts.ases;
  params.seed = opts.seed;
  const AsGraph graph = generate_internet(params);

  PolicyConfig config;
  config.tier1_shortest_path = opts.tier1_shortest;
  const auto tiers =
      classify_tiers(graph, scale_degree_threshold(opts.ases, 120));
  config.is_tier1 =
      std::vector<std::uint8_t>(tiers.is_tier1.begin(), tiers.is_tier1.end());

  EquilibriumEngine equilibrium(graph, config);
  GenerationEngine generation(graph, config);
  EventEngineConfig event_config;
  event_config.policy = config;
  event_config.delay_seed = derive_seed(opts.seed, 0xe7e47ULL);
  EventEngine event(graph, event_config);

  Failure failure;
  std::uint32_t scenarios = 0;
  if (opts.victim >= 0) {
    audit_scenario(opts, graph, config, equilibrium, generation, event,
                   static_cast<AsId>(opts.victim),
                   static_cast<AsId>(opts.attacker), failure);
    ++scenarios;
  } else {
    Rng rng(derive_seed(opts.seed, 0xa0d17ULL));
    for (std::uint32_t t = 0; t < opts.trials; ++t) {
      const AsId victim = static_cast<AsId>(rng.bounded(graph.num_ases()));
      AsId attacker = static_cast<AsId>(rng.bounded(graph.num_ases()));
      if (attacker == victim) attacker = (attacker + 1) % graph.num_ases();
      audit_scenario(opts, graph, config, equilibrium, generation, event,
                     victim, attacker, failure);
      ++scenarios;
    }
  }

  std::cout << "audit_runner: " << graph.num_ases() << " ASes, " << scenarios
            << " scenario(s), " << failure.count << " failure(s)\n";
  return failure.count == 0 ? 0 : 1;
}
