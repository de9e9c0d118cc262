// Seeded detection replays: a generation engine that loads a target's
// converged legitimate state from its baseline and generation seed
// (GenerationEngine::load_converged) must run every following attacker
// announcement exactly as one that propagated the legitimate route itself.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bgp/generation_engine.hpp"
#include "bgp/introspect.hpp"
#include "core/scenario.hpp"
#include "defense/deployment.hpp"
#include "detect/detector.hpp"
#include "detect/probe_set.hpp"
#include "hijack/hijack_simulator.hpp"
#include "obs/metrics.hpp"
#include "obs/provenance.hpp"
#include "store/baseline.hpp"
#include "support/rng.hpp"
#include "topology/metrics.hpp"

namespace bgpsim {
namespace {

std::string describe(const Route& r) {
  return "{origin " + std::to_string(static_cast<int>(r.origin)) + ", class " +
         std::to_string(static_cast<int>(r.cls)) + ", len " +
         std::to_string(r.path_len) + ", via " + std::to_string(r.via) + "}";
}

bool same_route(const Route& a, const Route& b) {
  return a.origin == b.origin && a.cls == b.cls && a.path_len == b.path_len &&
         a.via == b.via;
}

/// First difference between two attacker announcements (stats, frames and
/// edges, then every AS's route, path and offered_bogus bit), or "".
std::string first_difference(const ConvergeStats& a_stats,
                             const PropagationTrace& a_trace,
                             const GenerationEngine& a,
                             const ConvergeStats& b_stats,
                             const PropagationTrace& b_trace,
                             const GenerationEngine& b) {
  if (a_stats.generations != b_stats.generations ||
      a_stats.messages_sent != b_stats.messages_sent ||
      a_stats.messages_accepted != b_stats.messages_accepted ||
      a_stats.withdrawals != b_stats.withdrawals ||
      a_stats.converged != b_stats.converged) {
    return "ConvergeStats differ";
  }
  if (a_trace.frames.size() != b_trace.frames.size()) return "frame count";
  for (std::size_t f = 0; f < a_trace.frames.size(); ++f) {
    const GenerationFrame& fa = a_trace.frames[f];
    const GenerationFrame& fb = b_trace.frames[f];
    if (fa.generation != fb.generation || fa.messages_sent != fb.messages_sent ||
        fa.messages_accepted != fb.messages_accepted ||
        fa.polluted_so_far != fb.polluted_so_far ||
        fa.edges.size() != fb.edges.size()) {
      return "frame " + std::to_string(f);
    }
    for (std::size_t e = 0; e < fa.edges.size(); ++e) {
      const TraceEdge& ea = fa.edges[e];
      const TraceEdge& eb = fb.edges[e];
      if (ea.from != eb.from || ea.to != eb.to || ea.accepted != eb.accepted ||
          ea.new_origin != eb.new_origin) {
        return "frame " + std::to_string(f) + " edge " + std::to_string(e);
      }
    }
  }
  for (AsId v = 0; v < a.graph().num_ases(); ++v) {
    if (!same_route(a.route(v), b.route(v))) {
      return "route of AS " + std::to_string(v) + ": " + describe(a.route(v)) +
             " vs " + describe(b.route(v));
    }
    if (a.path_of(v) != b.path_of(v)) return "path of AS " + std::to_string(v);
    if (a.offered_bogus(v) != b.offered_bogus(v)) {
      return "offered_bogus of AS " + std::to_string(v);
    }
  }
  return "";
}

// engine.legit_seeded, and what one seeded attack adds to it.
#if defined(BGPSIM_OBS_DISABLED)
constexpr std::uint64_t kCountsPerSeed = 0;  // counters compile out
std::uint64_t seeded_phases() { return 0; }
#else
constexpr std::uint64_t kCountsPerSeed = 1;
std::uint64_t seeded_phases() {
  return obs::registry().counter("engine.legit_seeded").value();
}
#endif

bool same_edges(const obs::ProvenanceRecorder& a, const obs::ProvenanceRecorder& b) {
  return a.committed() == b.committed() && a.dropped() == b.dropped() &&
         std::memcmp(a.edges(), b.edges(),
                     a.committed() * sizeof(obs::InfectionEdge)) == 0;
}

/// Every stored target, seeded transit and stub attackers, four policies
/// (tier-1 quirk x the §IV stub filter) and three attack variants (plain,
/// top-20 validators, forged origin). One seeded engine runs all attacks of
/// a policy in a row, so each load follows a forged-origin or validated run.
TEST(SeededReplay, EngineMatchesAnnouncedLegitimatePhase) {
  ScenarioParams params;
  params.topology.total_ases = 2500;
  params.topology.seed = 2014;
  const Scenario scenario = Scenario::generate(params);
  const AsGraph& g = scenario.graph();
  const std::vector<AsId>& transits = scenario.transit();
  const ValidatorSet top20 = to_filter_set(g, top_k_deployment(g, 20)).bitset();

  Rng rng(31);
  std::vector<AsId> targets;
  for (int i = 0; i < 3; ++i) targets.push_back(transits[rng.bounded(transits.size())]);
  for (int i = 0; i < 3; ++i) {
    targets.push_back(static_cast<AsId>(rng.bounded(g.num_ases())));
  }
  std::vector<AsId> attackers;
  for (int i = 0; i < 2; ++i) attackers.push_back(transits[rng.bounded(transits.size())]);
  while (attackers.size() < 4) {
    const AsId stub = static_cast<AsId>(rng.bounded(g.num_ases()));
    if (is_stub(g, stub)) attackers.push_back(stub);
  }

  obs::ProvenanceRecorder ref_prov(1u << 16);
  obs::ProvenanceRecorder seeded_prov(1u << 16);
  std::size_t replays = 0;
  std::size_t patched = 0;
  for (const bool tier1_shortest : {true, false}) {
    for (const bool stub_filter : {false, true}) {
      PolicyConfig policy = scenario.policy();
      policy.tier1_shortest_path = tier1_shortest;
      policy.stub_first_hop_filter = stub_filter;
      store::BaselineStore store = store::BaselineStore::compute(g, policy, targets);
      store.compute_seeds(g, policy);
      ASSERT_EQ(store.seed_count(), store.size());

      GenerationEngine reference(g, policy);
      GenerationEngine seeded(g, policy);
      reference.set_provenance(&ref_prov);
      seeded.set_provenance(&seeded_prov);
      for (const AsId target : store.targets()) {
        const store::GenerationSeed& seed = *store.find_seed(target);
        patched += seed.vias.size();
        for (const AsId attacker : attackers) {
          if (attacker == target) continue;
          for (int variant = 0; variant < 3; ++variant) {
            const ValidatorSet* validators = variant == 1 ? &top20 : nullptr;
            const AsId forged_tail = variant == 2 ? target : kInvalidAs;

            ref_prov.begin_attack();
            reference.reset();
            const ConvergeStats legit =
                reference.announce(target, Origin::Legit, validators);
            ASSERT_EQ(legit.generations, seed.generations);
            PropagationTrace ref_trace;
            const ConvergeStats ref_stats = reference.announce(
                attacker, Origin::Attacker, validators, &ref_trace, forged_tail);

            seeded_prov.begin_attack();
            seeded.load_converged(*store.find(target), seed.vias);
            PropagationTrace seeded_trace;
            const ConvergeStats seeded_stats = seeded.announce(
                attacker, Origin::Attacker, validators, &seeded_trace, forged_tail);

            ASSERT_EQ(first_difference(ref_stats, ref_trace, reference,
                                       seeded_stats, seeded_trace, seeded),
                      "")
                << "target " << target << ", attacker " << attacker
                << ", variant " << variant << ", tier1_shortest "
                << tier1_shortest << ", stub_filter " << stub_filter;
            if (obs::kProvenanceCompiled) {
              ASSERT_TRUE(same_edges(ref_prov, seeded_prov))
                  << "provenance, target " << target << ", attacker " << attacker
                  << ", variant " << variant;
            }
            ++replays;
          }
        }
      }
    }
  }
  EXPECT_GT(replays, 250u);
  // The seeds are not empty: the engines do break ties differently.
  EXPECT_GT(patched, 0u);
}

TEST(SeededReplay, LoadRejectsAViaWithoutAMatchingEntry) {
  ScenarioParams params;
  params.topology.total_ases = 600;
  params.topology.seed = 5;
  const Scenario scenario = Scenario::generate(params);
  const AsGraph& g = scenario.graph();
  const AsId target = scenario.transit().front();
  store::BaselineStore store =
      store::BaselineStore::compute(g, scenario.policy(), std::vector<AsId>{target});
  const RouteTable& table = *store.find(target);
  GenerationEngine engine(g, scenario.policy());

  // A routed AS patched onto a neighbor that is not one hop shorter, and
  // onto one that is but offers no route of the AS's class (valley-free
  // export or a different relationship): neither loads.
  bool off_length = false;
  bool no_entry = false;
  for (AsId v = 0; v < g.num_ases() && !(off_length && no_entry); ++v) {
    const Route& route = table.routes[v];
    if (!route.valid() || route.cls == RouteClass::Self) continue;
    for (const Neighbor& nbr : g.neighbors(v)) {
      const Route& offer = table.routes[nbr.id];
      const ViaPatch bad{v, nbr.id};
      if (offer.path_len + 1 != route.path_len) {
        if (off_length) continue;
        off_length = true;
      } else if (route_class_from(nbr.rel) != route.cls ||
                 !exports_to(offer.cls, inverse(nbr.rel))) {
        if (no_entry) continue;
        no_entry = true;
      } else {
        continue;
      }
      EXPECT_THROW(engine.load_converged(table, std::span(&bad, 1)),
                   PreconditionError)
          << "AS " << v << " via " << nbr.id;
    }
  }
  EXPECT_TRUE(off_length);
  EXPECT_TRUE(no_entry);
  // The well-formed load still works after the rejected ones.
  engine.load_converged(table, {});
  EXPECT_EQ(engine.route(target).cls, RouteClass::Self);
}

/// Seeds attached through the baselines change no observable output of the
/// simulator: traces, tables, generations, pollution, first detection and
/// armed provenance equal a simulator without baselines. A decision history
/// runs unseeded and records the same history.
TEST(SeededReplay, SimulatorWithSeedsMatchesWithout) {
  ScenarioParams params;
  params.topology.total_ases = 2000;
  params.topology.seed = 7;
  const Scenario scenario = Scenario::generate(params);
  const AsGraph& g = scenario.graph();
  const std::vector<AsId>& transits = scenario.transit();
  Rng rng(41);
  std::vector<AsId> targets;
  for (int i = 0; i < 4; ++i) targets.push_back(transits[rng.bounded(transits.size())]);
  auto store = std::make_shared<store::BaselineStore>(
      store::BaselineStore::compute(g, scenario.policy(), targets));
  store->compute_seeds(g, scenario.policy());

  HijackSimulator seeded(g, scenario.sim_config());
  seeded.attach_baseline(store);
  HijackSimulator plain(g, scenario.sim_config());
  const ProbeSet probes = ProbeSet::top_k(g, 40);
  obs::ProvenanceRecorder seeded_prov(1u << 16);
  obs::ProvenanceRecorder plain_prov(1u << 16);

  for (const AsId target : store->targets()) {
    for (int a = 0; a < 5; ++a) {
      const AsId attacker = transits[rng.bounded(transits.size())];
      if (attacker == target) continue;
      seeded.set_validators(std::nullopt);
      plain.set_validators(std::nullopt);
      if (a % 2 == 1) {
        const ValidatorSet top = to_filter_set(g, top_k_deployment(g, 30)).bitset();
        seeded.set_validators(top);
        plain.set_validators(top);
      }
      const bool traced = a == 2;
      seeded.set_provenance(traced ? &seeded_prov : nullptr);
      plain.set_provenance(traced ? &plain_prov : nullptr);

      const std::uint64_t before = seeded_phases();
      PropagationTrace seeded_trace;
      PropagationTrace plain_trace;
      const AttackResult s = seeded.attack_with_trace(target, attacker, seeded_trace);
      const AttackResult p = plain.attack_with_trace(target, attacker, plain_trace);
      EXPECT_EQ(seeded_phases(), before + kCountsPerSeed);

      EXPECT_EQ(s.generations, p.generations);
      EXPECT_EQ(s.polluted_ases, p.polluted_ases);
      EXPECT_EQ(s.routed_ases, p.routed_ases);
      EXPECT_EQ(first_detection_generation(seeded_trace, probes),
                first_detection_generation(plain_trace, probes));
      ASSERT_EQ(seeded_trace.frames.size(), plain_trace.frames.size());
      for (std::size_t f = 0; f < seeded_trace.frames.size(); ++f) {
        const auto& fs = seeded_trace.frames[f];
        const auto& fp = plain_trace.frames[f];
        ASSERT_EQ(fs.edges.size(), fp.edges.size()) << "frame " << f;
        EXPECT_EQ(fs.polluted_so_far, fp.polluted_so_far) << "frame " << f;
        for (std::size_t e = 0; e < fs.edges.size(); ++e) {
          ASSERT_TRUE(fs.edges[e].from == fp.edges[e].from &&
                      fs.edges[e].to == fp.edges[e].to &&
                      fs.edges[e].accepted == fp.edges[e].accepted &&
                      fs.edges[e].new_origin == fp.edges[e].new_origin)
              << "frame " << f << " edge " << e;
        }
      }
      for (AsId v = 0; v < g.num_ases(); ++v) {
        ASSERT_TRUE(same_route(seeded.routes().routes[v], plain.routes().routes[v]))
            << "AS " << v;
      }
      if (traced && obs::kProvenanceCompiled) {
        EXPECT_TRUE(same_edges(seeded_prov, plain_prov))
            << "target " << target << ", attacker " << attacker;
        EXPECT_GT(seeded_prov.committed(), 0u);
      }

      // A decision history watches the legitimate phase run: no seed.
      DecisionHistory seeded_history;
      DecisionHistory plain_history;
      seeded_history.watched = plain_history.watched = attacker;
      const std::uint64_t before_history = seeded_phases();
      const ExtendedAttackResult sh =
          seeded.attack_ex(target, attacker, {.history = &seeded_history});
      const ExtendedAttackResult ph =
          plain.attack_ex(target, attacker, {.history = &plain_history});
      EXPECT_EQ(seeded_phases(), before_history);
      EXPECT_EQ(sh.generations, ph.generations);
      EXPECT_EQ(render_decision_history(g, seeded_history),
                render_decision_history(g, plain_history));
    }
  }
  seeded.set_provenance(nullptr);
  plain.set_provenance(nullptr);
}

}  // namespace
}  // namespace bgpsim
