// Tests for the asynchronous discrete-event engine: hand-computed cases,
// exact end-state agreement with the synchronous engine, detection-latency
// semantics, and determinism.
#include "bgp/event_engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <vector>

#include "bgp/equilibrium_engine.hpp"
#include "bgp/generation_engine.hpp"
#include "bgp/route_audit.hpp"
#include "core/scenario.hpp"
#include "defense/deployment.hpp"
#include "obs/provenance.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"
#include "topology/graph_builder.hpp"

namespace bgpsim {
namespace {

AsGraph diamond() {
  GraphBuilder b;
  b.add_provider_customer(1, 2);
  b.add_provider_customer(1, 3);
  b.add_provider_customer(2, 4);
  b.add_provider_customer(3, 4);
  return b.build();
}

EventEngineConfig config_for(const AsGraph& g) {
  EventEngineConfig cfg;
  cfg.policy.is_tier1.assign(g.num_ases(), 0);
  cfg.delay_seed = 7;
  return cfg;
}

TEST(EventEngine, DiamondEndStateMatchesPolicy) {
  const AsGraph g = diamond();
  EventEngine engine(g, config_for(g));
  const auto legit = engine.announce(g.require(4), Origin::Legit, 0.0);
  EXPECT_TRUE(legit.converged);
  EXPECT_GT(legit.messages_delivered, 0u);
  const auto bogus = engine.announce(g.require(3), Origin::Attacker,
                                     legit.quiescent_time + 1.0);
  EXPECT_TRUE(bogus.converged);

  // Same end state as the synchronous engines: only AS 1 polluted.
  EXPECT_EQ(engine.route(g.require(1)).origin, Origin::Attacker);
  EXPECT_EQ(engine.route(g.require(2)).origin, Origin::Legit);
  EXPECT_EQ(engine.route(g.require(4)).origin, Origin::Legit);
  EXPECT_EQ(engine.count_origin(Origin::Attacker), 2u);
}

TEST(EventEngine, FirstBogusTimesAreCausal) {
  const AsGraph g = diamond();
  EventEngine engine(g, config_for(g));
  engine.announce(g.require(4), Origin::Legit, 0.0);
  const double attack_time = 5.0;
  engine.announce(g.require(3), Origin::Attacker, attack_time);

  // The attacker switches at the attack instant; AS 1 strictly later, by at
  // least the 3->1 link delay.
  EXPECT_DOUBLE_EQ(engine.first_bogus_time(g.require(3)), attack_time);
  const double at_one = engine.first_bogus_time(g.require(1));
  EXPECT_GT(at_one, attack_time);
  EXPECT_LT(at_one, attack_time + 1.0);
  // Unpolluted ASes never saw it.
  EXPECT_LT(engine.first_bogus_time(g.require(2)), 0.0);
  EXPECT_LT(engine.first_bogus_time(g.require(4)), 0.0);
}

TEST(EventEngine, DeterministicAcrossRuns) {
  ScenarioParams params;
  params.topology.total_ases = 800;
  params.topology.seed = 13;
  const Scenario scenario = Scenario::generate(params);
  EventEngineConfig cfg;
  cfg.policy = scenario.policy();
  cfg.delay_seed = 3;

  const auto run = [&](RouteTable& out) {
    EventEngine engine(scenario.graph(), cfg);
    engine.announce(scenario.transit()[0], Origin::Legit, 0.0);
    const auto stats =
        engine.announce(scenario.transit()[5], Origin::Attacker, 10.0);
    engine.export_routes(out);
    return stats;
  };
  RouteTable a, b;
  const auto sa = run(a);
  const auto sb = run(b);
  EXPECT_EQ(sa.messages_delivered, sb.messages_delivered);
  EXPECT_DOUBLE_EQ(sa.quiescent_time, sb.quiescent_time);
  EXPECT_EQ(route_agreement(a, b), 1.0);
}

/// Count ASes where the engines' stable states differ in origin, route class
/// or path length; `via` ties may follow arrival order and are not compared.
std::uint32_t outcome_mismatches(const RouteTable& sync, const RouteTable& async) {
  std::uint32_t mismatches = 0;
  for (std::size_t v = 0; v < sync.routes.size(); ++v) {
    const Route& a = sync.routes[v];
    const Route& b = async.routes[v];
    if (a.origin != b.origin || a.cls != b.cls || a.path_len != b.path_len) {
      ++mismatches;
    }
  }
  return mismatches;
}

TEST(EventEngine, AgreesWithGenerationEngineOnEndState) {
  ScenarioParams params;
  params.topology.total_ases = 1200;
  params.topology.seed = 21;
  const Scenario scenario = Scenario::generate(params);
  const AsGraph& g = scenario.graph();
  const auto& transits = scenario.transit();
  // Stubs with a peer: the filter drops the origination at their providers,
  // yet it still spreads through the peer.
  std::vector<AsId> stubs;
  for (AsId v = 0; v < g.num_ases(); ++v) {
    const auto nbrs = g.neighbors(v);
    if (!std::binary_search(transits.begin(), transits.end(), v) &&
        std::any_of(nbrs.begin(), nbrs.end(),
                    [](const Neighbor& n) { return n.rel == Rel::Peer; })) {
      stubs.push_back(v);
    }
  }
  ASSERT_GE(stubs.size(), 12u);
  const ValidatorSet top_k =
      to_filter_set(g, top_k_deployment(g, 20)).bitset();

  // Transit attackers never reach the stub-filter branch, so the filter
  // runs get stub attackers.
  const auto run = [&](const char* label, bool stub_filter,
                       const ValidatorSet* validators,
                       const std::vector<AsId>& attackers) {
    SCOPED_TRACE(label);
    PolicyConfig policy = scenario.policy();
    policy.stub_first_hop_filter = stub_filter;
    GenerationEngine sync(g, policy);
    EventEngineConfig cfg;
    cfg.policy = policy;
    for (std::uint32_t trial = 0; trial < 4; ++trial) {
      cfg.delay_seed = 100 + trial;
      EventEngine async(g, cfg);
      const AsId target = transits[7 * (trial + 1)];
      const AsId attacker = attackers[attackers.size() - 3 * (trial + 1)];

      sync.reset();
      sync.announce(target, Origin::Legit, validators);
      sync.announce(attacker, Origin::Attacker, validators);
      RouteTable sync_table;
      sync.export_routes(sync_table);

      const auto legit = async.announce(target, Origin::Legit, 0.0, validators);
      const auto bogus = async.announce(attacker, Origin::Attacker,
                                        legit.quiescent_time + 1.0, validators);
      ASSERT_TRUE(legit.converged && bogus.converged);
      RouteTable async_table;
      async.export_routes(async_table);

      // Asynchronous timing must not change the stable state.
      EXPECT_EQ(outcome_mismatches(sync_table, async_table), 0u)
          << "attack " << trial << ": target " << target << ", attacker "
          << attacker;
    }
  };
  run("no validators", false, nullptr, transits);
  run("top-k validators", false, &top_k, transits);
  run("stub attacker, first-hop filter", true, nullptr, stubs);
}

TEST(EventEngine, RejectedUpdateWithdrawsTheEarlierRoute) {
  // AS 10 peers with the victim AS 1 and is the provider of AS 2 (the
  // attacker) and AS 3 (a validator).
  GraphBuilder b;
  b.add_peer(10, 1);
  b.add_provider_customer(10, 2);
  b.add_provider_customer(10, 3);
  const AsGraph g = b.build();
  ValidatorSet validators(g.num_ases(), 0);
  validators[g.require(3)] = 1;

  EventEngine engine(g, config_for(g));
  const auto legit =
      engine.announce(g.require(1), Origin::Legit, 0.0, &validators);
  ASSERT_EQ(engine.route(g.require(3)).origin, Origin::Legit);
  engine.announce(g.require(2), Origin::Attacker, legit.quiescent_time + 1.0,
                  &validators);

  // AS 10 prefers its customer's bogus route and announces it to AS 3. That
  // UPDATE replaces AS 10's legitimate one, so dropping it leaves AS 3 with
  // no route (treat-as-withdraw), not with the route AS 10 no longer has.
  EXPECT_EQ(engine.route(g.require(10)).origin, Origin::Attacker);
  EXPECT_FALSE(engine.route(g.require(3)).valid());

  GenerationEngine sync(g, config_for(g).policy);
  sync.announce(g.require(1), Origin::Legit, &validators);
  sync.announce(g.require(2), Origin::Attacker, &validators);
  for (AsId v = 0; v < g.num_ases(); ++v) {
    EXPECT_EQ(engine.route(v).origin, sync.route(v).origin) << "AS " << v;
  }
}

TEST(EventEngine, WithdrawalCausedSwitchStampsFirstBogusTime) {
  // Victim AS 1 sits below the tier-1 AS 10 (10 -> 6 -> 5 -> 1); AS 3 peers
  // with AS 10 and is a customer of AS 4. The attacker AS 2 is a customer of
  // both AS 7 (AS 10's peer) and AS 4.
  GraphBuilder b;
  b.add_provider_customer(5, 1);
  b.add_provider_customer(6, 5);
  b.add_provider_customer(10, 6);
  b.add_peer(10, 7);
  b.add_peer(10, 3);
  b.add_provider_customer(7, 2);
  b.add_provider_customer(4, 2);
  b.add_provider_customer(4, 3);
  const AsGraph g = b.build();
  EventEngineConfig cfg = config_for(g);
  cfg.policy.is_tier1[g.require(10)] = 1;
  cfg.min_delay = 0.10;  // every path of h hops takes [0.10 h, 0.11 h)
  cfg.max_delay = 0.11;
  EventEngine engine(g, cfg);

  const auto legit = engine.announce(g.require(1), Origin::Legit, 0.0);
  ASSERT_EQ(engine.route(g.require(3)).origin, Origin::Legit);
  const double attack_time = legit.quiescent_time + 1.0;
  engine.announce(g.require(2), Origin::Attacker, attack_time);

  // AS 3 hears the bogus route from AS 4 after two hops but keeps its better
  // peer route. AS 10 (length first) then takes the shorter bogus peer route
  // via AS 7, which it may not export to its peer AS 3, so it withdraws the
  // legitimate one: only that WITHDRAW (three hops) moves AS 3 to the bogus
  // route.
  const AsId three = g.require(3);
  EXPECT_EQ(engine.route(g.require(10)).origin, Origin::Attacker);
  EXPECT_EQ(engine.route(three).origin, Origin::Attacker);
  EXPECT_EQ(engine.route(three).via, g.require(4));
  EXPECT_GE(engine.first_bogus_time(three), attack_time + 0.30);

  GenerationEngine sync(g, cfg.policy);
  sync.announce(g.require(1), Origin::Legit);
  sync.announce(g.require(2), Origin::Attacker);
  for (AsId v = 0; v < g.num_ases(); ++v) {
    EXPECT_EQ(engine.route(v).origin, sync.route(v).origin) << "AS " << v;
  }
}

TEST(EventEngine, WithdrawsAnAnnouncementStillInFlight) {
  // Tier-1 AS 10 hears victim AS 1 first through its customer AS 5 and
  // announces that customer route to its peer AS 3. The shorter peer route
  // straight from AS 1 arrives while that announcement is still on the
  // 10 -> 3 link; AS 10 switches to it, may not export it to a peer, and so
  // owes AS 3 a WITHDRAW although AS 3 holds nothing from it yet.
  GraphBuilder b;
  b.add_provider_customer(5, 1);
  b.add_provider_customer(10, 5);
  b.add_peer(10, 1);
  b.add_peer(10, 3);
  const AsGraph g = b.build();
  const AsId victim = g.require(1);
  const AsId tier1 = g.require(10);
  const AsId peer = g.require(3);
  const AsId customer = g.require(5);
  EventEngineConfig cfg = config_for(g);
  cfg.policy.is_tier1[tier1] = 1;

  const auto delay = [&](const EventEngine& engine, AsId u, AsId v) {
    const auto nbrs = g.neighbors(u);
    for (std::uint32_t k = 0; k < nbrs.size(); ++k) {
      if (nbrs[k].id == v) return engine.link_delay(u, k);
    }
    ADD_FAILURE() << "no link " << u << " -> " << v;
    return 0.0;
  };
  // Pick link delays that produce exactly that interleaving.
  std::uint64_t seed = 0;
  for (std::uint64_t s = 1; s < 1000 && seed == 0; ++s) {
    cfg.delay_seed = s;
    const EventEngine probe(g, cfg);
    const double via_customer =
        delay(probe, victim, customer) + delay(probe, customer, tier1);
    const double direct = delay(probe, victim, tier1);
    if (via_customer < direct &&
        direct < via_customer + delay(probe, tier1, peer)) {
      seed = s;
    }
  }
  ASSERT_NE(seed, 0u);
  cfg.delay_seed = seed;

  EventEngine engine(g, cfg);
  engine.announce(victim, Origin::Legit, 0.0);
  EXPECT_EQ(engine.route(tier1).cls, RouteClass::Peer);
  EXPECT_FALSE(engine.route(peer).valid());

  GenerationEngine sync(g, cfg.policy);
  sync.announce(victim, Origin::Legit);
  EXPECT_FALSE(sync.route(peer).valid());
}

TEST(EventEngine, ValidatorsBlock) {
  const AsGraph g = diamond();
  EventEngine engine(g, config_for(g));
  ValidatorSet validators(g.num_ases(), 0);
  validators[g.require(1)] = 1;
  engine.announce(g.require(4), Origin::Legit, 0.0, &validators);
  engine.announce(g.require(3), Origin::Attacker, 10.0, &validators);
  EXPECT_EQ(engine.route(g.require(1)).origin, Origin::Legit);
  EXPECT_EQ(engine.count_origin(Origin::Attacker), 1u);
}

TEST(EventEngine, RejectsBadConfigAndArgs) {
  const AsGraph g = diamond();
  EventEngineConfig bad = config_for(g);
  bad.min_delay = 0.0;
  EXPECT_THROW(EventEngine(g, bad), PreconditionError);
  bad = config_for(g);
  bad.max_delay = bad.min_delay / 2;
  EXPECT_THROW(EventEngine(g, bad), PreconditionError);

  EventEngine engine(g, config_for(g));
  EXPECT_THROW(engine.announce(99, Origin::Legit, 0.0), PreconditionError);
  EXPECT_THROW(engine.announce(0, Origin::None, 0.0), PreconditionError);
}

TEST(EventEngine, ResetClearsEverything) {
  const AsGraph g = diamond();
  EventEngine engine(g, config_for(g));
  engine.announce(g.require(4), Origin::Legit, 0.0);
  engine.announce(g.require(3), Origin::Attacker, 1.0);
  engine.reset();
  for (AsId v = 0; v < g.num_ases(); ++v) {
    EXPECT_FALSE(engine.route(v).valid());
    EXPECT_LT(engine.first_bogus_time(v), 0.0);
  }
}

TEST(EventEngine, LinkDelaysInRange) {
  const AsGraph g = diamond();
  auto cfg = config_for(g);
  cfg.min_delay = 0.05;
  cfg.max_delay = 0.10;
  EventEngine engine(g, cfg);
  for (AsId v = 0; v < g.num_ases(); ++v) {
    for (std::uint32_t k = 0; k < g.degree(v); ++k) {
      EXPECT_GE(engine.link_delay(v, k), 0.05);
      EXPECT_LT(engine.link_delay(v, k), 0.10);
    }
  }
}

/// Byte-wise FNV-1a over 64-bit words, the fold topology_checksum uses.
class Fnv1a {
 public:
  void fold(std::uint64_t value) {
    for (int shift = 0; shift < 64; shift += 8) {
      hash_ ^= (value >> shift) & 0xffull;
      hash_ *= 0x100000001b3ull;
    }
  }
  void fold(double value) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof bits);
    fold(bits);
  }
  void fold(const Route& route) {
    fold(static_cast<std::uint64_t>(route.origin));
    fold(static_cast<std::uint64_t>(route.cls));
    fold(static_cast<std::uint64_t>(route.path_len));
    fold(static_cast<std::uint64_t>(route.via));
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

void fold_generation_run(Fnv1a& hash, const GenerationEngine& engine,
                         const ConvergeStats& legit, const ConvergeStats& bogus,
                         const PropagationTrace& trace) {
  for (const ConvergeStats* stats : {&legit, &bogus}) {
    hash.fold(std::uint64_t{stats->generations});
    hash.fold(stats->messages_sent);
    hash.fold(stats->messages_accepted);
    hash.fold(stats->withdrawals);
    hash.fold(std::uint64_t{stats->converged});
  }
  hash.fold(std::uint64_t{trace.frames.size()});
  for (const GenerationFrame& frame : trace.frames) {
    hash.fold(std::uint64_t{frame.generation});
    hash.fold(std::uint64_t{frame.messages_sent});
    hash.fold(std::uint64_t{frame.messages_accepted});
    hash.fold(std::uint64_t{frame.polluted_so_far});
    hash.fold(std::uint64_t{frame.edges.size()});
    for (const TraceEdge& edge : frame.edges) {
      hash.fold(std::uint64_t{edge.from});
      hash.fold(std::uint64_t{edge.to});
      hash.fold(std::uint64_t{edge.accepted});
      hash.fold(static_cast<std::uint64_t>(edge.new_origin));
    }
  }
  for (AsId v = 0; v < engine.graph().num_ases(); ++v) {
    hash.fold(engine.route(v));
    const std::vector<AsId> path = engine.path_of(v);
    hash.fold(std::uint64_t{path.size()});
    for (const AsId hop : path) hash.fold(std::uint64_t{hop});
    hash.fold(std::uint64_t{engine.offered_bogus(v)});
  }
}

// Both message-passing engines' full outputs on seeded transit attacks, one
// FNV-1a value per attack and engine, recorded before AdjRib interned its
// AS paths. The generation value folds three runs (plain, top-20
// validators, forged origin): both announcements' ConvergeStats, every
// traced frame and edge, and every AS's route, path and offered_bogus bit.
// The event value folds two runs (plain, top-20 validators; the event
// engine has no forged-origin path): message counts, quiescent time, routes
// and first_bogus_time. Both engines are reused across attacks, so reset()
// is covered too.
TEST(MessagePassingEngines, OutputsArePinned) {
  ScenarioParams params;
  params.topology.total_ases = 2000;
  params.topology.seed = 2014;
  const Scenario scenario = Scenario::generate(params);
  const AsGraph& g = scenario.graph();
  const std::vector<AsId>& transits = scenario.transit();
  const ValidatorSet top20 = to_filter_set(g, top_k_deployment(g, 20)).bitset();

  GenerationEngine generation(g, scenario.policy());
  EventEngineConfig cfg;
  cfg.policy = scenario.policy();
  cfg.delay_seed = 5;
  EventEngine event(g, cfg);

  // {generation value, event value} per attack.
  const std::uint64_t pinned[][2] = {
      {0xe7e7bb2f8c27acc1ull, 0x7521c122c96abfd9ull},
      {0x8a5c3b0ade4ed97cull, 0xebc024679970dc21ull},
      {0x8c9c28a41a4592a1ull, 0x85e7694bd4a4e22dull},
      {0x0eacffdb95623ec5ull, 0xd25d3a223be90052ull},
      {0x1e0e8495f401682cull, 0xf32f49798dbb82f2ull},
      {0x944ffba1edfbb02aull, 0x2faeb38989234f6full},
      {0xba2e401c249bc4e4ull, 0xdcf8114bd61d6333ull},
      {0x8103212b3db22fc4ull, 0xfae1657ba97a9c08ull},
      {0x5cc610dff860d0d6ull, 0x78491cac128a568eull},
      {0x61709fd0bdd1ce91ull, 0xfe154a7ff802fc06ull},
      {0x29666668e6688160ull, 0x947a1f54c1b066e1ull},
      {0x20a728e6fd8110b2ull, 0x628fefbe02f92cecull},
  };
  Rng rng(19);
  for (std::size_t i = 0; i < std::size(pinned); ++i) {
    const AsId victim = static_cast<AsId>(rng.bounded(g.num_ases()));
    AsId attacker = victim;
    while (attacker == victim) {
      attacker = transits[rng.bounded(transits.size())];
    }

    Fnv1a gen_hash;
    for (int variant = 0; variant < 3; ++variant) {
      const ValidatorSet* validators = variant == 1 ? &top20 : nullptr;
      const AsId forged_tail = variant == 2 ? victim : kInvalidAs;
      PropagationTrace trace;
      generation.reset();
      const ConvergeStats legit =
          generation.announce(victim, Origin::Legit, validators, &trace);
      const ConvergeStats bogus = generation.announce(
          attacker, Origin::Attacker, validators, &trace, forged_tail);
      fold_generation_run(gen_hash, generation, legit, bogus, trace);
    }

    Fnv1a event_hash;
    const ValidatorSet* const event_runs[] = {nullptr, &top20};
    for (const ValidatorSet* validators : event_runs) {
      event.reset();
      const EventRunStats legit =
          event.announce(victim, Origin::Legit, 0.0, validators);
      const EventRunStats bogus = event.announce(
          attacker, Origin::Attacker, legit.quiescent_time + 1.0, validators);
      for (const EventRunStats* stats : {&legit, &bogus}) {
        event_hash.fold(stats->messages_delivered);
        event_hash.fold(stats->messages_accepted);
        event_hash.fold(stats->quiescent_time);
        event_hash.fold(std::uint64_t{stats->converged});
      }
      for (AsId v = 0; v < g.num_ases(); ++v) {
        event_hash.fold(event.route(v));
        event_hash.fold(event.first_bogus_time(v));
      }
    }

    EXPECT_EQ(gen_hash.value(), pinned[i][0])
        << "generation engine, attack " << i << ": victim " << victim
        << ", attacker " << attacker;
    EXPECT_EQ(event_hash.value(), pinned[i][1])
        << "event engine, attack " << i << ": victim " << victim
        << ", attacker " << attacker;
  }
}

void fold_table(Fnv1a& hash, const RouteTable& table) {
  for (const Route& route : table.routes) hash.fold(route);
}

void fold_edges(Fnv1a& hash, const obs::ProvenanceRecorder& recorder) {
  hash.fold(recorder.committed());
  for (std::uint64_t i = 0; i < recorder.committed(); ++i) {
    const obs::InfectionEdge& edge = recorder.edges()[i];
    hash.fold(static_cast<std::uint64_t>(obs::edge_kind(edge)));
    hash.fold(std::uint64_t{edge.to});
    hash.fold(std::uint64_t{edge.from});
    hash.fold(std::uint64_t{edge.generation});
    hash.fold(std::uint64_t{edge.path_len});
    hash.fold(std::uint64_t{edge.displaced_len});
    hash.fold(std::uint64_t{edge.displaced_origin});
  }
}

// EquilibriumEngine's full outputs on seeded attacks, two FNV-1a values per
// attack recorded before its stages shared one bucket spread. The table
// value folds (origin, class, length, via) at every AS after compute,
// compute_hijack and compute_single, under four policies (tier-1
// shortest-path quirk on/off x §IV stub filter on/off). The provenance value
// folds every edge those traced runs record, in order; it is only checked
// where provenance is compiled in. Every third attack runs with the top-62
// validator core, every fifth announces a forged origin (seed length 2), and
// odd attacks draw the attacker from every AS, so stubs hit the stub filter.
// The engines are reused across attacks, so their scratch reuse is covered.
TEST(EquilibriumEngine, OutputsArePinned) {
  ScenarioParams params;
  params.topology.total_ases = 3000;
  params.topology.seed = 2014;
  const Scenario scenario = Scenario::generate(params);
  const AsGraph& g = scenario.graph();
  const std::vector<AsId>& transits = scenario.transit();
  const ValidatorSet core = to_filter_set(g, top_k_deployment(g, 62)).bitset();

  std::vector<EquilibriumEngine> engines;
  for (const bool tier1_shortest : {true, false}) {
    for (const bool stub_filter : {false, true}) {
      PolicyConfig policy = scenario.policy();
      policy.tier1_shortest_path = tier1_shortest;
      policy.stub_first_hop_filter = stub_filter;
      engines.emplace_back(g, policy);
    }
  }
  obs::ProvenanceRecorder recorder(1u << 16);
  RouteTable table;

  // {table value, provenance value} per attack.
  const std::uint64_t pinned[][2] = {
      {0x55ec892834e843e9ull, 0xa7bf3d559271a079ull},
      {0x4bc6ff072280ff43ull, 0xed12ced02a718c8dull},
      {0xb9c4a2efdce4cae1ull, 0x656726d59c18a8f9ull},
      {0x7092de3f109269f7ull, 0x1f2ac9ad62da8e1dull},
      {0x83a7d2a12fb73c95ull, 0xea18ccf0973446f5ull},
      {0x2c4ec0696ac4b1bbull, 0x2e4ea44ce55dfecaull},
      {0xaa9722cf42ce8e55ull, 0xcb73ea365f014a25ull},
      {0xaee2768c1f532960ull, 0x5d96ee8ed4b907ddull},
      {0x2f4e69dc3da27b95ull, 0x1298bd0087c0a47dull},
      {0xb119059a754d798dull, 0xfa1e94e1e56dd0e5ull},
      {0x103166ceb0a634d5ull, 0x32adebeec064fd55ull},
      {0x7326be7936925eebull, 0x0d5db5ce5de110caull},
      {0xa46b40d018977e95ull, 0x9c0ab581623762e5ull},
      {0x98eee9978e8789fcull, 0x96b0a213510724d1ull},
      {0x2f4628adffc43f99ull, 0x8d54ce250bc7e181ull},
      {0xea6e86bef682b532ull, 0x809efe1967a6fc44ull},
      {0xb1e775360d22bf31ull, 0xdd4a82b96705b011ull},
      {0xb90cfa2badd36774ull, 0xb0fcb514b1456f8dull},
      {0x1c734fe3827220e5ull, 0x174cc99f5d9473b5ull},
      {0xff7875815fa5a1a6ull, 0xa1aac327c5b1b513ull},
      {0x3a59ff50fe23a4a5ull, 0x50c4f8b6b16b1a91ull},
      {0xb518decbbae282c5ull, 0xd6a4aad6e8712dd5ull},
      {0xb5957d9c86a52b1dull, 0xc769c51e1551a5ddull},
      {0xa7e5e4dbf7139318ull, 0x7da6374b408c220dull},
      {0x0fee7dcba6405065ull, 0x84e2a7c5a5e3fee5ull},
      {0xb09d07f479be8235ull, 0x484f71feb9640a3dull},
      {0x7271c1f60e33ad99ull, 0x1f0d74475a6ede8dull},
      {0xabf9a6525c5d80cdull, 0x0436743de4958205ull},
      {0x5c914c0cabc3d5f9ull, 0xaf0fa70a89b9b9b1ull},
      {0xb40500a18a9eab06ull, 0x2174d5f05ab53a52ull},
      {0xce105b1d98391ec5ull, 0xa35a2c26d49ceef5ull},
      {0x0a9df6f9213e88c6ull, 0x4c98e23a2dd78ea0ull},
      {0x5a46e73885350041ull, 0x3401924273d3c0cdull},
      {0x25de5172eaf5482dull, 0xd021562abe924759ull},
      {0x31c29e1514b7d5adull, 0x663d96eb8a4abaedull},
      {0xe01098a33b303f44ull, 0x7e6d39b3fdf334daull},
      {0xac0e10dcf56f8095ull, 0x637e6bb61c41ee05ull},
      {0xd7ae8d256614dd4full, 0x1fb30ba40b2396c8ull},
      {0x466225b2c87320e5ull, 0xb1635f020fb9a141ull},
      {0xa951cb2fa514ad65ull, 0x1acf20a7e050bae5ull},
      {0x675602e03203e4fdull, 0x0911c351ab55bf35ull},
      {0x13e5908942d21895ull, 0x4d7415dc7d2e8b39ull},
      {0x14227692eed80e2dull, 0x77a313c9636be33dull},
      {0x88ad3904c6da8350ull, 0x8ac7a89c4d1b54f0ull},
      {0x1ea027071f710401ull, 0xf670725e07d95345ull},
      {0x5c6dfff517c5d0b9ull, 0x530c8cc2d4752391ull},
      {0x3e62703e2156afe9ull, 0xa8051a8007636905ull},
      {0x951ecc3aeca82e9aull, 0x07d6ee15c27cf04bull},
      {0x90f7cb8b94309da5ull, 0xfc6d51e236b53cedull},
      {0x47a0095f5486c3e1ull, 0x2f367e3e58755c45ull},
      {0x31498ff7a91b8f61ull, 0xc4cefb8475eababdull},
      {0xbc1e2ad91e148121ull, 0xc06d7e7494eb1561ull},
      {0x635119b22e51a4c5ull, 0xf5ce89a2b3dd0565ull},
      {0xcbc4d7c08c9e4f75ull, 0x159aa0cf72237d7cull},
      {0xcc0e3dab882f584dull, 0x86286913ae431c7dull},
      {0xad743719d6eba721ull, 0xc0e04cfcf6dfe084ull},
      {0x092f7bd89d2754a9ull, 0xbf0045e05148e251ull},
      {0xbc35333d407113a8ull, 0x1ce99392e10de8a1ull},
      {0x1be88e42c2753431ull, 0x4e0bb442c6b74bbdull},
      {0xad216f2cc4241155ull, 0x6b939ad4b160b69dull},
  };
  Rng rng(23);
  for (std::size_t i = 0; i < std::size(pinned); ++i) {
    const AsId victim = static_cast<AsId>(rng.bounded(g.num_ases()));
    AsId attacker = victim;
    while (attacker == victim) {
      attacker = i % 2 == 0 ? transits[rng.bounded(transits.size())]
                            : static_cast<AsId>(rng.bounded(g.num_ases()));
    }
    const ValidatorSet* validators = i % 3 == 0 ? &core : nullptr;
    const std::uint16_t seed_len = i % 5 == 0 ? 2 : 1;

    Fnv1a table_hash;
    Fnv1a prov_hash;
    for (EquilibriumEngine& engine : engines) {
      engine.set_provenance(&recorder);
      recorder.begin_attack();
      engine.compute(victim, validators, table);
      fold_table(table_hash, table);
      fold_edges(prov_hash, recorder);
      recorder.begin_attack();
      engine.compute_hijack(victim, attacker, validators, table, seed_len);
      fold_table(table_hash, table);
      fold_edges(prov_hash, recorder);
      recorder.begin_attack();
      engine.compute_single(attacker, Origin::Attacker, seed_len, validators,
                            table);
      fold_table(table_hash, table);
      fold_edges(prov_hash, recorder);
    }
    EXPECT_EQ(table_hash.value(), pinned[i][0])
        << "routing tables, attack " << i << ": victim " << victim
        << ", attacker " << attacker;
    if (obs::kProvenanceCompiled) {
      EXPECT_EQ(prov_hash.value(), pinned[i][1])
          << "provenance edges, attack " << i << ": victim " << victim
          << ", attacker " << attacker;
    }
  }
}

}  // namespace
}  // namespace bgpsim
