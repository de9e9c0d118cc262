// Tests for the asynchronous discrete-event engine: hand-computed cases,
// exact end-state agreement with the synchronous engine, detection-latency
// semantics, and determinism.
#include "bgp/event_engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "bgp/generation_engine.hpp"
#include "bgp/route_audit.hpp"
#include "core/scenario.hpp"
#include "defense/deployment.hpp"
#include "support/error.hpp"
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

}  // namespace
}  // namespace bgpsim
