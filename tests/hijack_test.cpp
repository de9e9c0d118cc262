// Unit tests for HijackSimulator: pollution accounting, engine parity,
// validators, traces.
#include "hijack/hijack_simulator.hpp"

#include <gtest/gtest.h>

#include "support/error.hpp"
#include "topology/graph_builder.hpp"

namespace bgpsim {
namespace {

// Diamond with address space: 1 over {2,3}, both over 4.
AsGraph diamond() {
  GraphBuilder b;
  b.add_provider_customer(1, 2);
  b.add_provider_customer(1, 3);
  b.add_provider_customer(2, 4);
  b.add_provider_customer(3, 4);
  b.set_address_space(1, 100);
  b.set_address_space(2, 10);
  b.set_address_space(3, 10);
  b.set_address_space(4, 5);
  return b.build();
}

SimConfig config_for(const AsGraph& g, EngineKind engine) {
  SimConfig cfg;
  cfg.engine = engine;
  cfg.policy.is_tier1.assign(g.num_ases(), 0);
  return cfg;
}

TEST(HijackSimulator, PollutionCountsAndAddressSpace) {
  const AsGraph g = diamond();
  for (const EngineKind kind : {EngineKind::Equilibrium, EngineKind::Generation}) {
    HijackSimulator sim(g, config_for(g, kind));
    const auto result = sim.attack(g.require(4), g.require(3));
    // Only AS 1 is fooled (see engine_test); the attacker is not counted.
    EXPECT_EQ(result.polluted_ases, 1u) << (kind == EngineKind::Generation);
    EXPECT_EQ(result.polluted_address_space, 100u);
    EXPECT_NEAR(result.polluted_address_fraction, 100.0 / 125.0, 1e-12);
    EXPECT_EQ(result.routed_ases, 4u);
    if (kind == EngineKind::Generation) {
      EXPECT_GT(result.generations, 0u);
    } else {
      EXPECT_EQ(result.generations, 0u);
    }
  }
}

TEST(HijackSimulator, RoutesExposeLastAttackState) {
  const AsGraph g = diamond();
  HijackSimulator sim(g, config_for(g, EngineKind::Equilibrium));
  sim.attack(g.require(4), g.require(3));
  EXPECT_EQ(sim.routes().routes[g.require(1)].origin, Origin::Attacker);
  sim.attack(g.require(4), g.require(2));  // symmetric attack from 2
  EXPECT_EQ(sim.routes().routes[g.require(1)].origin, Origin::Attacker);
  EXPECT_EQ(sim.routes().routes[g.require(3)].origin, Origin::Legit);
}

TEST(HijackSimulator, ValidatorsBlockPollution) {
  const AsGraph g = diamond();
  HijackSimulator sim(g, config_for(g, EngineKind::Equilibrium));
  ValidatorSet validators(g.num_ases(), 0);
  validators[g.require(1)] = 1;
  sim.set_validators(validators);
  EXPECT_TRUE(sim.has_validators());
  const auto result = sim.attack(g.require(4), g.require(3));
  EXPECT_EQ(result.polluted_ases, 0u);

  sim.set_validators(std::nullopt);
  EXPECT_FALSE(sim.has_validators());
  EXPECT_EQ(sim.attack(g.require(4), g.require(3)).polluted_ases, 1u);
}

TEST(HijackSimulator, TraceMatchesResult) {
  const AsGraph g = diamond();
  HijackSimulator sim(g, config_for(g, EngineKind::Equilibrium));
  PropagationTrace trace;
  const auto result = sim.attack_with_trace(g.require(4), g.require(3), trace);
  ASSERT_FALSE(trace.frames.empty());
  EXPECT_EQ(trace.frames.back().polluted_so_far, result.polluted_ases + 1u);
  // +1: the trace counts every AS selecting the attacker origin, including
  // the attacker itself; AttackResult excludes the attacker.
}

TEST(HijackSimulator, EveryEntryPointRunsTheSameGenerationAttack) {
  // attack, attack_ex and attack_with_trace are one implementation: on the
  // generation engine they converge to the same table and count the same
  // generations (legitimate plus attacker announcement).
  const AsGraph g = diamond();
  HijackSimulator sim(g, config_for(g, EngineKind::Generation));
  const AsId victim = g.require(4);
  const AsId attacker = g.require(3);
  const AttackResult plain = sim.attack(victim, attacker);
  const RouteTable plain_table = sim.routes();
  const ExtendedAttackResult ex = sim.attack_ex(victim, attacker, {});
  const RouteTable ex_table = sim.routes();
  PropagationTrace trace;
  const AttackResult traced = sim.attack_with_trace(victim, attacker, trace);
  EXPECT_GT(plain.generations, 0u);
  EXPECT_EQ(ex.generations, plain.generations);
  EXPECT_EQ(traced.generations, plain.generations);
  // The trace holds only the attacker announcement's frames.
  EXPECT_LT(trace.frames.size(), traced.generations);
  for (AsId v = 0; v < g.num_ases(); ++v) {
    for (const RouteTable* other : {&ex_table, &sim.routes()}) {
      EXPECT_EQ(other->routes[v].origin, plain_table.routes[v].origin) << v;
      EXPECT_EQ(other->routes[v].cls, plain_table.routes[v].cls) << v;
      EXPECT_EQ(other->routes[v].path_len, plain_table.routes[v].path_len) << v;
      EXPECT_EQ(other->routes[v].via, plain_table.routes[v].via) << v;
    }
  }
}

TEST(HijackSimulator, RejectsBadArguments) {
  const AsGraph g = diamond();
  HijackSimulator sim(g, config_for(g, EngineKind::Equilibrium));
  EXPECT_THROW(sim.attack(99, 0), PreconditionError);
  EXPECT_THROW(sim.attack(0, 99), PreconditionError);
  EXPECT_THROW(sim.attack(1, 1), PreconditionError);
  ValidatorSet wrong(2, 0);
  EXPECT_THROW(sim.set_validators(wrong), PreconditionError);
}

TEST(HijackSimulator, EnginesAgreeOnSmallGraph) {
  const AsGraph g = diamond();
  HijackSimulator eq(g, config_for(g, EngineKind::Equilibrium));
  HijackSimulator gen(g, config_for(g, EngineKind::Generation));
  for (const Asn attacker : {1u, 2u, 3u}) {
    const auto a = eq.attack(g.require(4), g.require(attacker));
    const auto b = gen.attack(g.require(4), g.require(attacker));
    EXPECT_EQ(a.polluted_ases, b.polluted_ases) << "attacker " << attacker;
    EXPECT_EQ(a.polluted_address_space, b.polluted_address_space);
  }
}

}  // namespace
}  // namespace bgpsim
