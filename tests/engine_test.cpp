// Hand-computed routing scenarios, checked against BOTH engines.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "bgp/adj_rib.hpp"
#include "bgp/equilibrium_engine.hpp"
#include "bgp/generation_engine.hpp"
#include "support/error.hpp"
#include "topology/graph_builder.hpp"

namespace bgpsim {
namespace {

PolicyConfig config_for(const AsGraph& g, std::vector<Asn> tier1_asns = {},
                        bool tier1_shortest = true) {
  PolicyConfig cfg;
  cfg.tier1_shortest_path = tier1_shortest;
  cfg.is_tier1.assign(g.num_ases(), 0);
  for (const Asn asn : tier1_asns) cfg.is_tier1[g.require(asn)] = 1;
  return cfg;
}

/// Run the hijack scenario on both engines; returns {generation, equilibrium}.
std::pair<RouteTable, RouteTable> run_both(const AsGraph& g, const PolicyConfig& cfg,
                                           Asn target, std::optional<Asn> attacker,
                                           const ValidatorSet* validators = nullptr) {
  GenerationEngine gen(g, cfg);
  gen.announce(g.require(target), Origin::Legit, validators);
  if (attacker) gen.announce(g.require(*attacker), Origin::Attacker, validators);
  RouteTable from_gen;
  gen.export_routes(from_gen);

  EquilibriumEngine eq(g, cfg);
  RouteTable from_eq;
  if (attacker) {
    eq.compute_hijack(g.require(target), g.require(*attacker), validators, from_eq);
  } else {
    eq.compute(g.require(target), validators, from_eq);
  }
  return {from_gen, from_eq};
}

void expect_route(const AsGraph& g, const RouteTable& t, Asn asn, Origin origin,
                  RouteClass cls, std::uint16_t len, const char* engine) {
  const Route& r = t.routes[g.require(asn)];
  EXPECT_EQ(r.origin, origin) << engine << " AS " << asn;
  EXPECT_EQ(r.cls, cls) << engine << " AS " << asn;
  EXPECT_EQ(r.path_len, len) << engine << " AS " << asn;
}

void expect_route_both(const AsGraph& g, const std::pair<RouteTable, RouteTable>& t,
                       Asn asn, Origin origin, RouteClass cls, std::uint16_t len) {
  expect_route(g, t.first, asn, origin, cls, len, "generation");
  expect_route(g, t.second, asn, origin, cls, len, "equilibrium");
}

// Diamond: 1 over {2,3}, both over 4.
AsGraph diamond() {
  GraphBuilder b;
  b.add_provider_customer(1, 2);
  b.add_provider_customer(1, 3);
  b.add_provider_customer(2, 4);
  b.add_provider_customer(3, 4);
  return b.build();
}

TEST(Engines, DiamondSingleOrigin) {
  const AsGraph g = diamond();
  const auto tables = run_both(g, config_for(g), 4, std::nullopt);
  expect_route_both(g, tables, 4, Origin::Legit, RouteClass::Self, 1);
  expect_route_both(g, tables, 2, Origin::Legit, RouteClass::Customer, 2);
  expect_route_both(g, tables, 3, Origin::Legit, RouteClass::Customer, 2);
  expect_route_both(g, tables, 1, Origin::Legit, RouteClass::Customer, 3);
  // Deterministic tiebreak: 1 hears len-3 routes from both 2 and 3; lowest id wins.
  EXPECT_EQ(tables.first.routes[g.require(1)].via, g.require(2));
  EXPECT_EQ(tables.second.routes[g.require(1)].via, g.require(2));
}

TEST(Engines, DiamondHijackFromSibling
     /* AS 3 hijacks AS 4's prefix: only AS 1 falls (shorter customer path) */) {
  const AsGraph g = diamond();
  const auto tables = run_both(g, config_for(g), 4, 3);
  expect_route_both(g, tables, 4, Origin::Legit, RouteClass::Self, 1);
  expect_route_both(g, tables, 3, Origin::Attacker, RouteClass::Self, 1);
  // AS 2 keeps its legit customer route (bogus arrives as provider route).
  expect_route_both(g, tables, 2, Origin::Legit, RouteClass::Customer, 2);
  // AS 1: bogus customer route len 2 strictly beats legit customer len 3.
  expect_route_both(g, tables, 1, Origin::Attacker, RouteClass::Customer, 2);
  EXPECT_EQ(tables.first.count_origin(Origin::Attacker), 2u);
  EXPECT_EQ(tables.second.count_origin(Origin::Attacker), 2u);
}

TEST(Engines, ValidatorBlocksTheBogusRoute) {
  const AsGraph g = diamond();
  ValidatorSet validators(g.num_ases(), 0);
  validators[g.require(1)] = 1;  // AS 1 deploys origin validation
  const auto tables = run_both(g, config_for(g), 4, 3, &validators);
  expect_route_both(g, tables, 1, Origin::Legit, RouteClass::Customer, 3);
  expect_route_both(g, tables, 2, Origin::Legit, RouteClass::Customer, 2);
  // Only the attacker itself holds the bogus route.
  EXPECT_EQ(tables.first.count_origin(Origin::Attacker), 1u);
  EXPECT_EQ(tables.second.count_origin(Origin::Attacker), 1u);
}

// Peer/export topology: 1 -peer- 2; 1 over 3; 2 over 4; 2 -peer- 5.
AsGraph peer_chain() {
  GraphBuilder b;
  b.add_peer(1, 2);
  b.add_provider_customer(1, 3);
  b.add_provider_customer(2, 4);
  b.add_peer(2, 5);
  return b.build();
}

TEST(Engines, PeerRoutesExportOnlyDownhill) {
  const AsGraph g = peer_chain();
  const auto tables = run_both(g, config_for(g), 3, std::nullopt);
  expect_route_both(g, tables, 3, Origin::Legit, RouteClass::Self, 1);
  expect_route_both(g, tables, 1, Origin::Legit, RouteClass::Customer, 2);
  // 2 learns across the peer link...
  expect_route_both(g, tables, 2, Origin::Legit, RouteClass::Peer, 3);
  // ...exports it down to its customer 4...
  expect_route_both(g, tables, 4, Origin::Legit, RouteClass::Provider, 4);
  // ...but NOT to its other peer 5 (valley-free).
  EXPECT_EQ(tables.first.routes[g.require(5)].origin, Origin::None);
  EXPECT_EQ(tables.second.routes[g.require(5)].origin, Origin::None);
}

// Tier-1 quirk: tier-1 AS 1 has a 4-hop customer route and a 3-hop peer
// route to the target; the paper's policy makes it take the peer route.
AsGraph tier1_quirk_topology() {
  GraphBuilder b;
  b.add_peer(1, 2);                // tier-1 clique
  b.add_provider_customer(1, 10);  // 1 -> 10 -> 11 -> 20 (customer chain)
  b.add_provider_customer(10, 11);
  b.add_provider_customer(11, 20);
  b.add_provider_customer(2, 20);  // 2 -> 20 (short side)
  return b.build();
}

TEST(Engines, Tier1PrefersShortestPathWhenEnabled) {
  const AsGraph g = tier1_quirk_topology();
  const auto cfg = config_for(g, {1, 2}, /*tier1_shortest=*/true);
  const auto tables = run_both(g, cfg, 20, std::nullopt);
  // 2: customer route len 2. 1: customer len 4 vs peer len 3 -> peer wins.
  expect_route_both(g, tables, 2, Origin::Legit, RouteClass::Customer, 2);
  expect_route_both(g, tables, 1, Origin::Legit, RouteClass::Peer, 3);
}

TEST(Engines, Tier1QuirkDisabledKeepsCustomerRoute) {
  const AsGraph g = tier1_quirk_topology();
  const auto cfg = config_for(g, {1, 2}, /*tier1_shortest=*/false);
  const auto tables = run_both(g, cfg, 20, std::nullopt);
  expect_route_both(g, tables, 1, Origin::Legit, RouteClass::Customer, 4);
}

TEST(Engines, StubFirstHopFilterStopsStubAttacker) {
  // 1 over {2-stub-attacker, 3}; 3 over 4 (target).
  GraphBuilder b;
  b.add_provider_customer(1, 2);
  b.add_provider_customer(1, 3);
  b.add_provider_customer(3, 4);
  const AsGraph g = b.build();
  auto cfg = config_for(g);
  cfg.stub_first_hop_filter = true;
  const auto tables = run_both(g, cfg, 4, 2);
  // The provider drops the stub's bogus origination: nobody else polluted.
  EXPECT_EQ(tables.first.count_origin(Origin::Attacker), 1u);
  EXPECT_EQ(tables.second.count_origin(Origin::Attacker), 1u);
  expect_route_both(g, tables, 1, Origin::Legit, RouteClass::Customer, 3);
}

TEST(Engines, StubFirstHopFilterDoesNotStopTransitAttacker) {
  // Same graph, but the attacker (3) is transit: the filter cannot apply.
  GraphBuilder b;
  b.add_provider_customer(1, 2);
  b.add_provider_customer(1, 3);
  b.add_provider_customer(3, 4);
  b.add_provider_customer(2, 5);  // target hangs off 2 now
  const AsGraph g = b.build();
  auto cfg = config_for(g);
  cfg.stub_first_hop_filter = true;
  const auto tables = run_both(g, cfg, 5, 3);
  // 3's bogus route reaches 1 (customer, len 2) and beats legit (len 3).
  expect_route_both(g, tables, 1, Origin::Attacker, RouteClass::Customer, 2);
}

TEST(GenerationEngine, ConvergesWithStats) {
  const AsGraph g = diamond();
  GenerationEngine engine(g, config_for(g));
  const auto stats = engine.announce(g.require(4), Origin::Legit);
  EXPECT_TRUE(stats.converged);
  EXPECT_GE(stats.generations, 2u);
  EXPECT_LE(stats.generations, 5u);
  EXPECT_GT(stats.messages_sent, 0u);
  EXPECT_GE(stats.messages_sent, stats.messages_accepted);
}

TEST(GenerationEngine, PathsAreWellFormed) {
  const AsGraph g = tier1_quirk_topology();
  GenerationEngine engine(g, config_for(g, {1, 2}));
  engine.announce(g.require(20), Origin::Legit);
  // Path of 1: [1, 2, 20] (peer route).
  const auto& path = engine.path_of(g.require(1));
  ASSERT_EQ(path.size(), 3u);
  EXPECT_EQ(g.asn(path[0]), 1u);
  EXPECT_EQ(g.asn(path[1]), 2u);
  EXPECT_EQ(g.asn(path[2]), 20u);
  // Origin's own path is itself.
  ASSERT_EQ(engine.path_of(g.require(20)).size(), 1u);
  // An AS with no route has an empty path.
  GenerationEngine fresh(g, config_for(g, {1, 2}));
  EXPECT_TRUE(fresh.path_of(g.require(1)).empty());
}

TEST(GenerationEngine, TraceRecordsFrames) {
  const AsGraph g = diamond();
  GenerationEngine engine(g, config_for(g));
  engine.announce(g.require(4), Origin::Legit);
  PropagationTrace trace;
  engine.announce(g.require(3), Origin::Attacker, nullptr, &trace);
  ASSERT_FALSE(trace.frames.empty());
  EXPECT_EQ(trace.frames.front().generation, 1u);
  std::uint32_t accepted = 0;
  for (const auto& frame : trace.frames) {
    EXPECT_EQ(frame.messages_sent, frame.edges.size());
    accepted += frame.messages_accepted;
  }
  EXPECT_GT(accepted, 0u);
  // Final frame reflects the end-state pollution (attacker + AS 1).
  EXPECT_EQ(trace.frames.back().polluted_so_far, 2u);
}

TEST(GenerationEngine, ResetClearsState) {
  const AsGraph g = diamond();
  GenerationEngine engine(g, config_for(g));
  engine.announce(g.require(4), Origin::Legit);
  engine.announce(g.require(3), Origin::Attacker);
  engine.reset();
  for (AsId v = 0; v < g.num_ases(); ++v) {
    EXPECT_FALSE(engine.route(v).valid());
    EXPECT_TRUE(engine.path_of(v).empty());
  }
  // Reusable after reset.
  engine.announce(g.require(4), Origin::Legit);
  EXPECT_EQ(engine.count_origin(Origin::Legit), 4u);
}

/// Deliver `from`'s selected route to its neighbor `to`, as the engines do,
/// into Adj-RIB-In entry `*rib_idx` of `to` (when given).
bool send(AdjRib& rib, AsId from, AsId to, std::uint32_t* rib_idx = nullptr) {
  const auto nbrs = rib.graph().neighbors(from);
  for (std::uint32_t k = 0; k < nbrs.size(); ++k) {
    if (nbrs[k].id != to) continue;
    const std::uint32_t idx = rib.mirror_index(rib.first_edge(from) + k, to);
    if (rib_idx != nullptr) *rib_idx = idx;
    return rib.deliver(from, to, idx, rib.offered(from, nbrs[k]),
                       rib.path_id(from), nullptr);
  }
  ADD_FAILURE() << "not neighbors";
  return false;
}

// Interned paths: two ids can name the same AS sequence, and an update that
// repeats what the neighbor already announced changes nothing.
TEST(AdjRib, UnchangedUpdateComparesPathContents) {
  const AsGraph g = diamond();
  AdjRib rib(g, config_for(g));
  const AsId origin = g.require(4), provider = g.require(2);
  rib.originate(origin, Origin::Legit);
  const AdjRib::PathId first = rib.path_id(origin);
  EXPECT_TRUE(send(rib, origin, provider));
  rib.originate(origin, Origin::Legit);  // [4] again, under a new id
  ASSERT_NE(rib.path_id(origin), first);
  EXPECT_FALSE(send(rib, origin, provider));
  EXPECT_EQ(rib.path_of(provider), (std::vector<AsId>{provider, origin}));
}

// Loop rejection walks the whole announced path, not just its first hops.
TEST(AdjRib, LoopRejectionWalksTheWholePath) {
  // A provider chain 1 > 2 > 3 > 4 > 5 where 2 is also 5's provider: the
  // route 5 offers 2 runs through 2 itself, three hops down.
  GraphBuilder b;
  b.add_provider_customer(1, 2);
  b.add_provider_customer(2, 3);
  b.add_provider_customer(3, 4);
  b.add_provider_customer(4, 5);
  b.add_provider_customer(2, 5);
  const AsGraph g = b.build();
  AdjRib rib(g, config_for(g));
  const AsId as1 = g.require(1), as2 = g.require(2), as3 = g.require(3),
             as4 = g.require(4), as5 = g.require(5);
  rib.originate(as1, Origin::Legit);
  ASSERT_TRUE(send(rib, as1, as2));
  ASSERT_TRUE(send(rib, as2, as3));
  ASSERT_TRUE(send(rib, as3, as4));
  ASSERT_TRUE(send(rib, as4, as5));
  ASSERT_EQ(rib.path_of(as5), (std::vector<AsId>{as5, as4, as3, as2, as1}));
  // As a customer route it would beat 2's provider route, were it accepted.
  std::uint32_t from5 = 0;
  EXPECT_FALSE(send(rib, as5, as2, &from5));
  EXPECT_FALSE(rib.holds(from5));
  EXPECT_EQ(rib.route(as2).via, as1);
  EXPECT_EQ(rib.path_of(as2), (std::vector<AsId>{as2, as1}));
}

TEST(Engines, RejectBadArguments) {
  const AsGraph g = diamond();
  GenerationEngine gen(g, config_for(g));
  EXPECT_THROW(gen.announce(999, Origin::Legit), PreconditionError);
  EXPECT_THROW(gen.announce(0, Origin::None), PreconditionError);
  ValidatorSet wrong_size(2, 0);
  EXPECT_THROW(gen.announce(0, Origin::Legit, &wrong_size), PreconditionError);

  EquilibriumEngine eq(g, config_for(g));
  RouteTable out;
  EXPECT_THROW(eq.compute(999, nullptr, out), PreconditionError);
  EXPECT_THROW(eq.compute_hijack(0, 0, nullptr, out), PreconditionError);
  EXPECT_THROW(eq.compute_hijack(0, 999, nullptr, out), PreconditionError);
}

TEST(Engines, LegitimateKeepsEqualLengthTies) {
  // Target 10 and attacker 20 are both customers of 1 and 2; every route to
  // either origin has identical class and length, so first-mover (legit) wins
  // everywhere except at the attacker itself.
  GraphBuilder b;
  b.add_provider_customer(1, 10);
  b.add_provider_customer(2, 10);
  b.add_provider_customer(1, 20);
  b.add_provider_customer(2, 20);
  const AsGraph g = b.build();
  const auto tables = run_both(g, config_for(g), 10, 20);
  expect_route_both(g, tables, 1, Origin::Legit, RouteClass::Customer, 2);
  expect_route_both(g, tables, 2, Origin::Legit, RouteClass::Customer, 2);
  EXPECT_EQ(tables.first.count_origin(Origin::Attacker), 1u);
  EXPECT_EQ(tables.second.count_origin(Origin::Attacker), 1u);
}

}  // namespace
}  // namespace bgpsim
