// Exhaustive unit tests of the routing-policy primitives.
#include "bgp/policy.hpp"

#include <gtest/gtest.h>

#include "support/error.hpp"
#include "topology/graph_builder.hpp"

namespace bgpsim {
namespace {

TEST(Policy, LocalPrefOrdering) {
  EXPECT_GT(local_pref(RouteClass::Self), local_pref(RouteClass::Customer));
  EXPECT_GT(local_pref(RouteClass::Customer), local_pref(RouteClass::Peer));
  EXPECT_GT(local_pref(RouteClass::Peer), local_pref(RouteClass::Provider));
  EXPECT_GT(local_pref(RouteClass::Provider), local_pref(RouteClass::None));
}

// displaces(inc_origin, inc_cls, inc_len, cand_origin, cand_cls, cand_len,
// is_tier1, tier1_shortest_path): does the candidate replace the incumbent?
constexpr Origin kL = Origin::Legit;
constexpr Origin kA = Origin::Attacker;

TEST(Policy, DisplacesPrefersHigherClass) {
  // Customer route beats peer/provider routes regardless of length.
  EXPECT_TRUE(displaces(kL, RouteClass::Peer, 2, kL, RouteClass::Customer, 9,
                        false, true));
  EXPECT_TRUE(displaces(kL, RouteClass::Provider, 2, kL, RouteClass::Customer, 9,
                        false, true));
  EXPECT_FALSE(displaces(kL, RouteClass::Customer, 9, kL, RouteClass::Peer, 2,
                         false, true));
}

TEST(Policy, DisplacesNeedsStrictlyShorterOnEqualClass) {
  // Paper: "a new announcement is accepted only if it has a shorter path".
  EXPECT_TRUE(displaces(kL, RouteClass::Peer, 5, kL, RouteClass::Peer, 4, false,
                        true));
  EXPECT_FALSE(displaces(kL, RouteClass::Peer, 5, kL, RouteClass::Peer, 6, false,
                         true));
}

TEST(Policy, DisplacesBreaksEqualRankByOrigin) {
  // Equal rank: the legitimate route wins against an attacker incumbent...
  EXPECT_TRUE(displaces(kA, RouteClass::Peer, 5, kL, RouteClass::Peer, 5, false,
                        true));
  // ...and otherwise the incumbent keeps the tie.
  EXPECT_FALSE(displaces(kA, RouteClass::Peer, 5, kA, RouteClass::Peer, 5, false,
                         true));
}

TEST(Policy, EmptyIncumbentAlwaysLoses) {
  EXPECT_TRUE(displaces(Origin::None, RouteClass::None, 0, kL,
                        RouteClass::Provider, 99, false, true));
  EXPECT_FALSE(displaces(Origin::None, RouteClass::None, 0, Origin::None,
                         RouteClass::None, 0, false, true));
}

TEST(Policy, SelfRouteIsSticky) {
  EXPECT_FALSE(displaces(kL, RouteClass::Self, 1, kL, RouteClass::Customer, 1,
                         false, true));
  EXPECT_TRUE(displaces(kL, RouteClass::Provider, 3, kL, RouteClass::Self, 1,
                        false, true));
}

TEST(Policy, Tier1ComparesLengthFirst) {
  // A tier-1 swaps its customer route for a shorter peer route...
  EXPECT_TRUE(displaces(kL, RouteClass::Customer, 4, kL, RouteClass::Peer, 3,
                        true, true));
  // ...but not when the quirk is disabled...
  EXPECT_FALSE(displaces(kL, RouteClass::Customer, 4, kL, RouteClass::Peer, 3,
                         true, false));
  // ...and not at a non-tier-1 AS.
  EXPECT_FALSE(displaces(kL, RouteClass::Customer, 4, kL, RouteClass::Peer, 3,
                         false, true));
  // Equal length never displaces at a tier-1 either.
  EXPECT_FALSE(displaces(kL, RouteClass::Customer, 3, kL, RouteClass::Peer, 3,
                         true, true));
}

TEST(Policy, RankBetterTotalOrder) {
  // rank_better is the rank part of displaces(); check the class order and
  // the tier-1 variant.
  EXPECT_TRUE(rank_better(RouteClass::Customer, 9, RouteClass::Peer, 2, false, true));
  EXPECT_TRUE(rank_better(RouteClass::Peer, 2, RouteClass::Peer, 3, false, true));
  EXPECT_FALSE(rank_better(RouteClass::Peer, 3, RouteClass::Peer, 3, false, true));
  EXPECT_TRUE(rank_better(RouteClass::Peer, 2, RouteClass::Customer, 3, true, true));
  EXPECT_FALSE(rank_better(RouteClass::None, 0, RouteClass::Provider, 9, false, true));
  EXPECT_TRUE(rank_better(RouteClass::Provider, 9, RouteClass::None, 0, false, true));
}

TEST(Policy, ExportFollowsValleyFreeRules) {
  // To a customer: everything.
  for (const RouteClass cls : {RouteClass::Self, RouteClass::Customer,
                               RouteClass::Peer, RouteClass::Provider}) {
    EXPECT_TRUE(exports_to(cls, Rel::Customer));
  }
  // To peers/providers: only self-originated or customer-learned routes.
  for (const Rel to : {Rel::Peer, Rel::Provider}) {
    EXPECT_TRUE(exports_to(RouteClass::Self, to));
    EXPECT_TRUE(exports_to(RouteClass::Customer, to));
    EXPECT_FALSE(exports_to(RouteClass::Peer, to));
    EXPECT_FALSE(exports_to(RouteClass::Provider, to));
  }
}

TEST(Policy, ValidateRejectsSiblingGraphs) {
  GraphBuilder b;
  b.add_sibling(1, 2);
  const AsGraph g = b.build();
  PolicyConfig cfg;
  EXPECT_THROW(validate_engine_inputs(g, cfg), ConfigError);
}

TEST(Policy, ValidateRejectsMismatchedTier1Vector) {
  GraphBuilder b;
  b.add_peer(1, 2);
  const AsGraph g = b.build();
  PolicyConfig cfg;
  cfg.is_tier1.assign(5, 0);  // wrong size
  EXPECT_THROW(validate_engine_inputs(g, cfg), ConfigError);
  cfg.is_tier1.assign(2, 0);
  EXPECT_NO_THROW(validate_engine_inputs(g, cfg));
}

TEST(Policy, RouteClassFromRelationship) {
  EXPECT_EQ(route_class_from(Rel::Customer), RouteClass::Customer);
  EXPECT_EQ(route_class_from(Rel::Peer), RouteClass::Peer);
  EXPECT_EQ(route_class_from(Rel::Provider), RouteClass::Provider);
}

}  // namespace
}  // namespace bgpsim
