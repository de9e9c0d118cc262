// Unit tests of the routing-policy primitives, with one exhaustive walk of
// the rank order over small routes.
#include "bgp/policy.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

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

// The paper's rank order spelled out independently of route_rank: LOCAL_PREF
// then the shorter path, or length first at a tier-1 with the quirk.
bool reference_rank_better(const Route& a, const Route& b, bool len_first) {
  const int pref_a = local_pref(a.cls), pref_b = local_pref(b.cls);
  if (len_first) {
    if (a.path_len != b.path_len) return a.path_len < b.path_len;
    return pref_a > pref_b;
  }
  if (pref_a != pref_b) return pref_a > pref_b;
  return a.path_len < b.path_len;
}

TEST(Policy, OneOrderOverEveryRoutePair) {
  // Every route over origin x class x length 2-6 x via {1, 2}.
  std::vector<Route> routes;
  for (const Origin origin : {kL, kA}) {
    for (const RouteClass cls :
         {RouteClass::Provider, RouteClass::Peer, RouteClass::Customer}) {
      for (std::uint16_t len = 2; len <= 6; ++len) {
        for (const AsId via : {1u, 2u}) routes.push_back(Route{origin, cls, len, via});
      }
    }
  }
  ASSERT_EQ(routes.size(), 60u);
  for (const bool is_tier1 : {false, true}) {
    for (const bool shortest : {false, true}) {
      const bool len_first = is_tier1 && shortest;
      for (const Route& a : routes) {
        const std::uint32_t rank_a = route_rank(a.cls, a.path_len, len_first);
        const std::uint64_t key_a = selection_key(a, len_first);
        for (const Route& b : routes) {
          SCOPED_TRACE(testing::Message()
                       << "tier1=" << is_tier1 << " shortest=" << shortest
                       << " a=" << to_string(a.origin) << "/" << int(a.cls) << "/"
                       << a.path_len << "/" << a.via << " b=" << to_string(b.origin)
                       << "/" << int(b.cls) << "/" << b.path_len << "/" << b.via);
          const std::uint32_t rank_b = route_rank(b.cls, b.path_len, len_first);
          const std::uint64_t key_b = selection_key(b, len_first);
          // route_rank is the paper's order.
          EXPECT_EQ(rank_a > rank_b, reference_rank_better(a, b, len_first));
          // rank_better compares route_rank; displaces adds the Legit tie.
          EXPECT_EQ(rank_better(a.cls, a.path_len, b.cls, b.path_len, is_tier1,
                                shortest),
                    rank_a > rank_b);
          const bool a_displaces_b =
              displaces(b.origin, b.cls, b.path_len, a.origin, a.cls, a.path_len,
                        is_tier1, shortest);
          EXPECT_EQ(a_displaces_b,
                    rank_a > rank_b ||
                        (rank_a == rank_b && a.origin == kL && b.origin == kA));
          // selection_key: a strict total order that never contradicts
          // displaces, with the lowest via last.
          const bool same = a.origin == b.origin && a.cls == b.cls &&
                            a.path_len == b.path_len && a.via == b.via;
          EXPECT_EQ(key_a == key_b, same);
          if (a_displaces_b) {
            EXPECT_GT(key_a, key_b);
          }
          if (!a_displaces_b && !same &&
              !displaces(a.origin, a.cls, a.path_len, b.origin, b.cls, b.path_len,
                         is_tier1, shortest)) {
            EXPECT_EQ(key_a > key_b, a.via < b.via);
          }
        }
        // No route, ranked 0, is below every route; a self route above.
        EXPECT_EQ(route_rank(RouteClass::None, 0, len_first), 0u);
        EXPECT_GT(key_a, selection_key(Route{}, len_first));
        for (const Origin origin : {kL, kA}) {
          for (const std::uint16_t len : {1, 2, 7}) {
            const Route self{origin, RouteClass::Self, len, kInvalidAs};
            EXPECT_GT(selection_key(self, len_first), key_a);
            EXPECT_TRUE(displaces(a.origin, a.cls, a.path_len, self.origin,
                                  self.cls, self.path_len, is_tier1, shortest));
          }
        }
      }
    }
  }
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
