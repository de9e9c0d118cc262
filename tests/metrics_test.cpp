// Unit tests for topology metrics: tiers, depth, cones, reach.
#include "topology/metrics.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "defense/deployment.hpp"
#include "detect/probe_set.hpp"
#include "topology/graph_builder.hpp"
#include "topology/internet_gen.hpp"

namespace bgpsim {
namespace {

// A small reference Internet:
//
//   tier-1 clique: 1, 2, 3 (mutual peers, no providers)
//   tier-2: 10 (customer of 1 and 2, high degree), 11 (customer of 3)
//   transit chain: 20 (cust of 10), 21 (cust of 20)
//   stubs: 30 (cust of 1; depth 1), 31 (cust of 10; depth 1 w/ tier2 roots),
//          32 (cust of 21; deep), 33 (cust of 20 and 21; multi-homed)
AsGraph make_reference() {
  GraphBuilder b;
  b.add_peer(1, 2);
  b.add_peer(1, 3);
  b.add_peer(2, 3);
  b.add_provider_customer(1, 10);
  b.add_provider_customer(2, 10);
  b.add_provider_customer(3, 11);
  b.add_provider_customer(10, 20);
  b.add_provider_customer(20, 21);
  b.add_provider_customer(1, 30);
  b.add_provider_customer(10, 31);
  b.add_provider_customer(21, 32);
  b.add_provider_customer(20, 33);
  b.add_provider_customer(21, 33);
  // extra links to raise AS 10's degree above the tier-2 threshold
  b.add_peer(10, 11);
  b.add_peer(10, 21);
  return b.build();
}

TEST(Metrics, ClassifiesTier1Clique) {
  const AsGraph g = make_reference();
  const auto tiers = classify_tiers(g, /*tier2_min_degree=*/5);
  std::vector<Asn> tier1_asns;
  for (const AsId v : tiers.tier1) tier1_asns.push_back(g.asn(v));
  EXPECT_EQ(tier1_asns, (std::vector<Asn>{1, 2, 3}));
  for (const AsId v : tiers.tier1) EXPECT_TRUE(tiers.is_tier1[v]);
}

TEST(Metrics, ClassifiesTier2ByDegreeThreshold) {
  const AsGraph g = make_reference();
  // AS 10 has degree 6; AS 11 has degree 2.
  const auto tiers = classify_tiers(g, /*tier2_min_degree=*/5);
  ASSERT_EQ(tiers.tier2.size(), 1u);
  EXPECT_EQ(g.asn(tiers.tier2[0]), 10u);

  // AS 11 is a direct tier-1 customer but has no customers of its own, so it
  // is not transit and never classifies as tier-2, even with a loose bound.
  const auto loose = classify_tiers(g, /*tier2_min_degree=*/2);
  ASSERT_EQ(loose.tier2.size(), 1u);
  EXPECT_EQ(g.asn(loose.tier2[0]), 10u);
}

TEST(Metrics, NonCliqueProviderFreeAsIsExcludedFromTier1) {
  GraphBuilder b;
  b.add_peer(1, 2);
  b.add_peer(1, 3);
  b.add_peer(2, 3);
  b.ensure_as(99);           // provider-free but peers with nobody
  b.add_provider_customer(99, 100);
  const AsGraph g = b.build();
  const auto tiers = classify_tiers(g, 5);
  for (const AsId v : tiers.tier1) EXPECT_NE(g.asn(v), 99u);
}

TEST(Metrics, TransitFlags) {
  const AsGraph g = make_reference();
  const auto transit = transit_flags(g);
  EXPECT_TRUE(transit[g.require(1)]);
  EXPECT_TRUE(transit[g.require(10)]);
  EXPECT_TRUE(transit[g.require(20)]);
  EXPECT_TRUE(transit[g.require(21)]);
  EXPECT_FALSE(transit[g.require(30)]);
  EXPECT_FALSE(transit[g.require(32)]);
  EXPECT_FALSE(transit[g.require(11)] && false);  // 11 has no customers
  EXPECT_FALSE(transit[g.require(11)]);

  const auto list = transit_ases(g);
  EXPECT_EQ(list.size(), 6u);  // 1,2,3,10,20,21
}

TEST(Metrics, DepthFromTier1Only) {
  const AsGraph g = make_reference();
  const auto tiers = classify_tiers(g, 5);
  const auto depth = compute_depth(g, tiers, /*include_tier2=*/false);
  EXPECT_EQ(depth[g.require(1)], 0);
  EXPECT_EQ(depth[g.require(30)], 1);
  EXPECT_EQ(depth[g.require(10)], 1);
  EXPECT_EQ(depth[g.require(31)], 2);
  EXPECT_EQ(depth[g.require(20)], 2);
  EXPECT_EQ(depth[g.require(21)], 3);
  EXPECT_EQ(depth[g.require(32)], 4);
  EXPECT_EQ(depth[g.require(33)], 3);  // min(20,21) depth + 1
}

TEST(Metrics, DepthWithTier2RootsMatchesPaperRedefinition) {
  const AsGraph g = make_reference();
  const auto tiers = classify_tiers(g, 5);
  const auto depth = compute_depth(g, tiers, /*include_tier2=*/true);
  // AS 10 is tier-2, so everything below it shifts up.
  EXPECT_EQ(depth[g.require(10)], 0);
  EXPECT_EQ(depth[g.require(31)], 1);
  EXPECT_EQ(depth[g.require(20)], 1);
  EXPECT_EQ(depth[g.require(21)], 2);
  EXPECT_EQ(depth[g.require(32)], 3);
}

TEST(Metrics, DepthUnreachableWithoutProviderChain) {
  GraphBuilder b;
  b.add_peer(1, 2);
  b.ensure_as(50);  // isolated
  const AsGraph g = b.build();
  const auto depth = compute_depth(g, std::vector<AsId>{g.require(1)});
  EXPECT_EQ(depth[g.require(1)], 0);
  EXPECT_EQ(depth[g.require(2)], kUnreachableDepth);  // peer link is not a provider chain
  EXPECT_EQ(depth[g.require(50)], kUnreachableDepth);
}

TEST(Metrics, CustomerConeSize) {
  const AsGraph g = make_reference();
  // Cone of 10: {10, 20, 21, 31, 32, 33}
  EXPECT_EQ(customer_cone_size(g, g.require(10)), 6u);
  // Cone of a stub is itself.
  EXPECT_EQ(customer_cone_size(g, g.require(30)), 1u);
  // Cone of 20: {20, 21, 32, 33}
  EXPECT_EQ(customer_cone_size(g, g.require(20)), 4u);
}

TEST(Metrics, ReachClimbsProvidersThenDescends) {
  const AsGraph g = make_reference();
  // From stub 30: up to tier-1 1, down its whole cone; peers unusable, so
  // tier-1s 2 and 3 (and 11 and its cone) are NOT reachable.
  // 1's cone: {1, 10, 20, 21, 30, 31, 32, 33}.
  EXPECT_EQ(reach(g, g.require(30)), 8u);
  // From 32: up 21 -> 20 -> 10 -> {1,2}; down cones of all of those.
  // That covers everything except 3 and 11... 10 peers with 11 (unusable).
  // ASes: 32,21,20,10,1,2,30,31,33 = 9.
  EXPECT_EQ(reach(g, g.require(32)), 9u);
}

TEST(Metrics, DegreeHelpers) {
  const AsGraph g = make_reference();
  const auto deg = degrees(g);
  EXPECT_EQ(deg[g.require(10)], 6u);
  const auto top2 = top_k_by_degree(g, 2);
  ASSERT_EQ(top2.size(), 2u);
  EXPECT_EQ(g.asn(top2[0]), 10u);  // degree 6
  const auto big = ases_with_degree_at_least(g, 4);
  // degrees: 10:6, 1:4, 21:4, 20:4 — check membership and ordering.
  ASSERT_GE(big.size(), 2u);
  EXPECT_EQ(g.asn(big[0]), 10u);
  for (std::size_t i = 1; i < big.size(); ++i) {
    EXPECT_GE(g.degree(big[i - 1]), g.degree(big[i]));
  }
}

// top_k_by_degree selects instead of sorting the whole graph; every caller
// still needs exactly a full sort by (degree desc, AsId asc) cut to k.
TEST(Metrics, TopKByDegreeMatchesFullSort) {
  InternetGenParams params;
  params.total_ases = 3000;
  params.seed = 5;
  const AsGraph g = generate_internet(params);
  const std::size_t n = g.num_ases();

  std::vector<AsId> sorted(n);
  for (AsId v = 0; v < n; ++v) sorted[v] = v;
  std::sort(sorted.begin(), sorted.end(), [&g](AsId a, AsId b) {
    return g.degree(a) != g.degree(b) ? g.degree(a) > g.degree(b) : a < b;
  });
  // Many ties, or the AsId tie-break is never exercised.
  std::size_t ties = 0;
  for (std::size_t i = 1; i < 100; ++i) {
    ties += g.degree(sorted[i - 1]) == g.degree(sorted[i]);
  }
  ASSERT_GE(ties, 10u);

  for (const std::size_t k : {std::size_t{0}, std::size_t{1}, std::size_t{17},
                              std::size_t{62}, std::size_t{100}, n - 1, n,
                              n + 7}) {
    SCOPED_TRACE(k);
    const std::vector<AsId> expected(
        sorted.begin(),
        sorted.begin() + static_cast<std::ptrdiff_t>(std::min(k, n)));
    EXPECT_EQ(top_k_by_degree(g, k), expected);
    EXPECT_EQ(top_k_deployment(g, k).deployers, expected);
    if (k == 0) continue;  // a probe set needs at least one probe
    std::vector<AsId> members = expected;
    std::sort(members.begin(), members.end());
    const ProbeSet probes = ProbeSet::top_k(g, k);
    EXPECT_TRUE(std::equal(probes.probes().begin(), probes.probes().end(),
                           members.begin(), members.end()));
  }
}

TEST(Metrics, StubAndMultiHoming) {
  const AsGraph g = make_reference();
  EXPECT_TRUE(is_stub(g, g.require(30)));
  EXPECT_FALSE(is_stub(g, g.require(20)));
  EXPECT_TRUE(is_multi_homed(g, g.require(33)));
  EXPECT_FALSE(is_multi_homed(g, g.require(30)));
  EXPECT_TRUE(is_multi_homed(g, g.require(10), 2));
  EXPECT_FALSE(is_multi_homed(g, g.require(10), 3));
}

}  // namespace
}  // namespace bgpsim
