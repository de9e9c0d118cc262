// Convergence introspection: per-generation decision history of a watched AS
// (set_decision_watch / attack_ex's history facet / render_decision_history).
#include "bgp/introspect.hpp"

#include <string>

#include <gtest/gtest.h>

#include "hijack/hijack_simulator.hpp"
#include "topology/graph_builder.hpp"

namespace bgpsim {
namespace {

// Diamond: 1 over {2,3}, both over 4. When 3 hijacks 4's prefix, AS 1 hears
// the legitimate route via 2 (customer, len 3) and the bogus one via 3
// (customer, len 2) — the shorter bogus path displaces the incumbent.
AsGraph diamond() {
  GraphBuilder b;
  b.add_provider_customer(1, 2);
  b.add_provider_customer(1, 3);
  b.add_provider_customer(2, 4);
  b.add_provider_customer(3, 4);
  return b.build();
}

SimConfig generation_config(const AsGraph& g) {
  SimConfig cfg;
  cfg.engine = EngineKind::Generation;
  cfg.policy.is_tier1.assign(g.num_ases(), 0);
  return cfg;
}

TEST(Introspect, LosingReasonMirrorsPolicy) {
  const Route winner{Origin::Legit, RouteClass::Customer, 3, 0};
  EXPECT_NE(losing_reason(winner, Origin::Legit, RouteClass::Provider, 3,
                          false, true)
                .find("LOCAL_PREF"),
            std::string::npos);
  EXPECT_NE(losing_reason(winner, Origin::Legit, RouteClass::Customer, 5,
                          false, true)
                .find("path len 5 > 3"),
            std::string::npos);
  EXPECT_NE(losing_reason(winner, Origin::Attacker, RouteClass::Customer, 3,
                          false, true)
                .find("legitimate origin"),
            std::string::npos);
  // Tier-1 ASes compare length before LOCAL_PREF.
  EXPECT_NE(losing_reason(winner, Origin::Legit, RouteClass::Customer, 4,
                          true, true)
                .find("tier-1 shortest-path"),
            std::string::npos);
}

TEST(Introspect, AttackExplainedRecordsDecisionHistory) {
  const AsGraph g = diamond();
  HijackSimulator sim(g, generation_config(g));
  DecisionHistory history;
  const AsId watched = g.require(1);
  history.watched = watched;
  const auto result =
      sim.attack_ex(g.require(4), g.require(3), {.history = &history});
  EXPECT_EQ(result.polluted_ases, 1u);  // AS 1 is the one fooled
  EXPECT_EQ(history.watched, watched);

#if defined(BGPSIM_OBS_DISABLED)
  EXPECT_TRUE(history.snapshots.empty());  // introspection compiles out
#else
  ASSERT_FALSE(history.snapshots.empty());
  // The history must end with AS 1 on the attacker's shorter customer route,
  // with the legitimate route as a ranked, explained runner-up.
  const DecisionSnapshot& last = history.snapshots.back();
  EXPECT_EQ(last.selected.origin, Origin::Attacker);
  EXPECT_EQ(last.selected.cls, RouteClass::Customer);
  ASSERT_EQ(last.candidates.size(), 2u);
  EXPECT_TRUE(last.candidates[0].selected);
  EXPECT_EQ(last.candidates[0].rank, 1u);
  EXPECT_EQ(last.candidates[0].origin, Origin::Attacker);
  EXPECT_EQ(last.candidates[1].rank, 2u);
  EXPECT_EQ(last.candidates[1].origin, Origin::Legit);
  EXPECT_NE(last.candidates[1].reason.find("path len 3 > 2"),
            std::string::npos);

  // Earlier in the history the legitimate route was selected (the hijack
  // displaced it), so the history shows the displacement.
  bool saw_legit_selected = false;
  for (const DecisionSnapshot& snap : history.snapshots) {
    if (snap.selected.origin == Origin::Legit) saw_legit_selected = true;
  }
  EXPECT_TRUE(saw_legit_selected);

  // Snapshots are change-driven: consecutive duplicates are collapsed.
  for (std::size_t i = 1; i < history.snapshots.size(); ++i) {
    const auto& a = history.snapshots[i - 1];
    const auto& b = history.snapshots[i];
    EXPECT_TRUE(a.announce_round != b.announce_round ||
                a.generation != b.generation);
  }
#endif

  const std::string rendered = render_decision_history(g, history);
  EXPECT_NE(rendered.find("decision history for AS1"), std::string::npos);
#if !defined(BGPSIM_OBS_DISABLED)
  EXPECT_NE(rendered.find("SELECTED"), std::string::npos);
  EXPECT_NE(rendered.find("attack announce"), std::string::npos);
#endif
}

TEST(Introspect, WatchSurvivesAcrossAnnouncesAndDetaches) {
  const AsGraph g = diamond();
  GenerationEngine engine(g, generation_config(g).policy);
  DecisionHistory history;
  engine.set_decision_watch(g.require(2), &history);
  engine.announce(g.require(4), Origin::Legit);
  engine.set_decision_watch(kInvalidAs, nullptr);
  const auto before = history.snapshots.size();
  engine.announce(g.require(3), Origin::Attacker);
  // After detaching, no further snapshots are recorded.
  EXPECT_EQ(history.snapshots.size(), before);
#if !defined(BGPSIM_OBS_DISABLED)
  EXPECT_FALSE(history.snapshots.empty());
  EXPECT_EQ(history.snapshots.back().selected.origin, Origin::Legit);
#endif
}

}  // namespace
}  // namespace bgpsim
