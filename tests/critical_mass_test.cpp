// Tests for the critical-mass finder and the parallel-sweep equivalence.
#include <gtest/gtest.h>

#include "analysis/critical_mass.hpp"
#include "analysis/detector_experiment.hpp"
#include "analysis/vulnerability.hpp"
#include "core/scenario.hpp"
#include "defense/deployment.hpp"
#include "obs/metrics.hpp"
#include "support/error.hpp"

namespace bgpsim {
namespace {

class CriticalMassFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    ScenarioParams params;
    params.topology.total_ases = 1200;
    params.topology.seed = 51;
    scenario_ = std::make_unique<Scenario>(Scenario::generate(params));
    const auto& transits = scenario_->transit();
    attackers_.assign(transits.begin(),
                      transits.begin() + std::min<std::size_t>(60, transits.size()));
    victims_ = {transits[5], transits[17]};
  }
  std::unique_ptr<Scenario> scenario_;
  std::vector<AsId> attackers_;
  std::vector<AsId> victims_;
};

TEST_F(CriticalMassFixture, FindsMinimalCore) {
  const auto result =
      find_critical_mass(scenario_->graph(), scenario_->sim_config(), victims_,
                         attackers_, 0.75);
  ASSERT_TRUE(result.achievable);
  EXPECT_GT(result.core_size, 0u);
  EXPECT_LT(result.core_size, scenario_->graph().num_ases());
  EXPECT_GE(result.achieved_reduction, 0.75);

  // Minimality: one fewer deployer misses the target.
  if (result.core_size > 0) {
    VulnerabilityAnalyzer analyzer(scenario_->graph(), scenario_->sim_config());
    const auto plan = top_k_deployment(scenario_->graph(), result.core_size - 1);
    const FilterSet filters = to_filter_set(scenario_->graph(), plan);
    RunningStats smaller;
    for (const AsId victim : victims_) {
      smaller.merge(analyzer.sweep(victim, attackers_, &filters).stats);
    }
    EXPECT_GT(smaller.mean(), (1.0 - 0.75) * result.baseline_mean);
  }
}

#if !defined(BGPSIM_OBS_DISABLED)
TEST_F(CriticalMassFixture, SearchSweepsEachDeploymentOnce) {
  obs::Counter& sweeps = obs::registry().counter("analysis.sweeps");
  const std::uint64_t before = sweeps.value();
  const auto result =
      find_critical_mass(scenario_->graph(), scenario_->sim_config(), victims_,
                         attackers_, 0.75);
  const std::uint64_t ran = sweeps.value() - before;
  ASSERT_TRUE(result.achievable);

  // Replay the binary search: it moves hi exactly when mid reaches the core.
  std::uint64_t steps = 0;
  for (std::uint32_t lo = 0, hi = scenario_->graph().num_ases(); lo < hi; ++steps) {
    const std::uint32_t mid = lo + (hi - lo) / 2;
    if (mid >= result.core_size) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  // One sweep per victim for the baseline, full deployment and each step.
  EXPECT_EQ(ran, victims_.size() * (2 + steps));
}
#endif

TEST_F(CriticalMassFixture, HigherTargetsNeedBiggerCores) {
  const auto easy = find_critical_mass(scenario_->graph(), scenario_->sim_config(),
                                       victims_, attackers_, 0.5);
  const auto hard = find_critical_mass(scenario_->graph(), scenario_->sim_config(),
                                       victims_, attackers_, 0.9);
  EXPECT_LE(easy.core_size, hard.core_size);
}

TEST_F(CriticalMassFixture, RejectsBadArguments) {
  EXPECT_THROW(find_critical_mass(scenario_->graph(), scenario_->sim_config(), {},
                                  attackers_, 0.5),
               PreconditionError);
  EXPECT_THROW(find_critical_mass(scenario_->graph(), scenario_->sim_config(),
                                  victims_, {}, 0.5),
               PreconditionError);
  EXPECT_THROW(find_critical_mass(scenario_->graph(), scenario_->sim_config(),
                                  victims_, attackers_, 0.0),
               PreconditionError);
  EXPECT_THROW(find_critical_mass(scenario_->graph(), scenario_->sim_config(),
                                  victims_, attackers_, 1.0),
               PreconditionError);
}

// Thread counts the fan-out is checked at: inline, even and odd splits of
// the work, more workers than cores.
constexpr unsigned kThreadCounts[] = {1, 2, 3, 4, 8};

TEST_F(CriticalMassFixture, ParallelSweepMatchesSerial) {
  VulnerabilityAnalyzer serial(scenario_->graph(), scenario_->sim_config(), 1);
  const auto& transits = scenario_->transit();
  const auto a = serial.sweep(victims_[0], transits);
  for (const unsigned threads : kThreadCounts) {
    VulnerabilityAnalyzer parallel(scenario_->graph(), scenario_->sim_config(),
                                   threads);
    const auto b = parallel.sweep(victims_[0], transits);
    EXPECT_EQ(a.pollution, b.pollution) << threads << " threads";
    EXPECT_EQ(a.attackers, b.attackers) << threads << " threads";
  }
}

TEST_F(CriticalMassFixture, ParallelDetectorMatchesSerial) {
  Rng rng(3);
  const auto samples =
      DetectorExperiment(scenario_->graph(), scenario_->sim_config())
          .sample_transit_attacks(200, rng);
  const std::vector<ProbeSet> probes{ProbeSet::top_k(scenario_->graph(), 10),
                                     ProbeSet::tier1(scenario_->tiers())};
  const auto ra = DetectorExperiment(scenario_->graph(), scenario_->sim_config(), 1)
                      .run(samples, probes, 5);
  for (const unsigned threads : kThreadCounts) {
    SCOPED_TRACE(testing::Message() << threads << " threads");
    const auto rb =
        DetectorExperiment(scenario_->graph(), scenario_->sim_config(), threads)
            .run(samples, probes, 5);
    ASSERT_EQ(ra.size(), rb.size());
    for (std::size_t c = 0; c < ra.size(); ++c) {
      EXPECT_EQ(ra[c].label, rb[c].label);
      EXPECT_EQ(ra[c].probe_count, rb[c].probe_count);
      EXPECT_EQ(ra[c].attacks, rb[c].attacks);
      EXPECT_EQ(ra[c].histogram, rb[c].histogram);
      // Exact floating-point equality: every thread count folds the same
      // values in the same (attack) order.
      EXPECT_EQ(ra[c].avg_pollution_by_triggered, rb[c].avg_pollution_by_triggered);
      EXPECT_EQ(ra[c].missed, rb[c].missed);
      EXPECT_EQ(ra[c].missed_fraction, rb[c].missed_fraction);
      EXPECT_EQ(ra[c].missed_pollution.count(), rb[c].missed_pollution.count());
      EXPECT_EQ(ra[c].missed_pollution.mean(), rb[c].missed_pollution.mean());
      EXPECT_EQ(ra[c].missed_pollution.min(), rb[c].missed_pollution.min());
      EXPECT_EQ(ra[c].missed_pollution.max(), rb[c].missed_pollution.max());
      ASSERT_EQ(ra[c].top_undetected.size(), rb[c].top_undetected.size());
      for (std::size_t i = 0; i < ra[c].top_undetected.size(); ++i) {
        EXPECT_EQ(ra[c].top_undetected[i].attacker_asn,
                  rb[c].top_undetected[i].attacker_asn);
        EXPECT_EQ(ra[c].top_undetected[i].target_asn,
                  rb[c].top_undetected[i].target_asn);
        EXPECT_EQ(ra[c].top_undetected[i].pollution,
                  rb[c].top_undetected[i].pollution);
      }
    }
  }
}

}  // namespace
}  // namespace bgpsim
