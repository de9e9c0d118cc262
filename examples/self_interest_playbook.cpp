// self_interest_playbook: run the paper's §VII playbook for a vulnerable AS —
// analyze, re-home, place strategic filters, and set up detection — printing
// the measured improvement of every step.
//
//   ./examples/self_interest_playbook [total_ases] [seed]
#include <cstdio>

#include "core/advisor.hpp"
#include "core/scenario.hpp"
#include "support/strings.hpp"

using namespace bgpsim;

int main(int argc, char** argv) {
  ScenarioParams params;
  params.topology.total_ases =
      argc > 1 ? static_cast<std::uint32_t>(*parse_u64(argv[1])) : 3000;
  params.topology.seed = argc > 2 ? *parse_u64(argv[2]) : 42;

  const Scenario scenario = Scenario::generate(params);
  const AsGraph& g = scenario.graph();

  // A deep stub in a populated region — the AS 55857 profile.
  AsId target = kInvalidAs;
  std::uint16_t deepest = 0;
  for (AsId v = 0; v < g.num_ases(); ++v) {
    if (!is_stub(g, v) || g.region(v) == 0) continue;
    if (g.ases_in_region(g.region(v)).size() < 60) continue;
    if (scenario.depth()[v] > deepest) {
      deepest = scenario.depth()[v];
      target = v;
    }
  }
  if (target == kInvalidAs) {
    std::fprintf(stderr, "no deep regional stub found; try another seed\n");
    return 1;
  }

  std::printf("client: AS %u — depth %u stub in region '%.*s' (%zu ASes)\n",
              g.asn(target), scenario.depth()[target],
              static_cast<int>(g.region_name(g.region(target)).size()),
              g.region_name(g.region(target)).data(),
              g.ases_in_region(g.region(target)).size());

  SelfInterestAdvisor advisor(scenario);
  AdvisorBudget budget;
  budget.rehome_levels = 2;
  budget.max_filters = 3;
  budget.max_probes = 8;
  budget.attack_sample = 150;
  Rng rng(derive_seed(params.topology.seed, 11));
  const auto report = advisor.advise(target, budget, rng);

  std::printf("\nplaybook results (mean regional ASes compromised per attack):\n");
  for (const auto& step : report.steps) {
    std::printf("  %-56s %8.1f (%5.1f%%)\n", step.action.c_str(),
                step.mean_compromised, 100.0 * step.mean_fraction);
  }
  std::printf("\nrecommended filter placements:");
  for (const Asn asn : report.recommended_filters) std::printf(" AS%u", asn);
  std::printf("\nrecommended detector probes  :");
  for (const Asn asn : report.recommended_probes) std::printf(" AS%u", asn);
  std::printf("\nresidual detection blind-spot rate: %.1f%%\n",
              100.0 * report.detection_miss_rate);
  return 0;
}
