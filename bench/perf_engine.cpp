// Performance microbenchmarks (google-benchmark) for the simulation kernels:
// topology generation, metric computation, and both routing engines. These
// back the §III claims (convergence within 5-10 generations; whole-topology
// hijacks fast enough to sweep 42,696 attackers per target).
#include <benchmark/benchmark.h>

#include "bgp/equilibrium_engine.hpp"
#include "bgp/generation_engine.hpp"
#include "core/scenario.hpp"
#include "obs/config.hpp"
#include "support/rng.hpp"
#include "topology/metrics.hpp"

namespace bgpsim {
namespace {

const Scenario& scenario_of_size(std::uint32_t n) {
  static std::map<std::uint32_t, Scenario> cache;
  auto it = cache.find(n);
  if (it == cache.end()) {
    ScenarioParams params;
    params.topology.total_ases = n;
    params.topology.seed = 2014;
    it = cache.emplace(n, Scenario::generate(params)).first;
  }
  return it->second;
}

void BM_GenerateInternet(benchmark::State& state) {
  InternetGenParams params;
  params.total_ases = static_cast<std::uint32_t>(state.range(0));
  params.seed = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(generate_internet(params));
  }
  state.SetItemsProcessed(state.iterations() * params.total_ases);
}
BENCHMARK(BM_GenerateInternet)->Arg(2000)->Arg(8000)->Unit(benchmark::kMillisecond);

void BM_ClassifyAndDepth(benchmark::State& state) {
  const Scenario& scenario = scenario_of_size(static_cast<std::uint32_t>(state.range(0)));
  for (auto _ : state) {
    const auto tiers = classify_tiers(scenario.graph(), 20);
    benchmark::DoNotOptimize(compute_depth(scenario.graph(), tiers, true));
  }
}
BENCHMARK(BM_ClassifyAndDepth)->Arg(8000)->Unit(benchmark::kMillisecond);

void BM_EquilibriumHijack(benchmark::State& state) {
  const Scenario& scenario = scenario_of_size(static_cast<std::uint32_t>(state.range(0)));
  EquilibriumEngine engine(scenario.graph(), scenario.policy());
  Rng rng(7);
  RouteTable table;
  const auto& transits = scenario.transit();
  for (auto _ : state) {
    const AsId target = transits[rng.bounded(transits.size())];
    AsId attacker = transits[rng.bounded(transits.size())];
    if (attacker == target) attacker = transits[0] == target ? transits[1] : transits[0];
    engine.compute_hijack(target, attacker, nullptr, table);
    benchmark::DoNotOptimize(table.routes.data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EquilibriumHijack)->Arg(2000)->Arg(8000)->Unit(benchmark::kMicrosecond);

void BM_GenerationHijack(benchmark::State& state) {
  const Scenario& scenario = scenario_of_size(static_cast<std::uint32_t>(state.range(0)));
  PolicyConfig policy = scenario.policy();
  GenerationEngine engine(scenario.graph(), policy);
  Rng rng(7);
  const auto& transits = scenario.transit();
  std::uint64_t generations = 0;
  std::uint64_t runs = 0;
  for (auto _ : state) {
    const AsId target = transits[rng.bounded(transits.size())];
    AsId attacker = transits[rng.bounded(transits.size())];
    if (attacker == target) attacker = transits[0] == target ? transits[1] : transits[0];
    engine.reset();
    const auto legit = engine.announce(target, Origin::Legit);
    engine.announce(attacker, Origin::Attacker);
    generations += legit.generations;
    ++runs;
    benchmark::DoNotOptimize(engine.count_origin(Origin::Attacker));
  }
  // §III: "Convergence is generally reached within 5 to 10 generations."
  state.counters["avg_generations"] =
      runs ? static_cast<double>(generations) / static_cast<double>(runs) : 0.0;
}
BENCHMARK(BM_GenerationHijack)->Arg(2000)->Arg(8000)->Unit(benchmark::kMillisecond);

void BM_ReachMetric(benchmark::State& state) {
  const Scenario& scenario = scenario_of_size(8000);
  Rng rng(3);
  for (auto _ : state) {
    const AsId v = static_cast<AsId>(rng.bounded(scenario.graph().num_ases()));
    benchmark::DoNotOptimize(reach(scenario.graph(), v));
  }
}
BENCHMARK(BM_ReachMetric)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace bgpsim

// Hand-rolled BENCHMARK_MAIN so the obs sinks bracket the benchmark run:
// BGPSIM_PROFILE=<path> [BGPSIM_PROFILE_HZ=<hz>] arms SIGPROF sampling
// before RunSpecifiedBenchmarks and flushes the folded profile after. This
// bench uses raw google-benchmark (no BenchEnv), so it arms obs itself.
int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  bgpsim::obs::start(bgpsim::obs::Config::from_env());
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  bgpsim::obs::stop();
  return 0;
}
