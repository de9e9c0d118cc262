#include "store/baseline.hpp"

#include <algorithm>
#include <optional>

#include "bgp/equilibrium_engine.hpp"
#include "bgp/generation_engine.hpp"
#include "obs/obs.hpp"
#include "support/assert.hpp"
#include "support/parallel.hpp"

namespace bgpsim::store {
namespace {

// First entry of a target-sorted vector whose target is not below `target`.
template <typename Entries>
auto lower_bound_target(Entries& entries, AsId target) {
  return std::lower_bound(
      entries.begin(), entries.end(), target,
      [](const auto& entry, AsId key) { return entry.first < key; });
}

// One legitimate-only generation-engine run of `target`, diffed against
// its stored table; nullopt when the run differs in anything but via.
std::optional<GenerationSeed> run_seed(GenerationEngine& engine, AsId target,
                                       const RouteTable& table) {
  engine.reset();
  const ConvergeStats stats = engine.announce(target, Origin::Legit);
  if (!stats.converged) return std::nullopt;
  GenerationSeed seed;
  seed.generations = stats.generations;
  for (AsId v = 0; v < table.routes.size(); ++v) {
    const Route& ran = engine.route(v);
    const Route& stored = table.routes[v];
    if (ran.origin != stored.origin || ran.cls != stored.cls ||
        ran.path_len != stored.path_len) {
      return std::nullopt;
    }
    if (ran.via != stored.via) seed.vias.push_back(ViaPatch{v, ran.via});
  }
  return seed;
}

}  // namespace

BaselineStore BaselineStore::compute(const AsGraph& graph,
                                     const PolicyConfig& policy,
                                     std::span<const AsId> targets) {
  BGPSIM_TIMED_SCOPE("store.baseline_compute");
  std::vector<AsId> unique(targets.begin(), targets.end());
  for (const AsId target : unique) {
    BGPSIM_REQUIRE(target < graph.num_ases(), "baseline target out of range");
  }
  std::sort(unique.begin(), unique.end());
  unique.erase(std::unique(unique.begin(), unique.end()), unique.end());

  // One engine per worker, built on the worker; the inputs are checked here
  // so no constructor throws inside parallel_for.
  validate_engine_inputs(graph, policy);
  const unsigned workers = hardware_threads();
  std::vector<std::optional<EquilibriumEngine>> engines(
      worker_count(workers, unique.size()));
  std::vector<RouteTable> tables(unique.size());
  parallel_for(unique.size(), workers, [&](unsigned worker, std::size_t i) {
    std::optional<EquilibriumEngine>& engine = engines[worker];
    if (!engine) engine.emplace(graph, policy);
    engine->compute(unique[i], /*validators=*/nullptr, tables[i]);
    BGPSIM_COUNTER_ADD("store.baselines_computed", 1);
  });

  BaselineStore store;
  store.tables_.reserve(unique.size());
  for (std::size_t i = 0; i < unique.size(); ++i) {
    store.tables_.emplace_back(unique[i], std::move(tables[i]));
  }
  return store;
}

void BaselineStore::compute_seeds(const AsGraph& graph,
                                  const PolicyConfig& policy) {
  BGPSIM_TIMED_SCOPE("store.seed_compute");
  // Check here what would throw inside parallel_for.
  for (const auto& [target, table] : tables_) {
    BGPSIM_REQUIRE(target < graph.num_ases(), "baseline target out of range");
    BGPSIM_REQUIRE(table.routes.size() == graph.num_ases(),
                   "baseline table size does not match the topology");
  }
  validate_engine_inputs(graph, policy);
  const unsigned workers = hardware_threads();
  std::vector<std::optional<GenerationEngine>> engines(
      worker_count(workers, tables_.size()));
  std::vector<std::optional<GenerationSeed>> seeds(tables_.size());
  parallel_for(tables_.size(), workers, [&](unsigned worker, std::size_t i) {
    std::optional<GenerationEngine>& engine = engines[worker];
    if (!engine) engine.emplace(graph, policy);
    seeds[i] = run_seed(*engine, tables_[i].first, tables_[i].second);
  });

  for (std::size_t i = 0; i < tables_.size(); ++i) {
    BGPSIM_ASSERT(seeds[i].has_value(),
                  "generation engine's legitimate-only run of target " +
                      std::to_string(tables_[i].first) +
                      " differs from its baseline beyond via");
  }
  seeds_.clear();
  seeds_.reserve(tables_.size());
  for (std::size_t i = 0; i < tables_.size(); ++i) {
    seeds_.emplace_back(tables_[i].first, std::move(*seeds[i]));
  }
}

std::size_t BaselineStore::verify_seeds(const AsGraph& graph,
                                        const PolicyConfig& policy) {
  if (seeds_.empty()) return 0;
  BGPSIM_TIMED_SCOPE("store.seed_verify");
  const auto checked = std::max_element(
      seeds_.begin(), seeds_.end(), [](const auto& a, const auto& b) {
        return a.second.vias.size() < b.second.vias.size();
      });
  const RouteTable& table = *find(checked->first);
  BGPSIM_REQUIRE(table.routes.size() == graph.num_ases(),
                 "baseline table size does not match the topology");
  GenerationEngine engine(graph, policy);
  const std::optional<GenerationSeed> fresh =
      run_seed(engine, checked->first, table);
  const GenerationSeed& stored = checked->second;
  const auto same_patch = [](const ViaPatch& a, const ViaPatch& b) {
    return a.as == b.as && a.via == b.via;
  };
  if (fresh && fresh->generations == stored.generations &&
      std::equal(fresh->vias.begin(), fresh->vias.end(), stored.vias.begin(),
                 stored.vias.end(), same_patch)) {
    return 0;
  }
  const std::size_t dropped = seeds_.size();
  seeds_.clear();
  BGPSIM_COUNTER_ADD("store.seeds_dropped", dropped);
  return dropped;
}

const RouteTable* BaselineStore::find(AsId target) const {
  const auto it = lower_bound_target(tables_, target);
  if (it == tables_.end() || it->first != target) return nullptr;
  return &it->second;
}

void BaselineStore::put(AsId target, RouteTable table) {
  const auto it = lower_bound_target(tables_, target);
  if (it != tables_.end() && it->first == target) {
    it->second = std::move(table);
    const auto seed = lower_bound_target(seeds_, target);
    if (seed != seeds_.end() && seed->first == target) seeds_.erase(seed);
  } else {
    tables_.emplace(it, target, std::move(table));
  }
}

const GenerationSeed* BaselineStore::find_seed(AsId target) const {
  const auto it = lower_bound_target(seeds_, target);
  if (it == seeds_.end() || it->first != target) return nullptr;
  return &it->second;
}

void BaselineStore::put_seed(AsId target, GenerationSeed seed) {
  BGPSIM_REQUIRE(contains(target), "generation seed for a target without a baseline");
  const auto it = lower_bound_target(seeds_, target);
  if (it != seeds_.end() && it->first == target) {
    it->second = std::move(seed);
  } else {
    seeds_.emplace(it, target, std::move(seed));
  }
}

std::vector<AsId> BaselineStore::targets() const {
  std::vector<AsId> out;
  out.reserve(tables_.size());
  for (const auto& [target, table] : tables_) {
    (void)table;
    out.push_back(target);
  }
  return out;
}

std::uint64_t BaselineStore::memory_bytes() const {
  std::uint64_t total = 0;
  for (const auto& [target, table] : tables_) {
    (void)target;
    total += table.memory_bytes();
  }
  for (const auto& [target, seed] : seeds_) {
    (void)target;
    total += static_cast<std::uint64_t>(seed.vias.capacity()) * sizeof(ViaPatch);
  }
  return total;
}

}  // namespace bgpsim::store
