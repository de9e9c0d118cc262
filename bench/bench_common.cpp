#include "bench_common.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <system_error>

#include "obs/mem.hpp"
#include "obs/metrics.hpp"
#include "topology/metrics.hpp"

namespace bgpsim::bench {

namespace {

/// The live BenchEnv, so print_paper_row can record rows into its report.
BenchEnv* g_active_env = nullptr;

/// Arm every obs sink from the environment, then generate: topology
/// generation's spans and events belong to the run's trace and event log.
Scenario arm_obs_and_generate(std::uint32_t scale, std::uint64_t seed) {
  obs::start(obs::Config::from_env());
  ScenarioParams params;
  params.topology.total_ases = scale;
  params.topology.seed = seed;
  return Scenario::generate(params);
}

}  // namespace

BenchEnv::BenchEnv(const char* slug_in, const char* title)
    : scale(static_cast<std::uint32_t>(env_u64("BGPSIM_SCALE", 8000))),
      seed(env_u64("BGPSIM_SEED", 2014)),
      outdir(env_string("BGPSIM_OUTDIR", ".")),
      slug(slug_in),
      scenario(arm_obs_and_generate(scale, seed)),
      report(slug_in) {
  report.set_seed(seed);
  report.set_scale(scale);
  report.set_topology_checksum(topology_checksum(scenario.graph()));
  report.set_repeat(
      static_cast<std::uint32_t>(env_u64("BGPSIM_REPEAT", 1)));
  g_active_env = this;

  const AsGraph& g = scenario.graph();
  std::printf("================================================================\n");
  std::printf("%s\n", title);
  std::printf("  topology: %u ASes / %llu links (paper: 42697 / 139156), seed %llu\n",
              g.num_ases(), static_cast<unsigned long long>(g.num_links()),
              static_cast<unsigned long long>(seed));
  std::printf("  tier-1 clique: %zu, transit: %zu (%.1f%%), regions: %u\n",
              scenario.tiers().tier1.size(), scenario.transit().size(),
              100.0 * scenario.transit().size() / g.num_ases(),
              g.num_regions());
  std::printf("  (scale with BGPSIM_SCALE=<n>, e.g. 42697 for full paper scale)\n");
  std::printf("================================================================\n");

  // Registry calls (not macros) so run reports carry the topology footprint
  // even under -DBGPSIM_OBS=OFF.
  obs::registry().gauge("mem.topology_bytes_est")
      .set(static_cast<double>(g.memory_bytes()));
}

BenchEnv::~BenchEnv() {
  if (g_active_env == this) g_active_env = nullptr;
  // Final heartbeat, folded profile and trace before the registry snapshot
  // below, so the report sees the campaign-end progress and memory gauges;
  // the explicit publish covers runs where no heartbeat sink was configured.
  obs::stop();
  obs::publish_mem_gauges();
  report.set_total_wall_seconds(wall.elapsed_seconds());

  // Convergence-shape + profiler rollup into the BENCH_*.json extras block.
  // Snapshot once; absent metrics (engine never ran, profiling off) simply
  // produce no extras, so perfdiff baselines stay comparable.
  {
    const obs::RegistrySnapshot snap = obs::registry().snapshot();
    const auto roll = [&](const char* hist, const char* prefix) {
      const auto it = snap.histograms.find(hist);
      if (it == snap.histograms.end() || it->second.count == 0) return;
      const obs::HistogramSnapshot& h = it->second;
      report.add_extra(std::string(prefix) + "_p50", h.approx_quantile(0.50));
      report.add_extra(std::string(prefix) + "_p90", h.approx_quantile(0.90));
      report.add_extra(std::string(prefix) + "_max", h.max);
    };
    roll("engine.frontier_size", "frontier_size");
    roll("engine.frontier_messages", "frontier_messages");
    roll("engine.frontier_gen_us", "frontier_gen_us");
    roll("warm.worklist_peak", "warm_worklist_peak");
    // Populated only when attacks run traced (BGPSIM_PROVENANCE=1): how far
    // pollution spread from the attacker, in hops.
    roll("engine.infection_depth", "infection_depth");
    const auto samples = snap.counters.find("profile.samples");
    if (samples != snap.counters.end()) {
      report.add_extra("profile_samples",
                       static_cast<double>(samples->second));
      const auto dropped = snap.counters.find("profile.samples_dropped");
      report.add_extra("profile_samples_dropped",
                       dropped == snap.counters.end()
                           ? 0.0
                           : static_cast<double>(dropped->second));
    }
  }

  if (env_bool("BGPSIM_OBS_REPORT", true)) {
    const std::string path = out_path(*this, "BENCH_" + slug + ".json");
    if (report.write(path)) {
      std::printf("  run report: %s\n", path.c_str());
    } else {
      std::fprintf(stderr, "  run report: failed to write %s\n", path.c_str());
    }
  }
}

BenchEnv make_env(const char* slug, const char* title) {
  return BenchEnv(slug, title);
}

AsId representative_target(const Scenario& scenario, TargetQuery query, Rng& rng) {
  const AsGraph& g = scenario.graph();
  std::vector<AsId> matches;
  while (true) {
    matches = find_targets(g, scenario.tiers(), scenario.depth(), query);
    if (!matches.empty() || query.depth == 0) break;
    --query.depth;  // fall back to the deepest populated profile
  }
  if (matches.empty()) {
    // Last resort: any stub.
    for (AsId v = 0; v < g.num_ases(); ++v) {
      if (is_stub(g, v)) matches.push_back(v);
    }
  }
  if (matches.size() == 1) return matches.front();
  if (matches.size() > 32) {
    matches = rng.sample_without_replacement(matches, 32);
  }

  // Median vulnerability over a small sampled attacker set.
  VulnerabilityAnalyzer analyzer(g, scenario.sim_config());
  const auto& transits = scenario.transit();
  const std::size_t n_attackers = std::min<std::size_t>(transits.size(), 48);
  const auto attackers = rng.sample_without_replacement(transits, n_attackers);

  std::vector<std::pair<double, AsId>> scored;
  scored.reserve(matches.size());
  for (const AsId candidate : matches) {
    const auto curve = analyzer.sweep(candidate, attackers);
    scored.emplace_back(curve.stats.mean(), candidate);
  }
  std::sort(scored.begin(), scored.end());
  return scored[scored.size() / 2].second;
}

void print_ccdf(const VulnerabilityCurve& curve, std::size_t max_points) {
  const auto compact = downsample_ccdf(curve.curve, max_points);
  std::printf("    pollution>=  attackers\n");
  for (const CcdfPoint& point : compact) {
    std::printf("    %10.0f  %9llu\n", point.threshold,
                static_cast<unsigned long long>(point.count));
  }
}

void print_paper_row(const char* metric, const char* paper_value,
                     const std::string& measured) {
  std::printf("  %-52s paper: %-18s measured: %s\n", metric, paper_value,
              measured.c_str());
  if (g_active_env != nullptr) {
    g_active_env->report.add_row(obs::PaperRow{metric, paper_value, measured});
  }
}

std::string fmt(double value, int digits) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.*f", digits, value);
  return buffer;
}

std::string fmt_count_pct(double value, double fraction, int digits) {
  return fmt(value, digits) + " (" + fmt(100.0 * fraction, digits) + "%)";
}

std::string out_path(const BenchEnv& env, const std::string& file) {
  // Best-effort: a missing output directory should never abort a bench run
  // (the subsequent open reports the real error, if any).
  std::error_code ec;
  std::filesystem::create_directories(env.outdir, ec);
  return env.outdir + "/" + file;
}

}  // namespace bgpsim::bench
