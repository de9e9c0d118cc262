// Shared environment for the paper-reproduction benches.
//
// Every bench binary regenerates one table/figure of the paper on a
// deterministic synthetic Internet. Environment knobs:
//   BGPSIM_SCALE      — topology size (default 8000; the paper used 42697)
//   BGPSIM_SEED       — topology/workload seed (default 2014)
//   BGPSIM_OUTDIR     — where CSV/SVG/report artifacts land (default ".";
//                       created when missing)
//   BGPSIM_OBS_REPORT — write BENCH_<slug>.json run report (default on)
//   BGPSIM_REPEAT     — repetition index recorded in the run report, so
//                       bgpsim-perfdiff can tell deliberate repeated runs
//                       (perf samples) from accidental duplicates
// The observability knobs (trace, event log, heartbeat/Prometheus, profiler,
// provenance) are the DESIGN.md §7 knob table: BenchEnv arms them with
// obs::start(obs::Config::from_env()) before it generates the topology and
// tears them down with obs::stop() before it writes the run report, so the
// report sees the final heartbeat and profile counters. Benches declare
// their expected workload with BGPSIM_PROGRESS(total_attacks) so heartbeats
// carry a finite ETA; profile.samples{,_dropped} and the
// engine.infection_depth histogram roll into the report extras.
#pragma once

#include <cstdint>
#include <string>

#include "analysis/vulnerability.hpp"
#include "core/scenario.hpp"
#include "obs/obs.hpp"
#include "support/env.hpp"
#include "support/rng.hpp"

namespace bgpsim::bench {

/// One bench run: scenario, env knobs, and the run report that accumulates
/// paper-vs-measured rows plus the metrics-registry snapshot. Construction
/// generates the topology and prints the run header; destruction finalizes
/// wall time, writes BENCH_<slug>.json into BGPSIM_OUTDIR (unless
/// BGPSIM_OBS_REPORT=0), and flushes any active trace. Non-copyable: exactly
/// one report per process (make_env returns it by guaranteed copy elision).
struct BenchEnv {
  BenchEnv(const char* slug, const char* title);
  ~BenchEnv();
  BenchEnv(const BenchEnv&) = delete;
  BenchEnv& operator=(const BenchEnv&) = delete;

  std::uint32_t scale = 8000;
  std::uint64_t seed = 2014;
  std::string outdir = ".";
  std::string slug;
  Scenario scenario;
  obs::RunReport report;
  obs::StopWatch wall;
};

/// Build the standard bench scenario and print the run header. `slug` names
/// the report artifact (BENCH_<slug>.json); `title` is the human header.
BenchEnv make_env(const char* slug, const char* title);

/// Representative target for a topological profile: among the profile's
/// matches, the one with median estimated vulnerability (the paper's AS 98 /
/// AS 35 / AS 55857 are explicitly *representatives* of their classes).
/// Falls back to shallower depths when the profile is unpopulated.
AsId representative_target(const Scenario& scenario, TargetQuery query, Rng& rng);

/// Print a CCDF curve as a compact two-column series.
void print_ccdf(const VulnerabilityCurve& curve, std::size_t max_points = 16);

/// Print one paper-vs-measured comparison row (also recorded into the
/// active BenchEnv's run report).
void print_paper_row(const char* metric, const char* paper_value,
                     const std::string& measured);

/// Fixed-point formatting for bench tables ("86.7", not "86.700000").
std::string fmt(double value, int digits = 1);

/// "<value> (<pct>%)" convenience.
std::string fmt_count_pct(double value, double fraction, int digits = 1);

/// Join BGPSIM_OUTDIR with `file`, creating the directory when missing.
std::string out_path(const BenchEnv& env, const std::string& file);

}  // namespace bgpsim::bench
