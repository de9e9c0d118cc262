// The five bgpbench workloads, the inputs they generate from a seed, and
// the metric record one run produces.
//
//   attack-mix     42,697 ASes; /v1/attack with deployment_top rotating
//                  none/20/100 over 64 warm victims: warm repair and the
//                  per-request deployment build dominate.
//   attack-detect  the same recipe with probes: 62 and no deployment: the
//                  only workload that runs ProbeSet::top_k and the cold
//                  generation-engine first_generation replay.
//   attack-small   1,000 ASes, bare {victim, attacker}: the handler is tens
//                  of microseconds, so connection handling, routing, the
//                  metrics registry and JSON dominate.
//   campaign       run_campaign over the attack-mix snapshot with 62 probes
//                  and 4 workers until the target CI: the round-barrier
//                  driver's parallelism and the warm per-sample path.
//   sweep-cold     a Fig. 2-style cold sweep: three targets attacked by the
//                  same seeded transit attackers on 4 threads: the cold
//                  EquilibriumEngine path, no warm state and no HTTP.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "core/scenario.hpp"
#include "stats.hpp"

namespace bgpbench {

enum class Kind { Serve, Campaign, Sweep };

/// Body shape of the /v1/attack requests a serve workload sends.
enum class Shape { Mix, Detect, Bare };

struct Workload {
  std::string name;
  Kind kind = Kind::Serve;
  std::uint32_t ases = 42697;
  std::uint32_t victims = 64;  ///< snapshot baseline targets (serve, campaign)
  Shape shape = Shape::Bare;
  /// Open-loop arrival rate (requests/s), fixed once from the seed commit
  /// well below its closed-loop qps (README.md gives the measured ratios).
  double open_rate = 0.0;
  /// Percentile reported as tail_ms, fixed per workload so that at least
  /// ~14 samples lie beyond it at the workload's sample count (a run warns
  /// below 10). With only ten beyond, the percentile varied more between
  /// seeds than the machine did.
  double tail_q = 0.99;
  std::size_t trace_inputs = 0;  ///< inputs the traced pass replays
  // campaign
  std::uint64_t batch = 0;
  double target_ci = 0.0;
  std::uint32_t probes = 0;
  // sweep-cold
  std::uint32_t attackers = 0;
};

const std::vector<Workload>& workloads();

/// nullptr when no workload has that name.
const Workload* find_workload(std::string_view name);

/// The same workload at 1,000 ASes, for the smoke test.
Workload smoke_variant(const Workload& workload);

/// Worker threads of the server, the campaign and the sweep, and client
/// threads of the load generator (the 4 cores of the reference machine).
inline constexpr unsigned kThreads = 4;

struct RunOptions {
  std::uint64_t seed = 2014;
  double seconds = 15.0;
  bool trace = false;
  std::string out_dir;   ///< spans.json / layers.json of a traced run
  std::string work_dir;  ///< scratch (snapshots); removed after the run
  std::string self_exe;  ///< this binary, for worker child processes
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one run measured. `e2e` is printed with --trace 0, `layers` with
/// --trace 1; human-readable `notes` go to stdout before the result line.
struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> e2e;
  std::vector<Metric> layers;
  std::vector<std::string> notes;

  /// Set an end-to-end / per-layer metric; the name must be in
  /// e2e_catalog() / layer_catalog().
  void set_e2e(const std::string& name, double value);
  void set_layer(const std::string& name, double value);
  /// A correctness failure: counted, noted, and makes the run incorrect.
  void fail(const std::string& what);
};

/// Every end-to-end metric (name, unit). Each workload reports all of them,
/// each for its own unit of work (a request, a campaign sample or round, a
/// cold attack); the timings are in reference time (refclock.hpp):
///   setup_s    set-up until the first unit can run (median, more_setup_reps)
///   ops_per_s  units completed per second at full load (median over the
///              ~1 s segments between calibration bursts)
///   p50_ms     median latency of a step (request at full load, campaign
///              round, attack)
///   tail_ms    Workload::tail_q percentile of the same (chunked_percentile)
///   rss_mb     peak RSS (VmHWM) of the working process
const std::vector<std::pair<std::string, std::string>>& e2e_catalog();

/// The timed results of a run in one time base (wall or reference).
struct Timings {
  double setup_s = 0.0;         ///< median set-up
  std::vector<double> rates;    ///< units per second of each load segment
  std::vector<double> step_s;   ///< latency of every step, in the order they ran

  double ops_per_s() const { return median(rates); }
};

/// Set setup_s, ops_per_s, p50_ms and tail_ms from the reference-time
/// values, note both sets, and set the per-layer host.slowdown and
/// e2e.latency_samples.
void report_timings(const Workload& workload, const Timings& wall, const Timings& ref,
                    double slowdown, RunResult& result);

/// Every per-layer metric (name, unit) in output order. A traced run
/// reports all of them; layers a workload never enters read 0, so the
/// request layers of a workload add up to its dispatch time.
const std::vector<std::pair<std::string, std::string>>& layer_catalog();

/// The topology of a workload at a seed (what `bgpsim snapshot save
/// --ases N --seed S` generates).
bgpsim::Scenario make_scenario(const Workload& workload, std::uint64_t seed);

/// The snapshot's victims: seeded distinct transit ASes.
std::vector<bgpsim::AsId> pick_victims(const bgpsim::Scenario& scenario,
                                       std::uint32_t count, std::uint64_t seed);

/// `bgpsim snapshot save` of the workload's topology with `victims` as the
/// baseline targets, written to `path`; returns the CLI's exit code.
int save_snapshot(const Workload& workload, std::uint64_t seed,
                  const bgpsim::Scenario& scenario, const std::vector<bgpsim::AsId>& victims,
                  const std::string& path);

/// topology.generate_s and store.baseline_build_s: Scenario::generate and
/// BaselineStore::compute timed in-process (medians, more_setup_reps).
void time_setup_layers(const Workload& workload, std::uint64_t seed,
                       const std::vector<bgpsim::AsId>& victims, RunResult& result);

/// One /v1/attack request (public ASNs on the wire).
struct AttackRequest {
  bgpsim::AsId victim = bgpsim::kInvalidAs;
  bgpsim::AsId attacker = bgpsim::kInvalidAs;
  std::uint32_t deployment_top = 0;
  std::uint32_t probes = 0;
  std::string body;
};

/// Request stream phases; each has its own counter-based input stream.
enum class Phase : std::uint64_t { Warmup = 1, Closed = 2, Open = 3 };

/// Counter-based request generator: request (phase, i) is a pure function
/// of the seed, so any thread can build any request.
class RequestStream {
 public:
  RequestStream(const bgpsim::Scenario& scenario, std::vector<bgpsim::AsId> victims,
                Shape shape, std::uint64_t seed);

  AttackRequest make(Phase phase, std::uint64_t index) const;

 private:
  const bgpsim::Scenario& scenario_;
  std::vector<bgpsim::AsId> victims_;
  Shape shape_;
  std::uint64_t seed_;
};

/// Run one workload end to end (plus the traced pass when opt.trace).
RunResult run_workload(const Workload& workload, const RunOptions& opt);

// Per-kind runners (serve_load.cpp, batch.cpp); `result` arrives with every
// metric at 0.
void run_serve(const Workload& workload, const RunOptions& opt, RunResult& result);
void run_campaign_workload(const Workload& workload, const RunOptions& opt,
                           RunResult& result);
void run_sweep_workload(const Workload& workload, const RunOptions& opt,
                        RunResult& result);

/// Seconds of a run spent in each measured phase: a warm-up, then the
/// closed loop (end-to-end throughput and latency), then the open loop
/// (per-layer latency at a fixed arrival rate).
struct PhasePlan {
  double warmup_s = 0.0;
  double closed_s = 0.0;
  double open_s = 0.0;
};
PhasePlan plan_phases(double seconds);

/// The sweep-cold work list: the first tier-1 AS, a depth-1 multi-homed
/// stub and the deepest stub, attacked by the same seeded transit
/// attackers. Item k interleaves the targets, so any prefix of the list
/// covers all three alike.
struct SweepPlan {
  std::vector<bgpsim::AsId> targets;
  std::vector<bgpsim::AsId> attackers;

  std::size_t size() const { return targets.size() * attackers.size(); }
  std::pair<bgpsim::AsId, bgpsim::AsId> item(std::size_t k) const {
    return {targets[k % targets.size()], attackers[k / targets.size()]};
  }
};
SweepPlan plan_sweep(const bgpsim::Scenario& scenario, std::uint32_t attackers,
                     std::uint64_t seed);

/// Entry point of `bgpbench worker <campaign|sweep> ...`: the process whose
/// memory and time the batch workloads measure. Prints one JSON line.
int run_worker(const std::string& kind, const std::map<std::string, std::string>& options);

}  // namespace bgpbench
