// The attack-* workloads: a real `bgpsim serve` child process under load
// from this process (kThreads client threads, each with at most one
// connection open, one connection per request).
//
//   set-up     `bgpsim snapshot save` + server start until /healthz is 200,
//              repeated as more_setup_reps says (the last server stays up)
//   warm-up    closed loop, not measured
//   closed     closed loop on kThreads connections  -> ops_per_s, p50_ms, tail_ms
//   open       fixed-rate open loop, timed from due times
//                                 -> loadgen.open_p50_ms, loadgen.open_tail_ms
//   checks     a seeded 1-in-32 subset of the answers against in-process
//              cold references
//
// Set-up steps and the segments of the timed phases are bracketed by
// calibration bursts (refclock.hpp), which turn their times into reference
// time.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <map>
#include <memory>
#include <optional>
#include <thread>

#include "bgp/equilibrium_engine.hpp"
#include "bgp/generation_engine.hpp"
#include "client.hpp"
#include "defense/deployment.hpp"
#include "detect/detector.hpp"
#include "detect/probe_set.hpp"
#include "ladder.hpp"
#include "obs/json_parse.hpp"
#include "obs/promtext.hpp"
#include "refclock.hpp"
#include "stats.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"
#include "workloads.hpp"

namespace bgpbench {

using namespace bgpsim;

namespace {

/// One response in this many is checked against a cold reference.
constexpr std::uint64_t kCheckEvery = 32;

bool sampled_for_check(std::uint64_t seed, Phase phase, std::uint64_t index) {
  return derive_seed(derive_seed(seed, 0x636865636b + static_cast<std::uint64_t>(phase)),
                     index) %
             kCheckEvery ==
         0;
}

/// A `bgpsim serve` child; destruction stops and reaps it.
class Server {
 public:
  explicit Server(const std::string& snapshot)
      : child_({BGPBENCH_BGPSIM, "serve", "--snapshot", snapshot, "--workers",
                std::to_string(kThreads), "--port", "0"}) {}
  ~Server() { stop(); }

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Read the bound port from the startup line, then poll /healthz.
  bool wait_ready() {
    const std::optional<std::string> line = child_.read_line();
    if (!line) return false;
    const std::size_t at = line->find("127.0.0.1:");
    if (at == std::string::npos) return false;
    port_ = static_cast<std::uint16_t>(std::atoi(line->c_str() + at + 10));
    const double deadline = now_s() + 30.0;
    while (now_s() < deadline) {
      if (http_request(port_, "GET", "/healthz").status == 200) return true;
      sleep_until_s(now_s() + 0.001);
    }
    return false;
  }

  /// SIGTERM and reap; true when it drained and exited 0.
  bool stop() {
    if (!stopped_) {
      stopped_ = true;
      child_.terminate();
      const std::string rest = child_.read_rest();
      clean_ = child_.wait() == 0 && rest.find("drained, exiting") != std::string::npos;
    }
    return clean_;
  }

  pid_t pid() const { return child_.pid(); }
  std::uint16_t port() const { return port_; }

 private:
  Child child_;
  std::uint16_t port_ = 0;
  bool stopped_ = false;
  bool clean_ = false;
};

/// An answer kept for the reference check.
struct SampledAnswer {
  Phase phase = Phase::Closed;
  std::uint64_t index = 0;
  std::string body;
};

struct LoopOutcome {
  std::uint64_t sent = 0;
  std::uint64_t failed = 0;
  std::vector<Segment> segments;   ///< start to last answer, per segment
  /// Per request, in the order they were sent: open loop, due time to
  /// answer; closed loop, send to answer.
  std::vector<Interval> latency;
  std::vector<double> late_s;      ///< open loop: send time past due time
  std::vector<SampledAnswer> sampled;
  std::vector<std::string> failures;

  void absorb(LoopOutcome&& other) {
    sent += other.sent;
    failed += other.failed;
    for (auto& v : other.segments) segments.push_back(v);
    for (auto& v : other.latency) latency.push_back(v);
    for (auto& v : other.late_s) late_s.push_back(v);
    for (auto& v : other.sampled) sampled.push_back(std::move(v));
    for (auto& v : other.failures) failures.push_back(std::move(v));
  }
};

/// Drive one segment: closed loop when `rate` is 0, otherwise an open loop
/// at `rate` requests/s. Request indices start at `next`, which is left
/// past the last one claimed. Returns the merged per-thread outcome.
LoopOutcome drive(std::uint16_t port, const RequestStream& stream, Phase phase,
                  double duration_s, double rate, std::uint64_t seed,
                  std::atomic<std::uint64_t>& next) {
  const std::uint64_t first = next.load();
  const double start_s = now_s() + (rate > 0.0 ? 0.005 : 0.0);
  const double end_s = start_s + duration_s;
  const OpenLoopSchedule schedule{start_s, rate > 0.0 ? rate : 1.0};
  std::vector<LoopOutcome> per_thread(kThreads);
  std::vector<double> last_done(kThreads, start_s);
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      LoopOutcome& out = per_thread[t];
      for (;;) {
        const std::uint64_t i = next.fetch_add(1, std::memory_order_relaxed);
        const AttackRequest request = stream.make(phase, i);
        if (rate > 0.0) {
          if (schedule.due_s(i - first) >= end_s) break;
          sleep_until_s(schedule.due_s(i - first));
        } else if (now_s() >= end_s) {
          break;
        }
        const double sent = now_s();
        const HttpResult response = http_request(port, "POST", "/v1/attack", request.body);
        const double done = now_s();
        ++out.sent;
        last_done[t] = std::max(last_done[t], done);
        if (rate > 0.0) {
          out.latency.push_back(schedule.latency(i - first, done));
          out.late_s.push_back(schedule.lateness_s(i - first, sent));
        } else {
          out.latency.push_back({sent, done});
        }
        if (response.status != 200 ||
            response.body.find("\"warm\":true") == std::string::npos) {
          ++out.failed;
          if (out.failures.size() < 4) {
            out.failures.push_back("status " + std::to_string(response.status) + " for " +
                                   request.body + ": " + response.body.substr(0, 200));
          }
        } else if (sampled_for_check(seed, phase, i)) {
          out.sampled.push_back({phase, i, response.body});
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  LoopOutcome merged;
  for (LoopOutcome& out : per_thread) merged.absorb(std::move(out));
  merged.segments.push_back({{start_s, *std::max_element(last_done.begin(), last_done.end())},
                             static_cast<double>(merged.sent)});
  std::sort(merged.latency.begin(), merged.latency.end(),
            [](const Interval& a, const Interval& b) { return a.from_s < b.from_s; });
  return merged;
}

/// A timed phase: segments of about kBurstEveryS, with a calibration burst
/// before the first segment and after each one.
LoopOutcome drive_timed(std::uint16_t port, const RequestStream& stream, Phase phase,
                        double duration_s, double rate, std::uint64_t seed,
                        ReferenceClock& clock) {
  const int segments = std::max(1, static_cast<int>(std::lround(duration_s / kBurstEveryS)));
  std::atomic<std::uint64_t> next{0};
  LoopOutcome total;
  clock.burst();
  for (int s = 0; s < segments; ++s) {
    total.absorb(drive(port, stream, phase, duration_s / segments, rate, seed, next));
    clock.burst();
  }
  return total;
}

obs::RegistrySnapshot scrape(std::uint16_t port) {
  const HttpResult response = http_request(port, "GET", "/metrics");
  if (response.status != 200) return {};
  return obs::parse_prom_text(response.body);
}

double counter_delta(const obs::RegistrySnapshot& before, const obs::RegistrySnapshot& after,
                     const std::string& name) {
  const auto b = before.counters.find(name);
  const auto a = after.counters.find(name);
  const std::uint64_t vb = b == before.counters.end() ? 0 : b->second;
  const std::uint64_t va = a == after.counters.end() ? 0 : a->second;
  return static_cast<double>(va - vb);
}

/// Quantile of the observations a histogram gained between two scrapes,
/// interpolated inside its doubling buckets.
double histogram_delta_quantile(const obs::RegistrySnapshot& before,
                                const obs::RegistrySnapshot& after, const std::string& name,
                                double q) {
  const auto a = after.histograms.find(name);
  if (a == after.histograms.end()) return 0.0;
  obs::HistogramSnapshot delta = a->second;
  const auto b = before.histograms.find(name);
  if (b != before.histograms.end() && b->second.counts.size() == delta.counts.size()) {
    for (std::size_t i = 0; i < delta.counts.size(); ++i) delta.counts[i] -= b->second.counts[i];
    delta.count -= b->second.count;
  }
  // The exposition drops min/max; bound by the buckets instead.
  delta.min = 0.0;
  delta.max = delta.bounds.empty() ? 0.0 : delta.bounds.back();
  for (std::size_t i = delta.counts.size(); i-- > 0;) {
    if (delta.counts[i] != 0) {
      delta.max = i < delta.bounds.size() ? delta.bounds[i] : 2.0 * delta.bounds.back();
      break;
    }
  }
  return delta.approx_quantile(q);
}

/// Recomputes answers cold, per thread: EquilibriumEngine for pollution and
/// detection, the generation engine for first_generation.
class Referee {
 public:
  Referee(const Scenario& scenario, const std::map<std::uint32_t, FilterSet>& deployments,
          const std::optional<ProbeSet>& probes)
      : scenario_(scenario),
        deployments_(deployments),
        probes_(probes),
        equilibrium_(scenario.graph(), scenario.policy()) {}

  /// Empty when the body matches the reference; otherwise what differs.
  std::string check(const AttackRequest& request, const std::string& body) {
    const AsGraph& graph = scenario_.graph();
    obs::JsonValue doc;
    try {
      doc = obs::JsonValue::parse(body);
    } catch (const Error& e) {
      return std::string("unparseable answer: ") + e.what();
    }
    const ValidatorSet* validators = nullptr;
    std::uint64_t deployed = 0;
    if (request.deployment_top > 0) {
      const FilterSet& filters = deployments_.at(request.deployment_top);
      validators = &filters.bitset();
      deployed = filters.count();
    }
    equilibrium_.compute_hijack(request.victim, request.attacker, validators, table_);
    std::uint64_t polluted = 0;
    for (AsId v = 0; v < graph.num_ases(); ++v) {
      polluted += table_.routes[v].origin == Origin::Attacker && v != request.attacker;
    }
    if (doc.number_at("victim", -1) != static_cast<double>(graph.asn(request.victim)) ||
        doc.number_at("attacker", -1) != static_cast<double>(graph.asn(request.attacker))) {
      return "answer is for another (victim, attacker)";
    }
    if (doc.find("warm") == nullptr || !doc.find("warm")->as_bool()) return "not warm";
    if (doc.number_at("deployment_size", -1) != static_cast<double>(deployed)) {
      return "deployment_size differs from the reference";
    }
    if (doc.number_at("polluted_ases", -1) != static_cast<double>(polluted)) {
      return "polluted_ases " + std::to_string(doc.number_at("polluted_ases", -1)) +
             " != cold reference " + std::to_string(polluted);
    }
    if (request.probes == 0) return {};
    const DetectionOutcome outcome = evaluate_detection(table_, *probes_);
    std::uint32_t first = 0;
    if (outcome.detected()) {
      if (!generation_) generation_.emplace(graph, scenario_.policy());
      generation_->reset();
      generation_->announce(request.victim, Origin::Legit, validators);
      PropagationTrace trace;
      generation_->announce(request.attacker, Origin::Attacker, validators, &trace);
      first = first_detection_generation(trace, *probes_);
    }
    const obs::JsonValue* detection = doc.find("detection");
    if (detection == nullptr) return "detection block missing";
    if (detection->number_at("triggered", -1) != outcome.probes_triggered ||
        detection->find("detected") == nullptr ||
        detection->find("detected")->as_bool() != outcome.detected()) {
      return "detection differs from the cold reference";
    }
    if (detection->number_at("first_generation", -1) != first) {
      return "first_generation differs from the generation-engine reference";
    }
    return {};
  }

 private:
  const Scenario& scenario_;
  const std::map<std::uint32_t, FilterSet>& deployments_;
  const std::optional<ProbeSet>& probes_;
  EquilibriumEngine equilibrium_;
  std::optional<GenerationEngine> generation_;
  RouteTable table_;
};

/// Check every sampled answer on kThreads threads; returns the failures.
std::vector<std::string> check_answers(const Scenario& scenario, const RequestStream& stream,
                                       const std::vector<SampledAnswer>& answers) {
  const AsGraph& graph = scenario.graph();
  std::map<std::uint32_t, FilterSet> deployments;
  std::optional<ProbeSet> probes;
  for (const SampledAnswer& answer : answers) {
    const AttackRequest request = stream.make(answer.phase, answer.index);
    if (request.deployment_top > 0 && !deployments.contains(request.deployment_top)) {
      deployments.emplace(request.deployment_top,
                          to_filter_set(graph, top_k_deployment(graph, request.deployment_top)));
    }
    if (request.probes > 0 && !probes) probes.emplace(ProbeSet::top_k(graph, request.probes));
  }
  std::vector<std::vector<std::string>> failures(kThreads);
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Referee referee(scenario, deployments, probes);
      for (std::size_t k = t; k < answers.size(); k += kThreads) {
        const SampledAnswer& answer = answers[k];
        const std::string why =
            referee.check(stream.make(answer.phase, answer.index), answer.body);
        if (!why.empty()) failures[t].push_back(why);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  std::vector<std::string> all;
  for (auto& f : failures) all.insert(all.end(), f.begin(), f.end());
  return all;
}

}  // namespace

void run_serve(const Workload& workload, const RunOptions& opt, RunResult& result) {
  const Scenario scenario = make_scenario(workload, opt.seed);
  const std::vector<AsId> victims = pick_victims(scenario, workload.victims, opt.seed);
  const RequestStream stream(scenario, victims, workload.shape, opt.seed);
  const std::string snapshot = opt.work_dir + "/world.snap";

  // Set-up, repeated; the last server stays up for the load phases.
  ReferenceClock clock;
  std::vector<double> save_s, startup_s;
  std::vector<Interval> setup;
  std::unique_ptr<Server> server;
  clock.burst();
  while (more_setup_reps(durations(setup))) {
    if (server && !server->stop()) result.fail("set-up server did not drain cleanly");
    server.reset();
    const double t0 = now_s();
    const int rc = save_snapshot(workload, opt.seed, scenario, victims, snapshot);
    const double t1 = now_s();
    if (rc != 0) {
      result.fail("bgpsim snapshot save exited " + std::to_string(rc));
      return;
    }
    server = std::make_unique<Server>(snapshot);
    if (!server->wait_ready()) {
      result.fail("bgpsim serve did not become ready");
      return;
    }
    const double t2 = now_s();
    clock.burst();
    save_s.push_back(t1 - t0);
    startup_s.push_back(t2 - t1);
    setup.push_back({t0, t2});
  }
  const std::uint16_t port = server->port();

  const PhasePlan plan = plan_phases(opt.seconds);
  std::atomic<std::uint64_t> warm_index{0};
  const LoopOutcome warm =
      drive(port, stream, Phase::Warmup, plan.warmup_s, 0.0, opt.seed, warm_index);
  const obs::RegistrySnapshot before = scrape(port);
  const LoopOutcome closed =
      drive_timed(port, stream, Phase::Closed, plan.closed_s, 0.0, opt.seed, clock);
  settle();
  const LoopOutcome open =
      drive_timed(port, stream, Phase::Open, plan.open_s, workload.open_rate, opt.seed, clock);
  const obs::RegistrySnapshot after = scrape(port);

  double roundtrip_us = 0.0;
  if (opt.trace) {
    // Sequential single-connection latency: the request path without any
    // queueing, for net.overhead_us and the parallel-efficiency base.
    const std::size_t n = workload.trace_inputs;
    double total = 0.0;
    settle();
    for (std::size_t i = 0; i < n; ++i) {
      const AttackRequest request = stream.make(Phase::Closed, i);
      const double t0 = now_s();
      const HttpResult response = http_request(port, "POST", "/v1/attack", request.body);
      total += now_s() - t0;
      if (response.status != 200) {
        result.fail("sequential pass: status " + std::to_string(response.status));
      }
    }
    roundtrip_us = n == 0 ? 0.0 : 1e6 * total / static_cast<double>(n);
  }
  const double rss_mb = vm_hwm_mb(server->pid());
  if (!server->stop()) result.fail("bgpsim serve did not drain and exit 0 on SIGTERM");

  for (const LoopOutcome* loop : {&warm, &closed, &open}) {
    result.attempted += loop->sent;
    for (const std::string& f : loop->failures) result.notes.push_back("FAIL " + f);
    if (loop->failed > 0) {
      result.correct = false;
      result.failed += loop->failed;
    }
  }

  std::vector<SampledAnswer> answers;
  for (const LoopOutcome* loop : {&warm, &closed, &open}) {
    answers.insert(answers.end(), loop->sampled.begin(), loop->sampled.end());
  }
  for (const std::string& why : check_answers(scenario, stream, answers)) {
    result.fail("reference check: " + why);
  }
  result.notes.push_back(std::to_string(answers.size()) +
                         " answers checked against cold references");

  // Timings come from the closed loop: with every core busy they follow the
  // cores' speed. The open loop's latency also holds the wake-ups of idle
  // cores and queueing, which grow faster than linearly as the VM slows,
  // so it is a per-layer metric.
  const Timings wall{median(durations(setup)), rates(closed.segments),
                     durations(closed.latency)};
  const Timings ref{median(clock.ref_durations(setup)), clock.ref_rates(closed.segments),
                    clock.ref_durations(closed.latency)};
  report_timings(workload, wall, ref, clock.mean_slowdown(), result);
  result.set_e2e("rss_mb", rss_mb);
  result.notes.push_back("closed loop: " + std::to_string(closed.sent) + " requests on " +
                         std::to_string(kThreads) + " connections; open loop: " +
                         std::to_string(open.sent) + " at " +
                         std::to_string(static_cast<int>(workload.open_rate)) + " req/s");

  // Per-layer: counts and server phases from the untraced phases.
  const double warm_hits = counter_delta(before, after, "serve_attacks_warm");
  const double cold_hits = counter_delta(before, after, "serve_attacks_cold");
  const double pops = counter_delta(before, after, "warm_pops");
  const double repairs = counter_delta(before, after, "warm_repairs");
  const double announces = counter_delta(before, after, "engine_announce_runs");
  result.set_layer("hijack.warm_hit_ratio",
                   warm_hits + cold_hits > 0 ? warm_hits / (warm_hits + cold_hits) : 0.0);
  result.set_layer("bgp.warm_fallbacks", counter_delta(before, after, "warm_fallbacks"));
  result.set_layer("bgp.warm_pops_per_attack", repairs > 0 ? pops / repairs : 0.0);
  result.set_layer("bgp.warm_reselect_ratio",
                   pops > 0 ? counter_delta(before, after, "warm_reselects") / pops : 0.0);
  // attack_with_trace announces twice (legitimate origin, then attacker).
  result.set_layer("bgp.generation_msgs_per_attack",
                   announces > 0
                       ? counter_delta(before, after, "engine_msgs_propagated") / (announces / 2)
                       : 0.0);
  result.set_layer("serve.queue_wait_us_p99",
                   histogram_delta_quantile(before, after, "serve_phase_queue_wait_us", 0.99));
  result.set_layer("serve.handle_us_p50",
                   histogram_delta_quantile(before, after, "serve_phase_handle_us", 0.50));
  result.set_layer("serve.handle_us_p99",
                   histogram_delta_quantile(before, after, "serve_phase_handle_us", 0.99));
  result.set_layer("serve.write_us_p99",
                   histogram_delta_quantile(before, after, "serve_phase_write_us", 0.99));
  const std::vector<double> open_s = durations(open.latency);
  result.set_layer("loadgen.open_p50_ms", 1e3 * median(open_s));
  result.set_layer("loadgen.open_tail_ms", 1e3 * chunked_percentile(open_s, workload.tail_q));
  result.set_layer("loadgen.late_ms_p99", 1e3 * percentile(open.late_s, 0.99));
  result.set_layer("loadgen.sent", static_cast<double>(result.attempted));
  result.set_layer("loadgen.failed", static_cast<double>(result.failed));
  result.set_layer("store.snapshot_save_s", median(save_s));
  result.set_layer("serve.startup_s", median(startup_s));

  if (!opt.trace) return;
  time_setup_layers(workload, opt.seed, victims, result);
  trace_serve(workload, opt, stream, snapshot, result);
  double dispatch_us = 0.0;
  for (const Metric& m : result.layers) {
    if (m.name == "serve.dispatch_us") dispatch_us = m.value;
  }
  result.set_layer("net.roundtrip_us", roundtrip_us);
  result.set_layer("net.overhead_us", roundtrip_us - dispatch_us);
  result.set_layer("serve.parallel_efficiency",
                   roundtrip_us > 0.0 ? wall.ops_per_s() / (kThreads * 1e6 / roundtrip_us) : 0.0);
}

}  // namespace bgpbench
