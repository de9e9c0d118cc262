// Extension bench: closed-loop load generator for the what-if service.
//
// Spins up the real WhatIfService + QueryServer on a loopback port, then
// hammers POST /v1/attack from N concurrent closed-loop clients (one per
// server worker) with randomized warm-hit attack scenarios — victims drawn
// from the snapshot's baseline targets so every attack takes the warm-start
// path, attackers from the transit core, validator deployments rotating
// through {none, top-20, top-100}. Repeats the round at 1, 4, and 8 workers
// and reports requests/sec plus p50/p90/p99 request latency per worker
// count, the numbers the serve perf gate diffs against bench_baselines/.
//
// Knobs: BGPSIM_SERVE_REQUESTS (default 480 requests per worker-count
// round), BGPSIM_TARGETS (default 16 distinct warm victims).
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "obs/json_parse.hpp"
#include "serve/query_server.hpp"
#include "serve/service.hpp"
#include "store/baseline.hpp"
#include "store/snapshot.hpp"
#include "support/env.hpp"
#include "support/parallel.hpp"

using namespace bgpsim;
using namespace bgpsim::bench;

namespace {

/// Minimal blocking loopback HTTP client; returns the status code (0 on
/// transport failure) and the response body.
struct ClientResponse {
  int status = 0;
  std::string body;
};

ClientResponse http_post(std::uint16_t port, const std::string& target,
                         const std::string& body) {
  ClientResponse out;
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return out;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    close(fd);
    return out;
  }
  std::string request = "POST " + target + " HTTP/1.1\r\n";
  request += "Content-Length: " + std::to_string(body.size()) + "\r\n";
  request += "Connection: close\r\n\r\n" + body;
  (void)send(fd, request.data(), request.size(), 0);

  std::string raw;
  char buf[8192];
  for (;;) {
    const ssize_t n = recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    raw.append(buf, static_cast<std::size_t>(n));
  }
  close(fd);

  if (raw.rfind("HTTP/1.1 ", 0) == 0 && raw.size() > 12) {
    out.status = std::stoi(raw.substr(9, 3));
  }
  const std::size_t split = raw.find("\r\n\r\n");
  if (split != std::string::npos) out.body = raw.substr(split + 4);
  return out;
}

double quantile_us(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const auto idx = static_cast<std::size_t>(q * (sorted.size() - 1));
  return sorted[idx];
}

}  // namespace

int main() {
  BenchEnv env =
      make_env("serve_qps", "Extension — what-if service load generator");
  const Scenario& scenario = env.scenario;
  const AsGraph& g = scenario.graph();

  const auto n_requests =
      static_cast<std::size_t>(env_u64("BGPSIM_SERVE_REQUESTS", 480));
  const auto n_targets =
      static_cast<std::uint32_t>(env_u64("BGPSIM_TARGETS", 16));
  const auto& transits = scenario.transit();

  // Snapshot with precomputed baselines: every bench victim is a baseline
  // target, so each /v1/attack warm-starts exactly like a production
  // `bgpsim serve` hit on a prepared snapshot.
  Rng seed_rng(derive_seed(env.seed, 92));
  std::vector<AsId> victims;
  for (std::uint32_t i = 0; i < n_targets; ++i) {
    victims.push_back(transits[seed_rng.bounded(transits.size())]);
  }
  obs::StopWatch baseline_watch;
  store::Snapshot snapshot;
  snapshot.graph = g;
  snapshot.params = scenario.snapshot_params();
  snapshot.baselines =
      store::BaselineStore::compute(g, scenario.policy(), victims);
  env.report.add_phase("baseline_build", baseline_watch.elapsed_seconds());

  const unsigned worker_counts[] = {1, 4, 8};
  BGPSIM_PROGRESS(std::size(worker_counts) * n_requests);

  std::printf("\n%zu requests per round on %u warm victims "
              "(%zu transit ASes, %u ASes)\n",
              n_requests, n_targets, transits.size(), g.num_ases());
  std::printf("  %-8s %10s %10s %10s %10s\n", "workers", "qps", "p50 us",
              "p90 us", "p99 us");

  bool ok = true;
  for (const unsigned workers : worker_counts) {
    // Append, not "w" + to_string: GCC 12 -Werror=restrict false-fires on
    // the operator+ temporaries at -O3.
    std::string phase("w");
    phase += std::to_string(workers);
    BGPSIM_PROGRESS_PHASE(phase.c_str());
    serve::WhatIfService service(snapshot, workers);
    serve::QueryServerOptions options;
    options.workers = workers;
    serve::QueryServer server(service.make_router(), options);
    if (!server.start() || server.port() == 0) {
      std::printf("FAIL: could not start server with %u workers\n", workers);
      return 1;
    }
    const std::uint16_t port = server.port();

    // Closed-loop: one client per server worker, each driving its share of
    // the round back-to-back — offered load tracks service rate, so qps
    // measures capacity rather than queueing.
    std::vector<double> latencies(n_requests, 0.0);
    std::atomic<std::size_t> failures{0};
    obs::StopWatch round_watch;
    const std::size_t share = (n_requests + workers - 1) / workers;
    parallel_for(
        workers, workers,
        [&](unsigned /*worker*/, std::size_t client) {
          Rng rng(derive_seed(env.seed, 1000 + client));
          const std::size_t end = std::min(n_requests, (client + 1) * share);
          for (std::size_t i = client * share; i < end; ++i) {
            BGPSIM_PROGRESS_TICK();
            const AsId victim = victims[rng.bounded(victims.size())];
            AsId attacker = transits[rng.bounded(transits.size())];
            while (attacker == victim) {
              attacker = transits[rng.bounded(transits.size())];
            }
            // The wire API speaks public ASNs, not internal AsIds.
            std::string body = "{\"victim\": " + std::to_string(g.asn(victim)) +
                               ", \"attacker\": " +
                               std::to_string(g.asn(attacker));
            const std::size_t top = i % 3 == 1 ? 20 : (i % 3 == 2 ? 100 : 0);
            if (top > 0) {
              body += ", \"deployment_top\": " + std::to_string(top);
            }
            body += "}";
            obs::StopWatch request_watch;
            const ClientResponse response = http_post(port, "/v1/attack", body);
            latencies[i] = request_watch.elapsed_seconds() * 1e6;
            if (response.status != 200) {
              failures.fetch_add(1, std::memory_order_relaxed);
              continue;
            }
            const obs::JsonValue result = obs::JsonValue::parse(response.body);
            const obs::JsonValue* warm = result.find("warm");
            if (warm == nullptr || !warm->as_bool()) {
              failures.fetch_add(1, std::memory_order_relaxed);
            }
          }
        });
    const double round_seconds = round_watch.elapsed_seconds();
    server.stop();

    const auto failed = failures.load(std::memory_order_relaxed);
    if (failed != 0) {
      std::printf("FAIL: %zu of %zu requests not warm 200s at %u workers\n",
                  failed, n_requests, workers);
      ok = false;
    }

    std::sort(latencies.begin(), latencies.end());
    const double qps =
        round_seconds > 0 ? static_cast<double>(n_requests) / round_seconds : 0;
    const double p50 = quantile_us(latencies, 0.50);
    const double p90 = quantile_us(latencies, 0.90);
    const double p99 = quantile_us(latencies, 0.99);
    std::printf("  %-8u %10.1f %10.1f %10.1f %10.1f\n", workers, qps, p50, p90,
                p99);

    env.report.add_phase(phase + "_round", round_seconds);
    env.report.add_extra(phase + "_qps", qps);
    env.report.add_extra(phase + "_p50_us", p50);
    env.report.add_extra(phase + "_p90_us", p90);
    env.report.add_extra(phase + "_p99_us", p99);
  }

  env.report.add_extra("requests_per_round",
                       static_cast<double>(n_requests));
  print_paper_row("all requests warm 200s", "required", ok ? "yes" : "NO");
  return ok ? 0 : 1;
}
