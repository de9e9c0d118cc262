// Concurrency stress battery: every test here puts real threads on the
// shared observability/serving surfaces and lets the TSan lane (and, on
// Clang, -Wthread-safety) arbitrate. These are the races the annotations in
// support/thread_annotations.hpp exist to prevent:
//
//   - N clients hammering the query server while SIGTERM-style drains race
//     each other and the destructor,
//   - /metrics scrapes racing concurrent stops, and a restart racing a
//     drain, on the shared accept loop (net::LoopbackServer),
//   - heartbeat start/stop churn against metric writers and the Prometheus
//     exposition-file rewrite (regression: the stop/join ordering race),
//   - event-log writers against flush()/set_output() churn (regression: a
//     flush racing a writer mid-record),
//   - profiler start/stop churn while SIGPROF samples land in busy threads
//     (the stop-side disarm/unpublish/drain ordering),
//   - parallel_for workers contending on shared relaxed atomics, and a stop
//     raised from inside a worker,
//   - campaign workers pulling samples from one relaxed cursor into a shared
//     round buffer while a cancel lands mid-round,
//   - concurrent metric registration against registry snapshots.
//
// Iteration counts are deliberately small: the battery runs on every lane,
// and TSan's 5-15x slowdown multiplies everything. The point is overlap, not
// volume — each test only needs two operations in flight to expose an
// unsynchronized pair.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "campaign/driver.hpp"
#include "core/scenario.hpp"
#include "net/http_common.hpp"
#include "net/loopback_server.hpp"
#include "obs/config.hpp"
#include "obs/eventlog.hpp"
#include "obs/heartbeat.hpp"
#include "obs/json_parse.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/progress.hpp"
#include "serve/query_server.hpp"
#include "serve/service.hpp"
#include "serve_support.hpp"
#include "store/baseline.hpp"
#include "support/parallel.hpp"

namespace bgpsim {
namespace {

using test::ClientResponse;
using test::http_request;
using test::make_snapshot;

// ---------------------------------------------------------------------------
// Query server: client hammer + concurrent drain
// ---------------------------------------------------------------------------

class QueryServerStress : public testing::Test {
 protected:
  void SetUp() override {
    service_ = std::make_unique<serve::WhatIfService>(make_snapshot(600, 31, 4),
                                                      /*workers=*/3);
    serve::QueryServerOptions options;
    options.workers = 3;
    server_ =
        std::make_unique<serve::QueryServer>(service_->make_router(), options);
    ASSERT_TRUE(server_->start());
    ASSERT_GT(server_->port(), 0);
    ases_ = service_->scenario().graph().num_ases();
  }

  void TearDown() override { server_->stop(); }

  std::string attack_body(std::size_t i) const {
    // ASN 0 is not a valid id in the generated graph; derive ids in [1, n).
    const std::size_t victim = 1 + i % (ases_ - 1);
    std::size_t attacker = 1 + (i + ases_ / 2) % (ases_ - 1);
    if (attacker == victim) attacker = 1 + attacker % (ases_ - 1);
    return "{\"victim\": " + std::to_string(victim) +
           ", \"attacker\": " + std::to_string(attacker) + "}";
  }

  std::unique_ptr<serve::WhatIfService> service_;
  std::unique_ptr<serve::QueryServer> server_;
  std::size_t ases_ = 0;
};

TEST_F(QueryServerStress, ParallelClientsAllSucceed) {
  constexpr int kClients = 4;
  constexpr int kRequestsPerClient = 6;
  std::atomic<int> ok{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([this, c, &ok] {
      for (int r = 0; r < kRequestsPerClient; ++r) {
        const std::size_t i = static_cast<std::size_t>(c * 97 + r);
        const ClientResponse response =
            r % 2 == 0
                ? http_request(server_->port(), "POST", "/v1/attack",
                               attack_body(i))
                : http_request(server_->port(), "GET", "/v1/topology");
        if (response.status == 200) ok.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (std::thread& t : clients) t.join();
  // The server is fully up for the whole phase: every request must land.
  EXPECT_EQ(ok.load(std::memory_order_relaxed), kClients * kRequestsPerClient);
}

TEST_F(QueryServerStress, ConcurrentDrainWhileClientsHammer) {
  const std::uint16_t port = server_->port();
  std::atomic<bool> go{false};
  std::vector<std::thread> clients;
  for (int c = 0; c < 3; ++c) {
    clients.emplace_back([this, c, port, &go] {
      while (!go.load(std::memory_order_acquire)) {
      }
      for (int r = 0; r < 8; ++r) {
        // During a drain any outcome is legitimate (200, 0 on refused
        // connect); the test only demands nothing crashes or hangs.
        (void)http_request(port, "POST", "/v1/attack",
                           attack_body(static_cast<std::size_t>(c * 13 + r)));
      }
    });
  }
  // Two drains race each other and the in-flight clients: exactly one must
  // join the workers, the other must return immediately (the stop/join
  // ordering contract in QueryServer::stop()).
  std::thread drain_a([this, &go] {
    while (!go.load(std::memory_order_acquire)) {
    }
    server_->stop();
  });
  std::thread drain_b([this, &go] {
    while (!go.load(std::memory_order_acquire)) {
    }
    server_->stop();
  });
  go.store(true, std::memory_order_release);
  for (std::thread& t : clients) t.join();
  drain_a.join();
  drain_b.join();
  EXPECT_FALSE(server_->running());
  EXPECT_EQ(server_->port(), 0);

  // The lifecycle must survive the churn: a fresh start()/stop() cycle on
  // the same object works after the racing drains.
  ASSERT_TRUE(server_->start());
  EXPECT_GT(server_->port(), 0);
  EXPECT_EQ(http_request(server_->port(), "GET", "/v1/topology").status, 200);
  server_->stop();
  EXPECT_FALSE(server_->running());
}

// ---------------------------------------------------------------------------
// /metrics exposition server: scrapes racing concurrent stops
// ---------------------------------------------------------------------------

/// The heartbeat's /metrics endpoint: one LoopbackServer worker answering
/// scrapes with a fixed exposition body.
bool start_metrics_endpoint(net::LoopbackServer& server) {
  return server.start(0, /*workers=*/1, [](unsigned /*worker*/, int conn) {
    net::answer_metrics_scrape(conn,
                               [] { return std::string("bgpsim_up 1\n"); });
  });
}

TEST(MetricsHttpStress, ScrapesRaceConcurrentStops) {
  net::LoopbackServer server;
  ASSERT_TRUE(start_metrics_endpoint(server));
  const std::uint16_t port = server.port();
  ASSERT_GT(port, 0);

  std::atomic<bool> go{false};
  std::vector<std::thread> scrapers;
  for (int c = 0; c < 3; ++c) {
    scrapers.emplace_back([port, &go] {
      while (!go.load(std::memory_order_acquire)) {
      }
      for (int r = 0; r < 6; ++r) {
        (void)http_request(port, "GET", "/metrics");
      }
    });
  }
  std::thread stop_a([&server, &go] {
    while (!go.load(std::memory_order_acquire)) {
    }
    server.stop();
  });
  std::thread stop_b([&server, &go] {
    while (!go.load(std::memory_order_acquire)) {
    }
    server.stop();
  });
  go.store(true, std::memory_order_release);
  for (std::thread& t : scrapers) t.join();
  stop_a.join();
  stop_b.join();
  EXPECT_FALSE(server.running());

  // Restart proves stop() left the lifecycle state coherent.
  ASSERT_TRUE(start_metrics_endpoint(server));
  const ClientResponse scrape = http_request(server.port(), "GET", "/metrics");
  EXPECT_EQ(scrape.status, 200);
  EXPECT_EQ(scrape.body, "bgpsim_up 1\n");
  server.stop();
}

// A start() that lands while another thread's stop() is still joining gets
// fresh workers and must not keep the retiring ones alive: they are usually
// still inside their 200 ms poll() when the restart happens, and a shared
// stop flag reset by that start() would leave the drain joining forever.
TEST(LoopbackServerStress, StartDuringDrainRetiresTheOldWorkers) {
  net::LoopbackServer server;
  for (int round = 0; round < 4; ++round) {
    ASSERT_TRUE(start_metrics_endpoint(server));
    std::thread drain([&server] { server.stop(); });
    while (server.running()) {
    }
    ASSERT_TRUE(start_metrics_endpoint(server));
    drain.join();
    ASSERT_TRUE(server.running());
    const ClientResponse scrape =
        http_request(server.port(), "GET", "/metrics");
    EXPECT_EQ(scrape.status, 200);
    server.stop();
    EXPECT_FALSE(server.running());
    EXPECT_EQ(server.port(), 0);
  }
}

// ---------------------------------------------------------------------------
// Heartbeat: start/stop churn vs metric writers vs prom-file rewrites
// ---------------------------------------------------------------------------

// Regression for the stop/join ordering race: heartbeat_stop() used to be
// able to race its own atexit hook (or a second caller) into joining the
// sampler thread twice / joining under the lock the sampler was waiting on.
// The fix moves the handle out under the lifecycle lock and joins outside
// it; this churn loop (with writers and emitters in flight) deadlocked or
// crashed under the old ordering within a handful of iterations under TSan.
TEST(HeartbeatStress, StartStopChurnVsWritersAndPromRewrite) {
  if (!obs::kHeartbeatCompiled) {
    GTEST_SKIP() << "heartbeat sampler compiled out (-DBGPSIM_OBS=OFF)";
  }
  const std::string prom_path = testing::TempDir() + "concstress_prom.txt";
  obs::Config config;
  config.prom_file = prom_path;
  config.heartbeat_secs = 0.05;

  std::atomic<bool> done{false};
  std::vector<std::thread> writers;
  for (int w = 0; w < 2; ++w) {
    writers.emplace_back([w, &done] {
      obs::Counter& counter =
          obs::registry().counter("concstress.heartbeat.writes");
      obs::Gauge& gauge = obs::registry().gauge("concstress.heartbeat.gauge");
      while (!done.load(std::memory_order_acquire)) {
        counter.add(1);
        gauge.set(static_cast<double>(w));
        obs::ProgressTracker::instance().tick(1);
      }
    });
  }
  std::thread emitter([&done] {
    while (!done.load(std::memory_order_acquire)) {
      obs::emit_heartbeat_now();
    }
  });

  obs::ProgressTracker::instance().add_total(1000);
  for (int i = 0; i < 8; ++i) {
    obs::start(config);
    obs::emit_heartbeat_now();
    obs::stop();
  }
  done.store(true, std::memory_order_release);
  for (std::thread& t : writers) t.join();
  emitter.join();
  obs::stop();  // idempotent on an already-stopped sampler

  // The exposition file was rewritten (atomic rename) many times mid-churn;
  // whatever survives must be a complete snapshot, not a torn write.
  std::ifstream prom(prom_path);
  ASSERT_TRUE(prom.good());
  std::stringstream contents;
  contents << prom.rdbuf();
  EXPECT_NE(contents.str().find("progress"), std::string::npos);

  std::remove(prom_path.c_str());
}

// ---------------------------------------------------------------------------
// Profiler: start/stop churn while SIGPROF fires into running threads
// ---------------------------------------------------------------------------

// The SIGPROF handler can interrupt any of the worker threads below and
// record into the ring while the main thread tears the session down. The
// stop path must disarm, unpublish the ring, and drain in-flight recorders
// before freeing — under TSan this loop catches a handler touching a freed
// ring or a drain that never observes the last commit. A tiny ring forces
// the overflow path (release-increment of the drop counter) to run too.
TEST(ProfilerStress, StartStopChurnVsBusyThreads) {
  if (!obs::kProfilerCompiled) {
    GTEST_SKIP() << "profiler compiled out (-DBGPSIM_OBS=OFF)";
  }
  obs::Config config;
  config.profile = testing::TempDir() + "concstress_profile.folded";
  config.profile_hz = 997;
  config.profile_ring = 64;

  std::atomic<bool> done{false};
  std::vector<std::thread> burners;
  for (int w = 0; w < 2; ++w) {
    burners.emplace_back([&done] {
      volatile std::uint64_t x = 1;
      while (!done.load(std::memory_order_acquire)) {
        for (int i = 0; i < 5000; ++i) x = x * 6364136223846793005ull + 1;
      }
    });
  }
  std::thread poller([&done] {
    while (!done.load(std::memory_order_acquire)) {
      (void)obs::profiler_status();  // racing reader of the live ring tallies
    }
  });

  for (int i = 0; i < 8; ++i) {
    obs::start(config);
    ASSERT_TRUE(obs::profiler_status().active);
    volatile std::uint64_t spin = 0;
    for (int j = 0; j < 200000; ++j) spin = spin + j;
    obs::stop();
  }
  done.store(true, std::memory_order_release);
  for (std::thread& t : burners) t.join();
  poller.join();
  obs::stop();  // idempotent on an already-stopped profiler
  EXPECT_FALSE(obs::profiler_status().active);

  std::remove(config.profile.c_str());
}

// ---------------------------------------------------------------------------
// Event log: writers vs flush()/set_output() churn
// ---------------------------------------------------------------------------

// Regression for the flush race: flush() and set_output() run while writer
// threads may be mid-record. Every surviving line must be a complete
// JSON object — a torn line means flush and write interleaved inside the
// stream.
TEST(EventLogStress, WritersRaceFlushAndRetargeting) {
  const std::string log_a = testing::TempDir() + "concstress_events_a.ndjson";
  const std::string log_b = testing::TempDir() + "concstress_events_b.ndjson";
  obs::EventLogSink& sink = obs::EventLogSink::instance();
  sink.set_output(log_a);

  std::atomic<bool> done{false};
  std::vector<std::thread> writers;
  for (int w = 0; w < 3; ++w) {
    writers.emplace_back([w, &done] {
      for (std::uint64_t i = 0; i < 60; ++i) {
        obs::EventRecord ev("stress");
        ev.u64("writer", static_cast<std::uint64_t>(w)).u64("i", i);
        ev.emit();
      }
      done.store(true, std::memory_order_release);
    });
  }
  std::thread flusher([&sink, &done] {
    while (!done.load(std::memory_order_acquire)) {
      sink.flush();
    }
  });
  // Retarget mid-stream: records land in whichever file is current, but
  // every record lands whole in exactly one of them.
  sink.set_output(log_b);
  for (std::thread& t : writers) t.join();
  flusher.join();
  sink.flush();
  sink.set_output("");  // disable and final-flush
  EXPECT_FALSE(sink.enabled());

  std::uint64_t records = 0;
  for (const std::string& path : {log_a, log_b}) {
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
      if (line.empty()) continue;
      ASSERT_FALSE(line.front() != '{' || line.back() != '}')
          << path << ": torn line: " << line;
      const obs::JsonValue record = obs::JsonValue::parse(line);
      if (record.find("writer") != nullptr) ++records;
    }
    std::remove(path.c_str());
  }
  EXPECT_EQ(records, 3u * 60u);
}

// ---------------------------------------------------------------------------
// parallel_for: deliberately contended shared counters, stop, inline runs
// ---------------------------------------------------------------------------

TEST(ParallelForStress, ContendedRelaxedCountersSumExactly) {
  constexpr std::size_t kItems = 20000;
  constexpr unsigned kWorkers = 4;
  std::atomic<std::uint64_t> sum{0};
  std::vector<std::atomic<std::uint8_t>> visits(kItems);
  for (auto& v : visits) v.store(0, std::memory_order_relaxed);

  const std::size_t finished =
      parallel_for(kItems, kWorkers, [&](unsigned /*worker*/, std::size_t i) {
        sum.fetch_add(i, std::memory_order_relaxed);
        visits[i].fetch_add(1, std::memory_order_relaxed);
      });

  // The join in parallel_for is the only synchronization point; after it,
  // relaxed counts must still be exact (atomicity) and each index must have
  // run exactly once.
  EXPECT_EQ(finished, kItems);
  const std::uint64_t expected =
      static_cast<std::uint64_t>(kItems) * (kItems - 1) / 2;
  EXPECT_EQ(sum.load(std::memory_order_relaxed), expected);
  for (std::size_t i = 0; i < kItems; ++i) {
    ASSERT_EQ(visits[i].load(std::memory_order_relaxed), 1u) << "index " << i;
  }
}

TEST(ParallelForStress, BackToBackFanOutsReuseCleanly) {
  std::atomic<std::uint64_t> total{0};
  for (int round = 0; round < 6; ++round) {
    EXPECT_EQ(parallel_for(500, 3,
                           [&](unsigned /*worker*/, std::size_t /*i*/) {
                             total.fetch_add(1, std::memory_order_relaxed);
                           }),
              500u);
  }
  EXPECT_EQ(total.load(std::memory_order_relaxed), 6u * 500u);
}

TEST(ParallelForStress, StopLeavesTheFinishedPrefix) {
  constexpr std::size_t kItems = 20000;
  for (const unsigned workers : {1u, 2u, 4u, 8u}) {
    std::atomic<bool> stop{false};
    std::atomic<std::uint64_t> calls{0};
    std::vector<std::atomic<std::uint8_t>> visits(kItems);
    for (auto& v : visits) v.store(0, std::memory_order_relaxed);

    const std::size_t finished = parallel_for(
        kItems, workers,
        [&](unsigned /*worker*/, std::size_t i) {
          calls.fetch_add(1, std::memory_order_relaxed);
          visits[i].fetch_add(1, std::memory_order_relaxed);
          if (i == 1000) stop.store(true, std::memory_order_relaxed);
        },
        &stop);

    // Every claimed index finishes, and claims are handed out in order, so
    // the indices that ran are exactly [0, finished).
    EXPECT_GT(finished, 1000u) << workers << " workers";
    EXPECT_LT(finished, kItems) << workers << " workers";
    EXPECT_EQ(calls.load(std::memory_order_relaxed), finished)
        << workers << " workers";
    for (std::size_t i = 0; i < kItems; ++i) {
      ASSERT_EQ(visits[i].load(std::memory_order_relaxed), i < finished ? 1u : 0u)
          << workers << " workers, index " << i;
    }
  }
}

TEST(ParallelForStress, EmptyAndSingleWorkerRunsStayInline) {
  EXPECT_EQ(parallel_for(0, 4, [](unsigned, std::size_t) { ADD_FAILURE(); }), 0u);

  // workers 0 and 1 both run on the calling thread, in index order.
  const std::thread::id caller = std::this_thread::get_id();
  for (const unsigned workers : {0u, 1u}) {
    std::vector<std::size_t> order;
    bool inline_only = true;
    EXPECT_EQ(parallel_for(5, workers,
                           [&](unsigned worker, std::size_t i) {
                             inline_only &= worker == 0 &&
                                            std::this_thread::get_id() == caller;
                             order.push_back(i);
                           }),
              5u);
    EXPECT_TRUE(inline_only) << workers << " workers";
    EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
  }

  // A stop raised before the call runs nothing.
  const std::atomic<bool> stop{true};
  EXPECT_EQ(parallel_for(5, 1, [](unsigned, std::size_t) { ADD_FAILURE(); },
                         &stop),
            0u);
}

// ---------------------------------------------------------------------------
// Campaign driver: sample-sharded rounds vs a concurrent cancel
// ---------------------------------------------------------------------------

TEST(CampaignStress, CancelRacesShardedRound) {
  ScenarioParams params;
  params.topology.total_ases = 400;
  params.topology.seed = 5;
  const Scenario scenario = Scenario::generate(params);
  const std::vector<AsId> victims(scenario.transit().begin(),
                                  scenario.transit().begin() + 6);
  const auto baselines = std::make_shared<const store::BaselineStore>(
      store::BaselineStore::compute(scenario.graph(), scenario.policy(), victims));

  campaign::CampaignSpec spec;
  spec.seed = 9;
  spec.sample_budget = 20000;
  spec.batch = 1024;
  spec.probes = 8;
  spec.workers = 8;

  // The test thread raises cancel 64 samples into round 4 (of ~1,024), while
  // the workers are claiming and writing that round's samples: every
  // finished attack ticks progress. With -DBGPSIM_OBS=OFF nothing ticks, and
  // the cancel lands after round 5 instead.
  obs::progress().reset();
  std::atomic<bool> cancel{false};
  std::atomic<std::uint64_t> rounds_seen{0};
  std::atomic<std::uint64_t> samples_seen{0};
  std::thread canceller([&] {
    while (rounds_seen.load(std::memory_order_acquire) < 3) {
      std::this_thread::yield();
    }
    const std::uint64_t mid_round = samples_seen.load(std::memory_order_relaxed) + 64;
    while (obs::progress().done() < mid_round &&
           rounds_seen.load(std::memory_order_acquire) < 5) {
      std::this_thread::yield();
    }
    cancel.store(true, std::memory_order_relaxed);
  });
  const campaign::CampaignResult cancelled = campaign::run_campaign(
      scenario, baselines, spec, &cancel, [&](const campaign::CampaignProgress& p) {
        samples_seen.store(p.samples_done, std::memory_order_relaxed);
        rounds_seen.store(p.rounds, std::memory_order_release);
      });
  canceller.join();
  obs::progress().reset();

  EXPECT_EQ(cancelled.stop_reason, "cancelled");
  ASSERT_FALSE(cancelled.trajectory.empty());
  EXPECT_EQ(cancelled.samples_used, cancelled.trajectory.back().samples);
  std::uint64_t strata_samples = 0;
  for (const campaign::StratumResult& row : cancelled.strata) {
    strata_samples += row.samples;
    // A stratum's budget is its largest-remainder share of the total (at
    // most one over weight × budget), raised to the per-stratum minimum.
    const std::uint64_t budget = std::max<std::uint64_t>(
        spec.min_samples_per_stratum,
        static_cast<std::uint64_t>(row.weight * static_cast<double>(spec.sample_budget)) + 1);
    EXPECT_LE(row.samples, budget) << row.label;
  }
  EXPECT_EQ(cancelled.samples_used, strata_samples);

  // Uncancelled, 8 workers reproduce the 1-worker report field by field;
  // only the worker count and the wall-clock fields may differ.
  spec.sample_budget = 600;
  campaign::CampaignResult eight = campaign::run_campaign(scenario, baselines, spec);
  spec.workers = 1;
  const campaign::CampaignResult one = campaign::run_campaign(scenario, baselines, spec);
  eight.workers = one.workers;
  eight.wall_seconds = one.wall_seconds;
  eight.samples_per_second = one.samples_per_second;
  EXPECT_EQ(campaign::campaign_report_json(eight), campaign::campaign_report_json(one));
}

// ---------------------------------------------------------------------------
// Metrics registry: concurrent registration vs snapshots
// ---------------------------------------------------------------------------

TEST(RegistryStress, ConcurrentRegistrationAndSnapshots) {
  constexpr int kThreads = 4;
  constexpr int kIterations = 150;
  std::atomic<bool> done{false};
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([t] {
      // Same-name registration from every thread must converge on one
      // handle; distinct names must not invalidate anyone else's.
      obs::Counter& shared =
          obs::registry().counter("concstress.registry.shared");
      obs::Counter& mine = obs::registry().counter(
          "concstress.registry.t" + std::to_string(t));
      obs::HistogramMetric& hist = obs::registry().histogram(
          "concstress.registry.hist", obs::HistogramSpec::linear(0, 10, 10));
      for (int i = 0; i < kIterations; ++i) {
        shared.add(1);
        mine.add(1);
        hist.observe(static_cast<double>(i % 10));
      }
    });
  }
  std::thread snapshotter([&done] {
    while (!done.load(std::memory_order_acquire)) {
      (void)obs::registry().snapshot();
    }
  });
  for (std::thread& t : workers) t.join();
  done.store(true, std::memory_order_release);
  snapshotter.join();

  const obs::RegistrySnapshot snap = obs::registry().snapshot();
  EXPECT_EQ(snap.counters.at("concstress.registry.shared"),
            static_cast<std::uint64_t>(kThreads) * kIterations);
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(snap.counters.at("concstress.registry.t" + std::to_string(t)),
              static_cast<std::uint64_t>(kIterations));
  }
  EXPECT_EQ(snap.histograms.at("concstress.registry.hist").count,
            static_cast<std::uint64_t>(kThreads) * kIterations);
}

}  // namespace
}  // namespace bgpsim
