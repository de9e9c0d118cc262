// End-to-end tests of the query service: router dispatch, the what-if
// endpoints over real loopback sockets, and graceful drain.
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bgp/generation_engine.hpp"
#include "core/scenario.hpp"
#include "defense/deployment.hpp"
#include "detect/detector.hpp"
#include "detect/probe_set.hpp"
#include "obs/config.hpp"
#include "obs/json_parse.hpp"
#include "serve/query_server.hpp"
#include "serve/service.hpp"
#include "serve_support.hpp"
#include "store/snapshot.hpp"

namespace bgpsim::serve {
namespace {

using test::ClientResponse;
using test::http_request;
using test::make_snapshot;

class ServeTest : public testing::Test {
 protected:
  void SetUp() override {
    service_ = std::make_unique<WhatIfService>(make_snapshot(800, 21, 6),
                                               /*workers=*/2);
    QueryServerOptions options;
    options.workers = 2;
    server_ = std::make_unique<QueryServer>(service_->make_router(), options);
    ASSERT_TRUE(server_->start());
    ASSERT_GT(server_->port(), 0);
  }

  void TearDown() override {
    server_->stop();
    EXPECT_FALSE(server_->running());
  }

  std::uint16_t port() const { return server_->port(); }

  std::unique_ptr<WhatIfService> service_;
  std::unique_ptr<QueryServer> server_;
};

TEST_F(ServeTest, TopologyEndpoint) {
  const ClientResponse response = http_request(port(), "GET", "/v1/topology");
  ASSERT_EQ(response.status, 200);
  const obs::JsonValue doc = obs::JsonValue::parse(response.body);
  EXPECT_EQ(doc.number_at("ases"), 800.0);
  EXPECT_GT(doc.number_at("baseline_targets"), 0.0);
  ASSERT_NE(doc.find("baseline_sample"), nullptr);
  EXPECT_FALSE(doc.find("baseline_sample")->items().empty());
  ASSERT_NE(doc.find("transit_sample"), nullptr);
  EXPECT_FALSE(doc.find("transit_sample")->items().empty());
}

TEST_F(ServeTest, SixtyFourSequentialAttacks) {
  const ClientResponse topo = http_request(port(), "GET", "/v1/topology");
  ASSERT_EQ(topo.status, 200);
  const obs::JsonValue doc = obs::JsonValue::parse(topo.body);
  const auto& victims = doc.find("baseline_sample")->items();
  const auto& attackers = doc.find("transit_sample")->items();
  ASSERT_FALSE(victims.empty());
  ASSERT_FALSE(attackers.empty());

  int warm_hits = 0;
  int sent = 0;
  for (int i = 0; sent < 64; ++i) {
    const std::uint64_t victim = victims[i % victims.size()].as_u64();
    const std::uint64_t attacker = attackers[i % attackers.size()].as_u64();
    if (victim == attacker) continue;
    std::string body = "{\"victim\": " + std::to_string(victim) +
                       ", \"attacker\": " + std::to_string(attacker);
    if (i % 3 == 1) body += ", \"deployment_top\": 10";
    if (i % 5 == 2) body += ", \"forged_origin\": true";
    body += "}";
    const ClientResponse response =
        http_request(port(), "POST", "/v1/attack", body);
    ASSERT_EQ(response.status, 200) << "request " << sent << ": " << response.body;
    const obs::JsonValue result = obs::JsonValue::parse(response.body);
    EXPECT_EQ(result.number_at("victim"), static_cast<double>(victim));
    EXPECT_EQ(result.number_at("attacker"), static_cast<double>(attacker));
    ASSERT_NE(result.find("polluted_ases"), nullptr);
    ASSERT_NE(result.find("polluted_fraction"), nullptr);
    ASSERT_NE(result.find("routed_ases"), nullptr);
    ASSERT_NE(result.find("warm"), nullptr);
    EXPECT_GT(result.number_at("routed_ases"), 0.0);
    warm_hits += result.find("warm")->as_bool() ? 1 : 0;
    ++sent;
  }
  // Every victim came from baseline_sample, so each attack warm-started.
  EXPECT_EQ(warm_hits, sent);
}

TEST_F(ServeTest, DetectionFieldsWhenProbesRequested) {
  const ClientResponse topo = http_request(port(), "GET", "/v1/topology");
  const obs::JsonValue doc = obs::JsonValue::parse(topo.body);
  const std::uint64_t victim = doc.find("baseline_sample")->items()[0].as_u64();
  std::uint64_t attacker = doc.find("transit_sample")->items()[0].as_u64();
  if (attacker == victim) {
    attacker = doc.find("transit_sample")->items()[1].as_u64();
  }
  const std::string body = "{\"victim\": " + std::to_string(victim) +
                           ", \"attacker\": " + std::to_string(attacker) +
                           ", \"probes\": 10}";
  const ClientResponse response =
      http_request(port(), "POST", "/v1/attack", body);
  ASSERT_EQ(response.status, 200) << response.body;
  const obs::JsonValue result = obs::JsonValue::parse(response.body);
  const obs::JsonValue* detection = result.find("detection");
  ASSERT_NE(detection, nullptr);
  EXPECT_EQ(detection->number_at("probes"), 10.0);
  ASSERT_NE(detection->find("detected"), nullptr);
  ASSERT_NE(detection->find("triggered"), nullptr);
  ASSERT_NE(detection->find("first_generation"), nullptr);
}

/// The detection latency /v1/attack reports equals a fresh generation-engine
/// replay (reset, legitimate announce, traced attacker announce) for every
/// victim of a decoded snapshot whose baselines carry generation seeds, with
/// and without a deployment.
TEST(ServeDetection, FirstGenerationMatchesAFreshGenerationEngine) {
  store::Snapshot seeded = make_snapshot(1500, 21, 5);
  const Scenario scenario = Scenario::from_snapshot(seeded);
  seeded.baselines.compute_seeds(seeded.graph, scenario.policy());
  store::Snapshot snapshot = store::decode_snapshot(store::encode_snapshot(seeded));
  ASSERT_EQ(snapshot.baselines.seed_count(), snapshot.baselines.size());
  const std::vector<AsId> victims = snapshot.baselines.targets();
  WhatIfService service(std::move(snapshot), /*workers=*/1);
  QueryServerOptions options;
  options.workers = 1;
  QueryServer server(service.make_router(), options);
  ASSERT_TRUE(server.start());

  const AsGraph& graph = scenario.graph();
  const ProbeSet probes = ProbeSet::top_k(graph, 30);
  const ValidatorSet top20 =
      to_filter_set(graph, top_k_deployment(graph, 20)).bitset();
  GenerationEngine reference(graph, scenario.policy());
  const std::vector<AsId>& transits = scenario.transit();
  std::uint32_t detected = 0;
  for (const AsId victim : victims) {
    for (std::size_t k = 0; k < 4; ++k) {
      const AsId attacker = transits[(victim * 7 + 131 * k) % transits.size()];
      if (attacker == victim) continue;
      const bool deployed = k % 2 == 1;
      std::string body = "{\"victim\": " + std::to_string(graph.asn(victim)) +
                         ", \"attacker\": " + std::to_string(graph.asn(attacker)) +
                         ", \"probes\": 30";
      if (deployed) body += ", \"deployment_top\": 20";
      body += "}";
      const ClientResponse response =
          http_request(server.port(), "POST", "/v1/attack", body);
      ASSERT_EQ(response.status, 200) << response.body;
      const obs::JsonValue doc = obs::JsonValue::parse(response.body);
      const obs::JsonValue* detection = doc.find("detection");
      ASSERT_NE(detection, nullptr);
      if (!detection->find("detected")->as_bool()) continue;
      ++detected;

      const ValidatorSet* validators = deployed ? &top20 : nullptr;
      reference.reset();
      reference.announce(victim, Origin::Legit, validators);
      PropagationTrace trace;
      reference.announce(attacker, Origin::Attacker, validators, &trace);
      EXPECT_EQ(detection->number_at("first_generation"),
                static_cast<double>(first_detection_generation(trace, probes)))
          << "victim " << victim << ", attacker " << attacker;
    }
  }
  EXPECT_GT(detected, 5u);
  server.stop();
}

TEST_F(ServeTest, MetricsEndpoint) {
  const ClientResponse response = http_request(port(), "GET", "/metrics");
  ASSERT_EQ(response.status, 200);
#if !defined(BGPSIM_OBS_DISABLED)
  // serve.* counters exist only when instrumentation is compiled in; under
  // -DBGPSIM_OBS=OFF the endpoint still answers 200 with an empty registry.
  EXPECT_NE(response.body.find("serve_requests"), std::string::npos);
#endif
}

TEST_F(ServeTest, HealthzEndpoint) {
  const ClientResponse response = http_request(port(), "GET", "/healthz");
  ASSERT_EQ(response.status, 200);
  EXPECT_EQ(response.body, "ok\n");
}

TEST_F(ServeTest, StatuszEndpoint) {
  const ClientResponse topo = http_request(port(), "GET", "/v1/topology");
  ASSERT_EQ(topo.status, 200);
  const ClientResponse response = http_request(port(), "GET", "/statusz");
  ASSERT_EQ(response.status, 200);
  const obs::JsonValue doc = obs::JsonValue::parse(response.body);
  ASSERT_NE(doc.find("status"), nullptr);
  EXPECT_EQ(doc.find("status")->as_string(), "serving");
  EXPECT_GE(doc.number_at("uptime_seconds"), 0.0);
  ASSERT_NE(doc.find("git_rev"), nullptr);
  EXPECT_EQ(doc.number_at("ases"), 800.0);
  EXPECT_EQ(doc.number_at("workers"), 2.0);
  ASSERT_NE(doc.find("obs_enabled"), nullptr);
  EXPECT_GE(doc.number_at("in_flight"), 0.0);
  // The snapshot checksum must match the one /v1/topology reports: both
  // views describe the same loaded snapshot.
  const obs::JsonValue topo_doc = obs::JsonValue::parse(topo.body);
  ASSERT_NE(doc.find("topology_checksum"), nullptr);
  ASSERT_NE(topo_doc.find("topology_checksum"), nullptr);
  EXPECT_EQ(doc.find("topology_checksum")->as_string(),
            topo_doc.find("topology_checksum")->as_string());
  EXPECT_FALSE(doc.find("topology_checksum")->as_string().empty());
  // Request totals by status class: the counters are process-global, so
  // this test can only pin lower bounds — the /v1/topology hit above plus
  // this very request are already in flight/counted.
  const obs::JsonValue* requests = doc.find("requests");
  ASSERT_NE(requests, nullptr);
  EXPECT_GE(requests->number_at("total"), 2.0);
  EXPECT_GE(requests->number_at("status_2xx"), 1.0);
  ASSERT_NE(requests->find("status_4xx"), nullptr);
  ASSERT_NE(requests->find("status_5xx"), nullptr);
  ASSERT_NE(requests->find("dropped"), nullptr);
}

TEST_F(ServeTest, StatuszSinksEchoTheObsConfig) {
  // An access log and an event log configured; every other sink is not.
  const std::string dir = testing::TempDir() + "serve_statusz_sinks_" +
                          std::to_string(getpid()) + "/";
  obs::Config config;
  config.access_log = dir + "access.ndjson";
  config.eventlog = dir + "events.ndjson";
  obs::start(config);
  const ClientResponse response = http_request(port(), "GET", "/statusz");
  obs::stop();
  ASSERT_EQ(response.status, 200);
  const obs::JsonValue doc = obs::JsonValue::parse(response.body);
  const obs::JsonValue* sinks = doc.find("sinks");
  ASSERT_NE(sinks, nullptr);
  std::vector<std::string> keys;
  for (const auto& [key, value] : sinks->members()) keys.push_back(key);
  EXPECT_EQ(keys, (std::vector<std::string>{"access_log", "eventlog", "profile",
                                            "prom_file", "provenance", "trace"}));
#if defined(BGPSIM_OBS_DISABLED)
  // start() arms nothing: no file is opened and every sink reads "".
  EXPECT_FALSE(std::filesystem::exists(config.eventlog));
  EXPECT_FALSE(std::filesystem::exists(config.access_log));
  for (const auto& [key, value] : sinks->members()) {
    EXPECT_EQ(value.as_string(), "") << key;
  }
#else
  EXPECT_TRUE(std::filesystem::exists(config.eventlog));
  EXPECT_TRUE(std::filesystem::exists(config.access_log));
  for (const auto& [key, value] : sinks->members()) {
    const std::string want = key == "access_log" ? config.access_log
                             : key == "eventlog" ? config.eventlog
                                                 : "";
    EXPECT_EQ(value.as_string(), want) << key;
  }
#endif
  std::filesystem::remove_all(dir);
}

TEST_F(ServeTest, RequestIdMintedWhenAbsent) {
  const ClientResponse response = http_request(port(), "GET", "/healthz");
  ASSERT_EQ(response.status, 200);
  const std::string id = response.header("X-Request-Id");
  ASSERT_FALSE(id.empty());
  EXPECT_EQ(id[0], 'r');  // minted ids look like r<pid>-w<worker>-<seq>
  EXPECT_NE(id.find("-w"), std::string::npos);
  // A second request mints a distinct id.
  const ClientResponse second = http_request(port(), "GET", "/healthz");
  EXPECT_NE(second.header("X-Request-Id"), id);
}

TEST_F(ServeTest, RequestIdPassthroughEcho) {
  const ClientResponse response =
      http_request(port(), "GET", "/healthz", "",
                   "X-Request-Id: trace-abc.123_X\r\n");
  ASSERT_EQ(response.status, 200);
  EXPECT_EQ(response.header("X-Request-Id"), "trace-abc.123_X");
  // Characters outside [A-Za-z0-9._-] are sanitized, not reflected: a
  // client cannot smuggle header/log structure through the id.
  const ClientResponse hostile =
      http_request(port(), "GET", "/healthz", "",
                   "X-Request-Id: a b\"c\r\n");
  EXPECT_EQ(hostile.header("X-Request-Id"), "a-b-c");
}

TEST_F(ServeTest, ErrorStatuses) {
  EXPECT_EQ(http_request(port(), "GET", "/nope").status, 404);
  EXPECT_EQ(http_request(port(), "GET", "/v1/attack").status, 405);
  EXPECT_EQ(http_request(port(), "POST", "/v1/attack", "not json").status, 400);
  EXPECT_EQ(http_request(port(), "POST", "/v1/attack", "{}").status, 400);
  EXPECT_EQ(http_request(port(), "POST", "/v1/attack",
                         "{\"victim\": 1, \"attacker\": 1}")
                .status,
            400);
  EXPECT_EQ(http_request(port(), "POST", "/v1/attack",
                         "{\"victim\": 99999999, \"attacker\": 1}")
                .status,
            400);
  // Body past the configured limit answers 413.
  const std::string huge(70 * 1024, 'x');
  EXPECT_EQ(http_request(port(), "POST", "/v1/attack", huge).status, 413);
}

TEST_F(ServeTest, AttackBadRequestBodies) {
  const obs::JsonValue topo =
      obs::JsonValue::parse(http_request(port(), "GET", "/v1/topology").body);
  const std::string v =
      std::to_string(topo.find("baseline_sample")->items()[0].as_u64());
  std::string a =
      std::to_string(topo.find("transit_sample")->items()[0].as_u64());
  if (a == v) a = std::to_string(topo.find("transit_sample")->items()[1].as_u64());
  const std::string pair = "\"victim\": " + v + ", \"attacker\": " + a;
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"not json", "bad JSON: json: bad literal at offset 0"},
      {"[1]", "request body must be a JSON object"},
      {"{}", "victim and attacker are required"},
      {"{\"victim\": " + v + "}", "victim and attacker are required"},
      {"{\"attacker\": " + a + "}", "victim and attacker are required"},
      {"{\"victim\": \"x\", \"attacker\": " + a + "}",
       "victim must be a number (an ASN)"},
      {"{\"victim\": " + v + ", \"attacker\": true}",
       "attacker must be a number (an ASN)"},
      {"{\"victim\": 99999999, \"attacker\": " + a + "}",
       "unknown victim asn 99999999"},
      {"{\"victim\": " + v + ", \"attacker\": 99999999}",
       "unknown attacker asn 99999999"},
      {"{\"victim\": " + v + ", \"attacker\": " + v + "}",
       "victim and attacker must differ"},
      {"{" + pair + ", \"deployment\": 5}", "deployment must be an array of ASNs"},
      {"{" + pair + ", \"deployment\": [99999999]}",
       "unknown deployment asn 99999999"},
      {"{" + pair + ", \"deployment\": [\"x\"]}",
       "deployment must be a number (an ASN)"},
      {"{" + pair + ", \"deployment_top\": \"5\"}",
       "deployment_top must be a number"},
      {"{" + pair + ", \"probes\": [1]}", "probes must be a number"},
      {"{" + pair + ", \"forged_origin\": 1}", "forged_origin must be a boolean"},
      {"{" + pair + ", \"trace\": \"yes\"}", "trace must be a boolean"},
      // Numbers that used to wrap, truncate or alias a valid value.
      {"{\"victim\": 4294967297, \"attacker\": 9}",
       "victim must be an integer ASN in [0, 4294967295]"},
      {"{\"victim\": " + std::to_string(4294967296ull + std::stoull(v)) +
           ", \"attacker\": " + a + "}",
       "victim must be an integer ASN in [0, 4294967295]"},
      {"{\"victim\": 1.9, \"attacker\": 9}",
       "victim must be an integer ASN in [0, 4294967295]"},
      {"{\"victim\": -1, \"attacker\": " + a + "}",
       "victim must be an integer ASN in [0, 4294967295]"},
      {"{\"victim\": 1e300, \"attacker\": " + a + "}",
       "victim must be an integer ASN in [0, 4294967295]"},
      {"{" + pair + ", \"deployment\": [2.5]}",
       "deployment must be an integer ASN in [0, 4294967295]"},
      {"{" + pair + ", \"probes\": -1}", "probes must be an integer in [0, 2^64)"},
      {"{" + pair + ", \"probes\": 1e300}",
       "probes must be an integer in [0, 2^64)"},
      {"{" + pair + ", \"deployment_top\": -3}",
       "deployment_top must be an integer in [0, 2^64)"},
      {"{" + pair + ", \"deployment_top\": 0.5}",
       "deployment_top must be an integer in [0, 2^64)"},
  };
  for (const auto& [body, message] : cases) {
    const ClientResponse response = http_request(port(), "POST", "/v1/attack", body);
    EXPECT_EQ(response.status, 400) << body;
    EXPECT_EQ(response.body, "{\"error\":\"" + message + "\"}") << body;
  }

  // More probes than ASes is every AS, not the count's low 32 bits (16).
  const ClientResponse clamped = http_request(
      port(), "POST", "/v1/attack", "{" + pair + ", \"probes\": 4294967312}");
  ASSERT_EQ(clamped.status, 200) << clamped.body;
  EXPECT_EQ(obs::JsonValue::parse(clamped.body)
                .find_path({"detection", "probes"})
                ->as_u64(),
            topo.find("ases")->as_u64());
}

TEST_F(ServeTest, StopIsIdempotentAndDrains) {
  server_->stop();
  EXPECT_FALSE(server_->running());
  server_->stop();  // second stop is a no-op
}

TEST(Router, DispatchRules) {
  Router router;
  router.add("GET", "/a", "a", [](const net::HttpRequest&, RequestContext& ctx) {
    return HttpResponse{200, "text/plain",
                        "a:worker=" + std::to_string(ctx.worker)};
  });
  router.add("POST", "/a", "a", [](const net::HttpRequest&, RequestContext&) {
    return HttpResponse{200, "text/plain", "posted"};
  });
  router.add("GET", "/boom", "boom",
             [](const net::HttpRequest&, RequestContext&) -> HttpResponse {
               throw std::runtime_error("handler exploded");
             });
  router.add_prefix("GET", "/jobs/", "job",
                    [](const net::HttpRequest& request, RequestContext&) {
                      return HttpResponse{200, "text/plain", request.target};
                    });

  // dispatch labels every request with the matched route's slug: a 405
  // keeps its path's slug, a 404 is "other".
  RequestContext ctx;
  ctx.worker = 3;
  net::HttpRequest request;
  request.method = "GET";
  request.target = "/a?x=1";  // query string stripped before matching
  EXPECT_EQ(router.dispatch(request, ctx).body, "a:worker=3");
  EXPECT_STREQ(ctx.route, "a");
  request.method = "POST";
  request.target = "/a";
  EXPECT_EQ(router.dispatch(request, ctx).body, "posted");
  request.method = "DELETE";
  EXPECT_EQ(router.dispatch(request, ctx).status, 405);
  EXPECT_STREQ(ctx.route, "a");
  request.method = "GET";
  request.target = "/missing";
  EXPECT_EQ(router.dispatch(request, ctx).status, 404);
  EXPECT_STREQ(ctx.route, "other");
  request.target = "/boom";
  const HttpResponse boom = router.dispatch(request, ctx);
  EXPECT_EQ(boom.status, 500);
  EXPECT_NE(boom.body.find("handler exploded"), std::string::npos);
  EXPECT_STREQ(ctx.route, "boom");
  for (const char* target : {"/jobs/7?x=1", "/jobs/"}) {
    request.method = "GET";
    request.target = target;
    EXPECT_EQ(router.dispatch(request, ctx).body, target);
    EXPECT_STREQ(ctx.route, "job") << target;
    request.method = "POST";
    EXPECT_EQ(router.dispatch(request, ctx).status, 405) << target;
    EXPECT_STREQ(ctx.route, "job") << target;
  }
}

}  // namespace
}  // namespace bgpsim::serve
