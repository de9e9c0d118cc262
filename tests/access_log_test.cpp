// Round-trip tests of the serve access log: schema of the NDJSON records,
// seq-vs-file-order agreement, request-id correlation with the X-Request-Id
// response header, slow-request capture, and arming by obs::start/obs::stop
// like every other sink. These tests run requests through a real server and
// point the log at per-test temp files.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "obs/config.hpp"
#include "obs/json_parse.hpp"
#include "serve/query_server.hpp"
#include "serve/service.hpp"
#include "serve_support.hpp"

namespace bgpsim::serve {
namespace {

using test::ClientResponse;
using test::http_request;
using test::make_snapshot;

std::vector<obs::JsonValue> read_ndjson(const std::string& path) {
  std::vector<obs::JsonValue> records;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) records.push_back(obs::JsonValue::parse(line));
  }
  return records;
}

class AccessLogTest : public testing::Test {
 protected:
  void SetUp() override {
    path_ = testing::TempDir() + "access_log_test_" +
            std::to_string(getpid()) + "_" +
            testing::UnitTest::GetInstance()->current_test_info()->name() +
            ".ndjson";

    service_ = std::make_unique<WhatIfService>(make_snapshot(600, 33, 4),
                                               /*workers=*/1);
    QueryServerOptions options;
    options.workers = 1;
    server_ = std::make_unique<QueryServer>(service_->make_router(), options);
    ASSERT_TRUE(server_->start());
  }

  void TearDown() override {
    server_->stop();
    // Close + flush, and drop the per-test file.
    obs::stop();
    std::remove(path_.c_str());
  }

  /// Open the access log at path_ the way every sink is armed.
  void arm(std::uint64_t slow_req_us = 0) {
    obs::Config config;
    config.access_log = path_;
    config.slow_req_us = slow_req_us;
    obs::start(config);
  }

  std::uint16_t port() const { return server_->port(); }

  /// A warm /v1/attack body built from the service's own samples.
  std::string attack_body() {
    const ClientResponse topo = http_request(port(), "GET", "/v1/topology");
    const obs::JsonValue doc = obs::JsonValue::parse(topo.body);
    const std::uint64_t victim =
        doc.find("baseline_sample")->items()[0].as_u64();
    std::uint64_t attacker = doc.find("transit_sample")->items()[0].as_u64();
    if (attacker == victim) {
      attacker = doc.find("transit_sample")->items()[1].as_u64();
    }
    return "{\"victim\": " + std::to_string(victim) +
           ", \"attacker\": " + std::to_string(attacker) + "}";
  }

  std::string path_;
  std::unique_ptr<WhatIfService> service_;
  std::unique_ptr<QueryServer> server_;
};

#if !defined(BGPSIM_OBS_DISABLED)

TEST_F(AccessLogTest, OneSchemaValidRecordPerRequest) {
  arm();
  // /v1/topology (inside attack_body), /v1/attack, /healthz, and a 404.
  const std::string body = attack_body();
  const ClientResponse attack =
      http_request(port(), "POST", "/v1/attack", body);
  ASSERT_EQ(attack.status, 200);
  ASSERT_EQ(http_request(port(), "GET", "/healthz").status, 200);
  ASSERT_EQ(http_request(port(), "GET", "/nope").status, 404);

  const auto records = read_ndjson(path_);
  ASSERT_EQ(records.size(), 4u);
  for (const obs::JsonValue& record : records) {
    // Required keys of every access record (DESIGN.md §12).
    ASSERT_NE(record.find("type"), nullptr);
    EXPECT_EQ(record.find("type")->as_string(), "access");
    for (const char* key :
         {"ts", "seq", "worker", "status", "bytes_out", "queue_wait_us",
          "read_us", "handle_us", "write_us", "total_us"}) {
      EXPECT_NE(record.find(key), nullptr) << "missing " << key;
    }
    ASSERT_NE(record.find("request_id"), nullptr);
    EXPECT_FALSE(record.find("request_id")->as_string().empty());
    ASSERT_NE(record.find("route"), nullptr);
  }

  // seq matches file order even with concurrent emitters (locked at write).
  for (std::size_t i = 1; i < records.size(); ++i) {
    EXPECT_GT(records[i].number_at("seq"), records[i - 1].number_at("seq"));
  }

  // Routes land in request order on this single-connection client.
  EXPECT_EQ(records[0].find("route")->as_string(), "topology");
  EXPECT_EQ(records[1].find("route")->as_string(), "attack");
  EXPECT_EQ(records[2].find("route")->as_string(), "healthz");
  EXPECT_EQ(records[3].find("route")->as_string(), "other");
  EXPECT_EQ(records[3].number_at("status"), 404.0);

  // The attack record carries engine facts and the id echoed to the client.
  const obs::JsonValue& attack_record = records[1];
  ASSERT_NE(attack_record.find("warm"), nullptr);
  EXPECT_TRUE(attack_record.find("warm")->as_bool());
  ASSERT_NE(attack_record.find("generations"), nullptr);
  EXPECT_EQ(attack_record.find("request_id")->as_string(),
            attack.header("X-Request-Id"));
}

TEST_F(AccessLogTest, PassthroughIdReachesLog) {
  arm();
  const ClientResponse response =
      http_request(port(), "GET", "/healthz", "",
                   "X-Request-Id: log-corr-42\r\n");
  ASSERT_EQ(response.status, 200);
  EXPECT_EQ(response.header("X-Request-Id"), "log-corr-42");

  const auto records = read_ndjson(path_);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].find("request_id")->as_string(), "log-corr-42");
}

TEST_F(AccessLogTest, SlowCaptureAttachesParams) {
  // Threshold 1µs: every request is "slow", so the attack body is captured.
  arm(/*slow_req_us=*/1);
  const std::string body = attack_body();
  ASSERT_EQ(http_request(port(), "POST", "/v1/attack", body).status, 200);

  auto records = read_ndjson(path_);
  ASSERT_EQ(records.size(), 2u);  // topology + attack
  const obs::JsonValue& slow_record = records[1];
  ASSERT_NE(slow_record.find("slow"), nullptr);
  EXPECT_TRUE(slow_record.find("slow")->as_bool());
  ASSERT_NE(slow_record.find("params"), nullptr);
  EXPECT_EQ(slow_record.find("params")->as_string(), body);

  // An unreachable threshold captures nothing. Re-arming starts a new log.
  obs::stop();
  arm(/*slow_req_us=*/3600ull * 1000 * 1000);
  ASSERT_EQ(http_request(port(), "POST", "/v1/attack", body).status, 200);
  records = read_ndjson(path_);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].find("slow"), nullptr);
  EXPECT_EQ(records[0].find("params"), nullptr);
}

TEST_F(AccessLogTest, ObsStartAndStopArmTheLog) {
  // Before start, between start and stop, after stop: only the middle
  // request is logged.
  ASSERT_EQ(http_request(port(), "GET", "/healthz", "",
                         "X-Request-Id: before-start\r\n")
                .status,
            200);
  arm();
  ASSERT_EQ(http_request(port(), "GET", "/healthz", "",
                         "X-Request-Id: while-armed\r\n")
                .status,
            200);
  obs::stop();
  ASSERT_EQ(http_request(port(), "GET", "/healthz", "",
                         "X-Request-Id: after-stop\r\n")
                .status,
            200);

  const auto records = read_ndjson(path_);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].find("request_id")->as_string(), "while-armed");
}

#else  // BGPSIM_OBS_DISABLED

TEST_F(AccessLogTest, CompiledOutUnderObsOff) {
  // obs::start arms nothing: no file appears, but requests still flow and
  // the X-Request-Id echo still works.
  arm();
  const ClientResponse response =
      http_request(port(), "GET", "/healthz", "",
                   "X-Request-Id: off-mode\r\n");
  ASSERT_EQ(response.status, 200);
  EXPECT_EQ(response.header("X-Request-Id"), "off-mode");
  EXPECT_TRUE(read_ndjson(path_).empty());
}

#endif  // BGPSIM_OBS_DISABLED

}  // namespace
}  // namespace bgpsim::serve
