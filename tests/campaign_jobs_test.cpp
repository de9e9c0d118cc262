// Async campaign jobs over the query service: submit/poll/cancel lifecycle
// through real loopback HTTP, JSON error semantics (404/409/400), the
// registry API itself, and /statusz integration.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/scenario.hpp"
#include "obs/json_parse.hpp"
#include "serve/campaign_jobs.hpp"
#include "serve/query_server.hpp"
#include "serve/service.hpp"
#include "serve_support.hpp"
#include "store/baseline.hpp"

namespace bgpsim::serve {
namespace {

using test::ClientResponse;
using test::http_request;
using test::make_snapshot;

class CampaignJobsTest : public testing::Test {
 protected:
  void SetUp() override {
    service_ = std::make_unique<WhatIfService>(make_snapshot(600, 23, 5),
                                               /*workers=*/2);
    QueryServerOptions options;
    options.workers = 2;
    server_ = std::make_unique<QueryServer>(service_->make_router(), options);
    ASSERT_TRUE(server_->start());
  }

  void TearDown() override { server_->stop(); }

  std::uint16_t port() const { return server_->port(); }

  /// Poll the job until it leaves queued/running (or ~10 s pass).
  obs::JsonValue poll_to_terminal(const std::string& job_id) {
    for (int i = 0; i < 1000; ++i) {
      const ClientResponse response =
          http_request(port(), "GET", "/v1/campaign/" + job_id);
      EXPECT_EQ(response.status, 200) << response.body;
      obs::JsonValue doc = obs::JsonValue::parse(response.body);
      const std::string& state = doc.find("state")->as_string();
      if (state != "queued" && state != "running") return doc;
      usleep(10000);
    }
    ADD_FAILURE() << "job " << job_id << " never reached a terminal state";
    return obs::JsonValue::parse("{}");
  }

  std::unique_ptr<WhatIfService> service_;
  std::unique_ptr<QueryServer> server_;
};

TEST_F(CampaignJobsTest, SubmitPollCompleteLifecycle) {
  const ClientResponse submit = http_request(
      port(), "POST", "/v1/campaign",
      "{\"samples\": 800, \"batch\": 200, \"seed\": 4, \"probes\": 8}");
  ASSERT_EQ(submit.status, 202) << submit.body;
  const obs::JsonValue accepted = obs::JsonValue::parse(submit.body);
  const std::string job_id = accepted.find("job_id")->as_string();
  EXPECT_EQ(accepted.find("state")->as_string(), "queued");
  EXPECT_EQ(accepted.find("poll")->as_string(), "/v1/campaign/" + job_id);
  ASSERT_FALSE(job_id.empty());

  const obs::JsonValue done = poll_to_terminal(job_id);
  EXPECT_EQ(done.find("state")->as_string(), "done");
  EXPECT_GT(done.number_at("samples_done"), 0.0);
  EXPECT_EQ(done.number_at("sample_budget"), 800.0);
  EXPECT_GT(done.number_at("rounds"), 0.0);
  EXPECT_GT(done.number_at("pooled_mean"), 0.0);

  // Finished jobs carry the canonical campaign report inline.
  const obs::JsonValue* result = done.find("result");
  ASSERT_NE(result, nullptr);
  EXPECT_EQ(result->find("schema")->as_string(), "bgpsim.campaign.v1");
  EXPECT_EQ(result->find("stop_reason")->as_string(), "budget_exhausted");
  ASSERT_NE(result->find("pooled"), nullptr);
  ASSERT_NE(result->find("strata"), nullptr);
  EXPECT_FALSE(result->find("strata")->items().empty());
  ASSERT_NE(result->find("ci_trajectory"), nullptr);

  // The same seed through the registry API gives the identical report —
  // the HTTP surface adds no nondeterminism.
  campaign::CampaignSpec spec;
  spec.sample_budget = 800;
  spec.batch = 200;
  spec.seed = 4;
  spec.probes = 8;
  spec.workers = 2;
  const std::uint64_t direct = service_->campaigns().submit(spec);
  for (int i = 0; i < 1000; ++i) {
    const auto snap = service_->campaigns().get(direct);
    ASSERT_TRUE(snap.has_value());
    if (snap->state == CampaignJobState::Done) {
      // Same seed, same spec: every estimate matches bit-for-bit (only the
      // wall-clock fields of the reports legitimately differ).
      const auto http_snap = service_->campaigns().get(1);
      ASSERT_TRUE(http_snap.has_value());
      const obs::JsonValue a = obs::JsonValue::parse(snap->result_json);
      const obs::JsonValue b = obs::JsonValue::parse(http_snap->result_json);
      EXPECT_EQ(a.number_at("samples_used"), b.number_at("samples_used"));
      EXPECT_EQ(a.number_at("rounds"), b.number_at("rounds"));
      EXPECT_EQ(a.find("pooled")->number_at("mean_fraction"),
                b.find("pooled")->number_at("mean_fraction"));
      EXPECT_EQ(a.find("pooled")->number_at("ci_half_width"),
                b.find("pooled")->number_at("ci_half_width"));
      EXPECT_EQ(a.find("strata")->items().size(),
                b.find("strata")->items().size());
      EXPECT_EQ(a.find("ci_trajectory")->items().size(),
                b.find("ci_trajectory")->items().size());
      return;
    }
    usleep(10000);
  }
  FAIL() << "direct submission never completed";
}

TEST_F(CampaignJobsTest, UnknownAndMalformedIdsAre404) {
  EXPECT_EQ(http_request(port(), "GET", "/v1/campaign/c999").status, 404);
  EXPECT_EQ(http_request(port(), "DELETE", "/v1/campaign/c999").status, 404);
  EXPECT_EQ(http_request(port(), "GET", "/v1/campaign/bogus").status, 404);
  EXPECT_EQ(http_request(port(), "GET", "/v1/campaign/").status, 404);
  // Wrong method on the wildcard is a 405, not a silent 404.
  EXPECT_EQ(http_request(port(), "PUT", "/v1/campaign/c1").status, 405);
}

TEST_F(CampaignJobsTest, BadSubmissionsAre400) {
  EXPECT_EQ(http_request(port(), "POST", "/v1/campaign", "not json").status,
            400);
  EXPECT_EQ(http_request(port(), "POST", "/v1/campaign", "[1,2]").status, 400);
  EXPECT_EQ(
      http_request(port(), "POST", "/v1/campaign", "{\"samples\": 0}").status,
      400);
  EXPECT_EQ(http_request(port(), "POST", "/v1/campaign",
                         "{\"samples\": \"many\"}")
                .status,
            400);
  EXPECT_EQ(http_request(port(), "POST", "/v1/campaign",
                         "{\"samples\": 10, \"target_ci\": -0.5}")
                .status,
            400);
  // Negative or fractional counts are rejected, not read as 0 or truncated.
  for (const char* body : {"{\"samples\": 10, \"workers\": -1}",
                           "{\"samples\": 1.5}",
                           "{\"samples\": 10, \"probes\": 1e300}"}) {
    const ClientResponse response =
        http_request(port(), "POST", "/v1/campaign", body);
    EXPECT_EQ(response.status, 400) << body;
    EXPECT_NE(response.body.find("must be an integer in [0, 2^64)"),
              std::string::npos)
        << response.body;
  }
}

TEST_F(CampaignJobsTest, CancelStopsARunningJobAndRepeatCancelIs409) {
  // Big enough that it cannot finish before the cancel lands.
  const ClientResponse submit = http_request(
      port(), "POST", "/v1/campaign",
      "{\"samples\": 10000000, \"batch\": 500, \"workers\": 1}");
  ASSERT_EQ(submit.status, 202) << submit.body;
  const std::string job_id =
      obs::JsonValue::parse(submit.body).find("job_id")->as_string();

  const ClientResponse cancel =
      http_request(port(), "DELETE", "/v1/campaign/" + job_id);
  ASSERT_EQ(cancel.status, 200) << cancel.body;
  EXPECT_EQ(obs::JsonValue::parse(cancel.body).find("state")->as_string(),
            "cancelling");

  const obs::JsonValue done = poll_to_terminal(job_id);
  EXPECT_EQ(done.find("state")->as_string(), "cancelled");
  // Partial estimates stay inspectable after cancellation.
  EXPECT_LT(done.number_at("samples_done"), 10000000.0);

  const ClientResponse again =
      http_request(port(), "DELETE", "/v1/campaign/" + job_id);
  EXPECT_EQ(again.status, 409) << again.body;
}

TEST_F(CampaignJobsTest, StatuszCountsCampaignJobs) {
  const ClientResponse submit =
      http_request(port(), "POST", "/v1/campaign", "{\"samples\": 200}");
  ASSERT_EQ(submit.status, 202);
  const std::string job_id =
      obs::JsonValue::parse(submit.body).find("job_id")->as_string();
  poll_to_terminal(job_id);

  const ClientResponse statusz = http_request(port(), "GET", "/statusz");
  ASSERT_EQ(statusz.status, 200);
  const obs::JsonValue doc = obs::JsonValue::parse(statusz.body);
  const obs::JsonValue* jobs = doc.find("campaign");
  ASSERT_NE(jobs, nullptr);
  EXPECT_GE(jobs->number_at("jobs"), 1.0);
  EXPECT_GE(jobs->number_at("done"), 1.0);
}

TEST(CampaignRegistry, StopWhileRunningCancelsPromptly) {
  // Registry-level drain: a runner stopped mid-campaign must come back
  // quickly (stop raises the running job's cancel flag) and mark the job
  // cancelled, not leave it running or finished.
  store::Snapshot snapshot = make_snapshot(600, 29, 4);
  const Scenario scenario = Scenario::from_snapshot(snapshot);
  const auto baselines = std::make_shared<const store::BaselineStore>(
      std::move(snapshot.baselines));
  CampaignJobRunner runner(scenario, baselines);
  runner.start();
  campaign::CampaignSpec spec;
  spec.sample_budget = 10000000;
  spec.batch = 500;
  const std::uint64_t id = runner.submit(spec);
  // Wait for the runner to pick it up so stop() exercises the cancel path.
  for (int i = 0; i < 1000; ++i) {
    const auto snap = runner.get(id);
    ASSERT_TRUE(snap.has_value());
    if (snap->state == CampaignJobState::Running) break;
    usleep(1000);
  }
  runner.stop();
  const auto snap = runner.get(id);
  ASSERT_TRUE(snap.has_value());
  EXPECT_TRUE(snap->state == CampaignJobState::Cancelled ||
              snap->state == CampaignJobState::Queued)
      << to_string(snap->state);
}

}  // namespace
}  // namespace bgpsim::serve
