// Structured NDJSON event log: sink behavior and schema round-trip. Every
// emitted line must parse as a JSON object carrying the required keys
// (type, ts, seq) with seq matching file order.
#include "obs/eventlog.hpp"

#include <algorithm>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "hijack/hijack_simulator.hpp"
#include "obs/heartbeat.hpp"
#include "obs/json_parse.hpp"
#include "obs/progress.hpp"
#include "topology/graph_builder.hpp"

namespace bgpsim {
namespace {

AsGraph diamond() {
  GraphBuilder b;
  b.add_provider_customer(1, 2);
  b.add_provider_customer(1, 3);
  b.add_provider_customer(2, 4);
  b.add_provider_customer(3, 4);
  return b.build();
}

SimConfig generation_config(const AsGraph& g) {
  SimConfig cfg;
  cfg.engine = EngineKind::Generation;
  cfg.policy.is_tier1.assign(g.num_ases(), 0);
  return cfg;
}

std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}

TEST(EventLogSink, DisabledByDefaultAndRecordBuilderIsSafe) {
  // No BGPSIM_EVENTLOG in the test environment: emitting is a no-op.
  obs::EventRecord ev("noop");
  ev.u64("x", 1).f64("y", 2.5).str("s", "v").boolean("b", true);
  ev.emit();
  ev.emit();  // double emit must also be harmless
}

TEST(EventLogSink, SchemaRoundTrip) {
  const std::string path = ::testing::TempDir() + "eventlog_roundtrip.ndjson";
  obs::EventLogSink::instance().set_output(path);

  const AsGraph g = diamond();
  HijackSimulator sim(g, generation_config(g));
  const auto result = sim.attack(g.require(4), g.require(3));
  EXPECT_GT(result.routed_ases, 0u);

  obs::EventLogSink::instance().set_output("");  // disable + flush
  const std::vector<std::string> lines = read_lines(path);

#if defined(BGPSIM_OBS_DISABLED)
  EXPECT_TRUE(lines.empty());
#else
  ASSERT_FALSE(lines.empty());
  std::uint64_t expected_seq = 0;
  double last_ts = 0.0;
  std::vector<std::string> types;
  for (const std::string& line : lines) {
    const obs::JsonValue record = obs::JsonValue::parse(line);
    ASSERT_TRUE(record.is_object()) << line;
    // Required keys on every record, correctly typed.
    const obs::JsonValue* type = record.find("type");
    ASSERT_TRUE(type != nullptr && type->is_string()) << line;
    const obs::JsonValue* ts = record.find("ts");
    ASSERT_TRUE(ts != nullptr && ts->is_number()) << line;
    const obs::JsonValue* seq = record.find("seq");
    ASSERT_TRUE(seq != nullptr && seq->is_number()) << line;
    // seq matches file order; ts is monotone non-decreasing.
    EXPECT_EQ(seq->as_u64(), expected_seq++);
    EXPECT_GE(ts->as_number(), last_ts);
    last_ts = ts->as_number();
    types.push_back(type->as_string());
  }
  const auto has = [&](const char* t) {
    return std::find(types.begin(), types.end(), t) != types.end();
  };
  EXPECT_TRUE(has("attack_injected"));
  EXPECT_TRUE(has("run_start"));
  EXPECT_TRUE(has("generation_end"));
  EXPECT_TRUE(has("run_end"));
  EXPECT_TRUE(has("attack_result"));

  // Per-type payload spot checks.
  for (const std::string& line : lines) {
    const obs::JsonValue record = obs::JsonValue::parse(line);
    const std::string type = record.find("type")->as_string();
    if (type == "attack_injected") {
      EXPECT_EQ(record.number_at("target_asn"), 4.0);
      EXPECT_EQ(record.number_at("attacker_asn"), 3.0);
      EXPECT_EQ(record.find("kind")->as_string(), "exact");
    } else if (type == "generation_end") {
      EXPECT_GE(record.number_at("messages_sent"), 1.0);
      EXPECT_NE(record.find("generation"), nullptr);
    } else if (type == "attack_result") {
      EXPECT_EQ(record.number_at("polluted_ases"), 1.0);
      EXPECT_EQ(record.number_at("routed_ases"), 4.0);
    }
  }
#endif
}

TEST(EventLogSink, RecordsAreDurableWithoutClose) {
  // Crash safety: every record is flushed as it is written, so a process
  // that dies mid-campaign (Ctrl-C, OOM kill, CI timeout) leaves only
  // complete, parseable lines behind. Read the file back while the sink is
  // still open — nothing may be sitting in a buffer.
  const std::string path = ::testing::TempDir() + "eventlog_durable.ndjson";
  obs::EventLogSink::instance().set_output(path);
  for (int i = 0; i < 3; ++i) {
    obs::EventRecord ev("durable");
    ev.u64("i", static_cast<std::uint64_t>(i)).emit();
  }

  const std::vector<std::string> lines = read_lines(path);
  ASSERT_EQ(lines.size(), 3u);
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const obs::JsonValue record = obs::JsonValue::parse(lines[i]);
    EXPECT_EQ(record.find("type")->as_string(), "durable");
    EXPECT_EQ(record.number_at("i"), static_cast<double>(i));
  }
  obs::EventLogSink::instance().set_output("");
}

TEST(EventLogSink, HeartbeatEventSchema) {
  const std::string path = ::testing::TempDir() + "eventlog_heartbeat.ndjson";
  obs::EventLogSink::instance().set_output(path);

  obs::progress().reset();
  obs::progress().add_total(50);
  obs::progress().tick(20);
  obs::progress().set_phase("heartbeat-test");
  obs::emit_heartbeat_now();
  obs::emit_heartbeat_now();

  obs::EventLogSink::instance().set_output("");
  obs::progress().reset();
  const std::vector<std::string> lines = read_lines(path);

#if defined(BGPSIM_OBS_DISABLED)
  // The sampler is compiled out entirely: emit_heartbeat_now is a no-op.
  EXPECT_TRUE(lines.empty());
#else
  ASSERT_EQ(lines.size(), 2u);
  std::uint64_t last_done = 0;
  for (const std::string& line : lines) {
    const obs::JsonValue record = obs::JsonValue::parse(line);
    EXPECT_EQ(record.find("type")->as_string(), "heartbeat");
    EXPECT_EQ(record.number_at("done"), 20.0);
    EXPECT_EQ(record.number_at("total"), 50.0);
    EXPECT_EQ(record.find("phase")->as_string(), "heartbeat-test");
    // rate/eta may be unknown this early, but the keys must exist and the
    // done counter must be monotone across beats.
    ASSERT_NE(record.find("rate"), nullptr);
    ASSERT_NE(record.find("eta_seconds"), nullptr);
    EXPECT_GE(record.number_at("done"), static_cast<double>(last_done));
    last_done = static_cast<std::uint64_t>(record.number_at("done"));
    // Memory accounting rides on every heartbeat; RSS is live and nonzero
    // on any platform with /proc or getrusage.
    EXPECT_GT(record.number_at("rss_bytes"), 0.0);
    EXPECT_GE(record.number_at("rss_peak_bytes"), record.number_at("rss_bytes"));
  }
#endif
}

TEST(EventLogSink, TruncatesOnReopen) {
  const std::string path = ::testing::TempDir() + "eventlog_trunc.ndjson";
  obs::EventLogSink::instance().set_output(path);
  {
    obs::EventRecord ev("first_run");
    ev.emit();
  }
  obs::EventLogSink::instance().set_output(path);  // reopen truncates
  {
    obs::EventRecord ev("second_run");
    ev.emit();
  }
  obs::EventLogSink::instance().set_output("");

  // Direct EventRecord use bypasses the BGPSIM_EVENT macro, so the sink
  // works in both obs configurations; only the engine call sites compile out.
  const std::vector<std::string> lines = read_lines(path);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(obs::JsonValue::parse(lines[0]).find("type")->as_string(),
            "second_run");
}

}  // namespace
}  // namespace bgpsim
