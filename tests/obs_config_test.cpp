// obs::Config: every BGPSIM_* obs knob maps to exactly one field with its
// documented default (DESIGN.md §7 knob table), BGPSIM_PROVENANCE's
// boolean-or-path rule, the five CLI flags winning over their env vars, and
// the file sinks obs::start() arms creating missing parent directories.
#include "obs/config.hpp"

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/obs.hpp"

namespace bgpsim::obs {
namespace {

constexpr const char* kObsEnvVars[] = {
    "BGPSIM_TRACE",          "BGPSIM_EVENTLOG",        "BGPSIM_ACCESS_LOG",
    "BGPSIM_SLOW_REQ_US",    "BGPSIM_PROVENANCE",      "BGPSIM_PROVENANCE_RING",
    "BGPSIM_PROFILE",        "BGPSIM_PROFILE_HZ",      "BGPSIM_PROFILE_RING",
    "BGPSIM_HEARTBEAT_SECS", "BGPSIM_PROGRESS_STDERR", "BGPSIM_PROM_FILE",
    "BGPSIM_PROM_PORT",
};

/// Unsets every obs env var for one test and restores them on exit.
class ObsEnv {
 public:
  ObsEnv() {
    for (const char* name : kObsEnvVars) {
      if (const char* old = std::getenv(name)) saved_[name] = old;
      ::unsetenv(name);
    }
  }
  ~ObsEnv() {
    for (const char* name : kObsEnvVars) {
      const auto it = saved_.find(name);
      if (it != saved_.end()) {
        ::setenv(name, it->second.c_str(), 1);
      } else {
        ::unsetenv(name);
      }
    }
  }
  ObsEnv(const ObsEnv&) = delete;
  ObsEnv& operator=(const ObsEnv&) = delete;

  void set(const char* name, const char* value) { ::setenv(name, value, 1); }
  void clear(const char* name) { ::unsetenv(name); }

 private:
  std::map<std::string, std::string> saved_;
};

std::string fmt(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g", v);
  return buf;
}

/// One row of the knob table: the env var, a non-default value for it, and
/// the field it lands in, rendered as text.
struct Knob {
  const char* env;
  const char* value;
  const char* default_text;
  std::function<std::string(const Config&)> field;
};

const std::vector<Knob>& knob_table() {
  static const std::vector<Knob> table = {
      {"BGPSIM_TRACE", "t.json", "", [](const Config& c) { return c.trace; }},
      {"BGPSIM_EVENTLOG", "e.ndjson", "", [](const Config& c) { return c.eventlog; }},
      {"BGPSIM_ACCESS_LOG", "a.ndjson", "",
       [](const Config& c) { return c.access_log; }},
      {"BGPSIM_SLOW_REQ_US", "5000", "0",
       [](const Config& c) { return std::to_string(c.slow_req_us); }},
      {"BGPSIM_PROVENANCE", "edges.ndjson", "<off>",
       [](const Config& c) { return c.provenance.value_or("<off>"); }},
      {"BGPSIM_PROVENANCE_RING", "4096", "262144",
       [](const Config& c) { return std::to_string(c.provenance_ring); }},
      {"BGPSIM_PROFILE", "p.folded", "", [](const Config& c) { return c.profile; }},
      {"BGPSIM_PROFILE_HZ", "97", "151",
       [](const Config& c) { return std::to_string(c.profile_hz); }},
      {"BGPSIM_PROFILE_RING", "1024", "32768",
       [](const Config& c) { return std::to_string(c.profile_ring); }},
      {"BGPSIM_HEARTBEAT_SECS", "0.25", "1",
       [](const Config& c) { return fmt(c.heartbeat_secs); }},
      {"BGPSIM_PROGRESS_STDERR", "1", "0",
       [](const Config& c) { return std::to_string(c.progress_stderr); }},
      {"BGPSIM_PROM_FILE", "m.prom", "", [](const Config& c) { return c.prom_file; }},
      {"BGPSIM_PROM_PORT", "9184", "0",
       [](const Config& c) { return std::to_string(c.prom_port); }},
  };
  return table;
}

TEST(ObsConfig, TableCoversEveryKnob) {
  ASSERT_EQ(knob_table().size(), std::size(kObsEnvVars));
  for (std::size_t i = 0; i < knob_table().size(); ++i) {
    EXPECT_STREQ(knob_table()[i].env, kObsEnvVars[i]);
  }
}

TEST(ObsConfig, EachEnvVarSetsExactlyItsFieldOverTheDefaults) {
  ObsEnv env;
  const Config defaults = Config::from_env();
  for (const Knob& knob : knob_table()) {
    EXPECT_EQ(knob.field(defaults), knob.default_text) << knob.env;
    EXPECT_EQ(knob.field(Config{}), knob.default_text) << knob.env;
  }
  for (const Knob& knob : knob_table()) {
    env.set(knob.env, knob.value);
    const Config config = Config::from_env();
    env.clear(knob.env);
    for (const Knob& other : knob_table()) {
      const std::string want = &other == &knob ? knob.value : other.default_text;
      EXPECT_EQ(other.field(config), want) << knob.env << " -> " << other.env;
    }
  }
}

TEST(ObsConfig, UnparsableNumbersKeepTheirDefaults) {
  ObsEnv env;
  for (const char* name : {"BGPSIM_SLOW_REQ_US", "BGPSIM_PROVENANCE_RING",
                           "BGPSIM_PROFILE_HZ", "BGPSIM_PROFILE_RING",
                           "BGPSIM_HEARTBEAT_SECS", "BGPSIM_PROGRESS_STDERR",
                           "BGPSIM_PROM_PORT"}) {
    env.set(name, "fast");
  }
  const Config config = Config::from_env();
  for (const Knob& knob : knob_table()) {
    EXPECT_EQ(knob.field(config), knob.default_text) << knob.env;
  }
}

TEST(ObsConfig, ProvenanceIsBooleanOrPath) {
  ObsEnv env;
  // 1/true/on/yes arm recording with no stream.
  for (const char* armed : {"1", "true", "on", "yes", "TRUE", "Yes"}) {
    env.set("BGPSIM_PROVENANCE", armed);
    const Config config = Config::from_env();
    ASSERT_TRUE(config.provenance.has_value()) << armed;
    EXPECT_EQ(*config.provenance, "") << armed;
  }
  // 0/false/off/no/"" disarm.
  for (const char* off : {"0", "false", "off", "no", "OFF", ""}) {
    env.set("BGPSIM_PROVENANCE", off);
    EXPECT_FALSE(Config::from_env().provenance.has_value()) << off;
  }
  // Anything else arms and is the stream path, verbatim.
  for (const char* path : {"edges.ndjson", "/tmp/Out/E.ndjson", "2"}) {
    env.set("BGPSIM_PROVENANCE", path);
    const Config config = Config::from_env();
    ASSERT_TRUE(config.provenance.has_value()) << path;
    EXPECT_EQ(*config.provenance, path);
  }
  // A zero ring is floored to one edge.
  env.set("BGPSIM_PROVENANCE_RING", "0");
  EXPECT_EQ(Config::from_env().provenance_ring, 1u);
}

TEST(ObsConfig, FlagsWinOverTheirEnvVars) {
  ObsEnv env;
  struct Flag {
    const char* name;
    const char* env;
    std::function<std::string(const Config&)> field;
  };
  const std::vector<Flag> flags = {
      {"trace", "BGPSIM_TRACE", [](const Config& c) { return c.trace; }},
      {"eventlog", "BGPSIM_EVENTLOG", [](const Config& c) { return c.eventlog; }},
      {"profile", "BGPSIM_PROFILE", [](const Config& c) { return c.profile; }},
      {"access-log", "BGPSIM_ACCESS_LOG",
       [](const Config& c) { return c.access_log; }},
  };
  for (const Flag& flag : flags) {
    env.set(flag.env, "from-env");
    Config config = Config::from_env();
    config.apply_flag(flag.name, "");  // a path flag without a path: no-op
    EXPECT_EQ(flag.field(config), "from-env") << flag.name;
    config.apply_flag(flag.name, "from-flag");
    EXPECT_EQ(flag.field(config), "from-flag") << flag.name;
  }
  // --progress is a switch over BGPSIM_PROGRESS_STDERR.
  env.set("BGPSIM_PROGRESS_STDERR", "0");
  Config config = Config::from_env();
  EXPECT_FALSE(config.progress_stderr);
  config.apply_flag("progress", "");
  EXPECT_TRUE(config.progress_stderr);

  // Options that are not obs flags leave the config untouched.
  Config untouched = Config::from_env();
  for (const char* other : {"obs", "ases", "seed", "trace-pollution", "port"}) {
    untouched.apply_flag(other, "x.json");
  }
  for (const Knob& knob : knob_table()) {
    EXPECT_EQ(knob.field(untouched), knob.field(Config::from_env())) << knob.env;
  }
}

#if !defined(BGPSIM_OBS_DISABLED)

/// A not-yet-existing two-level directory under the test temp dir; removed
/// with its contents at scope exit.
struct NestedDir {
  explicit NestedDir(const char* tag)
      : root(testing::TempDir() + "obs_config_" + std::to_string(getpid()) +
             "_" + tag) {
    std::filesystem::remove_all(root);
  }
  ~NestedDir() { std::filesystem::remove_all(root); }
  NestedDir(const NestedDir&) = delete;
  NestedDir& operator=(const NestedDir&) = delete;

  std::string file(const char* name) const { return root + "/a/b/" + name; }

  std::string root;
};

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

TEST(ObsConfig, TraceSinkCreatesMissingParentDirectory) {
  Config config;
  const NestedDir dir("trace");
  config.trace = dir.file("trace.json");
  start(config);
  { TraceSpan span("obs_config.span"); }
  stop();
  EXPECT_NE(slurp(config.trace).find("\"obs_config.span\""), std::string::npos);
}

TEST(ObsConfig, ProfileSinkCreatesMissingParentDirectory) {
  Config config;
  const NestedDir dir("profile");
  config.profile = dir.file("cpu.folded");
  start(config);
  ASSERT_TRUE(profiler_status().active);
  volatile std::uint64_t spin = 0;
  for (int i = 0; i < 2000000; ++i) spin = spin + static_cast<std::uint64_t>(i);
  stop();
  EXPECT_TRUE(std::filesystem::exists(config.profile));
}

TEST(ObsConfig, PromFileSinkCreatesMissingParentDirectory) {
  Config config;
  const NestedDir dir("prom");
  config.prom_file = dir.file("metrics.prom");
  config.heartbeat_secs = 60.0;  // only the start and final beats
  start(config);
  stop();
  EXPECT_NE(slurp(config.prom_file).find("progress_done"), std::string::npos);
}

TEST(ObsConfig, StopRestoresTheDefaultConfig) {
  Config config;
  const NestedDir dir("restore");
  config.trace = dir.file("trace.json");
  config.slow_req_us = 7;
  start(config);
  EXPECT_EQ(active_config().trace, config.trace);
  EXPECT_TRUE(trace_enabled());
  stop();
  EXPECT_FALSE(trace_enabled());
  EXPECT_EQ(active_config().trace, "");
  EXPECT_EQ(active_config().slow_req_us, 0u);
}

#else  // BGPSIM_OBS_DISABLED

TEST(ObsConfig, ObsOffArmsNoSink) {
  Config config;
  config.eventlog = testing::TempDir() + "obs_config_off_" +
                    std::to_string(getpid()) + ".ndjson";
  config.trace = config.eventlog + ".trace.json";
  start(config);
  EXPECT_FALSE(eventlog_enabled());
  EXPECT_FALSE(trace_enabled());
  EXPECT_EQ(active_config().eventlog, "");
  stop();
  EXPECT_FALSE(std::filesystem::exists(config.eventlog));
  EXPECT_FALSE(std::filesystem::exists(config.trace));
}

#endif  // BGPSIM_OBS_DISABLED

}  // namespace
}  // namespace bgpsim::obs
