// Runtime contract of the sampling profiler (obs/profiler.hpp): the sample
// buffer drops-and-counts on overflow instead of blocking, a live SIGPROF
// session produces a well-formed, symbolized folded profile, and the
// lifecycle (double start, stop without start, status after stop) behaves.
#include "obs/profiler.hpp"

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/config.hpp"
#include "obs/timer.hpp"

#if !defined(BGPSIM_OBS_DISABLED)

namespace bgpsim {

// External linkage + noinline, so -rdynamic exports the symbol and dladdr
// can attribute the busy loop's leaf frames to it by name.
[[gnu::noinline]] std::uint64_t profiler_test_burn(std::uint64_t rounds) {
  // xorshift-style mixing: cheap, unoptimizable-away CPU burn.
  std::uint64_t x = 0x9e3779b97f4a7c15ull;
  for (std::uint64_t i = 0; i < rounds; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  return x;
}

namespace {

TEST(ProfileRing, OverflowDropsCountedNotBlocked) {
  obs::ProfileRing ring(4);
  void* frames[3] = {reinterpret_cast<void*>(0x1000),
                     reinterpret_cast<void*>(0x2000),
                     reinterpret_cast<void*>(0x3000)};
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(ring.record(frames, 3));
  }
  for (int i = 0; i < 6; ++i) {
    EXPECT_FALSE(ring.record(frames, 3));  // full: drop, never block
  }
  EXPECT_EQ(ring.committed(), 4u);
  EXPECT_EQ(ring.dropped(), 6u);
  EXPECT_EQ(ring.claimed(), 10u);
  EXPECT_EQ(ring.sample_depth(0), 3);
  EXPECT_EQ(ring.sample_frames(0)[0], frames[0]);
}

TEST(ProfileRing, RejectsEmptyAndTruncatesDeepStacks) {
  obs::ProfileRing ring(2);
  void* frame = nullptr;
  EXPECT_FALSE(ring.record(&frame, 0));  // empty sample counts as a drop
  EXPECT_EQ(ring.dropped(), 1u);
  // The dropped claim burned slot 0 and left it a zero-depth hole (what
  // write_folded skips); the next sample lands in slot 1, truncated at the
  // leaf end to kMaxFrames.
  EXPECT_EQ(ring.sample_depth(0), 0);

  std::vector<void*> deep(obs::ProfileRing::kMaxFrames + 10,
                          reinterpret_cast<void*>(0x42));
  EXPECT_TRUE(ring.record(deep.data(), static_cast<int>(deep.size())));
  EXPECT_EQ(ring.sample_depth(1), obs::ProfileRing::kMaxFrames);
}

TEST(Profiler, LiveSessionWritesSymbolizedFoldedProfile) {
  const std::string path = ::testing::TempDir() + "profiler_live.folded";
  ASSERT_TRUE(obs::profiler_start(path, 500));
  EXPECT_FALSE(obs::profiler_start(path, 500));  // one session per process

  obs::ProfilerStatus live = obs::profiler_status();
  EXPECT_TRUE(live.active);
  EXPECT_EQ(live.hz, 500u);

  // Burn CPU until a few samples land. ITIMER_PROF counts *CPU* time, so a
  // starved CI worker accrues samples slowly — bound by wall time and skip
  // rather than flake if the box is that overloaded. The round count goes
  // through a volatile: a constant argument would let GCC's IPA constprop
  // clone the burn function into a *local* .constprop symbol that dladdr
  // cannot name, defeating the symbolization half of the test.
  volatile std::uint64_t rounds = 200000;
  obs::StopWatch deadline;
  std::uint64_t sink = 0;
  while (obs::profiler_status().samples < 5 &&
         deadline.elapsed_seconds() < 20.0) {
    sink += profiler_test_burn(rounds);
  }
  const std::uint64_t collected = obs::profiler_status().samples;
  const std::uint64_t written = obs::profiler_stop();
  ASSERT_NE(sink, 0u);
  if (collected < 5) {
    GTEST_SKIP() << "not enough CPU time for SIGPROF samples on this machine";
  }
  EXPECT_GE(written, collected);

  // Stopped: status keeps the final tallies for heartbeat/statusz readers.
  const obs::ProfilerStatus after = obs::profiler_status();
  EXPECT_FALSE(after.active);
  EXPECT_GE(after.samples, collected);

  // Folded shape: every line is "frame[;frame...] <count>", and the burn
  // function's demangled name shows up via dladdr symbolization.
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  std::size_t lines = 0;
  bool saw_burn_frame = false;
  while (std::getline(in, line)) {
    ASSERT_FALSE(line.empty());
    const std::size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    const std::string count = line.substr(space + 1);
    ASSERT_FALSE(count.empty()) << line;
    for (const char c : count) ASSERT_TRUE(c >= '0' && c <= '9') << line;
    if (line.find("profiler_test_burn") != std::string::npos) {
      saw_burn_frame = true;
    }
    ++lines;
  }
  EXPECT_GT(lines, 0u);
  EXPECT_TRUE(saw_burn_frame);

  std::remove(path.c_str());
}

TEST(Profiler, StopWithoutStartReturnsZero) {
  EXPECT_EQ(obs::profiler_stop(), 0u);
}

TEST(Profiler, StartFromEnvWithoutProfilePathIsInert) {
  // No BGPSIM_PROFILE in the test environment: nothing may activate.
  obs::start(obs::Config::from_env());
  EXPECT_FALSE(obs::profiler_status().active);
  obs::stop();
}

}  // namespace
}  // namespace bgpsim

#endif  // !BGPSIM_OBS_DISABLED
