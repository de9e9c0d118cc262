// Compile-time contract of the sampling profiler: under -DBGPSIM_OBS=OFF
// the whole API degrades to constexpr inline no-ops (kProfilerCompiled is
// the witness — CI additionally runs `nm` over the OBS=OFF archive to prove
// no ProfileRing/SIGPROF symbol survives). Building the test suite in both
// configurations exercises both branches; a single #ifdef'd TU avoids ODR
// games with the real definitions.
#include "obs/profiler.hpp"

#include <gtest/gtest.h>

#include "obs/config.hpp"

namespace bgpsim {
namespace {

#if defined(BGPSIM_OBS_DISABLED)

static_assert(!obs::kProfilerCompiled,
              "BGPSIM_OBS=OFF must compile the profiler out");

TEST(ProfilerCompile, ObsOffApiIsCallableNoOps) {
  // The stubs keep call sites (obs::start, tests) compiling unchanged; none
  // of them may install a handler or arm a timer, even with a profile
  // configured.
  EXPECT_FALSE(obs::profiler_start("/dev/null"));
  obs::Config config;
  config.profile = "/dev/null";
  obs::start(config);
  EXPECT_FALSE(obs::profiler_status().active);
  obs::stop();
  EXPECT_EQ(obs::profiler_stop(), 0u);
  const obs::ProfilerStatus status = obs::profiler_status();
  EXPECT_FALSE(status.active);
  EXPECT_EQ(status.samples, 0u);
  EXPECT_EQ(status.dropped, 0u);
}

#else

static_assert(obs::kProfilerCompiled,
              "default build must carry the sampling profiler");

TEST(ProfilerCompile, LifecycleWithoutStartIsInert) {
  // stop() without start must be harmless (and report nothing written);
  // an empty path must be rejected without touching signal dispositions.
  EXPECT_EQ(obs::profiler_stop(), 0u);
  EXPECT_FALSE(obs::profiler_start(""));
  const obs::ProfilerStatus status = obs::profiler_status();
  EXPECT_FALSE(status.active);
}

#endif

}  // namespace
}  // namespace bgpsim
