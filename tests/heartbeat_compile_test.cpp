// Compile-time contract of the heartbeat sampler: under -DBGPSIM_OBS=OFF
// the whole API degrades to constexpr inline no-ops (kHeartbeatCompiled is
// the witness — CI additionally runs `nm` over the OBS=OFF archive to prove
// no sampler/thread symbol survives). Building the test suite in both
// configurations exercises both branches; a single #ifdef'd TU avoids ODR
// games with the real definitions.
#include "obs/heartbeat.hpp"

#include <gtest/gtest.h>

#include "obs/config.hpp"

namespace bgpsim {
namespace {

#if defined(BGPSIM_OBS_DISABLED)

static_assert(!obs::kHeartbeatCompiled,
              "BGPSIM_OBS=OFF must compile the heartbeat sampler out");

TEST(HeartbeatCompile, ObsOffApiIsCallableNoOps) {
  // The stubs keep call sites (obs::start, tests) compiling unchanged; none
  // of them may start a thread or touch any sink, even with the stderr
  // status line configured.
  obs::Config config;
  config.progress_stderr = true;
  obs::start(config);
  obs::heartbeat_start(config);
  obs::emit_heartbeat_now();
  obs::heartbeat_stop();
  obs::stop();  // idempotent
}

#else

static_assert(obs::kHeartbeatCompiled,
              "default build must carry the heartbeat sampler");

TEST(HeartbeatCompile, StartWithoutSinksIsInert) {
  // A default Config names no event log, prom file/port or stderr status:
  // start() must decline to spawn the sampler thread, and stop() without
  // start must be harmless.
  obs::heartbeat_start(obs::Config{});
  obs::heartbeat_stop();
  obs::heartbeat_stop();
}

#endif

}  // namespace
}  // namespace bgpsim
