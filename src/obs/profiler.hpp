// In-process sampling CPU profiler: ITIMER_PROF fires SIGPROF on whichever
// thread is burning CPU, the signal handler captures a raw backtrace() into a
// preallocated lock-free sample buffer, and stop time symbolizes the unique
// frames (dladdr + demangle, backtrace_symbols fallback) and writes a
// collapsed-stack ("folded") profile:
//
//   main;bgpsim::GenerationEngine::announce(...);bgpsim::...::deliver(...) 148
//
// one line per unique stack (root first, ';'-separated, trailing sample
// count) — directly consumable by flamegraph.pl, speedscope, or the in-repo
// `bgpsim-profview` top-N/diff viewer.
//
// Signal-safety contract (see DESIGN.md §13): the handler does no allocation
// and takes no locks — it claims a slot with one relaxed fetch_add, memcpys
// the frames, and publishes with a release increment. When the buffer is
// full the sample is *dropped and counted* (profile.samples_dropped), never
// blocked on. Everything expensive — symbol resolution, aggregation, file
// IO — happens after the timer is disarmed.
//
// Lifecycle: profiler_start(path, hz, ring) / profiler_stop(); obs::start()
// arms it from Config::profile / profile_hz / profile_ring (BGPSIM_PROFILE,
// BGPSIM_PROFILE_HZ, BGPSIM_PROFILE_RING; DESIGN.md §7).
//
// Under -DBGPSIM_OBS=OFF the whole API degrades to inline no-ops and no
// signal/timer code is emitted (kProfilerCompiled is the witness; CI proves
// it with nm over the OBS=OFF archive, like the heartbeat sampler's check).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace bgpsim::obs {

/// Live/last-run profiler state for heartbeats and /statusz: `active` and
/// `hz` describe the running session; `samples`/`dropped` are the current
/// session's tallies while active, the final tallies after stop.
struct ProfilerStatus {
  bool active = false;
  unsigned hz = 0;
  std::uint64_t samples = 0;
  std::uint64_t dropped = 0;
};

/// Default sample rate: 151 Hz — prime (avoids sampling in lockstep with
/// 100/250/1000 Hz periodic work) and inside the 97–197 Hz window where
/// per-sample overhead stays well under 1%.
inline constexpr unsigned kDefaultProfileHz = 151;

/// Default sample-buffer capacity: about 3.6 minutes at the default rate.
inline constexpr std::size_t kDefaultProfileRing = 32768;

#if defined(BGPSIM_OBS_DISABLED)

inline constexpr bool kProfilerCompiled = false;

inline bool profiler_start(const std::string& /*path*/, unsigned /*hz*/ = 0,
                           std::size_t /*ring*/ = 0) {
  return false;
}
inline std::uint64_t profiler_stop() { return 0; }
inline ProfilerStatus profiler_status() { return {}; }

#else

inline constexpr bool kProfilerCompiled = true;

/// Preallocated one-shot sample buffer the SIGPROF handler writes into.
/// Not a wrap-around ring: once `capacity` samples are committed, further
/// record() calls drop (counted) rather than overwrite or block — a full
/// buffer means "raise BGPSIM_PROFILE_RING or profile a shorter window",
/// and losing the *newest* tail keeps the kept samples an unbiased prefix.
///
/// record() is async-signal-safe: slot claim is one relaxed fetch_add, the
/// frame copy is plain stores into memory owned exclusively by the claimed
/// slot, and the release increment of committed_ publishes it. Readers
/// (stop/status) synchronize through acquire loads of committed_.
class ProfileRing {
 public:
  /// Frames kept per sample; deeper stacks are truncated at the leaf end.
  static constexpr int kMaxFrames = 48;

  explicit ProfileRing(std::size_t capacity)
      : capacity_(capacity),
        frames_(capacity * static_cast<std::size_t>(kMaxFrames)),
        depths_(capacity) {}

  /// Record one sample (signal context). Returns false on overflow, which
  /// only bumps the dropped counter — never blocks, never allocates.
  bool record(void* const* frames, int depth) {
    const std::size_t slot = claimed_.fetch_add(1, std::memory_order_relaxed);
    if (slot >= capacity_ || depth <= 0) {
      dropped_.fetch_add(1, std::memory_order_release);
      return false;
    }
    const int keep = depth < kMaxFrames ? depth : kMaxFrames;
    void** dst = frames_.data() + slot * static_cast<std::size_t>(kMaxFrames);
    for (int i = 0; i < keep; ++i) dst[i] = frames[i];
    depths_[slot] = static_cast<std::uint16_t>(keep);
    committed_.fetch_add(1, std::memory_order_release);
    return true;
  }

  std::size_t capacity() const { return capacity_; }
  std::uint64_t committed() const {
    return committed_.load(std::memory_order_acquire);
  }
  std::uint64_t dropped() const {
    return dropped_.load(std::memory_order_acquire);
  }
  /// Slots handed out (commits + drops in flight or finished).
  std::uint64_t claimed() const {
    return claimed_.load(std::memory_order_acquire);
  }

  /// Frames of slot `i` (innermost first, as backtrace() delivers them).
  /// Slots are indexed in *claim* order: a dropped claim (depth <= 0) burns
  /// its slot and leaves sample_depth(i) == 0, so readers iterate
  /// i < min(claimed(), capacity()) and skip zero-depth holes — only valid
  /// once no recorder is active.
  const void* const* sample_frames(std::size_t i) const {
    return frames_.data() + i * static_cast<std::size_t>(kMaxFrames);
  }
  int sample_depth(std::size_t i) const { return depths_[i]; }

 private:
  const std::size_t capacity_;
  std::vector<void*> frames_;           // capacity * kMaxFrames, preallocated
  std::vector<std::uint16_t> depths_;   // per-slot frame count
  std::atomic<std::size_t> claimed_{0};
  std::atomic<std::uint64_t> committed_{0};
  std::atomic<std::uint64_t> dropped_{0};
};

/// Arm ITIMER_PROF at `hz` (clamped to [1, 1000]) with a `ring`-sample
/// buffer (clamped to [16, 4194304]) and install the SIGPROF handler; the
/// folded profile lands at `path` on profiler_stop(). Returns false (and
/// changes nothing) when a session is already active or `path` is empty.
/// Not async-signal-safe itself — call from normal context.
bool profiler_start(const std::string& path, unsigned hz = kDefaultProfileHz,
                    std::size_t ring = kDefaultProfileRing);

/// Disarm the timer, restore the previous SIGPROF disposition, symbolize,
/// write the folded profile, and publish the profile.samples{,_dropped}
/// counters. Returns the number of samples written (0 when not profiling).
std::uint64_t profiler_stop();

/// Lock-free-ish status for heartbeat/statusz (takes the lifecycle mutex,
/// never callable from signal context).
ProfilerStatus profiler_status();

#endif  // BGPSIM_OBS_DISABLED

}  // namespace bgpsim::obs
