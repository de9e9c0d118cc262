#include "obs/profiler.hpp"

#ifndef BGPSIM_OBS_DISABLED

#include <dlfcn.h>
#include <execinfo.h>
#include <signal.h>  // NOLINT: sigaction/SA_RESTART need the POSIX header
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <cxxabi.h>
#include <fstream>
#include <map>
#include <memory>
#include <unordered_map>
#include <utility>

#include "obs/config.hpp"
#include "obs/metrics.hpp"
#include "support/thread_annotations.hpp"

namespace bgpsim::obs {
namespace {

/// The ring the SIGPROF handler records into. Non-null exactly while a
/// session is armed; the handler's acquire load pairs with the release store
/// in start(). stop() nulls it *before* disarming, so a late-delivered
/// signal after stop finds nothing to write into.
std::atomic<ProfileRing*> g_active_ring{nullptr};

/// SIGPROF handler: the only code in the repo that runs in signal context.
/// Async-signal-safe by construction — errno save/restore, one atomic load,
/// backtrace() into a stack buffer (warmed up at start(), see below), and
/// ProfileRing::record (fetch_add + plain stores). No malloc, no locks.
void on_sigprof(int /*signum*/) {
  const int saved_errno = errno;
  ProfileRing* ring = g_active_ring.load(std::memory_order_acquire);
  if (ring != nullptr) {
    void* frames[ProfileRing::kMaxFrames + 3];
    const int depth = ::backtrace(frames, ProfileRing::kMaxFrames + 3);
    // Frames 0-1 are this handler and the kernel signal trampoline; frame 2
    // is the interrupted PC — the leaf the profile should attribute to.
    constexpr int kSkip = 2;
    if (depth > kSkip) ring->record(frames + kSkip, depth - kSkip);
  }
  errno = saved_errno;
}

/// Resolve one return address to a human-readable frame name. Preference
/// order: dynamic symbol via dladdr (demangled when it is a C++ name),
/// module+offset when the symbol table has no covering entry, then the
/// backtrace_symbols rendering, then a bare hex address. Never called from
/// signal context — only at stop/flush time.
std::string symbolize_addr(const void* addr) {
  char buf[160];
  Dl_info info{};
  if (dladdr(const_cast<void*>(addr), &info) != 0) {
    if (info.dli_sname != nullptr) {
      int status = -1;
      char* demangled =
          abi::__cxa_demangle(info.dli_sname, nullptr, nullptr, &status);
      std::string name =
          (status == 0 && demangled != nullptr) ? demangled : info.dli_sname;
      std::free(demangled);
      return name;
    }
    if (info.dli_fname != nullptr) {
      const char* base = std::strrchr(info.dli_fname, '/');
      base = base != nullptr ? base + 1 : info.dli_fname;
      std::snprintf(buf, sizeof(buf), "%s+0x%zx", base,
                    static_cast<std::size_t>(static_cast<const char*>(addr) -
                                             static_cast<const char*>(
                                                 info.dli_fbase)));
      return buf;
    }
  }
  void* mutable_addr = const_cast<void*>(addr);
  char** rendered = ::backtrace_symbols(&mutable_addr, 1);
  if (rendered != nullptr) {
    std::string name = rendered[0];
    std::free(rendered);
    if (!name.empty()) return name;
  }
  std::snprintf(buf, sizeof(buf), "0x%zx",
                reinterpret_cast<std::size_t>(addr));
  return buf;
}

/// Frame names land inside ';'-separated stacks with a trailing " <count>",
/// so the two structural characters must not appear inside a name.
void sanitize_frame(std::string& name) {
  for (char& c : name) {
    if (c == ';' || c == '\n' || c == '\r') c = ':';
  }
}

/// Aggregate committed samples into collapsed stacks (root first) and write
/// one "frame;frame;frame count" line per unique stack. Returns the number
/// of samples aggregated (0 when the file cannot be opened).
std::uint64_t write_folded(const ProfileRing& ring, const std::string& path) {
  // Slots are indexed in *claim* order: a drop (depth <= 0) burns its slot
  // and leaves depth 0, so iterate every in-capacity claim and skip holes
  // rather than reading the first committed() slots.
  const auto limit = static_cast<std::size_t>(
      ring.claimed() < ring.capacity() ? ring.claimed() : ring.capacity());
  std::uint64_t aggregated = 0;
  std::unordered_map<const void*, std::string> names;
  std::map<std::string, std::uint64_t> folded;  // sorted: deterministic file
  std::string stack;
  for (std::size_t i = 0; i < limit; ++i) {
    if (ring.sample_depth(i) <= 0) continue;
    ++aggregated;
    const void* const* frames = ring.sample_frames(i);
    stack.clear();
    for (int f = ring.sample_depth(i) - 1; f >= 0; --f) {
      auto [it, inserted] = names.try_emplace(frames[f]);
      if (inserted) {
        it->second = symbolize_addr(frames[f]);
        sanitize_frame(it->second);
      }
      if (!stack.empty()) stack += ';';
      stack += it->second;
    }
    if (!stack.empty()) ++folded[stack];
  }

  std::ofstream out = open_sink_file(path);
  if (!out) return 0;
  for (const auto& [key, count] : folded) out << key << ' ' << count << '\n';
  return aggregated;
}

/// One profiling session per process. The lifecycle mutex guards everything
/// except the handler's path, which sees only the g_active_ring atomic; the
/// ring buffer itself outlives the armed window (destroyed only after stop()
/// has disarmed, restored the old disposition, and drained in-flight
/// handlers), so the handler can never touch freed memory.
class Profiler {
 public:
  static Profiler& instance() {
    static Profiler profiler;
    return profiler;
  }

  bool start(const std::string& path, unsigned hz, std::size_t ring)
      BGPSIM_EXCLUDES(mutex_) {
    MutexLock lock(&mutex_);
    if (active_ || path.empty()) return false;
    const unsigned clamped_hz = hz < 1 ? 1 : (hz > 1000 ? 1000 : hz);
    const std::size_t capacity = std::clamp<std::size_t>(ring, 16, 1u << 22);
    ring_ = std::make_unique<ProfileRing>(capacity);

    // Warm up the unwinder before the handler can run: glibc's first
    // backtrace() call dlopens libgcc (malloc + dlopen — neither is
    // async-signal-safe), so force that lazy initialization here, in normal
    // context. Part of the signal-safety contract in DESIGN.md §13.
    void* warm[4];
    (void)::backtrace(warm, 4);

    struct sigaction sa {};
    sa.sa_handler = &on_sigprof;
    sigemptyset(&sa.sa_mask);
    sa.sa_flags = SA_RESTART;  // profiled syscalls resume instead of EINTR
    if (sigaction(SIGPROF, &sa, &old_action_) != 0) {
      ring_.reset();
      return false;
    }
    g_active_ring.store(ring_.get(), std::memory_order_release);

    itimerval timer{};
    const long period_usec = 1000000L / static_cast<long>(clamped_hz);
    timer.it_interval.tv_sec = period_usec / 1000000L;
    timer.it_interval.tv_usec = period_usec % 1000000L;
    timer.it_value = timer.it_interval;
    if (setitimer(ITIMER_PROF, &timer, nullptr) != 0) {
      g_active_ring.store(nullptr, std::memory_order_release);
      sigaction(SIGPROF, &old_action_, nullptr);
      ring_.reset();
      return false;
    }

    path_ = path;
    hz_ = clamped_hz;
    active_ = true;
    return true;
  }

  std::uint64_t stop() BGPSIM_EXCLUDES(mutex_) {
    MutexLock lock(&mutex_);
    if (!active_) return 0;
    itimerval off{};
    setitimer(ITIMER_PROF, &off, nullptr);
    g_active_ring.store(nullptr, std::memory_order_release);
    sigaction(SIGPROF, &old_action_, nullptr);
    // Drain: a handler delivered just before the disarm may still be mid
    // record() on another thread. Every claimed slot resolves into exactly
    // one of committed/dropped, so equality means no recorder is in flight.
    for (int spin = 0;
         spin < 1000 && ring_->committed() + ring_->dropped() < ring_->claimed();
         ++spin) {
      ::usleep(100);
    }

    const std::uint64_t written = write_folded(*ring_, path_);
    last_samples_ = ring_->committed();
    last_dropped_ = ring_->dropped();
    registry().counter("profile.samples").add(last_samples_);
    registry().counter("profile.samples_dropped").add(last_dropped_);
    active_ = false;
    hz_ = 0;
    ring_.reset();
    return written;
  }

  ProfilerStatus status() BGPSIM_EXCLUDES(mutex_) {
    MutexLock lock(&mutex_);
    ProfilerStatus out;
    out.active = active_;
    out.hz = hz_;
    if (active_ && ring_ != nullptr) {
      out.samples = ring_->committed();
      out.dropped = ring_->dropped();
    } else {
      out.samples = last_samples_;
      out.dropped = last_dropped_;
    }
    return out;
  }

 private:
  Profiler() = default;

  Mutex mutex_;
  bool active_ BGPSIM_GUARDED_BY(mutex_) = false;
  unsigned hz_ BGPSIM_GUARDED_BY(mutex_) = 0;
  std::string path_ BGPSIM_GUARDED_BY(mutex_);
  std::unique_ptr<ProfileRing> ring_ BGPSIM_GUARDED_BY(mutex_);
  struct sigaction old_action_ BGPSIM_GUARDED_BY(mutex_) {};
  std::uint64_t last_samples_ BGPSIM_GUARDED_BY(mutex_) = 0;
  std::uint64_t last_dropped_ BGPSIM_GUARDED_BY(mutex_) = 0;
};

}  // namespace

bool profiler_start(const std::string& path, unsigned hz, std::size_t ring) {
  return Profiler::instance().start(path, hz, ring);
}

std::uint64_t profiler_stop() { return Profiler::instance().stop(); }

ProfilerStatus profiler_status() { return Profiler::instance().status(); }

}  // namespace bgpsim::obs

#endif  // BGPSIM_OBS_DISABLED
