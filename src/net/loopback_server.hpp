// The one loopback accept loop in the tree, shared by both HTTP endpoints:
// the query service (serve::QueryServer, K workers) and the heartbeat's
// /metrics endpoint (one worker running net::answer_metrics_scrape).
//
// start() binds 127.0.0.1 and spawns `workers` threads that all poll() one
// shared non-blocking listener; the kernel hands each connection to exactly
// one accept() winner, which runs its own copy of the handler on it and then
// closes it. So the connection limit is the worker count and per-worker
// handler state needs no locks. The handler owns everything HTTP.
//
// Lifecycle: start()/stop() may race from any thread; mutex_ serializes
// them and the workers never take it. Each worker polls with a 200 ms
// timeout and runs while cycle_ still holds the value it was spawned under.
// stop() is the one drain: flip running_ and bump cycle_ under the lock,
// move the handles out, join outside it, then close the listener. A second
// concurrent stop() finds running_ false and returns; a start() landing
// during the join gets new workers and cannot revive the retiring ones.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

#include "support/thread_annotations.hpp"

namespace bgpsim::net {

class LoopbackServer {
 public:
  /// Serves one accepted connection on worker `worker` (0-based). The
  /// server closes `conn` when this returns.
  using ConnectionFn = std::function<void(unsigned worker, int conn)>;

  LoopbackServer() = default;
  ~LoopbackServer() { stop(); }

  LoopbackServer(const LoopbackServer&) = delete;
  LoopbackServer& operator=(const LoopbackServer&) = delete;

  /// Bind 127.0.0.1:`port` (0 = ephemeral) and spawn `workers` accept
  /// loops, each with its own copy of `fn`. Returns false (without
  /// throwing) when `workers` is 0, the port cannot be bound, or the server
  /// is already running.
  bool start(std::uint16_t port, unsigned workers, ConnectionFn fn)
      BGPSIM_EXCLUDES(mutex_);

  /// Drain and join: workers finish their in-flight connection, then the
  /// listener closes. Idempotent and safe to call concurrently: exactly one
  /// caller joins.
  void stop() BGPSIM_EXCLUDES(mutex_);

  bool running() const { return running_.load(std::memory_order_acquire); }

  /// Actual bound port (useful after start(0, ...)); 0 when not running.
  std::uint16_t port() const { return port_.load(std::memory_order_acquire); }

 private:
  /// One worker's accept loop; runs while cycle_ still reads `cycle`.
  void accept_loop(unsigned index, int listen_fd, std::uint64_t cycle,
                   const ConnectionFn& fn) const;

  Mutex mutex_;
  std::atomic<bool> running_{false};
  std::atomic<std::uint64_t> cycle_{0};  ///< bumped by every stop()
  std::atomic<std::uint16_t> port_{0};
  int listen_fd_ BGPSIM_GUARDED_BY(mutex_) = -1;
  std::vector<std::thread> workers_ BGPSIM_GUARDED_BY(mutex_);
};

}  // namespace bgpsim::net
