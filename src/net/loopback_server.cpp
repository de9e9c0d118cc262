#include "net/loopback_server.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <utility>

#include "net/http_common.hpp"

namespace bgpsim::net {
namespace {

// How long poll() sleeps between stop checks. Keeps stop() latency bounded
// without busy-waiting (and without <chrono>, which library code outside
// src/obs/ must not use).
constexpr int kPollMillis = 200;

}  // namespace

bool LoopbackServer::start(std::uint16_t port, unsigned workers,
                           ConnectionFn fn) {
  MutexLock lock(&mutex_);
  if (workers == 0 || running_.load(std::memory_order_acquire)) return false;

  std::uint16_t bound = 0;
  const int fd = open_loopback_listener(port, bound);
  if (fd < 0) return false;
  listen_fd_ = fd;
  port_.store(bound, std::memory_order_release);
  running_.store(true, std::memory_order_release);

  const std::uint64_t cycle = cycle_.load(std::memory_order_relaxed);
  workers_.reserve(workers);
  for (unsigned i = 0; i < workers; ++i) {
    workers_.emplace_back(
        [this, i, fd, cycle, fn] { accept_loop(i, fd, cycle, fn); });
  }
  return true;
}

void LoopbackServer::stop() {
  std::vector<std::thread> workers;
  int fd = -1;
  {
    MutexLock lock(&mutex_);
    if (!running_.load(std::memory_order_acquire)) return;
    running_.store(false, std::memory_order_release);
    cycle_.fetch_add(1, std::memory_order_release);
    port_.store(0, std::memory_order_release);
    workers = std::move(workers_);
    workers_.clear();
    fd = listen_fd_;
    listen_fd_ = -1;
  }
  for (std::thread& worker : workers) worker.join();
  close(fd);  // only after every worker stopped polling it
}

void LoopbackServer::accept_loop(unsigned index, int listen_fd,
                                 std::uint64_t cycle,
                                 const ConnectionFn& fn) const {
  while (cycle_.load(std::memory_order_acquire) == cycle) {
    struct pollfd pfd{listen_fd, POLLIN, 0};
    const int ready = poll(&pfd, 1, kPollMillis);
    if (ready <= 0) continue;  // timeout or EINTR: re-check the cycle
    const int conn = accept(listen_fd, nullptr, nullptr);
    if (conn < 0) continue;  // raced another worker (EAGAIN) or transient
    fn(index, conn);
    close(conn);
  }
}

}  // namespace bgpsim::net
