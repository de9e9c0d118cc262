#include "support/parallel.hpp"

#include <algorithm>
#include <thread>
#include <vector>

namespace bgpsim {

unsigned hardware_threads() {
  return std::max(1u, std::thread::hardware_concurrency());
}

unsigned worker_count(std::uint64_t requested, std::uint64_t items) {
  const std::uint64_t bounded =
      std::clamp<std::uint64_t>(requested, 1, kMaxWorkers);
  return static_cast<unsigned>(std::min(bounded, items));
}

std::size_t parallel_for(
    std::size_t n, unsigned workers,
    const std::function<void(unsigned worker, std::size_t i)>& fn,
    const std::atomic<bool>* stop) {
  const auto stopped = [stop] {
    return stop != nullptr && stop->load(std::memory_order_relaxed);
  };
  const unsigned threads = worker_count(workers, n);
  if (threads <= 1) {
    for (std::size_t i = 0; i < n; ++i) {
      if (stopped()) return i;
      fn(0, i);
    }
    return n;
  }

  // fetch_add hands each index to exactly one worker, in increasing order,
  // so the claimed indices are always the prefix [0, cursor).
  std::atomic<std::size_t> cursor{0};
  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (unsigned w = 0; w < threads; ++w) {
    pool.emplace_back([&, w] {
      while (!stopped()) {
        const std::size_t i = cursor.fetch_add(1, std::memory_order_relaxed);
        if (i >= n) break;
        fn(w, i);
      }
    });
  }
  for (auto& worker : pool) worker.join();
  return std::min(cursor.load(std::memory_order_relaxed), n);
}

}  // namespace bgpsim
