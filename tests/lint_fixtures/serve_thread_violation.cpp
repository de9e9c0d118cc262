// Deliberate thread-policy violation pinning the src/serve/ exemption's
// boundary: a query-server-style worker pool is sanctioned *only* under
// src/serve/ (and the other thread homes) — the same pattern anywhere else
// must still fire. Pinned by lint_detects_serve_thread — never
// built.
#include <thread>
#include <vector>

namespace bgpsim {

inline void spawn_worker_pool_badly(unsigned workers) {
  std::vector<std::thread> pool;
  for (unsigned i = 0; i < workers; ++i) {
    pool.emplace_back([] { /* accept loop */ });
  }
  for (std::thread& worker : pool) worker.join();
}

}  // namespace bgpsim
