// Deliberate thread-policy violation: raw std::thread fan-out in library
// code. Sweeps must go through bgpsim::parallel_for (support/parallel.hpp)
// and background sampling through obs::heartbeat; this file pins the rule in
// CI (the lint_detects_thread test expects a nonzero exit).
#include <thread>
#include <vector>

namespace bgpsim {

inline void sweep_all(std::size_t n) {
  std::vector<std::thread> workers;
  for (std::size_t i = 0; i < n; ++i) {
    workers.emplace_back([] {});
  }
  for (std::thread& w : workers) w.join();
}

}  // namespace bgpsim
