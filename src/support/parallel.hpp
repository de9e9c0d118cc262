// The one sanctioned way for library code to fan work out across threads.
//
// Policy (enforced by bgpsim-lint's thread-policy rule): the simulation
// engines are deterministic and single-threaded; only this helper, the obs
// heartbeat sampler, and the net /metrics server may construct threads.
// Batches of independent attacks (sweeps, detector runs, campaign rounds)
// parallelize by giving each worker its own simulator, letting workers claim
// one item at a time, and writing each item's outcome into that item's own
// slot; the caller folds the slots in index order after the join, so the
// result is the same at any worker count. This header is where that pattern
// lives.
//
// There is deliberately no lock here to annotate: workers share the (const)
// callback, one relaxed claim cursor, and the optional stop flag, and the
// join in parallel_for is the only synchronization point for their writes.
// Anything else the workers share (obs counters, progress ticks) must be
// atomics with explicit memory orders — enforced by bgpsim-lint's
// seq-cst-atomic rule and exercised by the contended-counter battery in
// tests/concurrency_stress.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>

namespace bgpsim {

/// Threads the host machine offers; always >= 1.
unsigned hardware_threads();

/// Most workers one batch runs on, whatever was asked (the query server's
/// worker bound too).
inline constexpr unsigned kMaxWorkers = 64;

/// Workers a batch of `items` runs on: `requested` clamped to
/// [1, kMaxWorkers], and no more than there are items (0 for none).
unsigned worker_count(std::uint64_t requested, std::uint64_t items);

/// Run fn(worker, i) once for each index i in [0, n) on worker_count(workers,
/// n) threads (worker in [0, that count)), joining them all before returning.
/// Each thread claims the next index from one shared cursor, so uneven items
/// balance themselves; with one thread (workers <= 1) the loop runs inline
/// on the calling thread. A worker checks `stop` before each claim and
/// always finishes the index it claimed, so the indices that ran are exactly
/// the prefix [0, result); the result is n unless `stop` was raised.
/// Exceptions must not escape fn.
std::size_t parallel_for(
    std::size_t n, unsigned workers,
    const std::function<void(unsigned worker, std::size_t i)>& fn,
    const std::atomic<bool>* stop = nullptr);

}  // namespace bgpsim
