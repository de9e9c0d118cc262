// worker_count: the one worker-count rule behind every fan-out. A pure
// function, so no test here starts a thread.
#include "support/parallel.hpp"

#include <gtest/gtest.h>

#include <cstdint>

namespace bgpsim {
namespace {

TEST(WorkerCount, ClampsTheRequestAndCapsAtTheItems) {
  EXPECT_EQ(kMaxWorkers, 64u);
  // At least one worker while there is an item, never more than items.
  EXPECT_EQ(worker_count(0, 10), 1u);
  EXPECT_EQ(worker_count(1, 10), 1u);
  EXPECT_EQ(worker_count(4, 10), 4u);
  EXPECT_EQ(worker_count(4, 3), 3u);
  EXPECT_EQ(worker_count(4, 1), 1u);
  // No items, no workers.
  EXPECT_EQ(worker_count(0, 0), 0u);
  EXPECT_EQ(worker_count(8, 0), 0u);
  // Bounded at kMaxWorkers, however large the request or the batch.
  EXPECT_EQ(worker_count(64, 1000), 64u);
  EXPECT_EQ(worker_count(65, 1000), 64u);
  EXPECT_EQ(worker_count(1'000'000, 1'000'000), 64u);
  EXPECT_EQ(worker_count(UINT64_MAX, UINT64_MAX), 64u);
  EXPECT_EQ(worker_count(UINT64_MAX, 5), 5u);
}

}  // namespace
}  // namespace bgpsim
