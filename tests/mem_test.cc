// Unit tests for tertio_mem: budget accounting and double-buffer timing.

#include <gtest/gtest.h>

#include "mem/double_buffer.h"
#include "mem/memory_budget.h"

namespace tertio::mem {
namespace {

TEST(MemoryBudgetTest, ReserveAndRelease) {
  MemoryBudget budget(100);
  EXPECT_TRUE(budget.Reserve(60, "r-buf").ok());
  EXPECT_TRUE(budget.Reserve(40, "s-buf").ok());
  EXPECT_EQ(budget.free_blocks(), 0u);
  EXPECT_EQ(budget.ReservedUnder("r-buf"), 60u);
  EXPECT_TRUE(budget.Release(60, "r-buf").ok());
  EXPECT_EQ(budget.free_blocks(), 60u);
}

TEST(MemoryBudgetTest, OversubscriptionRejected) {
  MemoryBudget budget(100);
  EXPECT_TRUE(budget.Reserve(100, "all").ok());
  auto status = budget.Reserve(1, "more");
  EXPECT_EQ(status.code(), StatusCode::kResourceExhausted);
}

TEST(MemoryBudgetTest, OverReleaseRejected) {
  MemoryBudget budget(100);
  ASSERT_TRUE(budget.Reserve(10, "a").ok());
  EXPECT_FALSE(budget.Release(11, "a").ok());
  EXPECT_FALSE(budget.Release(1, "unknown").ok());
}

TEST(MemoryBudgetTest, ReleaseAllDropsTag) {
  MemoryBudget budget(100);
  ASSERT_TRUE(budget.Reserve(10, "a").ok());
  ASSERT_TRUE(budget.Reserve(20, "a").ok());
  EXPECT_EQ(budget.ReservedUnder("a"), 30u);
  EXPECT_TRUE(budget.ReleaseAll("a").ok());
  EXPECT_EQ(budget.reserved_blocks(), 0u);
  EXPECT_TRUE(budget.ReleaseAll("a").ok());  // idempotent
}

TEST(MemoryBudgetTest, PeakTracksHighWaterMark) {
  MemoryBudget budget(100);
  ASSERT_TRUE(budget.Reserve(70, "a").ok());
  ASSERT_TRUE(budget.Release(50, "a").ok());
  ASSERT_TRUE(budget.Reserve(30, "b").ok());
  EXPECT_EQ(budget.peak_reserved_blocks(), 70u);
}

TEST(InterleavedBufferTest, InitialSpaceIsFreeAtTimeZero) {
  InterleavedBuffer buf(100);
  auto t = buf.AcquireFree(100);
  ASSERT_TRUE(t.ok());
  EXPECT_DOUBLE_EQ(t.value().value(), 0.0);
  EXPECT_EQ(buf.occupied_blocks(), 100u);
}

TEST(InterleavedBufferTest, AcquireWaitsForRelease) {
  InterleavedBuffer buf(100);
  ASSERT_TRUE(buf.AcquireFree(100).ok());
  // Consumer frees 40 blocks at t=10 and 60 at t=20.
  ASSERT_TRUE(buf.Release(40, 10.0).ok());
  ASSERT_TRUE(buf.Release(60, 20.0).ok());
  // Producer claiming 30 gets space freed at t=10.
  EXPECT_DOUBLE_EQ(buf.AcquireFree(30)->value(), 10.0);
  // Next 20: 10 remain from the t=10 release, 10 from t=20 — bound by t=20.
  EXPECT_DOUBLE_EQ(buf.AcquireFree(20)->value(), 20.0);
}

TEST(InterleavedBufferTest, OverAcquireRejected) {
  InterleavedBuffer buf(10);
  ASSERT_TRUE(buf.AcquireFree(10).ok());
  EXPECT_EQ(buf.AcquireFree(1).status().code(), StatusCode::kResourceExhausted);
}

TEST(InterleavedBufferTest, OverReleaseRejected) {
  InterleavedBuffer buf(10);
  ASSERT_TRUE(buf.AcquireFree(5).ok());
  EXPECT_FALSE(buf.Release(6, 1.0).ok());
}

TEST(InterleavedBufferTest, ReleaseTimesMustBeMonotone) {
  InterleavedBuffer buf(10);
  ASSERT_TRUE(buf.AcquireFree(10).ok());
  ASSERT_TRUE(buf.Release(5, 10.0).ok());
  EXPECT_FALSE(buf.Release(5, 5.0).ok());
}

TEST(InterleavedBufferTest, SteadyStatePipelinesAtFullCapacity) {
  // The Section 4 claim: with interleaved double-buffering the chunk size
  // stays at the full buffer size and utilization near 100%. Simulate a
  // producer/consumer where the consumer frees space in quarters.
  InterleavedBuffer buf(80);
  SimSeconds produce_ready = buf.AcquireFree(80).value();
  EXPECT_DOUBLE_EQ(produce_ready.value(), 0.0);
  // Consumer drains in 4 quarters finishing at t = 10, 20, 30, 40.
  for (int q = 1; q <= 4; ++q) {
    ASSERT_TRUE(buf.Release(20, 10.0 * q).ok());
  }
  // Producer of the next full-size chunk can finish acquiring by t=40 — the
  // whole 80-block chunk again, not 40 as split buffering would force.
  EXPECT_DOUBLE_EQ(buf.AcquireFree(80)->value(), 40.0);
  EXPECT_EQ(buf.occupied_blocks(), 80u);
}

}  // namespace
}  // namespace tertio::mem
