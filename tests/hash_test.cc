// Unit tests for tertio_hash: bucket layout planning and the disk
// partitioner (real and phantom input, range filtering, space gating).

#include <gtest/gtest.h>

#include <map>

#include "disk/striped_group.h"
#include "hash/bucket_layout.h"
#include "hash/disk_partitioner.h"
#include "hash/hasher.h"
#include "mem/double_buffer.h"
#include "relation/generator.h"
#include "relation/relation.h"
#include "sim/simulation.h"
#include "tape/tape_volume.h"
#include "util/math_util.h"

namespace tertio::hash {
namespace {

constexpr ByteCount kBlock = 1024;

TEST(HasherTest, BucketStableAndInRange) {
  for (int64_t key = -100; key < 100; ++key) {
    uint32_t b = BucketOf(key, 17);
    EXPECT_LT(b, 17u);
    EXPECT_EQ(b, BucketOf(key, 17));  // deterministic
  }
}

TEST(HasherTest, BucketsRoughlyUniform) {
  std::map<uint32_t, int> histogram;
  for (int64_t key = 0; key < 10000; ++key) histogram[BucketOf(key, 10)]++;
  for (const auto& [bucket, count] : histogram) {
    EXPECT_GT(count, 800);
    EXPECT_LT(count, 1200);
  }
}

TEST(BucketLayoutTest, SmallRelationFitsOneBucket) {
  auto layout = BucketLayout::Plan(/*r_blocks=*/50, /*memory_blocks=*/64);
  ASSERT_TRUE(layout.ok());
  EXPECT_EQ(layout->bucket_count, 1u);
  EXPECT_EQ(layout->r_bucket_blocks, 50u);
  EXPECT_LE(layout->memory_blocks, 64u);
}

TEST(BucketLayoutTest, FootprintRespectsMemory) {
  for (BlockCount r : {100u, 562u, 5000u, 31250u}) {
    for (BlockCount m : {60u, 120u, 500u, 2000u}) {
      auto layout = BucketLayout::Plan(r, m);
      if (!layout.ok()) continue;
      EXPECT_LE(layout->memory_blocks, m) << "r=" << r << " m=" << m;
      EXPECT_EQ((layout->r_bucket_blocks).value(), CeilDiv<uint64_t>(r.value(), layout->bucket_count));
      EXPECT_GE(layout->write_buffer_blocks, 1u);
    }
  }
}

TEST(BucketLayoutTest, PaperRule_BucketCountNearRoverM) {
  // Section 5.1.2: B = |R| / M. Our explicit write buffers push B slightly
  // higher, but the order must match.
  auto layout = BucketLayout::Plan(/*r_blocks=*/10000, /*memory_blocks=*/1000);
  ASSERT_TRUE(layout.ok());
  EXPECT_GE(layout->bucket_count, 10u);
  EXPECT_LE(layout->bucket_count, 40u);
}

TEST(BucketLayoutTest, TooLittleMemoryRejected) {
  // M far below sqrt(|R|): infeasible.
  auto layout = BucketLayout::Plan(/*r_blocks=*/1'000'000, /*memory_blocks=*/100);
  EXPECT_EQ(layout.status().code(), StatusCode::kResourceExhausted);
}

TEST(BucketLayoutTest, MinimumMemoryIsFeasibleBoundary) {
  for (BlockCount r : {100u, 1000u, 12345u}) {
    BlockCount min_m = BucketLayout::MinimumMemory(r);
    EXPECT_TRUE(BucketLayout::Plan(r, min_m).ok()) << "r=" << r;
    if (min_m > 2) {
      EXPECT_FALSE(BucketLayout::Plan(r, min_m / 2).ok()) << "r=" << r;
    }
    // Paper's rule of thumb: min memory ~ 2*sqrt(r).
    EXPECT_LE((min_m).value(), 2 * CeilSqrt(r.value()) + 2);
  }
}

TEST(BucketLayoutTest, ShrinksWriteBufferBeforeGivingUp) {
  // Memory that fits only with w == 1.
  BlockCount r = 10000;
  BlockCount min_m = BucketLayout::MinimumMemory(r);
  auto layout = BucketLayout::Plan(r, min_m + 2);
  ASSERT_TRUE(layout.ok());
  EXPECT_EQ(layout->write_buffer_blocks, 1u);
}

class DiskPartitionerTest : public ::testing::Test {
 protected:
  DiskPartitionerTest()
      : group_(disk::DiskGroupConfig::Uniform(2, disk::DiskModel::Ideal(1e6), 4000, kBlock, 8),
               &sim_) {}

  // Generates a relation on tape and returns its raw blocks.
  std::vector<BlockPayload> MakeInput(uint64_t tuples, rel::Relation* relation) {
    rel::GeneratorConfig config;
    config.tuple_count = tuples;
    config.keys = rel::KeySequence::kSequentialUnique;
    auto r = rel::GenerateOnTape(config, &tape_);
    *relation = r.value();
    std::vector<BlockPayload> blocks;
    for (BlockIndex i = relation->start_block; i < tape_.size_blocks(); ++i) {
      blocks.push_back(tape_.ReadBlock(i).value());
    }
    return blocks;
  }

  sim::Simulation sim_;
  disk::StripedDiskGroup group_;
  tape::TapeVolume tape_{"t", kBlock};
};

TEST_F(DiskPartitionerTest, PartitionsAllTuplesExactlyOnce) {
  rel::Relation relation;
  std::vector<BlockPayload> input = MakeInput(500, &relation);
  DiskPartitioner::Options options;
  options.schema = &relation.schema;
  options.bucket_count = 7;
  options.write_buffer_blocks = 2;
  DiskPartitioner part(&group_, options);
  ASSERT_TRUE(part.AddBlocks(input, 0.0).ok());
  ASSERT_TRUE(part.Flush().ok());

  std::map<int64_t, int> seen;
  for (size_t b = 0; b < part.buckets().size(); ++b) {
    const DiskBucket& bucket = part.buckets()[b];
    std::vector<BlockPayload> out;
    ASSERT_TRUE(group_.ReadExtents(bucket.extents, 10.0, &out).ok());
    ASSERT_TRUE(rel::ForEachTuple(out, &relation.schema, [&](const rel::Tuple& t) {
                  int64_t key = t.GetInt64(0);
                  seen[key]++;
                  // Every tuple is in its hash bucket.
                  EXPECT_EQ(BucketOf(key, 7), b);
                }).ok());
  }
  EXPECT_EQ(seen.size(), 500u);
  for (const auto& [key, count] : seen) EXPECT_EQ(count, 1) << key;
}

TEST_F(DiskPartitionerTest, BucketRangeFilterDropsOthers) {
  rel::Relation relation;
  std::vector<BlockPayload> input = MakeInput(500, &relation);
  DiskPartitioner::Options options;
  options.schema = &relation.schema;
  options.bucket_count = 8;
  options.write_buffer_blocks = 2;
  options.first_bucket = 2;
  options.bucket_span = 3;  // materialize buckets 2,3,4 only
  DiskPartitioner part(&group_, options);
  ASSERT_TRUE(part.AddBlocks(input, 0.0).ok());
  ASSERT_TRUE(part.Flush().ok());
  ASSERT_EQ(part.buckets().size(), 3u);
  uint64_t kept = 0;
  for (size_t local = 0; local < 3; ++local) {
    const DiskBucket& bucket = part.buckets()[local];
    std::vector<BlockPayload> out;
    ASSERT_TRUE(group_.ReadExtents(bucket.extents, 10.0, &out).ok());
    ASSERT_TRUE(rel::ForEachTuple(out, &relation.schema, [&](const rel::Tuple& t) {
                  EXPECT_EQ(BucketOf(t.GetInt64(0), 8), local + 2);
                  ++kept;
                }).ok());
  }
  EXPECT_LT(kept, 500u);  // most tuples dropped
  EXPECT_GT(kept, 0u);
}

TEST_F(DiskPartitionerTest, WriteBufferBatchesRequests) {
  rel::Relation relation;
  std::vector<BlockPayload> input = MakeInput(1000, &relation);  // 100 blocks
  for (BlockCount w : {1u, 8u}) {
    sim::Simulation sim;
    disk::StripedDiskGroup group(
        disk::DiskGroupConfig::Uniform(1, disk::DiskModel::QuantumFireball1080(), 4000, kBlock, 8),
        &sim);
    DiskPartitioner::Options options;
    options.schema = &relation.schema;
    options.bucket_count = 4;
    options.write_buffer_blocks = w;
    DiskPartitioner part(&group, options);
    ASSERT_TRUE(part.AddBlocks(input, 0.0).ok());
    ASSERT_TRUE(part.Flush().ok());
    // Larger write buffers -> fewer requests.
    if (w == 1) {
      EXPECT_GE(group.TotalStats().requests, 100u);
    } else {
      EXPECT_LE(group.TotalStats().requests, 100u / 4 + 4);
    }
  }
}

TEST_F(DiskPartitionerTest, PhantomBlocksSpreadUniformly) {
  DiskPartitioner::Options options;
  options.bucket_count = 10;
  options.write_buffer_blocks = 4;
  DiskPartitioner part(&group_, options);
  ASSERT_TRUE(part.AddPhantomBlocks(1000, 0.0).ok());
  ASSERT_TRUE(part.Flush().ok());
  BlockCount total_blocks = 0;
  for (const DiskBucket& bucket : part.buckets()) {
    EXPECT_NEAR(static_cast<double>(bucket.blocks.value()), 100.0, 1.0);
    total_blocks += bucket.blocks;
  }
  EXPECT_EQ(total_blocks, 1000u);
}

TEST_F(DiskPartitionerTest, PhantomWithSpanMaterializesFraction) {
  DiskPartitioner::Options options;
  options.bucket_count = 10;
  options.write_buffer_blocks = 4;
  options.first_bucket = 0;
  options.bucket_span = 5;
  DiskPartitioner part(&group_, options);
  ASSERT_TRUE(part.AddPhantomBlocks(1000, 0.0).ok());
  ASSERT_TRUE(part.Flush().ok());
  BlockCount total = 0;
  for (const DiskBucket& bucket : part.buckets()) total += bucket.blocks;
  EXPECT_EQ(total, 500u);  // half the buckets -> half the blocks
}

TEST_F(DiskPartitionerTest, PhantomCarryIsExactAcrossCalls) {
  DiskPartitioner::Options options;
  options.bucket_count = 7;
  options.write_buffer_blocks = 1;
  DiskPartitioner part(&group_, options);
  for (int i = 0; i < 13; ++i) {
    ASSERT_TRUE(part.AddPhantomBlocks(3, static_cast<double>(i)).ok());
  }
  ASSERT_TRUE(part.Flush().ok());
  BlockCount total_blocks = 0;
  for (const DiskBucket& bucket : part.buckets()) total_blocks += bucket.blocks;
  EXPECT_EQ(total_blocks, 39u);
}

TEST_F(DiskPartitionerTest, SpaceGatingDelaysWrites) {
  mem::InterleavedBuffer space(10);
  // Occupy the whole buffer; free at t=100.
  ASSERT_TRUE(space.AcquireFree(10).ok());
  ASSERT_TRUE(space.Release(10, 100.0).ok());

  DiskPartitioner::Options options;
  options.bucket_count = 2;
  options.write_buffer_blocks = 5;
  options.space = &space;
  DiskPartitioner part(&group_, options);
  ASSERT_TRUE(part.AddPhantomBlocks(10, 0.0).ok());
  ASSERT_TRUE(part.Flush().ok());
  // Writes could not start before the space freed at t=100.
  EXPECT_GE(part.last_write_end(), 100.0);
}

TEST_F(DiskPartitionerTest, AddBlocksWithoutSchemaRejected) {
  DiskPartitioner::Options options;
  options.bucket_count = 2;
  DiskPartitioner part(&group_, options);
  std::vector<BlockPayload> input(1);
  EXPECT_EQ(part.AddBlocks(input, 0.0).code(), StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace tertio::hash
