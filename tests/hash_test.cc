// Unit tests for tertio_hash: bucket layout planning and the disk
// partitioner (real and phantom input, range filtering, space gating).

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <optional>

#include "disk/striped_group.h"
#include "hash/bucket_layout.h"
#include "hash/disk_partitioner.h"
#include "hash/hasher.h"
#include "mem/double_buffer.h"
#include "relation/generator.h"
#include "relation/relation.h"
#include "sim/auditor.h"
#include "sim/simulation.h"
#include "tape/tape_volume.h"
#include "util/math_util.h"
#include "util/rng.h"

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

TEST(BucketLayoutTest, MinimumBucketCountNamesTheBindingBound) {
  // 24 blocks partition 60 (M >= 16), but not into the 23 buckets a
  // tape-tape join's disk can force: 23 write buffers plus a 3-block bucket.
  ASSERT_TRUE(BucketLayout::Plan(/*r_blocks=*/60, /*memory_blocks=*/24).ok());
  auto layout = BucketLayout::Plan(60, 24, /*preferred_write_buffer=*/0,
                                   /*min_bucket_count=*/23);
  EXPECT_EQ(layout.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(layout.status().message().find("minimum bucket count: 23 buckets need 23 "
                                           "write-buffer blocks plus 3 for one bucket"),
            std::string::npos)
      << layout.status();
  EXPECT_EQ(layout.status().message().find("sqrt"), std::string::npos) << layout.status();
  // Below the square-root bound the message stays the memory bound.
  auto starved = BucketLayout::Plan(60, 12, 0, 23);
  EXPECT_NE(starved.status().message().find("2*sqrt(|R|)"), std::string::npos)
      << starved.status();
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

// ---------------------------------------------------------------------------
// The per-call phantom flush schedule against the block-by-block reference
// ---------------------------------------------------------------------------

/// The block-by-block phantom partitioner that the per-call flush schedule
/// replaced: each block goes to the next bucket of the round-robin, and a
/// bucket flushes the moment its write buffer holds w blocks, each flush
/// with its own Allocate. DiskPartitioner must match it bit for bit.
class BlockByBlockPartitioner {
 public:
  BlockByBlockPartitioner(disk::StripedDiskGroup* disks, const DiskPartitioner::Options& options)
      : disks_(disks),
        options_(options),
        span_(options.bucket_span == 0 ? options.bucket_count : options.bucket_span),
        pending_(span_, 0),
        data_ready_(span_, 0.0),
        buckets_(span_),
        last_end_(static_cast<std::size_t>(disks->disk_count()), 0) {}

  Status AddPhantomBlocks(BlockCount count, SimSeconds ready) {
    const std::uint64_t gross = count.value() * span_ + carry_;
    const std::uint64_t blocks = gross / options_.bucket_count;
    carry_ = gross % options_.bucket_count;
    for (std::uint64_t i = 0; i < blocks; ++i) {
      const std::uint32_t local = cursor_;
      cursor_ = (cursor_ + 1) % span_;
      pending_[local] += 1;
      if (data_ready_[local] < ready) data_ready_[local] = ready;
      TERTIO_RETURN_IF_ERROR(MaybeFlush(local, /*final=*/false));
    }
    return Status::OK();
  }

  Status Flush() {
    for (std::uint32_t local = 0; local < span_; ++local) {
      TERTIO_RETURN_IF_ERROR(MaybeFlush(local, /*final=*/true));
    }
    return Status::OK();
  }

  const std::vector<DiskBucket>& buckets() const { return buckets_; }
  SimSeconds last_write_end() const { return last_write_end_; }
  /// Where the reference's last write on `disk` ended (0 before any).
  BlockIndex last_end(int disk) const { return last_end_[static_cast<std::size_t>(disk)]; }

 private:
  Status MaybeFlush(std::uint32_t local, bool final) {
    const BlockCount w = options_.write_buffer_blocks;
    while (pending_[local] > 0 && (final || pending_[local] >= w)) {
      const BlockCount chunk = std::min(pending_[local], w);
      SimSeconds ready = data_ready_[local];
      if (options_.space != nullptr) {
        TERTIO_ASSIGN_OR_RETURN(SimSeconds space_ready, options_.space->AcquireFree(chunk));
        if (space_ready > ready) ready = space_ready;
      }
      TERTIO_ASSIGN_OR_RETURN(disk::ExtentList extents,
                              disks_->allocator().Allocate(chunk, ready, options_.alloc_tag));
      DiskBucket& bucket = buckets_[local];
      bucket.extents.insert(bucket.extents.end(), extents.begin(), extents.end());
      TERTIO_ASSIGN_OR_RETURN(sim::Interval interval, disks_->WriteExtents(extents, ready));
      for (const disk::Extent& e : extents) {
        last_end_[static_cast<std::size_t>(e.disk)] = e.start + e.count;
      }
      pending_[local] -= chunk;
      bucket.blocks += chunk;
      bucket.ready = std::max(bucket.ready, interval.end);
      last_write_end_ = std::max(last_write_end_, interval.end);
      if (!final) break;
    }
    return Status::OK();
  }

  disk::StripedDiskGroup* disks_;
  DiskPartitioner::Options options_;
  std::uint32_t span_;
  std::vector<BlockCount> pending_;
  std::vector<SimSeconds> data_ready_;
  std::vector<DiskBucket> buckets_;
  std::vector<BlockIndex> last_end_;
  SimSeconds last_write_end_ = 0.0;
  std::uint64_t carry_ = 0;
  std::uint32_t cursor_ = 0;
};

/// A disk group (and, for the concurrent methods, the shared buffer that
/// gates flushes), built deterministically from a seed so two copies evolve
/// identically.
struct PartitionWorld {
  sim::Simulation sim;
  std::unique_ptr<disk::StripedDiskGroup> group;
  std::unique_ptr<mem::InterleavedBuffer> space;
  DiskPartitioner::Options options;
};

std::unique_ptr<PartitionWorld> BuildPartitionWorld(std::uint64_t seed) {
  Rng rng(seed);
  auto world = std::make_unique<PartitionWorld>();
  const int disks = 1 + static_cast<int>(rng.NextBelow(3));
  constexpr BlockCount kStripes[] = {4, 8, 32};
  const BlockCount stripe = kStripes[rng.NextBelow(3)];
  // Every fourth world is tight enough to run out of disk mid-call.
  const BlockCount capacity = rng.NextBelow(4) == 0 ? 40 + rng.NextBelow(400) : 20000;
  world->group = std::make_unique<disk::StripedDiskGroup>(
      disk::DiskGroupConfig::Uniform(disks, disk::DiskModel::QuantumFireball1080(), capacity,
                                     kBlock, stripe),
      &world->sim);
  world->group->allocator().EnableTrace();
  DiskPartitioner::Options& options = world->options;
  options.bucket_count = 1 + static_cast<std::uint32_t>(rng.NextBelow(40));
  constexpr BlockCount kWriteBuffers[] = {1, 2, 5, 32};
  options.write_buffer_blocks = kWriteBuffers[rng.NextBelow(4)];
  if (rng.NextBelow(3) == 0) {
    // TT-GH / CTT-GH materialize a sub-range of the buckets per scan.
    options.first_bucket = static_cast<std::uint32_t>(rng.NextBelow(options.bucket_count));
    options.bucket_span = 1 + static_cast<std::uint32_t>(
                                  rng.NextBelow(options.bucket_count - options.first_bucket));
  }
  if (rng.NextBelow(2) == 0) {
    // The shared double buffer of CDT-GH / CTT-GH: slots freed over time,
    // and sometimes fewer of them than the flushes will claim.
    const BlockCount slots = rng.NextBelow(3) == 0 ? 10 + rng.NextBelow(200) : 100000;
    world->space = std::make_unique<mem::InterleavedBuffer>(slots);
    EXPECT_TRUE(world->space->AcquireFree(slots).ok());
    SimSeconds when = 0.0;
    for (BlockCount freed = 0; freed < slots;) {
      const BlockCount piece = std::min<BlockCount>(slots - freed, 1 + rng.NextBelow(64));
      when += rng.NextDouble() * 5.0;
      EXPECT_TRUE(world->space->Release(piece, when).ok());
      freed += piece;
    }
    options.space = world->space.get();
  }
  return world;
}

template <typename Reference>
void ExpectSamePartitioning(const PartitionWorld& ref, const Reference& want,
                            const PartitionWorld& world, const DiskPartitioner& got) {
  ASSERT_EQ(got.buckets().size(), want.buckets().size());
  for (std::size_t b = 0; b < want.buckets().size(); ++b) {
    EXPECT_EQ(got.buckets()[b].extents, want.buckets()[b].extents) << "bucket " << b;
    EXPECT_EQ(got.buckets()[b].blocks, want.buckets()[b].blocks) << "bucket " << b;
    EXPECT_EQ(got.buckets()[b].ready.value(), want.buckets()[b].ready.value()) << "bucket " << b;
  }
  EXPECT_EQ(got.last_write_end().value(), want.last_write_end().value());
  for (int d = 0; d < ref.group->disk_count(); ++d) {
    disk::DiskVolume* a = ref.group->disk(d);
    disk::DiskVolume* b = world.group->disk(d);
    EXPECT_EQ(b->stats().blocks_written, a->stats().blocks_written) << d;
    EXPECT_EQ(b->stats().requests, a->stats().requests) << d;
    EXPECT_EQ(b->stats().positioned_requests, a->stats().positioned_requests) << d;
    // The sequential cursor rests where the reference's last write ended.
    EXPECT_EQ(b->IsSequential(want.last_end(d)), a->IsSequential(want.last_end(d))) << d;
    const sim::ResourceStats& ra = a->resource()->stats();
    const sim::ResourceStats& rb = b->resource()->stats();
    EXPECT_EQ(b->resource()->available_at().value(), a->resource()->available_at().value()) << d;
    EXPECT_EQ(rb.busy_seconds.value(), ra.busy_seconds.value()) << d;
    EXPECT_EQ(rb.op_count, ra.op_count) << d;
    EXPECT_EQ(rb.bytes_transferred, ra.bytes_transferred) << d;
    EXPECT_EQ(world.group->allocator().FreeBlocksOn(d), ref.group->allocator().FreeBlocksOn(d))
        << d;
  }
  const std::vector<disk::UsageEvent>& ta = ref.group->allocator().trace();
  const std::vector<disk::UsageEvent>& tb = world.group->allocator().trace();
  ASSERT_EQ(tb.size(), ta.size());
  for (std::size_t i = 0; i < ta.size(); ++i) {
    EXPECT_EQ(tb[i].time.value(), ta[i].time.value()) << "event " << i;
    EXPECT_EQ(tb[i].delta_blocks, ta[i].delta_blocks) << "event " << i;
    EXPECT_EQ(tb[i].used_after, ta[i].used_after) << "event " << i;
    EXPECT_EQ(tb[i].tag, ta[i].tag) << "event " << i;
  }
  if (ref.space != nullptr) {
    EXPECT_EQ(world.space->occupied_blocks(), ref.space->occupied_blocks());
  }
}

TEST(PhantomFlushScheduleTest, MatchesBlockByBlockReference) {
  std::uint64_t flushes = 0;
  std::uint64_t multi_fill_calls = 0;  // calls in which some bucket filled twice
  std::uint64_t disk_errors = 0;
  std::uint64_t space_errors = 0;
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    std::unique_ptr<PartitionWorld> ref = BuildPartitionWorld(seed);
    std::unique_ptr<PartitionWorld> world = BuildPartitionWorld(seed);
    BlockByBlockPartitioner want(ref->group.get(), ref->options);
    DiskPartitioner got(world->group.get(), world->options);
    const DiskPartitioner::Options& options = world->options;
    const std::uint64_t bucket_count = options.bucket_count;
    const std::uint64_t span = options.bucket_span == 0 ? bucket_count : options.bucket_span;
    const std::uint64_t w = options.write_buffer_blocks.value();
    Rng rng(seed * 104729);
    SimSeconds ready = 0.0;
    bool failed = false;
    const int calls = 1 + static_cast<int>(rng.NextBelow(12));
    for (int c = 0; c < calls && !failed; ++c) {
      // Call sizes, in blocks of the input: one block, below the span, at
      // it, and many periods of it, leaving carries over.
      std::uint64_t count = 1;
      switch (rng.NextBelow(5)) {
        case 0:
          break;
        case 1:
          count = 1 + rng.NextBelow(bucket_count);
          break;
        case 2:
          count = bucket_count;
          break;
        case 3:
          count = bucket_count * w * (1 + rng.NextBelow(6)) + rng.NextBelow(bucket_count);
          break;
        default:
          count = 1 + rng.NextBelow(3 * bucket_count * w + 5);
          break;
      }
      ready += rng.NextDouble() * 3.0;
      const std::uint64_t delivered = (count * span) / bucket_count;
      if (delivered > w * span) ++multi_fill_calls;
      const std::uint64_t events_before = ref->group->allocator().trace().size();
      Status a = want.AddPhantomBlocks(count, ready);
      Status b = got.AddPhantomBlocks(count, ready);
      SCOPED_TRACE(testing::Message() << "seed " << seed << " call " << c << " count " << count
                                      << " B " << bucket_count << " span " << span << " w "
                                      << w);
      ASSERT_EQ(b.code(), a.code()) << a.ToString() << " vs " << b.ToString();
      EXPECT_EQ(b.ToString(), a.ToString());
      flushes += ref->group->allocator().trace().size() - events_before;
      ExpectSamePartitioning(*ref, want, *world, got);
      if (HasFatalFailure()) return;
      if (!a.ok()) {
        failed = true;
        if (a.ToString().find("buffer acquire") != std::string::npos) {
          ++space_errors;
        } else {
          ++disk_errors;
        }
      }
    }
    if (failed) continue;
    Status a = want.Flush();
    Status b = got.Flush();
    ASSERT_EQ(b.code(), a.code()) << "seed " << seed;
    ExpectSamePartitioning(*ref, want, *world, got);
    if (HasFatalFailure()) return;
    // The allocator's free maps agree too: the next allocation lands alike.
    const BlockCount next = std::min<BlockCount>(1 + rng.NextBelow(64),
                                                 ref->group->allocator().free_blocks());
    if (next > 0) {
      EXPECT_EQ(*world->group->allocator().Allocate(next, ready, "after"),
                *ref->group->allocator().Allocate(next, ready, "after"))
          << "seed " << seed;
    }
  }
  // The grid must reach the interesting cases.
  EXPECT_GT(flushes, 10000u);
  EXPECT_GT(multi_fill_calls, 200u);
  EXPECT_GT(disk_errors, 10u);
  EXPECT_GT(space_errors, 10u);
}

TEST(PhantomFlushScheduleTest, RefusesPhantomBlocksAfterAFailedFlush) {
  sim::Simulation sim;
  disk::StripedDiskGroup group(
      disk::DiskGroupConfig::Uniform(1, disk::DiskModel::Ideal(1e6), 8, kBlock, 8), &sim);
  DiskPartitioner::Options options;
  options.bucket_count = 2;
  options.write_buffer_blocks = 4;
  DiskPartitioner part(&group, options);
  // Both buckets flush 4 blocks and fill the disk; bucket 0's next fill
  // cannot be placed, and its write buffer stays full.
  EXPECT_TRUE(part.AddPhantomBlocks(8, 0.0).ok());
  EXPECT_EQ(part.AddPhantomBlocks(8, 1.0).code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(part.AddPhantomBlocks(2, 2.0).code(), StatusCode::kFailedPrecondition);
}

// ---------------------------------------------------------------------------
// The batched flush commit against per-flush writes
// ---------------------------------------------------------------------------

/// The real-payload partitioner before flushes were committed per call: each
/// flush allocates its blocks and writes them at once, through
/// WriteExtents. DiskPartitioner must match it bit for bit, store included.
class PerFlushPartitioner {
 public:
  PerFlushPartitioner(disk::StripedDiskGroup* disks, const DiskPartitioner::Options& options)
      : disks_(disks),
        options_(options),
        span_(options.bucket_span == 0 ? options.bucket_count : options.bucket_span),
        full_(span_),
        data_ready_(span_, 0.0),
        buckets_(span_),
        last_end_(static_cast<std::size_t>(disks->disk_count()), 0) {
    for (std::uint32_t b = 0; b < span_; ++b) {
      builders_.push_back(
          std::make_unique<rel::BlockBuilder>(options.schema, disks->block_bytes()));
    }
  }

  Status AddBlocks(std::span<const BlockPayload> blocks, SimSeconds ready) {
    for (const BlockPayload& payload : blocks) {
      TERTIO_ASSIGN_OR_RETURN(rel::BlockReader reader,
                              rel::BlockReader::Open(payload, options_.schema));
      for (std::uint64_t i = 0; i < reader.record_count(); ++i) {
        rel::Tuple tuple(reader.record(i), options_.schema);
        const std::uint32_t bucket =
            BucketOf(tuple.GetInt64(options_.key_column), options_.bucket_count);
        if (bucket < options_.first_bucket || bucket >= options_.first_bucket + span_) continue;
        const std::uint32_t local = bucket - options_.first_bucket;
        TERTIO_RETURN_IF_ERROR(builders_[local]->Append(tuple.bytes()));
        if (data_ready_[local] < ready) data_ready_[local] = ready;
        if (builders_[local]->full()) {
          full_[local].push_back(builders_[local]->Finish());
          TERTIO_RETURN_IF_ERROR(MaybeFlush(local, /*final=*/false));
        }
      }
    }
    return Status::OK();
  }

  Status Flush() {
    for (std::uint32_t local = 0; local < span_; ++local) {
      if (!builders_[local]->empty()) full_[local].push_back(builders_[local]->Finish());
      TERTIO_RETURN_IF_ERROR(MaybeFlush(local, /*final=*/true));
    }
    return Status::OK();
  }

  const std::vector<DiskBucket>& buckets() const { return buckets_; }
  SimSeconds last_write_end() const { return last_write_end_; }
  BlockIndex last_end(int disk) const { return last_end_[static_cast<std::size_t>(disk)]; }

 private:
  Status MaybeFlush(std::uint32_t local, bool final) {
    const BlockCount w = options_.write_buffer_blocks;
    std::vector<BlockPayload>& full = full_[local];
    while (!full.empty() && (final || full.size() >= w)) {
      const BlockCount chunk = std::min<BlockCount>(full.size(), w);
      SimSeconds ready = data_ready_[local];
      if (options_.space != nullptr) {
        TERTIO_ASSIGN_OR_RETURN(SimSeconds space_ready, options_.space->AcquireFree(chunk));
        if (space_ready > ready) ready = space_ready;
      }
      TERTIO_ASSIGN_OR_RETURN(disk::ExtentList extents,
                              disks_->allocator().Allocate(chunk, ready, options_.alloc_tag));
      DiskBucket& bucket = buckets_[local];
      bucket.extents.insert(bucket.extents.end(), extents.begin(), extents.end());
      const std::vector<BlockPayload> batch(full.begin(),
                                            full.begin() + static_cast<long>(chunk.value()));
      TERTIO_ASSIGN_OR_RETURN(sim::Interval interval,
                              disks_->WriteExtents(extents, ready, &batch));
      for (const disk::Extent& e : extents) {
        last_end_[static_cast<std::size_t>(e.disk)] = e.start + e.count;
      }
      full.erase(full.begin(), full.begin() + static_cast<long>(chunk.value()));
      bucket.blocks += chunk;
      bucket.ready = std::max(bucket.ready, interval.end);
      last_write_end_ = std::max(last_write_end_, interval.end);
      if (!final) break;
    }
    return Status::OK();
  }

  disk::StripedDiskGroup* disks_;
  DiskPartitioner::Options options_;
  std::uint32_t span_;
  std::vector<std::unique_ptr<rel::BlockBuilder>> builders_;
  std::vector<std::vector<BlockPayload>> full_;
  std::vector<SimSeconds> data_ready_;
  std::vector<DiskBucket> buckets_;
  std::vector<BlockIndex> last_end_;
  SimSeconds last_write_end_ = 0.0;
};

/// Every disk of the two worlds kept the same per-operation records.
void ExpectSameOpRecords(const PartitionWorld& ref, const PartitionWorld& world) {
  for (int d = 0; d < ref.group->disk_count(); ++d) {
    const std::vector<sim::OpRecord>& a = ref.group->disk(d)->resource()->trace();
    const std::vector<sim::OpRecord>& b = world.group->disk(d)->resource()->trace();
    ASSERT_EQ(b.size(), a.size()) << "disk " << d;
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(b[i].interval.start.value(), a[i].interval.start.value()) << d << " op " << i;
      EXPECT_EQ(b[i].interval.end.value(), a[i].interval.end.value()) << d << " op " << i;
      EXPECT_EQ(b[i].bytes, a[i].bytes) << d << " op " << i;
      EXPECT_STREQ(b[i].tag, a[i].tag) << d << " op " << i;
    }
  }
}

/// Traces every disk of `world`'s group, and on odd seeds binds an auditor
/// to the batched world. \returns the auditor, or null.
sim::Auditor* Instrument(PartitionWorld& ref, PartitionWorld& world, std::uint64_t seed) {
  for (PartitionWorld* w : {&ref, &world}) {
    for (int d = 0; d < w->group->disk_count(); ++d) w->group->disk(d)->resource()->EnableTrace();
  }
  if (seed % 2 == 0) return nullptr;
  sim::Auditor* auditor = world.sim.EnableAudit();
  world.group->BindAuditor(auditor);
  return auditor;
}

TEST(BatchedFlushCommitTest, RealPayloadsMatchThePerFlushReference) {
  std::uint64_t flushes = 0;
  std::uint64_t disk_errors = 0;
  std::uint64_t space_errors = 0;
  std::uint64_t audited = 0;
  for (std::uint64_t seed = 1; seed <= 120; ++seed) {
    std::unique_ptr<PartitionWorld> ref = BuildPartitionWorld(seed);
    std::unique_ptr<PartitionWorld> world = BuildPartitionWorld(seed);
    sim::Auditor* auditor = Instrument(*ref, *world, seed);
    Rng rng(seed * 7919);
    tape::TapeVolume tape("t", kBlock);
    rel::GeneratorConfig config;
    config.tuple_count = 200 + rng.NextBelow(3000);
    config.keys = rel::KeySequence::kUniformRandom;
    config.seed = seed;
    auto relation = rel::GenerateOnTape(config, &tape);
    ASSERT_TRUE(relation.ok()) << relation.status();
    std::vector<BlockPayload> input;
    for (BlockIndex i = relation->start_block; i < tape.size_blocks(); ++i) {
      input.push_back(tape.ReadBlock(i).value());
    }
    for (PartitionWorld* w : {ref.get(), world.get()}) w->options.schema = &relation->schema;
    PerFlushPartitioner want(ref->group.get(), ref->options);
    DiskPartitioner got(world->group.get(), world->options);
    SimSeconds ready = 0.0;
    Status a;
    Status b;
    for (std::size_t next = 0; next < input.size() && a.ok();) {
      const std::size_t count = std::min<std::size_t>(input.size() - next, 1 + rng.NextBelow(40));
      const std::span<const BlockPayload> call(input.data() + next, count);
      next += count;
      ready += rng.NextDouble() * 3.0;
      const std::uint64_t events_before = ref->group->allocator().trace().size();
      a = want.AddBlocks(call, ready);
      b = got.AddBlocks(call, ready);
      SCOPED_TRACE(testing::Message() << "seed " << seed << " block " << next);
      ASSERT_EQ(b.code(), a.code()) << a.ToString() << " vs " << b.ToString();
      flushes += ref->group->allocator().trace().size() - events_before;
      ExpectSamePartitioning(*ref, want, *world, got);
      if (HasFatalFailure()) return;
    }
    if (a.ok()) {
      a = want.Flush();
      b = got.Flush();
      ASSERT_EQ(b.code(), a.code()) << "seed " << seed;
      ExpectSamePartitioning(*ref, want, *world, got);
    }
    if (!a.ok()) {
      ++(a.ToString().find("buffer acquire") != std::string::npos ? space_errors : disk_errors);
    }
    ExpectSameOpRecords(*ref, *world);
    // The stores hold the same blocks: read every bucket back from both.
    for (std::size_t bucket = 0; bucket < want.buckets().size(); ++bucket) {
      std::vector<BlockPayload> out_a;
      std::vector<BlockPayload> out_b;
      ASSERT_TRUE(ref->group->ReadExtents(want.buckets()[bucket].extents, ready, &out_a).ok());
      ASSERT_TRUE(world->group->ReadExtents(got.buckets()[bucket].extents, ready, &out_b).ok());
      ASSERT_EQ(out_b.size(), out_a.size()) << "seed " << seed << " bucket " << bucket;
      for (std::size_t i = 0; i < out_a.size(); ++i) {
        ASSERT_NE(out_a[i], nullptr);
        ASSERT_NE(out_b[i], nullptr);
        EXPECT_EQ(*out_b[i], *out_a[i]) << "seed " << seed << " bucket " << bucket;
      }
    }
    if (HasFatalFailure()) return;
    if (auditor != nullptr) {
      ++audited;
      EXPECT_TRUE(auditor->clean()) << "seed " << seed << ": " << auditor->TraceString();
    }
  }
  // The grid must reach multi-piece flushes, disk-full and buffer-full errors.
  EXPECT_GT(flushes, 3000u);
  EXPECT_GT(disk_errors, 5u);
  EXPECT_GT(space_errors, 5u);
  EXPECT_GT(audited, 50u);
}

TEST(BatchedFlushCommitTest, TracedAndAuditedPhantomRunsMatchTheBlockByBlockReference) {
  std::uint64_t audited = 0;
  for (std::uint64_t seed = 1; seed <= 120; ++seed) {
    std::unique_ptr<PartitionWorld> ref = BuildPartitionWorld(seed);
    std::unique_ptr<PartitionWorld> world = BuildPartitionWorld(seed);
    sim::Auditor* auditor = Instrument(*ref, *world, seed);
    BlockByBlockPartitioner want(ref->group.get(), ref->options);
    DiskPartitioner got(world->group.get(), world->options);
    Rng rng(seed * 104729);
    SimSeconds ready = 0.0;
    Status a;
    for (int c = 0; c < 8 && a.ok(); ++c) {
      const BlockCount count = 1 + rng.NextBelow(4 * world->options.bucket_count *
                                                 world->options.write_buffer_blocks.value());
      ready += rng.NextDouble() * 3.0;
      a = want.AddPhantomBlocks(count, ready);
      Status b = got.AddPhantomBlocks(count, ready);
      ASSERT_EQ(b.code(), a.code()) << "seed " << seed << " call " << c;
    }
    if (a.ok()) {
      a = want.Flush();
      ASSERT_EQ(got.Flush().code(), a.code()) << "seed " << seed;
    }
    ExpectSamePartitioning(*ref, want, *world, got);
    ExpectSameOpRecords(*ref, *world);
    if (HasFatalFailure()) return;
    if (auditor != nullptr) {
      ++audited;
      EXPECT_TRUE(auditor->clean()) << "seed " << seed << ": " << auditor->TraceString();
    }
  }
  EXPECT_GT(audited, 50u);
}

}  // namespace
}  // namespace tertio::hash
