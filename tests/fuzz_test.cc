// Randomized model-checking tests: the allocator, the interleaved buffer,
// and the block codec are exercised with thousands of random operations and
// compared against simple reference models.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <vector>

#include "disk/allocator.h"
#include "mem/double_buffer.h"
#include "relation/block.h"
#include "relation/generator.h"
#include "relation/tuple.h"
#include "util/rng.h"

namespace tertio {
namespace {

TEST(AllocatorFuzzTest, RandomAllocFreeNeverCorrupts) {
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    Rng rng(seed);
    disk::DiskSpaceAllocator allocator({400, 400, 400}, /*stripe_unit=*/16);
    const BlockCount capacity = allocator.capacity_blocks();
    std::vector<disk::ExtentList> live;
    BlockCount live_blocks = 0;
    // Reference model: the set of allocated (disk, block) cells.
    std::set<std::pair<int, BlockIndex>> cells;

    for (int step = 0; step < 3000; ++step) {
      bool do_alloc = live.empty() || (rng.NextBelow(100) < 55 && live_blocks < capacity);
      if (do_alloc) {
        BlockCount want = 1 + rng.NextBelow(60);
        auto extents = allocator.Allocate(want, static_cast<double>(step), "fuzz");
        if (want > capacity - live_blocks) {
          EXPECT_FALSE(extents.ok()) << "allocation beyond capacity succeeded";
          continue;
        }
        ASSERT_TRUE(extents.ok()) << extents.status();
        ASSERT_EQ(disk::TotalBlocks(*extents), want);
        // No cell may be handed out twice.
        for (const disk::Extent& e : *extents) {
          for (BlockCount b = 0; b < e.count; ++b) {
            auto [it, inserted] = cells.emplace(e.disk, e.start + b);
            ASSERT_TRUE(inserted) << "double allocation of disk " << e.disk << " block "
                                  << e.start + b;
          }
        }
        live_blocks += want;
        live.push_back(std::move(*extents));
      } else {
        size_t victim = rng.NextBelow(live.size());
        disk::ExtentList extents = std::move(live[victim]);
        live.erase(live.begin() + static_cast<long>(victim));
        BlockCount count = disk::TotalBlocks(extents);
        ASSERT_TRUE(allocator.Free(extents, static_cast<double>(step), "fuzz").ok());
        for (const disk::Extent& e : extents) {
          for (BlockCount b = 0; b < e.count; ++b) {
            ASSERT_EQ(cells.erase({e.disk, e.start + b}), 1u);
          }
        }
        live_blocks -= count;
      }
      ASSERT_EQ(allocator.used_blocks(), live_blocks);
      ASSERT_EQ(allocator.used_blocks(), cells.size());
    }
    // Free everything; the allocator must coalesce back to one whole run.
    for (auto& extents : live) {
      ASSERT_TRUE(allocator.Free(extents, 1e9, "fuzz").ok());
    }
    EXPECT_EQ(allocator.used_blocks(), 0u);
    EXPECT_TRUE(allocator.Allocate(capacity, 1e9, "all").ok());
  }
}

TEST(InterleavedBufferFuzzTest, MatchesEventReplayModel) {
  // Model: the buffer returns, for each acquire of k slots, the maximum
  // release time among the k oldest free slots. Replay a random
  // produce/consume schedule against a literal queue of (time, slot) events.
  for (std::uint64_t seed : {11u, 12u}) {
    Rng rng(seed);
    const BlockCount capacity = 64;
    mem::InterleavedBuffer buffer(capacity);
    std::vector<double> free_slots(capacity.value(), 0.0);  // reference: FIFO of free times
    size_t head = 0;  // model the deque with an index into a growing vector
    BlockCount occupied = 0;
    double clock = 0.0;

    for (int step = 0; step < 2000; ++step) {
      bool acquire = occupied == 0 || (rng.NextBelow(2) == 0 && occupied < capacity);
      if (acquire) {
        BlockCount take = 1 + rng.NextBelow((capacity - occupied).value());
        auto got = buffer.AcquireFree(take);
        ASSERT_TRUE(got.ok());
        double expected = 0.0;
        for (BlockCount i = 0; i < take; ++i) {
          expected = std::max(expected, free_slots[head++]);
        }
        ASSERT_DOUBLE_EQ(got.value().value(), expected) << "step " << step;
        occupied += take;
      } else {
        BlockCount give = 1 + rng.NextBelow(occupied.value());
        clock += 1.0 + static_cast<double>(rng.NextBelow(5));
        ASSERT_TRUE(buffer.Release(give, clock).ok());
        for (BlockCount i = 0; i < give; ++i) free_slots.push_back(clock);
        occupied -= give;
      }
      ASSERT_EQ(buffer.occupied_blocks(), occupied);
    }
  }
}

TEST(BlockCodecFuzzTest, RandomRecordsRoundTrip) {
  Rng rng(99);
  for (int round = 0; round < 50; ++round) {
    ByteCount record_bytes = 16 + rng.NextBelow(120);
    ByteCount block_bytes = 512 + rng.NextBelow(4) * 512;
    rel::Schema schema = rel::Schema::KeyPayload(record_bytes);
    if (block_bytes <= rel::kBlockHeaderBytes + record_bytes) continue;
    rel::BlockBuilder builder(&schema, block_bytes);
    rel::TupleBuilder tuple(&schema);
    std::vector<int64_t> keys;
    BlockCount count = rng.NextBelow(builder.capacity() + 1);
    for (BlockCount i = 0; i < count; ++i) {
      auto key = static_cast<int64_t>(rng.Next());
      keys.push_back(key);
      tuple.SetInt64(0, key);
      ASSERT_TRUE(builder.Append(tuple.bytes()).ok());
    }
    auto reader = rel::BlockReader::Open(builder.Finish(), &schema);
    ASSERT_TRUE(reader.ok());
    ASSERT_EQ(reader->record_count(), keys.size());
    for (std::uint64_t i = 0; i < keys.size(); ++i) {
      EXPECT_EQ(rel::Tuple(reader->record(i), &schema).GetInt64(0), keys[i]);
    }
  }
}

TEST(ZipfSamplerFuzzTest, FrequenciesFollowRankOrder) {
  // The top-ranked key must dominate; frequencies must roughly decay.
  rel::KeySampler sampler(rel::KeySequence::kZipf, 100, 1.2, 31);
  std::map<int64_t, int> histogram;
  for (int i = 0; i < 30000; ++i) histogram[sampler.Next(0)]++;
  std::vector<int> counts;
  for (const auto& [key, count] : histogram) counts.push_back(count);
  std::sort(counts.rbegin(), counts.rend());
  ASSERT_GE(counts.size(), 3u);
  EXPECT_GT(counts[0], 3 * counts[counts.size() / 2]);  // heavy head
  // All keys in domain.
  for (const auto& [key, count] : histogram) {
    EXPECT_GE(key, 0);
    EXPECT_LT(key, 100);
  }
}

}  // namespace
}  // namespace tertio
