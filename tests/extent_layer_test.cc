// Equivalence and property tests for the striped-disk extent layer:
// ExtentCursor against the plain slicing loop, DiskSpaceAllocator against a
// per-piece reference allocator, and StripedDiskGroup::ExtentChunkProfile
// against the chunk-by-chunk reference profile. The references below are the
// straightforward implementations the production code must agree with.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "disk/allocator.h"
#include "disk/disk_model.h"
#include "disk/extent.h"
#include "disk/striped_group.h"
#include "sim/auditor.h"
#include "sim/pipeline.h"
#include "sim/simulation.h"
#include "util/rng.h"

namespace tertio::disk {
namespace {

constexpr ByteCount kBlock = 1000;

// ---------------------------------------------------------------------------
// References
// ---------------------------------------------------------------------------

/// Slices by walking the list from its head on every call.
Result<ExtentList> ReferenceSlice(const ExtentList& extents, BlockCount offset,
                                  BlockCount count) {
  ExtentList out;
  BlockCount pos = 0;
  for (const Extent& e : extents) {
    if (count == 0) break;
    BlockCount ext_end = pos + e.count;
    if (ext_end <= offset) {
      pos = ext_end;
      continue;
    }
    BlockCount skip = offset > pos ? offset - pos : 0;
    BlockCount take = std::min<BlockCount>(e.count - skip, count);
    out.push_back(Extent{e.disk, e.start + skip, take});
    count -= take;
    offset += take;
    pos = ext_end;
  }
  if (count != 0) {
    return Status::InvalidArgument(
        "extent slice out of range: " + std::to_string(count.value()) +
        " blocks past the end of a " + std::to_string(TotalBlocks(extents).value()) +
        "-block sequence");
  }
  return out;
}

/// Round-robin first-fit allocator that edits its free map once per stripe
/// unit and once per freed piece.
class ReferenceAllocator {
 public:
  ReferenceAllocator(const std::vector<BlockCount>& per_disk_capacity, BlockCount stripe_unit)
      : stripe_unit_(stripe_unit) {
    for (BlockCount cap : per_disk_capacity) {
      FreeList list;
      if (cap > 0) list.emplace(0, cap);
      free_lists_.push_back(std::move(list));
      free_per_disk_.push_back(cap);
      capacity_ += cap;
    }
  }

  ReferenceAllocator(int disk_count, const ExtentList& region, BlockCount stripe_unit)
      : stripe_unit_(stripe_unit) {
    free_lists_.resize(static_cast<size_t>(disk_count));
    free_per_disk_.assign(static_cast<size_t>(disk_count), 0);
    for (const Extent& extent : region) {
      FreeOn(extent);
      capacity_ += extent.count;
    }
  }

  Result<ExtentList> Allocate(BlockCount count) {
    if (count == 0) return ExtentList{};
    const int n = static_cast<int>(free_lists_.size());
    BlockCount available = 0;
    for (int d = 0; d < n; ++d) available += free_per_disk_[static_cast<size_t>(d)];
    if (available < count) return Status::ResourceExhausted("full");
    ExtentList extents;
    BlockCount remaining = count;
    while (remaining > 0) {
      int disk = rr_cursor_;
      rr_cursor_ = (rr_cursor_ + 1) % n;
      if (free_per_disk_[static_cast<size_t>(disk)] == 0) continue;
      FreeList& list = free_lists_[static_cast<size_t>(disk)];
      auto it = list.begin();
      BlockCount take = std::min({remaining, stripe_unit_, it->second});
      Extent extent{disk, it->first, take};
      BlockIndex new_start = it->first + take;
      BlockCount left = it->second - take;
      list.erase(it);
      if (left > 0) list.emplace(new_start, left);
      free_per_disk_[static_cast<size_t>(disk)] -= take;
      remaining -= take;
      if (!extents.empty() && extents.back().disk == extent.disk &&
          extents.back().start + extents.back().count == extent.start) {
        extents.back().count += extent.count;
      } else {
        extents.push_back(extent);
      }
    }
    used_ += count;
    return extents;
  }

  void Free(const ExtentList& extents) {
    for (const Extent& extent : extents) FreeOn(extent);
    used_ -= TotalBlocks(extents);
  }

  BlockCount FreeBlocksOn(int disk) const { return free_per_disk_[static_cast<size_t>(disk)]; }
  BlockCount free_blocks() const { return capacity_ - used_; }
  BlockCount capacity_blocks() const { return capacity_; }

 private:
  using FreeList = std::map<BlockIndex, BlockCount>;

  void FreeOn(const Extent& extent) {
    FreeList& list = free_lists_[static_cast<size_t>(extent.disk)];
    auto [it, inserted] = list.emplace(extent.start, extent.count);
    ASSERT_TRUE(inserted) << "reference double free";
    auto next = std::next(it);
    if (next != list.end() && it->first + it->second == next->first) {
      it->second += next->second;
      list.erase(next);
    }
    if (it != list.begin()) {
      auto prev = std::prev(it);
      if (prev->first + prev->second == it->first) {
        prev->second += it->second;
        list.erase(it);
      }
    }
    free_per_disk_[static_cast<size_t>(extent.disk)] += extent.count;
  }

  std::vector<FreeList> free_lists_;
  std::vector<BlockCount> free_per_disk_;
  BlockCount stripe_unit_;
  BlockCount capacity_ = 0;
  BlockCount used_ = 0;
  int rr_cursor_ = 0;
};

/// Chunk-by-chunk profile: slices every chunk from the list head, checks it,
/// and compares whole patterns. A piece that does not continue its disk's
/// previous request is positioned and costs what DiskVolume::RequestCost
/// charges; a pattern with positioned pieces must repeat at least twice.
/// The commit replays the per-request bookkeeping piece by piece.
sim::ChunkCostProfile ReferenceChunkProfile(StripedDiskGroup& group, const ExtentList& extents,
                                            BlockCount offset, BlockCount chunk,
                                            std::uint64_t max_chunks, bool write) {
  if (chunk == 0 || max_chunks == 0) return {};
  const int disks = group.disk_count();
  for (int d = 0; d < disks; ++d) {
    const sim::FaultInjector* faults = group.disk(d)->fault_injector();
    if (faults != nullptr && faults->enabled()) return {};
  }
  BlockCount total = TotalBlocks(extents);
  if (offset >= total) return {};
  std::uint64_t n_max = (total - offset) / chunk;
  if (max_chunks < n_max) n_max = max_chunks;
  if (n_max < 2) return {};

  using Pattern = std::vector<std::tuple<int, BlockCount, bool>>;
  constexpr std::uint64_t kMaxCycle = 64;
  std::vector<Pattern> lead;
  std::vector<BlockIndex> next(static_cast<size_t>(disks), 0);
  std::vector<bool> touched(static_cast<size_t>(disks), false);
  std::uint64_t cycle = 0;
  std::uint64_t verified = 0;
  for (std::uint64_t c = 0; c < n_max; ++c) {
    Result<ExtentList> slice = ReferenceSlice(extents, offset + c * chunk, chunk);
    if (!slice.ok()) break;
    bool ok = true;
    Pattern pattern;
    for (const Extent& piece : *slice) {
      if (piece.disk < 0 || piece.disk >= disks ||
          piece.start + piece.count > group.disk(piece.disk)->capacity_blocks()) {
        ok = false;
        break;
      }
      auto d = static_cast<size_t>(piece.disk);
      bool positioned = touched[d] ? piece.start != next[d]
                                   : !group.disk(piece.disk)->IsSequential(piece.start);
      touched[d] = true;
      next[d] = piece.start + piece.count;
      pattern.emplace_back(piece.disk, piece.count, positioned);
    }
    if (!ok) break;
    if (cycle == 0) {
      if (c > 0 && pattern == lead[0]) {
        cycle = c;
      } else if (c >= kMaxCycle) {
        break;
      } else {
        lead.push_back(std::move(pattern));
        verified = c + 1;
        continue;
      }
    }
    if (pattern != lead[c % cycle]) break;
    verified = c + 1;
  }
  if (cycle == 0) cycle = verified;
  if (cycle == 0) return {};
  std::uint64_t chunks = (verified / cycle) * cycle;
  if (chunks < 2) return {};
  bool seeks = false;
  for (std::uint64_t c = 0; c < cycle; ++c) {
    for (const auto& piece : lead[c]) seeks = seeks || std::get<2>(piece);
  }
  if (seeks && chunks < 2 * cycle) return {};

  sim::ChunkCostProfile profile;
  profile.chunks = chunks;
  profile.cycle = cycle;
  for (std::uint64_t c = 0; c < cycle; ++c) {
    profile.ops_per_chunk.push_back(static_cast<std::uint32_t>(lead[c].size()));
    for (const auto& [disk_index, count, positioned] : lead[c]) {
      DiskVolume* disk = group.disk(disk_index);
      ByteCount bytes = count * group.block_bytes();
      SimSeconds seconds = disk->model().TransferSeconds(bytes);
      if (positioned) seconds += disk->model().positioning_seconds;
      profile.ops.push_back({disk->resource(), seconds, bytes});
    }
  }
  profile.commit = [&group, &extents, offset, chunk, write](std::uint64_t committed) {
    for (std::uint64_t c = 0; c < committed; ++c) {
      const ExtentList slice = *ReferenceSlice(extents, offset + c * chunk, chunk);
      for (const Extent& piece : slice) {
        DiskVolume* disk = group.disk(piece.disk);
        const bool positioned = !disk->IsSequential(piece.start);
        disk->CommitCoalesced(write, piece.count, 1, positioned ? 1 : 0,
                              piece.start + piece.count);
        if (write) disk->WritePhantom(piece.start, piece.count);
      }
    }
  };
  return profile;
}

// ---------------------------------------------------------------------------
// ExtentCursor
// ---------------------------------------------------------------------------

ExtentList RandomList(Rng& rng) {
  ExtentList list;
  const std::uint64_t n = rng.NextBelow(25);
  for (std::uint64_t i = 0; i < n; ++i) {
    BlockCount count = rng.NextBelow(5) == 0 ? 0 : 1 + rng.NextBelow(20);
    list.push_back(Extent{static_cast<int>(rng.NextBelow(4)), rng.NextBelow(1000), count});
  }
  return list;
}

void ExpectSameSlice(ExtentCursor& cursor, const ExtentList& list, BlockCount offset,
                     BlockCount count, ExtentList* out) {
  Status got = cursor.Slice(offset, count, out);
  Result<ExtentList> want = ReferenceSlice(list, offset, count);
  ASSERT_EQ(got.ok(), want.ok()) << "offset " << offset << " count " << count;
  if (want.ok()) {
    EXPECT_EQ(*out, *want) << "offset " << offset << " count " << count;
  } else {
    EXPECT_EQ(got.code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(got.message(), want.status().message());
  }
}

TEST(ExtentCursorTest, MatchesReferenceOverOffsetSequences) {
  enum Mode { kContiguous, kAscending, kRepeated, kRandom, kModes };
  for (std::uint64_t seed = 1; seed <= 400; ++seed) {
    Rng rng(seed);
    const ExtentList list = RandomList(rng);
    const BlockCount total = TotalBlocks(list);
    const auto mode = static_cast<Mode>(seed % kModes);
    ExtentCursor cursor(&list);
    ExtentList out;
    BlockCount offset = 0;
    for (int step = 0; step < 40; ++step) {
      BlockCount count = rng.NextBelow(4) == 0 ? 0 : rng.NextBelow(total.value() / 2 + 3);
      ExpectSameSlice(cursor, list, offset, count, &out);
      switch (mode) {
        case kContiguous:  // a transfer's chunks, running off the end
          offset += count;
          break;
        case kAscending:
          offset += rng.NextBelow(8);
          break;
        case kRepeated:
          if (rng.NextBelow(4) == 0) offset = rng.NextBelow(total.value() + 3);
          break;
        default:  // forward and backward seeks, past the end included
          offset = rng.NextBelow(total.value() + 5);
          break;
      }
    }
  }
}

TEST(ExtentCursorTest, ZeroCountAndPastEndSlices) {
  const ExtentList list{{0, 10, 5}, {1, 0, 0}, {1, 0, 3}};
  ExtentCursor cursor(&list);
  ExtentList out{{3, 3, 3}};
  ASSERT_TRUE(cursor.Slice(8, 0, &out).ok());
  EXPECT_TRUE(out.empty());
  ASSERT_TRUE(cursor.Slice(20, 0, &out).ok());
  EXPECT_TRUE(out.empty());
  ASSERT_TRUE(cursor.Slice(4, 2, &out).ok());
  EXPECT_EQ(out, (ExtentList{{0, 14, 1}, {1, 0, 1}}));  // the empty extent yields no piece
  Status past = cursor.Slice(6, 5, &out);
  EXPECT_EQ(past.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(cursor.Slice(9, 1, &out).code(), StatusCode::kInvalidArgument);
  // A failed slice leaves the cursor usable, backward seeks included.
  ASSERT_TRUE(cursor.Slice(0, 8, &out).ok());
  EXPECT_EQ(out, (ExtentList{{0, 10, 5}, {1, 0, 3}}));
}

TEST(ExtentCursorTest, RestsOnTheExtentTheSliceEndedIn) {
  const ExtentList list{{0, 10, 5}, {1, 0, 3}, {0, 20, 4}};
  ExtentCursor cursor(&list);
  ExtentList out;
  ASSERT_TRUE(cursor.Slice(1, 3, &out).ok());
  EXPECT_EQ(cursor.base(), 0u);  // ended inside extent 0
  ASSERT_TRUE(cursor.Slice(4, 3, &out).ok());
  EXPECT_EQ(cursor.base(), 5u);  // ended inside extent 1
  EXPECT_EQ(cursor.Seek(8), 2u);
  EXPECT_EQ(cursor.base(), 8u);
  EXPECT_EQ(cursor.Seek(1), 0u);  // a backward seek rewinds
  EXPECT_EQ(cursor.base(), 0u);
  EXPECT_EQ(cursor.Seek(12), 3u);  // past the end
}

TEST(ExtentCursorTest, FollowsAListGrowingAtTheBack) {
  // A partitioner appends each flush to its bucket while readers may
  // already hold a cursor over the bucket.
  ExtentList list{{0, 0, 4}};
  ExtentCursor cursor(&list);
  ExtentList out;
  ASSERT_TRUE(cursor.Slice(0, 4, &out).ok());
  EXPECT_EQ(cursor.Slice(4, 1, &out).code(), StatusCode::kInvalidArgument);
  list.push_back({1, 8, 4});
  list.push_back({0, 4, 4});
  ASSERT_TRUE(cursor.Slice(2, 8, &out).ok());
  EXPECT_EQ(out, (ExtentList{{0, 2, 2}, {1, 8, 4}, {0, 4, 2}}));
  ASSERT_TRUE(cursor.Slice(10, 2, &out).ok());
  EXPECT_EQ(out, (ExtentList{{0, 6, 2}}));
}

// ---------------------------------------------------------------------------
// DiskSpaceAllocator
// ---------------------------------------------------------------------------

void ExpectSameFreeSpace(const DiskSpaceAllocator& alloc, const ReferenceAllocator& ref,
                         int disks) {
  EXPECT_EQ(alloc.free_blocks(), ref.free_blocks());
  for (int d = 0; d < disks; ++d) EXPECT_EQ(alloc.FreeBlocksOn(d), ref.FreeBlocksOn(d)) << d;
}

/// Random allocations and frees of whole allocations, of their heads or
/// tails, in list or reversed order, on both allocators.
void RunRandomOps(Rng& rng, DiskSpaceAllocator& alloc, ReferenceAllocator& ref, int disks,
                  int steps) {
  std::vector<ExtentList> live;
  for (int step = 0; step < steps; ++step) {
    if (live.empty() || rng.NextBelow(100) < 55) {
      BlockCount count = rng.NextBelow(150);
      Result<ExtentList> got = alloc.Allocate(count, static_cast<double>(step), "prop");
      Result<ExtentList> want = ref.Allocate(count);
      ASSERT_EQ(got.ok(), want.ok()) << "step " << step;
      if (got.ok()) {
        ASSERT_EQ(*got, *want) << "step " << step;
        if (!got->empty()) live.push_back(std::move(*got));
      }
    } else {
      size_t victim = rng.NextBelow(live.size());
      ExtentList& held = live[victim];
      BlockCount total = TotalBlocks(held);
      BlockCount cut = rng.NextBelow(total.value() + 1);
      ExtentList head = *ReferenceSlice(held, 0, cut);
      ExtentList tail = *ReferenceSlice(held, cut, total - cut);
      bool free_head = rng.NextBelow(2) == 0;
      ExtentList& freed = free_head ? head : tail;
      ExtentList& kept = free_head ? tail : head;
      if (rng.NextBelow(3) == 0) std::reverse(freed.begin(), freed.end());
      ASSERT_TRUE(alloc.Free(freed, static_cast<double>(step), "prop").ok());
      ref.Free(freed);
      if (kept.empty()) {
        live.erase(live.begin() + static_cast<long>(victim));
      } else {
        held = std::move(kept);
      }
    }
    ExpectSameFreeSpace(alloc, ref, disks);
  }
}

std::vector<BlockCount> RandomCapacities(Rng& rng, int disks) {
  std::vector<BlockCount> caps;
  for (int d = 0; d < disks; ++d) {
    caps.push_back(rng.NextBelow(5) == 0 ? 0 : 50 + rng.NextBelow(400));
  }
  if (disks == 1 && caps[0] == 0) caps[0] = 100;
  return caps;
}

TEST(AllocatorPropertyTest, MatchesPerPieceReference) {
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    Rng rng(seed);
    const int disks = 1 + static_cast<int>(rng.NextBelow(4));
    const BlockCount stripe = 1 + rng.NextBelow(40);
    const std::vector<BlockCount> caps = RandomCapacities(rng, disks);
    DiskSpaceAllocator alloc(caps, stripe);
    ReferenceAllocator ref(caps, stripe);
    RunRandomOps(rng, alloc, ref, disks, 400);
    if (HasFatalFailure()) return;
  }
}

TEST(AllocatorPropertyTest, RegionAllocatorMatchesReference) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    Rng rng(seed);
    const int disks = 1 + static_cast<int>(rng.NextBelow(4));
    const BlockCount stripe = 1 + rng.NextBelow(40);
    // Carve the region out of a fragmented site allocator, as a query
    // session carves its D_q.
    DiskSpaceAllocator site(std::vector<BlockCount>(static_cast<size_t>(disks), 600), stripe);
    std::vector<ExtentList> held;
    for (int i = 0; i < 12; ++i) held.push_back(*site.Allocate(1 + rng.NextBelow(40), 0.0, "s"));
    for (size_t i = 0; i < held.size(); i += 2) ASSERT_TRUE(site.Free(held[i], 0.0, "s").ok());
    ExtentList region = *site.Allocate(1 + rng.NextBelow(site.free_blocks().value()), 0.0, "carve");
    if (rng.NextBelow(2) == 0) std::reverse(region.begin(), region.end());
    DiskSpaceAllocator alloc(disks, region, stripe);
    ReferenceAllocator ref(disks, region, stripe);
    EXPECT_EQ(alloc.capacity_blocks(), ref.capacity_blocks());
    ExpectSameFreeSpace(alloc, ref, disks);
    RunRandomOps(rng, alloc, ref, disks, 300);
    if (HasFatalFailure()) return;
  }
}

TEST(AllocatorDeathTest, ExactDoubleFreeAborts) {
  DiskSpaceAllocator alloc({100}, 100);
  ExtentList a = *alloc.Allocate(20, 0.0, "a");
  ASSERT_TRUE(alloc.Allocate(20, 0.0, "b").ok());
  ASSERT_TRUE(alloc.Free(a, 1.0, "a").ok());
  EXPECT_DEATH((void)alloc.Free(a, 2.0, "a"), "double free");
}

TEST(AllocatorDeathTest, FreeContainedInAHoleAborts) {
  // [0, 20) allocated, [20, 100) free: a piece inside the hole is not owned.
  DiskSpaceAllocator alloc({100}, 100);
  ASSERT_TRUE(alloc.Allocate(20, 0.0, "a").ok());
  EXPECT_DEATH((void)alloc.Free({{0, 30, 5}}, 1.0, "x"), "double free");
  EXPECT_EQ(alloc.FreeBlocksOn(0), 80u);
}

TEST(AllocatorDeathTest, FreeStraddlingAHoleAborts) {
  DiskSpaceAllocator alloc({100}, 100);
  ExtentList all = *alloc.Allocate(100, 0.0, "all");
  ASSERT_TRUE(alloc.Free({{0, 10, 10}}, 1.0, "hole").ok());  // hole [10, 20)
  EXPECT_DEATH((void)alloc.Free({{0, 15, 10}}, 2.0, "x"), "double free");  // into its tail
  EXPECT_DEATH((void)alloc.Free({{0, 5, 7}}, 2.0, "x"), "double free");    // into its head
  EXPECT_DEATH((void)alloc.Free({{0, 5, 20}}, 2.0, "x"), "double free");   // across it
  // The same blocks twice within one call.
  EXPECT_DEATH((void)alloc.Free({{0, 30, 5}, {0, 30, 5}}, 2.0, "x"), "double free");
  ASSERT_TRUE(alloc.Free({{0, 0, 10}, {0, 20, 80}}, 3.0, "rest").ok());
  EXPECT_EQ(alloc.FreeBlocksOn(0), 100u);
  EXPECT_EQ(*alloc.Allocate(100, 4.0, "again"), (ExtentList{{0, 0, 100}}));
}

// ---------------------------------------------------------------------------
// ExtentChunkProfile
// ---------------------------------------------------------------------------

enum class Layout { kFresh, kBuckets, kRing, kCount };

/// A disk group, a layout on it and the disks' cursors after a warm-up, built
/// deterministically from a seed so two copies evolve identically.
struct World {
  sim::Simulation sim;
  std::unique_ptr<StripedDiskGroup> group;
  ExtentList layout;
  BlockCount warm = 0;
  /// Partitioner flush size of a kBuckets layout (0 otherwise).
  BlockCount flush = 0;
};

std::unique_ptr<World> BuildWorld(std::uint64_t seed, Layout kind) {
  Rng rng(seed);
  auto world = std::make_unique<World>();
  const int disks = 1 + static_cast<int>(rng.NextBelow(4));
  constexpr BlockCount kStripes[] = {4, 8, 32};
  const BlockCount stripe = kStripes[rng.NextBelow(3)];
  DiskGroupConfig config =
      DiskGroupConfig::Uniform(disks, DiskModel::QuantumFireball1080(),
                               static_cast<std::uint64_t>(disks) * 2048, kBlock, stripe);
  world->group = std::make_unique<StripedDiskGroup>(config, &world->sim);
  DiskSpaceAllocator& alloc = world->group->allocator();
  switch (kind) {
    case Layout::kFresh:
      if (rng.NextBelow(2) == 0) {
        EXPECT_TRUE(alloc.Allocate(1 + rng.NextBelow(100), 0.0, "pad").ok());
      }
      world->layout = *alloc.Allocate(1 + rng.NextBelow(1500), 0.0, "layout");
      break;
    case Layout::kBuckets: {
      // Interleaved partitioner flushes; freeing other buckets on the way
      // leaves holes that later flushes refill out of address order. Half
      // the layouts flush the buckets in turn, as an even hash split does,
      // so a bucket's flushes repeat one seeking pattern across the disks.
      const std::uint64_t buckets = 2 + rng.NextBelow(4);
      const BlockCount flush = 1 + rng.NextBelow(20);
      const bool in_turn = rng.NextBelow(2) == 0;
      world->flush = flush;
      std::vector<ExtentList> lists(buckets);
      const std::uint64_t flushes = 20 + rng.NextBelow(60);
      for (std::uint64_t f = 0; f < flushes; ++f) {
        ExtentList& list = lists[in_turn ? f % buckets : f == 0 ? 0 : rng.NextBelow(buckets)];
        ExtentList extents = *alloc.Allocate(flush, 0.0, "bucket");
        list.insert(list.end(), extents.begin(), extents.end());
        std::uint64_t other = 1 + rng.NextBelow(buckets - 1);
        if (!in_turn && rng.NextBelow(8) == 0 && !lists[other].empty()) {
          EXPECT_TRUE(alloc.Free(lists[other], 0.0, "bucket").ok());
          lists[other].clear();
        }
      }
      world->layout = lists[0];
      break;
    }
    default: {
      // An NB ring read from a position past its start: the list wraps
      // from the ring's tail back to its head.
      const BlockCount ring_blocks = 16 + rng.NextBelow(600);
      ExtentList ring = *alloc.Allocate(ring_blocks, 0.0, "ring");
      const BlockCount pos = rng.NextBelow(ring_blocks.value());
      world->layout = *ReferenceSlice(ring, pos, ring_blocks - pos);
      ExtentList head = *ReferenceSlice(ring, 0, pos);
      world->layout.insert(world->layout.end(), head.begin(), head.end());
      break;
    }
  }
  // Warm-up: read a prefix so each disk's cursor sits where the layout
  // continues; sometimes knock one disk's head elsewhere.
  world->warm = rng.NextBelow(TotalBlocks(world->layout).value() + 1);
  if (world->warm > 0) {
    ExtentList prefix = *ReferenceSlice(world->layout, 0, world->warm);
    EXPECT_TRUE(world->group->ReadExtents(prefix, 0.0).ok());
  }
  if (rng.NextBelow(4) == 0) {
    const auto d = static_cast<int>(rng.NextBelow(static_cast<std::uint64_t>(disks)));
    DiskVolume* disk = world->group->disk(d);
    EXPECT_TRUE(disk->Read(rng.NextBelow(2000), 1, 0.0).ok());
  }
  return world;
}

void ExpectSameProfile(const sim::ChunkCostProfile& want, const sim::ChunkCostProfile& got) {
  ASSERT_EQ(got.chunks, want.chunks);
  if (want.chunks == 0) return;
  EXPECT_EQ(got.cycle, want.cycle);
  EXPECT_EQ(got.ops_per_chunk, want.ops_per_chunk);
  ASSERT_EQ(got.ops.size(), want.ops.size());
  for (size_t i = 0; i < want.ops.size(); ++i) {
    EXPECT_EQ(got.ops[i].resource->name(), want.ops[i].resource->name()) << i;
    EXPECT_EQ(got.ops[i].seconds, want.ops[i].seconds) << i;  // bit-identical
    EXPECT_EQ(got.ops[i].bytes, want.ops[i].bytes) << i;
  }
  EXPECT_EQ(static_cast<bool>(got.commit), static_cast<bool>(want.commit));
}

/// True when some op of the profile pays positioning time (every World disk
/// is a QuantumFireball1080).
bool Seeks(const sim::ChunkCostProfile& profile) {
  for (const sim::ChunkCostProfile::Op& op : profile.ops) {
    if (op.seconds != DiskModel::QuantumFireball1080().TransferSeconds(op.bytes)) return true;
  }
  return false;
}

void ExpectSameDisks(StripedDiskGroup& want, StripedDiskGroup& got) {
  for (int d = 0; d < want.disk_count(); ++d) {
    const DiskStats& a = want.disk(d)->stats();
    const DiskStats& b = got.disk(d)->stats();
    EXPECT_EQ(b.blocks_read, a.blocks_read) << d;
    EXPECT_EQ(b.blocks_written, a.blocks_written) << d;
    EXPECT_EQ(b.requests, a.requests) << d;
    EXPECT_EQ(b.positioned_requests, a.positioned_requests) << d;
    // The sequential cursor: exactly the same blocks continue the head.
    for (std::uint64_t p = 0; p <= want.disk(d)->capacity_blocks().value(); ++p) {
      ASSERT_EQ(got.disk(d)->IsSequential(p), want.disk(d)->IsSequential(p)) << d << " @" << p;
    }
  }
}

TEST(ExtentChunkProfileTest, MatchesChunkByChunkReference) {
  constexpr std::uint64_t kCaps[] = {0, 1, 2, 3, 5, 63, 64, 65, 200,
                                     std::numeric_limits<std::uint64_t>::max()};
  std::uint64_t profiles = 0;
  std::uint64_t cyclic = 0;
  std::uint64_t commits = 0;
  std::uint64_t seeking_profiles = 0;  // on the partitioned-bucket layouts
  std::uint64_t seeking_commits = 0;
  for (std::uint64_t seed = 1; seed <= 150; ++seed) {
    for (int k = 0; k < static_cast<int>(Layout::kCount); ++k) {
      const auto kind = static_cast<Layout>(k);
      std::unique_ptr<World> ref_world = BuildWorld(seed, kind);
      std::unique_ptr<World> world = BuildWorld(seed, kind);
      ASSERT_EQ(world->layout, ref_world->layout);
      Rng rng(seed * 7919 + static_cast<std::uint64_t>(k));
      const BlockCount total = TotalBlocks(world->layout);
      const BlockCount stripe = world->group->allocator().stripe_unit();
      ExtentWalk walk(&world->layout);  // one endpoint, reused across queries
      BlockCount resume = world->warm;    // where the disks' cursors continue
      for (int q = 0; q < 8; ++q) {
        BlockCount offset = q == 1 ? total  // at the end
                            : rng.NextBelow(3) == 0 ? rng.NextBelow(total.value() + 3)
                                                    : resume;
        BlockCount chunk = rng.NextBelow(2) == 0 ? stripe * (1 + rng.NextBelow(4))
                                                 : 1 + rng.NextBelow(3 * stripe.value());
        // A bucket is scanned one flush (or two) per chunk, as the GH
        // methods' probe scans read it.
        if (kind == Layout::kBuckets && rng.NextBelow(2) == 0) {
          chunk = world->flush * (1 + rng.NextBelow(2));
        }
        std::uint64_t cap = kCaps[rng.NextBelow(std::size(kCaps))];
        bool write = rng.NextBelow(2) == 0;
        sim::ChunkCostProfile want = ReferenceChunkProfile(*ref_world->group, ref_world->layout,
                                                           offset, chunk, cap, write);
        sim::ChunkCostProfile got =
            world->group->ExtentChunkProfile(walk, offset, chunk, cap, write);
        SCOPED_TRACE(testing::Message() << "seed " << seed << " layout " << k << " query " << q
                                        << " offset " << offset << " chunk " << chunk
                                        << " cap " << cap);
        ExpectSameProfile(want, got);
        if (HasFatalFailure()) return;
        if (want.chunks == 0) continue;
        ++profiles;
        if (want.cycle > 1) ++cyclic;
        const bool seeking = kind == Layout::kBuckets && Seeks(want);
        if (seeking) ++seeking_profiles;
        if (rng.NextBelow(2) == 0) {
          // Commit a whole number of periods on both copies; later queries
          // then start from the committed cursors.
          std::uint64_t committed = want.cycle * (1 + rng.NextBelow(want.chunks / want.cycle));
          want.commit(committed);
          got.commit(committed);
          resume = offset + chunk * committed;
          ++commits;
          if (seeking) ++seeking_commits;
          ExpectSameDisks(*ref_world->group, *world->group);
          if (HasFatalFailure()) return;
        }
      }
    }
  }
  // The randomized layouts must reach the interesting cases.
  EXPECT_GT(profiles, 200u);
  EXPECT_GT(cyclic, 50u);
  EXPECT_GT(commits, 100u);
  // Scans of partitioned buckets seek on every flush; their repeating
  // patterns must be profiled and committed too.
  EXPECT_GT(seeking_profiles, 40u);
  EXPECT_GT(seeking_commits, 20u);
}

TEST(ExtentChunkProfileTest, PatternPeriodBeyondTheCapStopsAtSixtyFourChunks) {
  // 33-block chunks over a 4 x 32-block stripe ring: chunk c starts at 33c
  // mod 128, so chunk 0's pattern recurs only at chunk 128. The profile
  // accepts the 64 verified lead chunks as one cycle.
  sim::Simulation sim;
  StripedDiskGroup group(
      DiskGroupConfig::Uniform(4, DiskModel::QuantumFireball1080(), 8192, kBlock, 32), &sim);
  ExtentList layout = *group.allocator().Allocate(4096, 0.0, "layout");
  ASSERT_TRUE(group.ReadExtents(*ReferenceSlice(layout, 0, 128), 0.0).ok());
  ExtentWalk walk(&layout);
  for (std::uint64_t cap : {63u, 64u, 65u, 200u}) {
    sim::ChunkCostProfile want = ReferenceChunkProfile(group, layout, 128, 33, cap, false);
    sim::ChunkCostProfile got = group.ExtentChunkProfile(walk, 128, 33, cap, false);
    ExpectSameProfile(want, got);
    EXPECT_EQ(got.cycle, std::min<std::uint64_t>(cap, 64)) << cap;
    EXPECT_EQ(got.chunks, got.cycle) << cap;
  }
}

/// The kept answer to `question` in `walk`'s memo, or null.
const ExtentWalk::Answer* MemoAnswer(const ExtentWalk& walk,
                                     const ExtentWalk::Question& question) {
  for (const ExtentWalk::Answer& answer : walk.memo) {
    if (answer.question == question) return &answer;
  }
  return nullptr;
}

TEST(ExtentChunkProfileTest, ReusedAnswersMatchAFreshWalk) {
  std::uint64_t hits = 0;
  std::uint64_t flips = 0;  // positioned requests that changed a kept answer's disk
  std::uint64_t appends = 0;
  for (std::uint64_t seed = 1; seed <= 80; ++seed) {
    for (int k = 0; k < static_cast<int>(Layout::kCount); ++k) {
      const auto kind = static_cast<Layout>(k);
      std::unique_ptr<World> ref_world = BuildWorld(seed, kind);
      std::unique_ptr<World> world = BuildWorld(seed, kind);
      // Every reuse is counted by the auditor's memo cross-check.
      sim::Auditor* auditor = world->sim.EnableAudit();
      world->group->BindAuditor(auditor);
      Rng rng(seed * 6151 + static_cast<std::uint64_t>(k));
      const BlockCount stripe = world->group->allocator().stripe_unit();
      BlockCount chunk = rng.NextBelow(2) == 0 ? stripe * (1 + rng.NextBelow(4))
                                               : 1 + rng.NextBelow(3 * stripe.value());
      if (kind == Layout::kBuckets && rng.NextBelow(2) == 0) chunk = world->flush;
      // Every scan asks at least one question.
      chunk = std::min(chunk, TotalBlocks(world->layout));
      if (chunk == 0) continue;
      const bool write = rng.NextBelow(2) == 0;
      ExtentWalk walk(&world->layout);
      // One scan asks what a Transfer over the whole list asks at each
      // full-chunk offset; nothing is committed, so the disks stay put.
      // `reuse` says which questions must be answered from the memo: all,
      // none, or those whose first-touch answers still hold.
      enum class Reuse { kAll, kNone, kWhereTouchesHold };
      auto scan = [&](Reuse reuse) {
        const BlockCount total = TotalBlocks(world->layout);
        for (BlockCount offset = 0; offset + chunk <= total; offset += chunk) {
          const std::uint64_t cap = (total - offset) / chunk;
          const ExtentWalk::Question question{offset, chunk, cap, write, world->layout.size()};
          bool expect_hit = reuse == Reuse::kAll;
          if (reuse == Reuse::kWhereTouchesHold) {
            const ExtentWalk::Answer* kept = MemoAnswer(walk, question);
            expect_hit = kept != nullptr;
            for (std::size_t i = 0; expect_hit && i < kept->touches.size(); ++i) {
              const ExtentWalk::FirstTouch& t = kept->touches[i];
              expect_hit = world->group->disk(t.disk)->IsSequential(t.start) == t.sequential;
            }
          }
          const std::uint64_t checks = auditor->checks_performed();
          sim::ChunkCostProfile got =
              world->group->ExtentChunkProfile(walk, offset, chunk, cap, write);
          const bool hit = auditor->checks_performed() > checks;
          SCOPED_TRACE(testing::Message() << "seed " << seed << " layout " << k << " reuse "
                                          << static_cast<int>(reuse) << " offset " << offset
                                          << " chunk " << chunk << " cap " << cap);
          EXPECT_EQ(hit, expect_hit);
          hits += hit ? 1 : 0;
          ExpectSameProfile(ReferenceChunkProfile(*ref_world->group, ref_world->layout, offset,
                                                  chunk, cap, write),
                            got);
          if (HasFatalFailure()) return;
        }
      };
      scan(Reuse::kNone);  // a list scanned once keeps nothing
      scan(Reuse::kNone);  // the re-scan keeps its answers
      scan(Reuse::kAll);
      if (HasFatalFailure()) return;

      // A positioned request elsewhere: flip the first-touch answer the
      // first question rests on, on both copies.
      const ExtentWalk::Answer* first = MemoAnswer(
          walk, ExtentWalk::Question{0, chunk, TotalBlocks(world->layout) / chunk, write,
                                     world->layout.size()});
      if (first != nullptr && !first->touches.empty()) {
        const ExtentWalk::FirstTouch t = first->touches.front();
        const std::uint64_t capacity = world->group->disk(t.disk)->capacity_blocks().value();
        // Ending a read at `start` makes it sequential; ending one anywhere
        // else makes it positioned.
        std::uint64_t at = t.sequential ? (t.start.value() + 7) % capacity : t.start.value() - 1;
        if (t.sequential || t.start > 0) {
          if (t.sequential && at + 1 == t.start.value()) at = (at + 2) % capacity;
          for (World* w : {ref_world.get(), world.get()}) {
            EXPECT_TRUE(w->group->disk(t.disk)->Read(at, 1, 0.0).ok());
          }
          ASSERT_NE(world->group->disk(t.disk)->IsSequential(t.start), t.sequential);
          ++flips;
          scan(Reuse::kWhereTouchesHold);
          if (HasFatalFailure()) return;
        }
      }

      // An extent appended at the back is a new list: every question walks.
      const BlockCount more = std::min<BlockCount>(1 + rng.NextBelow(100),
                                                   world->group->allocator().free_blocks());
      if (more > 0) {
        for (World* w : {ref_world.get(), world.get()}) {
          ExtentList extents = *w->group->allocator().Allocate(more, 0.0, "append");
          w->layout.insert(w->layout.end(), extents.begin(), extents.end());
        }
        ASSERT_EQ(world->layout, ref_world->layout);
        ++appends;
        scan(Reuse::kNone);
        scan(Reuse::kAll);
        if (HasFatalFailure()) return;
      }
      EXPECT_TRUE(auditor->clean()) << auditor->TraceString();
    }
  }
  EXPECT_GT(hits, 2000u);
  EXPECT_GT(flips, 100u);
  EXPECT_GT(appends, 150u);
}

TEST(ExtentChunkProfileTest, CrossCheckCatchesACorruptedAnswer) {
  sim::Simulation sim;
  StripedDiskGroup group(
      DiskGroupConfig::Uniform(2, DiskModel::QuantumFireball1080(), 4096, kBlock, 32), &sim);
  sim::Auditor* auditor = sim.EnableAudit();
  group.BindAuditor(auditor);
  ExtentList layout = *group.allocator().Allocate(2048, 0.0, "layout");
  ASSERT_TRUE(group.ReadExtents(*ReferenceSlice(layout, 0, 64), 0.0).ok());
  ExtentWalk walk(&layout);
  for (int scan = 0; scan < 2; ++scan) {
    ASSERT_GT(group.ExtentChunkProfile(walk, 64, 32, 60, false).chunks, 0u);
  }
  ASSERT_EQ(walk.memo.size(), 1u);
  EXPECT_TRUE(auditor->clean());
  walk.memo.front().ops.front().seconds += 1.0;
  (void)group.ExtentChunkProfile(walk, 64, 32, 60, false);
  ASSERT_FALSE(auditor->clean());
  EXPECT_EQ(auditor->violations().front().kind, sim::AuditKind::kProfileMemoDivergence);
  EXPECT_NE(auditor->violations().front().detail.find("op"), std::string::npos);
  auditor->Clear();  // a SimSan build fails a Simulation that ends unclean
}

}  // namespace
}  // namespace tertio::disk
