// Unit tests for tertio_disk: disk model, volume, allocator, striped group.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <memory>

#include "disk/allocator.h"
#include "disk/disk_model.h"
#include "disk/disk_volume.h"
#include "disk/striped_group.h"
#include "sim/simulation.h"
#include "util/rng.h"

namespace tertio::disk {
namespace {

constexpr ByteCount kBlock = 1000;

TEST(DiskModelTest, TransferSeconds) {
  DiskModel m = DiskModel::Ideal(1000.0);
  EXPECT_DOUBLE_EQ((m.TransferSeconds(5000)).value(), 5.0);
}

/// One write request of `count` blocks at `start`, committed the way every
/// write reaches a volume: a batch of one WritePiece. `payloads`, when set,
/// holds `count` blocks; null writes phantoms.
sim::Interval CommitOne(DiskVolume& disk, BlockIndex start, BlockCount count, SimSeconds ready,
                        const BlockPayload* payloads = nullptr) {
  WritePiece piece{0, start, count, ready, payloads, {}};
  disk.CommitWrites(std::span<WritePiece>(&piece, 1), 0);
  return piece.interval;
}

TEST(DiskVolumeTest, SequentialRequestsSkipPositioning) {
  sim::Simulation sim;
  DiskModel m = DiskModel::QuantumFireball1080();
  DiskVolume disk("d0", m, sim.CreateResource("d0"), 100, kBlock);
  ASSERT_TRUE(disk.CheckRange(0, 10).ok());
  sim::Interval a = CommitOne(disk, 0, 10, 0.0);
  EXPECT_NEAR((a.duration()).value(), (m.positioning_seconds + m.TransferSeconds(10 * kBlock)).value(), 1e-12);
  ASSERT_TRUE(disk.CheckRange(10, 10).ok());
  sim::Interval b = CommitOne(disk, 10, 10, a.end);  // continues sequentially
  EXPECT_NEAR((b.duration()).value(), (m.TransferSeconds(10 * kBlock)).value(), 1e-12);
  EXPECT_EQ(disk.stats().positioned_requests, 1u);
  EXPECT_EQ(disk.stats().requests, 2u);
}

TEST(DiskVolumeTest, DiscontiguousRequestPaysPositioning) {
  sim::Simulation sim;
  DiskModel m = DiskModel::QuantumFireball1080();
  DiskVolume disk("d0", m, sim.CreateResource("d0"), 100, kBlock);
  ASSERT_TRUE(disk.CheckRange(0, 10).ok());
  CommitOne(disk, 0, 10, 0.0);
  auto b = disk.Read(50, 10, 100.0);
  ASSERT_TRUE(b.ok());
  EXPECT_NEAR((b->duration()).value(), (m.positioning_seconds + m.TransferSeconds(10 * kBlock)).value(), 1e-12);
  EXPECT_EQ(disk.stats().positioned_requests, 2u);
}

TEST(DiskVolumeTest, ThirtyBlockRequestsMakePositioningNegligible) {
  // The paper's Section 3.2 claim: with requests of >= 30 blocks, seek and
  // rotational latency play "a relatively minor role" against transfer cost.
  DiskModel m = DiskModel::QuantumFireball1080();
  double transfer = m.TransferSeconds(30 * kDefaultBlockBytes).value();
  EXPECT_LT(m.positioning_seconds / (transfer + m.positioning_seconds), 0.25);
}

TEST(DiskVolumeTest, DataRoundTrips) {
  sim::Simulation sim;
  DiskVolume disk("d0", DiskModel::Ideal(1e6), sim.CreateResource("d0"), 10, kBlock);
  std::vector<BlockPayload> payloads{MakePayload(std::vector<uint8_t>(kBlock.value(), 0xAA)),
                                     MakePayload(std::vector<uint8_t>(kBlock.value(), 0xBB))};
  ASSERT_TRUE(disk.CheckRange(3, 2).ok());
  CommitOne(disk, 3, 2, 0.0, payloads.data());
  std::vector<BlockPayload> out;
  ASSERT_TRUE(disk.Read(3, 2, 1.0, &out).ok());
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ((*out[0])[0], 0xAA);
  EXPECT_EQ((*out[1])[0], 0xBB);
}

TEST(DiskVolumeTest, OutOfRangeRejected) {
  sim::Simulation sim;
  DiskVolume disk("d0", DiskModel::Ideal(1e6), sim.CreateResource("d0"), 10, kBlock);
  EXPECT_FALSE(disk.Read(5, 6, 0.0).ok());
  EXPECT_FALSE(disk.CheckRange(10, 1).ok());
}

/// Resident set size of this process, from /proc/self/statm (0 when the
/// file cannot be read).
std::uint64_t ResidentBytes() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  unsigned long long size = 0;
  unsigned long long resident = 0;
  const int read = std::fscanf(f, "%llu %llu", &size, &resident);
  std::fclose(f);
  if (read != 2) return 0;
  return resident * static_cast<std::uint64_t>(sysconf(_SC_PAGESIZE));
}

TEST(DiskVolumeTest, PhantomOnlyVolumeHoldsNoBlockStore) {
  // 2^24 blocks: a per-block payload slot would be 256 MiB.
  constexpr std::uint64_t kBlocks = std::uint64_t{1} << 24;
  sim::Simulation sim;
  const std::uint64_t before = ResidentBytes();
  ASSERT_GT(before, 0u);
  auto disk = std::make_unique<DiskVolume>("d0", DiskModel::Ideal(1e9), sim.CreateResource("d0"),
                                           kBlocks, kBlock);
  EXPECT_EQ(disk->capacity_blocks(), kBlocks);
  constexpr std::uint64_t kRequest = kBlocks / 16;
  SimSeconds t = 0.0;
  for (std::uint64_t start = 0; start < kBlocks; start += kRequest) {
    ASSERT_TRUE(disk->CheckRange(start, kRequest).ok());
    sim::Interval w = CommitOne(*disk, start, kRequest, t);
    disk->WritePhantom(start, kRequest);
    auto r = disk->Read(start, kRequest, w.end);
    ASSERT_TRUE(r.ok());
    t = r->end;
  }
  const std::uint64_t after = ResidentBytes();
  EXPECT_LT(after > before ? after - before : 0, std::uint64_t{16} << 20);
  EXPECT_FALSE(disk->CheckRange(kBlocks - 1, 2).ok());  // the capacity still bounds requests

  // Phantom blocks read back as null payloads; a real payload, once
  // written, reads back beside them.
  std::vector<BlockPayload> out;
  ASSERT_TRUE(disk->Read(kBlocks - 3, 3, t, &out).ok());
  ASSERT_EQ(out.size(), 3u);
  for (const BlockPayload& payload : out) EXPECT_EQ(payload, nullptr);
  BlockPayload real = MakePayload(std::vector<uint8_t>(kBlock.value(), 0xCC));
  ASSERT_TRUE(disk->CheckRange(kBlocks - 2, 1).ok());
  CommitOne(*disk, kBlocks - 2, 1, t, &real);
  out.clear();
  ASSERT_TRUE(disk->Read(kBlocks - 3, 3, t, &out).ok());
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0], nullptr);
  ASSERT_NE(out[1], nullptr);
  EXPECT_EQ((*out[1])[0], 0xCC);
  EXPECT_EQ(out[2], nullptr);
  // A phantom write over a real payload clears it again.
  disk->WritePhantom(kBlocks - 2, 1);
  out.clear();
  ASSERT_TRUE(disk->Read(kBlocks - 2, 1, t, &out).ok());
  EXPECT_EQ(out[0], nullptr);
}

TEST(AllocatorTest, StripesAcrossDisks) {
  DiskSpaceAllocator alloc({100, 100}, /*stripe_unit=*/10);
  auto extents = alloc.Allocate(40, 0.0, "buf");
  ASSERT_TRUE(extents.ok());
  EXPECT_EQ(TotalBlocks(*extents), 40u);
  // Round-robin in 10-block stripes over 2 disks: 20 blocks on each.
  BlockCount on_disk[2] = {0, 0};
  for (const Extent& e : *extents) on_disk[e.disk] += e.count;
  EXPECT_EQ(on_disk[0], 20u);
  EXPECT_EQ(on_disk[1], 20u);
  EXPECT_EQ(alloc.used_blocks(), 40u);
  EXPECT_EQ(alloc.free_blocks(), 160u);
}

TEST(AllocatorTest, ExhaustionRejected) {
  DiskSpaceAllocator alloc({10, 10}, 4);
  EXPECT_FALSE(alloc.Allocate(21, 0.0, "big").ok());
  ASSERT_TRUE(alloc.Allocate(20, 0.0, "fits").ok());
  EXPECT_FALSE(alloc.Allocate(1, 0.0, "one").ok());
}

TEST(AllocatorTest, FreeCoalescesAndReuses) {
  DiskSpaceAllocator alloc({100}, 10);
  auto a = alloc.Allocate(30, 0.0, "a");
  auto b = alloc.Allocate(30, 0.0, "b");
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_TRUE(alloc.Free(*a, 1.0, "a").ok());
  ASSERT_TRUE(alloc.Free(*b, 2.0, "b").ok());
  EXPECT_EQ(alloc.used_blocks(), 0u);
  // After coalescing, the full 100 blocks are allocatable again.
  auto c = alloc.Allocate(100, 3.0, "c");
  EXPECT_TRUE(c.ok());
}

TEST(AllocatorTest, TraceRecordsUtilization) {
  DiskSpaceAllocator alloc({100}, 10);
  alloc.EnableTrace();
  auto a = alloc.Allocate(40, 1.0, "iter-0");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(alloc.Free(*a, 5.0, "iter-0").ok());
  ASSERT_EQ(alloc.trace().size(), 2u);
  EXPECT_DOUBLE_EQ(alloc.trace()[0].time.value(), 1.0);
  EXPECT_EQ(alloc.trace()[0].delta_blocks, 40);
  EXPECT_EQ(alloc.trace()[0].used_after, 40u);
  EXPECT_EQ(alloc.trace()[1].delta_blocks, -40);
  EXPECT_EQ(alloc.trace()[1].used_after, 0u);
  EXPECT_EQ(alloc.trace()[1].tag, "iter-0");
}

TEST(AllocatorTest, FirstFitKeepsDataPacked) {
  DiskSpaceAllocator alloc({100}, 100);
  auto a = alloc.Allocate(10, 0.0, "a");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(alloc.Free(*a, 1.0, "a").ok());
  auto b = alloc.Allocate(10, 2.0, "b");
  ASSERT_TRUE(b.ok());
  EXPECT_EQ((*b)[0].start, 0u);  // reuses the lowest hole
}

/// An allocator over 1-4 disks (`*disks`), fragmented by a seeded mix of
/// allocations and frees and tracing its utilization; one seed, one state.
std::unique_ptr<DiskSpaceAllocator> FragmentedAllocator(std::uint64_t seed, int* disks) {
  Rng rng(seed);
  *disks = 1 + static_cast<int>(rng.NextBelow(4));
  std::vector<BlockCount> capacity;
  for (int d = 0; d < *disks; ++d) capacity.push_back(100 + rng.NextBelow(400));
  constexpr BlockCount kStripes[] = {1, 4, 8, 32};
  auto alloc = std::make_unique<DiskSpaceAllocator>(capacity, kStripes[rng.NextBelow(4)]);
  alloc->EnableTrace();
  std::vector<ExtentList> held;
  for (int i = 0; i < 40; ++i) {
    const BlockCount count = 1 + rng.NextBelow(30);
    if (count <= alloc->free_blocks()) held.push_back(*alloc->Allocate(count, 0.0, "fill"));
    if (!held.empty() && rng.NextBelow(3) == 0) {
      const std::size_t victim = rng.NextBelow(held.size());
      EXPECT_TRUE(alloc->Free(held[victim], 0.0, "fill").ok());
      held.erase(held.begin() + static_cast<long>(victim));
    }
  }
  return alloc;
}

void ExpectSameAllocator(const DiskSpaceAllocator& want, const DiskSpaceAllocator& got,
                         int disks) {
  EXPECT_EQ(got.used_blocks(), want.used_blocks());
  for (int d = 0; d < disks; ++d) EXPECT_EQ(got.FreeBlocksOn(d), want.FreeBlocksOn(d)) << d;
  ASSERT_EQ(got.trace().size(), want.trace().size());
  for (std::size_t i = 0; i < want.trace().size(); ++i) {
    EXPECT_EQ(got.trace()[i].time, want.trace()[i].time) << i;
    EXPECT_EQ(got.trace()[i].delta_blocks, want.trace()[i].delta_blocks) << i;
    EXPECT_EQ(got.trace()[i].used_after, want.trace()[i].used_after) << i;
    EXPECT_EQ(got.trace()[i].tag, want.trace()[i].tag) << i;
  }
}

TEST(AllocatorRunTest, RunOfAllocationsEqualsOneAllocateEach) {
  int exhausted = 0;
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    int disks = 0;
    std::unique_ptr<DiskSpaceAllocator> want = FragmentedAllocator(seed, &disks);
    std::unique_ptr<DiskSpaceAllocator> got = FragmentedAllocator(seed, &disks);
    Rng rng(seed * 31);
    const int k = 1 + static_cast<int>(rng.NextBelow(12));
    {
      DiskSpaceAllocator::Run run(got.get());
      for (int j = 0; j < k; ++j) {
        // Sometimes more than is left, so the run fails where Allocate does.
        const BlockCount count = 1 + rng.NextBelow(rng.NextBelow(4) == 0 ? 200 : 40);
        const SimSeconds now = static_cast<double>(j);
        Result<ExtentList> one = want->Allocate(count, now, "flush");
        ExtentList extents{{9, 9, 9}};  // the run appends after what the list holds
        Status status = run.Allocate(count, now, "flush", &extents);
        SCOPED_TRACE(testing::Message() << "seed " << seed << " allocation " << j);
        ASSERT_EQ(status.ToString(), one.status().ToString());
        if (!one.ok()) {
          ++exhausted;
          break;
        }
        ASSERT_EQ(extents.front(), (Extent{9, 9, 9}));
        EXPECT_EQ(ExtentList(extents.begin() + 1, extents.end()), *one);
      }
    }
    ExpectSameAllocator(*want, *got, disks);
    // The free maps agree: the next allocation lands alike.
    const BlockCount next = std::min<BlockCount>(1 + rng.NextBelow(50), want->free_blocks());
    if (next > 0) {
      EXPECT_EQ(*got->Allocate(next, 99.0, "next"), *want->Allocate(next, 99.0, "next"))
          << "seed " << seed;
    }
  }
  EXPECT_GT(exhausted, 10);
}

TEST(StripedGroupTest, UniformConfigSplitsCapacity) {
  DiskGroupConfig config =
      DiskGroupConfig::Uniform(3, DiskModel::Ideal(1e6), 99, kBlock, /*stripe_unit=*/8);
  EXPECT_EQ(config.disks.size(), 3u);
  EXPECT_EQ(config.per_disk_capacity[0], 33u);
}

TEST(StripedGroupTest, StripedReadUsesAllArmsInParallel) {
  sim::Simulation sim;
  DiskGroupConfig config = DiskGroupConfig::Uniform(2, DiskModel::Ideal(1000.0 * kBlock.value()), 1000,
                                                    kBlock, /*stripe_unit=*/10);
  StripedDiskGroup group(config, &sim);
  auto extents = group.allocator().Allocate(100, 0.0, "data");
  ASSERT_TRUE(extents.ok());
  auto wiv = group.WriteExtents(*extents, 0.0);
  ASSERT_TRUE(wiv.ok());
  // 100 blocks at 1000 blocks/s/disk over 2 disks: ~0.05 s, not 0.1 s.
  EXPECT_NEAR((wiv->duration()).value(), 0.05, 1e-9);
  auto riv = group.ReadExtents(*extents, wiv->end);
  ASSERT_TRUE(riv.ok());
  EXPECT_NEAR((riv->duration()).value(), 0.05, 1e-9);
  EXPECT_DOUBLE_EQ((group.aggregate_rate_bps()).value(),
                   2.0 * 1000.0 * static_cast<double>(kBlock.value()));
}

TEST(StripedGroupTest, PayloadsRoundTripInExtentOrder) {
  sim::Simulation sim;
  DiskGroupConfig config = DiskGroupConfig::Uniform(2, DiskModel::Ideal(1e6), 100, kBlock, 4);
  StripedDiskGroup group(config, &sim);
  auto extents = group.allocator().Allocate(10, 0.0, "data");
  ASSERT_TRUE(extents.ok());
  std::vector<BlockPayload> payloads;
  for (uint8_t i = 0; i < 10; ++i) {
    payloads.push_back(MakePayload(std::vector<uint8_t>(kBlock.value(), i)));
  }
  ASSERT_TRUE(group.WriteExtents(*extents, 0.0, &payloads).ok());
  std::vector<BlockPayload> out;
  ASSERT_TRUE(group.ReadExtents(*extents, 1.0, &out).ok());
  ASSERT_EQ(out.size(), 10u);
  for (uint8_t i = 0; i < 10; ++i) EXPECT_EQ((*out[i])[0], i);
}

TEST(StripedGroupTest, PayloadCountMismatchRejected) {
  sim::Simulation sim;
  DiskGroupConfig config = DiskGroupConfig::Uniform(1, DiskModel::Ideal(1e6), 100, kBlock, 4);
  StripedDiskGroup group(config, &sim);
  auto extents = group.allocator().Allocate(10, 0.0, "data");
  ASSERT_TRUE(extents.ok());
  std::vector<BlockPayload> wrong(3);
  EXPECT_FALSE(group.WriteExtents(*extents, 0.0, &wrong).ok());
}

TEST(StripedGroupTest, TotalStatsAggregate) {
  sim::Simulation sim;
  DiskGroupConfig config = DiskGroupConfig::Uniform(2, DiskModel::Ideal(1e6), 100, kBlock, 4);
  StripedDiskGroup group(config, &sim);
  auto extents = group.allocator().Allocate(20, 0.0, "data");
  ASSERT_TRUE(extents.ok());
  ASSERT_TRUE(group.WriteExtents(*extents, 0.0).ok());
  ASSERT_TRUE(group.ReadExtents(*extents, 1.0).ok());
  DiskStats stats = group.TotalStats();
  EXPECT_EQ(stats.blocks_written, 20u);
  EXPECT_EQ(stats.blocks_read, 20u);
}

}  // namespace
}  // namespace tertio::disk
