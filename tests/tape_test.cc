// Unit tests for tertio_tape: volumes, drives, compression, library robot.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "sim/simulation.h"
#include "tape/tape_drive.h"
#include "tape/tape_library.h"
#include "tape/tape_model.h"
#include "tape/tape_volume.h"
#include "util/rng.h"

namespace tertio::tape {
namespace {

constexpr ByteCount kBlock = 1000;  // 1 KB blocks for readable arithmetic

BlockPayload MakeBlock(uint8_t fill) {
  return MakePayload(std::vector<uint8_t>(kBlock.value(), fill));
}

TEST(TapeVolumeTest, AppendAndRead) {
  TapeVolume vol("t", kBlock);
  ASSERT_TRUE(vol.Append(MakeBlock(1), 0.0).ok());
  ASSERT_TRUE(vol.Append(MakeBlock(2), 0.0).ok());
  EXPECT_EQ(vol.size_blocks(), 2u);
  EXPECT_EQ(vol.size_bytes(), 2 * kBlock);
  auto p = vol.ReadBlock(1);
  ASSERT_TRUE(p.ok());
  EXPECT_EQ((*p.value())[0], 2);
}

TEST(TapeVolumeTest, PhantomBlocksReadAsNull) {
  TapeVolume vol("t", kBlock);
  ASSERT_TRUE(vol.AppendPhantom(100, 0.25).ok());
  EXPECT_EQ(vol.size_blocks(), 100u);
  auto p = vol.ReadBlock(50);
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p.value(), nullptr);
  EXPECT_DOUBLE_EQ(vol.MeanCompressibility(50, 1).value(), 0.25);
}

TEST(TapeVolumeTest, CapacityEnforced) {
  TapeVolume vol("t", kBlock, /*capacity_blocks=*/2);
  ASSERT_TRUE(vol.AppendPhantom(2, 0.0).ok());
  EXPECT_EQ(vol.AppendPhantom(1, 0.0).code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(vol.Append(MakeBlock(1), 0.0).code(), StatusCode::kResourceExhausted);
}

TEST(TapeVolumeTest, OutOfRangeReadRejected) {
  TapeVolume vol("t", kBlock);
  ASSERT_TRUE(vol.AppendPhantom(5, 0.0).ok());
  EXPECT_FALSE(vol.ReadBlock(5).ok());
  EXPECT_FALSE(vol.MeanCompressibility(3, 3).ok());
}

TEST(TapeVolumeTest, InvalidCompressibilityRejected) {
  TapeVolume vol("t", kBlock);
  EXPECT_FALSE(vol.AppendPhantom(1, -0.1).ok());
  EXPECT_FALSE(vol.AppendPhantom(1, 1.0).ok());
}

TEST(TapeVolumeTest, TruncateReclaimsScratchSpace) {
  TapeVolume vol("t", kBlock);
  ASSERT_TRUE(vol.AppendPhantom(10, 0.0).ok());
  ASSERT_TRUE(vol.Truncate(4).ok());
  EXPECT_EQ(vol.size_blocks(), 4u);
  EXPECT_FALSE(vol.Truncate(5).ok());
}

TEST(TapeVolumeTest, MeanCompressibilityAverages) {
  TapeVolume vol("t", kBlock);
  ASSERT_TRUE(vol.AppendPhantom(2, 0.0).ok());
  ASSERT_TRUE(vol.AppendPhantom(2, 0.5).ok());
  EXPECT_NEAR(vol.MeanCompressibility(0, 4).value(), 0.25, 1e-9);
}

// A phantom volume keeps state per run, never per block: a cartridge of 2^40
// blocks is as cheap as one of ten.
TEST(TapeVolumeTest, PhantomVolumeHoldsNoPerBlockState) {
  TapeVolume vol("t", kBlock);
  const BlockCount huge = std::uint64_t{1} << 40;
  ASSERT_TRUE(vol.AppendPhantom(huge, 0.25).ok());
  ASSERT_TRUE(vol.AppendPhantom(huge, 0.5).ok());
  EXPECT_EQ(vol.size_blocks(), 2 * huge);
  EXPECT_EQ(vol.ReadBlock(ToIndex(2 * huge - 1)).value(), nullptr);
  EXPECT_DOUBLE_EQ(vol.MeanCompressibility(ToIndex(huge), 1).value(), 0.5);
  EXPECT_NEAR(vol.MeanCompressibility(0, 2 * huge).value(), 0.375, 1e-9);
  ASSERT_TRUE(vol.Truncate(huge + 1).ok());
  EXPECT_DOUBLE_EQ(vol.MeanCompressibility(ToIndex(huge), 1).value(), 0.5);
  EXPECT_FALSE(vol.MeanCompressibility(ToIndex(huge + 1), 1).ok());
}

// MeanCompressibility sums run by run (closed form for long runs, a memo for
// ranges inside one run); it must equal the block loop bit for bit.
TEST(TapeVolumeTest, MeanCompressibilityMatchesTheBlockLoop) {
  Rng rng(7);
  TapeVolume vol("t", kBlock);
  std::vector<float> blocks;  // the reference: one value per block
  for (int run = 0; run < 60; ++run) {
    const double c = static_cast<double>(rng.NextBelow(1000)) / 1000.0 + 1e-7 * run;
    const std::uint64_t len = rng.NextBelow(4) == 0 ? 1 + rng.NextBelow(5000) : 1 + rng.NextBelow(40);
    if (rng.NextBelow(3) == 0) {
      for (std::uint64_t i = 0; i < len; ++i) ASSERT_TRUE(vol.Append(MakeBlock(1), c).ok());
    } else {
      ASSERT_TRUE(vol.AppendPhantom(len, c).ok());
    }
    blocks.insert(blocks.end(), len, static_cast<float>(c));
  }
  for (int q = 0; q < 3000; ++q) {
    const std::uint64_t start = rng.NextBelow(blocks.size());
    const std::uint64_t count = 1 + rng.NextBelow(q % 2 == 0 ? 64 : blocks.size() - start);
    if (start + count > blocks.size()) continue;
    double sum = 0.0;
    for (std::uint64_t i = start; i < start + count; ++i) sum += blocks[i];
    const double want = sum / static_cast<double>(count);
    ASSERT_EQ(vol.MeanCompressibility(start, count).value(), want)
        << "start " << start << " count " << count;
  }
}

// Payloads are kept only for blocks appended with one, across phantom gaps
// and truncation.
TEST(TapeVolumeTest, PayloadsSurviveMixedAppendsAndTruncation) {
  TapeVolume vol("t", kBlock);
  ASSERT_TRUE(vol.Append(MakeBlock(1), 0.1).ok());
  ASSERT_TRUE(vol.Append(MakeBlock(2), 0.1).ok());
  ASSERT_TRUE(vol.AppendPhantom(3, 0.1).ok());
  ASSERT_TRUE(vol.Append(MakeBlock(3), 0.2).ok());
  EXPECT_EQ((*vol.ReadBlock(1).value())[0], 2);
  EXPECT_EQ(vol.ReadBlock(3).value(), nullptr);
  EXPECT_EQ((*vol.ReadBlock(5).value())[0], 3);
  ASSERT_TRUE(vol.Truncate(1).ok());
  ASSERT_TRUE(vol.Append(MakeBlock(4), 0.3).ok());
  EXPECT_EQ((*vol.ReadBlock(0).value())[0], 1);
  EXPECT_EQ((*vol.ReadBlock(1).value())[0], 4);
  EXPECT_DOUBLE_EQ(vol.MeanCompressibility(1, 1).value(), static_cast<double>(0.3f));
  EXPECT_FALSE(vol.ReadBlock(2).ok());
}

TEST(TapeModelTest, CompressionRaisesEffectiveRate) {
  TapeDriveModel m = TapeDriveModel::DLT4000();
  EXPECT_DOUBLE_EQ((m.EffectiveRate(0.0)).value(), (m.native_rate_bps).value());
  EXPECT_NEAR((m.EffectiveRate(0.25)).value(), (m.native_rate_bps / 0.75).value(), 1e-6);
  // 50%-compressible hits the 2:1 cap exactly.
  EXPECT_NEAR((m.EffectiveRate(0.5)).value(), (m.native_rate_bps * 2.0).value(), 1e-6);
  // Beyond-cap compressibility stays capped.
  EXPECT_NEAR((m.EffectiveRate(0.9)).value(), (m.native_rate_bps * 2.0).value(), 1e-6);
}

TEST(TapeModelTest, CompressionDisabledIgnoresCompressibility) {
  TapeDriveModel m = TapeDriveModel::DLT4000();
  m.compression_enabled = false;
  EXPECT_DOUBLE_EQ((m.EffectiveRate(0.5)).value(), (m.native_rate_bps).value());
}

class TapeDriveTest : public ::testing::Test {
 protected:
  TapeDriveTest()
      : vol_("t", kBlock),
        drive_("drv", TapeDriveModel::Ideal(/*rate_bps=*/1000.0), sim_.CreateResource("tape")) {}

  sim::Simulation sim_;
  TapeVolume vol_;
  TapeDrive drive_;
};

TEST_F(TapeDriveTest, ReadRequiresLoadedTape) {
  EXPECT_EQ(drive_.Read(0, 1, 0.0).status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(drive_.Rewind(0.0).status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(TapeDriveTest, SequentialReadCostsTransferTime) {
  ASSERT_TRUE(vol_.AppendPhantom(10, 0.0).ok());
  ASSERT_TRUE(drive_.Load(&vol_, 0.0).ok());
  // 10 blocks * 1000 B at 1000 B/s = 10 s.
  auto iv = drive_.Read(0, 10, 0.0);
  ASSERT_TRUE(iv.ok());
  EXPECT_DOUBLE_EQ((iv->duration()).value(), 10.0);
  EXPECT_EQ(drive_.head_position(), 10u);
  EXPECT_EQ(drive_.stats().blocks_read, 10u);
}

TEST_F(TapeDriveTest, ContiguousReadsStreamWithoutPenalty) {
  ASSERT_TRUE(vol_.AppendPhantom(10, 0.0).ok());
  ASSERT_TRUE(drive_.Load(&vol_, 0.0).ok());
  ASSERT_TRUE(drive_.Read(0, 5, 0.0).ok());
  auto iv = drive_.Read(5, 5, 100.0);  // idle gap, but contiguous: no reposition
  ASSERT_TRUE(iv.ok());
  EXPECT_DOUBLE_EQ((iv->duration()).value(), 5.0);
  EXPECT_EQ(drive_.stats().reposition_count, 0u);
}

TEST_F(TapeDriveTest, AppendReadsBackCorrectly) {
  ASSERT_TRUE(drive_.Load(&vol_, 0.0).ok());
  std::vector<BlockPayload> blocks{MakeBlock(7), MakeBlock(8)};
  ASSERT_TRUE(drive_.Append(blocks, 0.0, 0.0).ok());
  std::vector<BlockPayload> out;
  ASSERT_TRUE(drive_.Read(0, 2, 10.0, &out).ok());
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ((*out[0])[0], 7);
  EXPECT_EQ((*out[1])[0], 8);
}

TEST_F(TapeDriveTest, RewindResetsHead) {
  ASSERT_TRUE(vol_.AppendPhantom(10, 0.0).ok());
  ASSERT_TRUE(drive_.Load(&vol_, 0.0).ok());
  ASSERT_TRUE(drive_.Read(0, 10, 0.0).ok());
  ASSERT_TRUE(drive_.Rewind(0.0).ok());
  EXPECT_EQ(drive_.head_position(), 0u);
  EXPECT_EQ(drive_.stats().rewind_count, 1u);
}

TEST_F(TapeDriveTest, ReadReverseWhenSupported) {
  ASSERT_TRUE(vol_.Append(MakeBlock(1), 0.0).ok());
  ASSERT_TRUE(vol_.Append(MakeBlock(2), 0.0).ok());
  ASSERT_TRUE(drive_.Load(&vol_, 0.0).ok());
  ASSERT_TRUE(drive_.Read(0, 2, 0.0).ok());
  std::vector<BlockPayload> out;
  auto iv = drive_.Read(0, 2, 0.0, &out, /*backwards=*/true);
  ASSERT_TRUE(iv.ok());
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ((*out[0])[0], 2);  // reverse order
  EXPECT_EQ((*out[1])[0], 1);
  EXPECT_EQ(drive_.head_position(), 0u);
}

TEST_F(TapeDriveTest, ReadReverseBeyondEndOfDataRejected) {
  // A backward read names its range, so it cannot cross the beginning of the
  // tape; a range past end-of-data is rejected before the drive moves.
  ASSERT_TRUE(vol_.AppendPhantom(2, 0.0).ok());
  ASSERT_TRUE(drive_.Load(&vol_, 0.0).ok());
  ASSERT_TRUE(drive_.Read(0, 1, 0.0).ok());
  const std::uint64_t ops = drive_.resource()->stats().op_count;
  EXPECT_FALSE(drive_.Read(1, 2, 0.0, nullptr, /*backwards=*/true).ok());
  EXPECT_EQ(drive_.resource()->stats().op_count, ops);
  EXPECT_EQ(drive_.head_position(), 1u);
}

TEST(TapeDriveRealisticTest, SeekChargesLocateAndReposition) {
  sim::Simulation sim;
  TapeDriveModel model = TapeDriveModel::DLT4000();
  TapeVolume vol("t", kBlock);
  ASSERT_TRUE(vol.AppendPhantom(1000, 0.0).ok());
  TapeDrive drive("drv", model, sim.CreateResource("tape"));
  ASSERT_TRUE(drive.Load(&vol, 0.0).ok());
  ASSERT_TRUE(drive.Read(0, 10, 0.0).ok());
  auto iv = drive.Read(500, 10, 1000.0);  // discontiguous: locate + reposition
  ASSERT_TRUE(iv.ok());
  double transfer = (10 * kBlock / model.native_rate_bps).value();
  double locate = model.locate_base_seconds.value() +
                  model.locate_seconds_per_byte * (500.0 - 10.0) * static_cast<double>(kBlock.value()) +
                  model.reposition_seconds.value();
  EXPECT_NEAR((iv->duration()).value(), transfer + locate, 1e-9);
  EXPECT_EQ(drive.stats().reposition_count, 1u);
  EXPECT_EQ(drive.stats().locate_count, 1u);
}

TEST(TapeDriveRealisticTest, ReadReverseUnimplementedOnDlt) {
  sim::Simulation sim;
  TapeVolume vol("t", kBlock);
  ASSERT_TRUE(vol.AppendPhantom(10, 0.0).ok());
  TapeDrive drive("drv", TapeDriveModel::DLT4000(), sim.CreateResource("tape"));
  ASSERT_TRUE(drive.Load(&vol, 0.0).ok());
  ASSERT_TRUE(drive.Read(0, 10, 0.0).ok());
  EXPECT_EQ(drive.Read(5, 5, 0.0, nullptr, /*backwards=*/true).status().code(),
            StatusCode::kUnimplemented);
}

TEST(TapeDriveRealisticTest, ReadReverseFromElsewhereSeeksInsideTheRead) {
  // A backward read whose head does not rest at the end of its range seeks
  // there inside the read: one drive op that charges locate + transfer, one
  // locate, and the head left at the range's start.
  sim::Simulation sim;
  TapeDriveModel model = TapeDriveModel::DLT4000();
  model.supports_read_reverse = true;
  TapeVolume vol("t", kBlock);
  for (uint8_t i = 0; i < 20; ++i) ASSERT_TRUE(vol.Append(MakeBlock(i), 0.0).ok());
  TapeDrive drive("drv", model, sim.CreateResource("tape"));
  ASSERT_TRUE(drive.Load(&vol, 0.0).ok());
  const std::uint64_t ops = drive.resource()->stats().op_count;
  const std::uint64_t locates = drive.stats().locate_count;

  std::vector<BlockPayload> out;
  auto iv = drive.Read(5, 10, 0.0, &out, /*backwards=*/true);
  ASSERT_TRUE(iv.ok()) << iv.status();
  EXPECT_EQ(drive.resource()->stats().op_count, ops + 1);
  EXPECT_EQ(drive.stats().locate_count, locates + 1);
  EXPECT_EQ(drive.head_position(), 5u);
  EXPECT_EQ(drive.stats().blocks_read, 10u);
  ASSERT_EQ(out.size(), 10u);
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ((*out[i])[0], 14 - i) << i;
  double transfer = (10 * kBlock / model.native_rate_bps).value();
  double locate = model.locate_base_seconds.value() +
                  model.locate_seconds_per_byte * 15.0 * static_cast<double>(kBlock.value()) +
                  model.reposition_seconds.value();
  EXPECT_NEAR((iv->duration()).value(), transfer + locate, 1e-9);

  // Read back down from where it stopped: the head already rests at the end
  // of the range, so nothing is located.
  auto streamed = drive.Read(0, 5, iv->end, nullptr, /*backwards=*/true);
  ASSERT_TRUE(streamed.ok()) << streamed.status();
  EXPECT_EQ(drive.stats().locate_count, locates + 1);
  EXPECT_EQ(drive.head_position(), 0u);
}

TEST(TapeDriveRealisticTest, CompressibleDataTransfersFaster) {
  sim::Simulation sim;
  TapeDriveModel model = TapeDriveModel::DLT4000();
  TapeVolume vol("t", kBlock);
  ASSERT_TRUE(vol.AppendPhantom(100, 0.25).ok());
  TapeDrive drive("drv", model, sim.CreateResource("tape"));
  ASSERT_TRUE(drive.Load(&vol, 0.0).ok());
  auto iv = drive.Read(0, 100, 0.0);
  ASSERT_TRUE(iv.ok());
  double expected = (100 * kBlock / (model.native_rate_bps / 0.75)).value();
  EXPECT_NEAR((iv->duration()).value(), expected, 1e-9);
}

TEST(TapeLibraryTest, MountChargesRobotAndLoad) {
  sim::Simulation sim;
  TapeLibraryModel lm = TapeLibraryModel::SmallAutoloader();
  TapeLibrary library(lm, sim.CreateResource("robot"));
  auto slot = library.AddCartridge(std::make_unique<TapeVolume>("t0", kBlock));
  ASSERT_TRUE(slot.ok());
  TapeDriveModel dm = TapeDriveModel::DLT4000();
  TapeDrive drive("drv", dm, sim.CreateResource("tape"));
  auto iv = library.Mount(slot.value(), &drive, 0.0);
  ASSERT_TRUE(iv.ok());
  EXPECT_DOUBLE_EQ(iv->end.value(), (lm.exchange_seconds + dm.load_seconds).value());
  EXPECT_TRUE(drive.loaded());
}

TEST(TapeLibraryTest, RemountIsNoOp) {
  sim::Simulation sim;
  TapeLibrary library(TapeLibraryModel::SmallAutoloader(), sim.CreateResource("robot"));
  auto slot = library.AddCartridge(std::make_unique<TapeVolume>("t0", kBlock));
  TapeDrive drive("drv", TapeDriveModel::Ideal(1000), sim.CreateResource("tape"));
  ASSERT_TRUE(library.Mount(slot.value(), &drive, 0.0).ok());
  auto again = library.Mount(slot.value(), &drive, 50.0);
  ASSERT_TRUE(again.ok());
  EXPECT_DOUBLE_EQ((again->duration()).value(), 0.0);
}

TEST(TapeLibraryTest, ExchangeReturnsPreviousCartridge) {
  sim::Simulation sim;
  TapeLibraryModel lm = TapeLibraryModel::SmallAutoloader();
  TapeLibrary library(lm, sim.CreateResource("robot"));
  auto s0 = library.AddCartridge(std::make_unique<TapeVolume>("t0", kBlock));
  auto s1 = library.AddCartridge(std::make_unique<TapeVolume>("t1", kBlock));
  TapeDrive drive("drv", TapeDriveModel::Ideal(1000), sim.CreateResource("tape"));
  ASSERT_TRUE(library.Mount(s0.value(), &drive, 0.0).ok());
  auto iv = library.Mount(s1.value(), &drive, 100.0);
  ASSERT_TRUE(iv.ok());
  // eject trip + inject trip
  EXPECT_DOUBLE_EQ(iv->end.value(), (100.0 + 2 * lm.exchange_seconds).value());
  // Old cartridge is home again: can be mounted into another drive.
  TapeDrive drive2("drv2", TapeDriveModel::Ideal(1000), sim.CreateResource("tape2"));
  EXPECT_TRUE(library.Mount(s0.value(), &drive2, 300.0).ok());
}

TEST(TapeLibraryTest, MountedElsewhereRejected) {
  sim::Simulation sim;
  TapeLibrary library(TapeLibraryModel::SmallAutoloader(), sim.CreateResource("robot"));
  auto s0 = library.AddCartridge(std::make_unique<TapeVolume>("t0", kBlock));
  TapeDrive a("a", TapeDriveModel::Ideal(1000), sim.CreateResource("ta"));
  TapeDrive b("b", TapeDriveModel::Ideal(1000), sim.CreateResource("tb"));
  ASSERT_TRUE(library.Mount(s0.value(), &a, 0.0).ok());
  EXPECT_EQ(library.Mount(s0.value(), &b, 0.0).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(TapeLibraryTest, DismountStowsCartridge) {
  sim::Simulation sim;
  TapeLibrary library(TapeLibraryModel::SmallAutoloader(), sim.CreateResource("robot"));
  auto s0 = library.AddCartridge(std::make_unique<TapeVolume>("t0", kBlock));
  TapeDrive drive("drv", TapeDriveModel::Ideal(1000), sim.CreateResource("tape"));
  ASSERT_TRUE(library.Mount(s0.value(), &drive, 0.0).ok());
  ASSERT_TRUE(library.Dismount(&drive, 10.0).ok());
  EXPECT_FALSE(drive.loaded());
  // Exchange-time claim of Section 3.2: one exchange is seconds, reading a
  // full cartridge is hours — checked in cost_test at full scale.
}

TEST(TapeLibraryTest, SlotLimitEnforced) {
  sim::Simulation sim;
  TapeLibraryModel lm;
  lm.slots = 1;
  TapeLibrary library(lm, sim.CreateResource("robot"));
  ASSERT_TRUE(library.AddCartridge(std::make_unique<TapeVolume>("t0", kBlock)).ok());
  EXPECT_EQ(library.AddCartridge(std::make_unique<TapeVolume>("t1", kBlock)).status().code(),
            StatusCode::kResourceExhausted);
}

}  // namespace
}  // namespace tertio::tape
