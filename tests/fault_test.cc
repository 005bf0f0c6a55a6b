// Fault model & recovery tests (sim/fault.h and its wiring):
//  - FaultPlan::Parse round-trips a spec and rejects malformed input;
//  - injector streams are deterministic per (seed, device) and replay;
//  - retry cost accounting (reposition + re-read + exponential backoff,
//    skip-and-remap) is exact where the draw sequence is forced;
//  - devices surface kDeviceError after bounded retries, charging the wasted
//    time and delivering nothing — through every tape window and across a
//    striped extent list;
//  - Pipeline::Transfer / StageWithRetry recover at chunk granularity by
//    re-issuing the failed chunk in place;
//  - a join under injected faults produces exactly the fault-free result
//    (verified against the in-memory reference join);
//  - regression: TapeLibrary::Mount swap bookkeeping.

#include "sim/fault.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string_view>

#include "disk/striped_group.h"
#include "exec/experiment.h"
#include "join/join_common.h"
#include "join/join_method.h"
#include "join/reference_join.h"
#include "relation/generator.h"
#include "sim/pipeline.h"
#include "sim/simulation.h"
#include "tape/tape_drive.h"
#include "tape/tape_library.h"
#include "whole_site.h"

namespace tertio::sim {
namespace {

// ---- FaultPlan::Parse ------------------------------------------------------

TEST(FaultPlanParse, FullSpecRoundTrips) {
  auto plan = FaultPlan::Parse(
      "seed=7,tape-transient=1e-4,tape-bad=1e-6,disk-transient=1e-5,disk-bad=1e-7,"
      "exchange=0.01,retries=6,backoff=0.25,remap=3");
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_EQ(plan->seed, 7u);
  EXPECT_DOUBLE_EQ(plan->tape.transient_read_error_rate, 1e-4);
  EXPECT_DOUBLE_EQ(plan->tape.bad_block_rate, 1e-6);
  EXPECT_DOUBLE_EQ(plan->disk.transient_read_error_rate, 1e-5);
  EXPECT_DOUBLE_EQ(plan->disk.bad_block_rate, 1e-7);
  EXPECT_DOUBLE_EQ(plan->robot.exchange_failure_rate, 0.01);
  EXPECT_EQ(plan->tape.max_retries, 6);
  EXPECT_EQ(plan->disk.max_retries, 6);
  EXPECT_DOUBLE_EQ((plan->tape.retry_backoff_seconds).value(), 0.25);
  EXPECT_DOUBLE_EQ((plan->disk.remap_seconds).value(), 3.0);
  EXPECT_TRUE(plan->enabled());
}

TEST(FaultPlanParse, EmptySpecIsDisabled) {
  auto plan = FaultPlan::Parse("");
  ASSERT_TRUE(plan.ok());
  EXPECT_FALSE(plan->enabled());
}

TEST(FaultPlanParse, RejectsMalformedInput) {
  EXPECT_EQ(FaultPlan::Parse("tape-transient").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(FaultPlan::Parse("no-such-key=1").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(FaultPlan::Parse("tape-transient=oops").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(FaultPlan::Parse("tape-transient=1.5").status().code(),
            StatusCode::kInvalidArgument);  // probabilities live in [0, 1]
  EXPECT_EQ(FaultPlan::Parse("backoff=-1").status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(FaultPlan::Parse("seed=abc").status().code(), StatusCode::kInvalidArgument);
}

// ---- Injector determinism --------------------------------------------------

TEST(FaultInjector, ReplaysExactlyForSameSeedAndDevice) {
  FaultProfile profile;
  profile.transient_read_error_rate = 0.2;
  profile.bad_block_rate = 0.05;
  FaultInjector a(profile, /*plan_seed=*/42, "tapeR");
  FaultInjector b(profile, /*plan_seed=*/42, "tapeR");
  for (int i = 0; i < 32; ++i) {
    auto oa = a.SimulateRead(i * 10, 10, 0.01, 1.0);
    auto ob = b.SimulateRead(i * 10, 10, 0.01, 1.0);
    EXPECT_DOUBLE_EQ((oa.recovery_seconds).value(), ((ob.recovery_seconds)).value());
    EXPECT_EQ(oa.completed, ob.completed);
    EXPECT_EQ(oa.clean_blocks, ob.clean_blocks);
  }
  EXPECT_EQ(a.stats().transient_faults, b.stats().transient_faults);
  EXPECT_EQ(a.stats().bad_blocks_remapped, b.stats().bad_blocks_remapped);
  EXPECT_DOUBLE_EQ((a.stats().recovery_seconds).value(), ((b.stats().recovery_seconds)).value());
}

TEST(FaultInjector, DeviceNameSeparatesStreams) {
  FaultProfile profile;
  profile.transient_read_error_rate = 0.3;
  FaultInjector a(profile, 42, "tapeR");
  FaultInjector b(profile, 42, "tapeS");
  // Same plan seed, different devices: the fault sequences diverge.
  SimSeconds ra = 0, rb = 0;
  for (int i = 0; i < 64; ++i) {
    ra += a.SimulateRead(i * 10, 10, 0.01, 1.0).recovery_seconds;
    rb += b.SimulateRead(i * 10, 10, 0.01, 1.0).recovery_seconds;
  }
  EXPECT_NE(ra, rb);
}

TEST(FaultInjector, BadBlocksArePositionalAndStable) {
  FaultProfile profile;
  profile.bad_block_rate = 0.1;
  FaultInjector a(profile, 9, "disk0");
  FaultInjector b(profile, 9, "disk0");
  int bad = 0;
  for (BlockIndex p = 0; p < 1000; ++p) {
    EXPECT_EQ(a.IsLatentBadBlock(p), b.IsLatentBadBlock(p));
    // A pure function of position: repeated queries agree.
    EXPECT_EQ(a.IsLatentBadBlock(p), a.IsLatentBadBlock(p));
    if (a.IsLatentBadBlock(p)) ++bad;
  }
  EXPECT_GT(bad, 50);   // ~100 expected at rate 0.1
  EXPECT_LT(bad, 200);
}

// ---- Retry cost accounting -------------------------------------------------

TEST(FaultInjector, CleanProfileChargesNothing) {
  FaultInjector injector(FaultProfile{}, 1, "tapeR");
  auto outcome = injector.SimulateRead(0, 1000, 0.01, 1.0);
  EXPECT_TRUE(outcome.completed);
  EXPECT_EQ(outcome.clean_blocks, 1000u);
  EXPECT_DOUBLE_EQ((outcome.recovery_seconds).value(), 0.0);
  EXPECT_EQ(injector.stats().faults(), 0u);
}

TEST(FaultInjector, ExhaustedRetriesChargeExponentialBackoffThenFailHard) {
  // Rate 1.0 forces every attempt to fail: the block burns its full retry
  // budget and fails hard, with each retry charged one wasted re-read, one
  // reposition, and a doubling backoff.
  FaultProfile profile;
  profile.transient_read_error_rate = 1.0;
  profile.max_retries = 2;
  profile.retry_backoff_seconds = 0.5;
  FaultInjector injector(profile, 1, "tapeR");
  constexpr SimSeconds kPerBlock = 0.25;
  constexpr SimSeconds kReposition = 1.5;
  auto outcome = injector.SimulateRead(40, 8, kPerBlock, kReposition);
  EXPECT_FALSE(outcome.completed);
  EXPECT_EQ(outcome.clean_blocks, 0u);
  EXPECT_EQ(outcome.failed_block, 40u);
  // Retry 1: backoff 0.5; retry 2: backoff 1.0. The third attempt exceeds
  // max_retries and fails hard without further charge.
  const SimSeconds expected =
      (kPerBlock + kReposition + 0.5) + (kPerBlock + kReposition + 1.0);
  EXPECT_DOUBLE_EQ((outcome.recovery_seconds).value(), ((expected)).value());
  EXPECT_EQ(injector.stats().transient_faults, 3u);
  EXPECT_EQ(injector.stats().retries, 2u);
  EXPECT_EQ(injector.stats().hard_failures, 1u);
  EXPECT_DOUBLE_EQ((injector.stats().recovery_seconds).value(), ((expected)).value());
}

TEST(FaultInjector, BadBlockChargesOneRemapAndNeverFaultsAgain) {
  FaultProfile profile;
  profile.bad_block_rate = 0.05;
  profile.remap_seconds = 2.0;
  FaultInjector injector(profile, 3, "disk0");
  BlockIndex bad = 0;
  bool found = false;
  for (BlockIndex p = 0; p < 10000 && !found; ++p) {
    if (injector.IsLatentBadBlock(p)) {
      bad = p;
      found = true;
    }
  }
  ASSERT_TRUE(found);
  constexpr SimSeconds kPerBlock = 0.5;
  constexpr SimSeconds kReposition = 1.0;
  auto first = injector.SimulateRead(bad, 1, kPerBlock, kReposition);
  EXPECT_TRUE(first.completed);
  EXPECT_DOUBLE_EQ((first.recovery_seconds).value(), ((kPerBlock + kReposition + 2.0)).value());
  EXPECT_EQ(injector.stats().bad_blocks_remapped, 1u);
  // The defect was remapped: re-reading the same position is now clean.
  EXPECT_FALSE(injector.IsLatentBadBlock(bad));
  auto second = injector.SimulateRead(bad, 1, kPerBlock, kReposition);
  EXPECT_DOUBLE_EQ((second.recovery_seconds).value(), 0.0);
  EXPECT_EQ(injector.stats().bad_blocks_remapped, 1u);
}

TEST(FaultInjector, ExchangeFailuresRetryThenFailHard) {
  FaultProfile profile;
  profile.exchange_failure_rate = 1.0;
  profile.max_retries = 1;
  FaultInjector injector(profile, 1, "robot");
  auto outcome = injector.SimulateExchange(30.0);
  EXPECT_FALSE(outcome.completed);
  EXPECT_EQ(outcome.failed_attempts, 2);
  EXPECT_EQ(injector.stats().exchange_faults, 2u);
  EXPECT_EQ(injector.stats().hard_failures, 1u);
  EXPECT_DOUBLE_EQ((injector.stats().recovery_seconds).value(), 60.0);

  FaultInjector clean(FaultProfile{}, 1, "robot");
  auto ok = clean.SimulateExchange(30.0);
  EXPECT_TRUE(ok.completed);
  EXPECT_EQ(ok.failed_attempts, 0);
}

// ---- Device fault surfaces -------------------------------------------------

TEST(DeviceFaults, TapeReadFailsHardChargesTimeDeliversNothing) {
  Simulation sim;
  tape::TapeVolume volume("t", 1024);
  ASSERT_TRUE(volume.AppendPhantom(100, 0.25).ok());
  tape::TapeDrive drive("tapeR", tape::TapeDriveModel::DLT4000(), sim.CreateResource("tape"));
  ASSERT_TRUE(drive.Load(&volume, 0.0).ok());
  FaultProfile profile;
  profile.transient_read_error_rate = 1.0;
  profile.max_retries = 0;
  FaultInjector injector(profile, 1, "tapeR");
  drive.set_fault_injector(&injector);

  std::vector<BlockPayload> out;
  auto read = drive.Read(0, 50, 0.0, &out);
  EXPECT_EQ(read.status().code(), StatusCode::kDeviceError);
  EXPECT_TRUE(out.empty());
  // The wasted attempt occupies the drive's timeline.
  EXPECT_EQ(drive.resource()->stats().op_count, 2u);  // load + failed read
  EXPECT_EQ(injector.stats().hard_failures, 1u);
}

TEST(DeviceFaults, TapeReadReverseDrawsFromTheFaultPlan) {
  Simulation sim;
  tape::TapeVolume volume("t", 1024);
  ASSERT_TRUE(volume.AppendPhantom(100, 0.25).ok());
  tape::TapeDrive drive("tapeR", tape::TapeDriveModel::Ideal(1e6), sim.CreateResource("tape"));
  ASSERT_TRUE(drive.Load(&volume, 0.0).ok());
  ASSERT_TRUE(drive.Read(0, 80, 0.0).ok());  // park the head at block 80
  FaultProfile profile;
  profile.transient_read_error_rate = 1.0;
  profile.max_retries = 0;
  FaultInjector injector(profile, 1, "tapeR");
  drive.set_fault_injector(&injector);

  std::vector<BlockPayload> out;
  auto read = drive.Read(30, 50, 0.0, &out, /*backwards=*/true);
  EXPECT_EQ(read.status().code(), StatusCode::kDeviceError);
  EXPECT_TRUE(out.empty());
  // The first block to pass the head is the last of the range.
  EXPECT_EQ(drive.head_position(), 79u);
  EXPECT_EQ(injector.stats().hard_failures, 1u);
  // The wasted attempt occupies the drive's timeline.
  EXPECT_EQ(drive.resource()->stats().op_count, 3u);  // load + parking read + failed read
}

TEST(DeviceFaults, TapeReadReverseRecoveryDrawsInHeadOrder) {
  // A recovered reverse read draws the same stream as a forward read of the
  // same blocks, and pays the same recovery time.
  auto run = [](bool backwards) {
    Simulation sim;
    tape::TapeVolume volume("t", 1024);
    TERTIO_CHECK(volume.AppendPhantom(2000, 0.25).ok(), "");
    tape::TapeDrive drive("tapeR", tape::TapeDriveModel::Ideal(1e6), sim.CreateResource("tape"));
    TERTIO_CHECK(drive.Load(&volume, 0.0).ok(), "");
    // Park the head where the read starts, so neither read seeks.
    if (backwards) TERTIO_CHECK(drive.Read(0, 2000, 0.0).ok(), "");
    FaultProfile profile;
    profile.transient_read_error_rate = 0.05;
    FaultInjector injector(profile, 11, "tapeR");
    drive.set_fault_injector(&injector);
    auto read = drive.Read(0, 2000, 0.0, nullptr, backwards);
    TERTIO_CHECK(read.ok(), read.status().ToString());
    return std::make_pair(read->duration(), injector.stats().transient_faults);
  };
  const auto forward = run(false);
  const auto reverse = run(true);
  EXPECT_GT(reverse.second, 0u);
  EXPECT_EQ(reverse.second, forward.second);
  EXPECT_EQ(reverse.first, forward.first);
  EXPECT_GT(reverse.first, SimSeconds(2000 * 1024 / 1e6));
}

TEST(DeviceFaults, TapeRecoverySlowsTheReadButDeliversEverything) {
  auto run = [](double rate) {
    Simulation sim;
    tape::TapeVolume volume("t", 1024);
    TERTIO_CHECK(volume.AppendPhantom(2000, 0.25).ok(), "");
    tape::TapeDrive drive("tapeR", tape::TapeDriveModel::DLT4000(),
                          sim.CreateResource("tape"));
    TERTIO_CHECK(drive.Load(&volume, 0.0).ok(), "");
    FaultProfile profile;
    profile.transient_read_error_rate = rate;
    FaultInjector injector(profile, 11, "tapeR");
    if (rate > 0) drive.set_fault_injector(&injector);
    auto read = drive.Read(0, 2000, 0.0, nullptr);
    TERTIO_CHECK(read.ok(), read.status().ToString());
    return read->duration();
  };
  const SimSeconds clean = run(0.0);
  const SimSeconds faulty = run(0.05);
  EXPECT_GT(faulty, clean);
}

TEST(DeviceFaults, DiskReadFailsHardAfterBoundedRetries) {
  Simulation sim;
  disk::DiskVolume disk("disk0", disk::DiskModel::QuantumFireball1080(),
                        sim.CreateResource("disk0"), 1000, 1024);
  FaultProfile profile;
  profile.transient_read_error_rate = 1.0;
  profile.max_retries = 1;
  FaultInjector injector(profile, 5, "disk0");
  disk.set_fault_injector(&injector);
  std::vector<BlockPayload> out;
  auto read = disk.Read(0, 10, 0.0, &out);
  EXPECT_EQ(read.status().code(), StatusCode::kDeviceError);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(injector.stats().hard_failures, 1u);
  EXPECT_EQ(injector.stats().retries, 1u);
  // Writes never consult the injector.
  ASSERT_TRUE(disk.CheckRange(0, 10).ok());
  disk::WritePiece write{0, 0, 10, 0.0, nullptr, {}};
  disk.CommitWrites(std::span<disk::WritePiece>(&write, 1), 0);
  EXPECT_GT(write.interval.duration(), 0.0);
  EXPECT_EQ(injector.stats().hard_failures, 1u);
  EXPECT_EQ(injector.stats().retries, 1u);
}

/// `n` real 1 KiB blocks whose first byte is their index.
std::vector<BlockPayload> NumberedBlocks(std::uint8_t n) {
  std::vector<BlockPayload> blocks;
  for (std::uint8_t i = 0; i < n; ++i) {
    blocks.push_back(MakePayload(std::vector<std::uint8_t>(1024, i)));
  }
  return blocks;
}

TEST(DeviceFaults, FailedCacheWindowReadDeliversNothingSoARetryDeliversOnce) {
  // The cache window's disk copy fails its first read. The drive must not
  // deliver (or count) the blocks before that disk charge succeeds, or the
  // stage's in-place retry hands every block to the join twice.
  Simulation sim;
  tape::TapeVolume volume("t", 1024);
  tape::TapeDrive drive("tapeS", tape::TapeDriveModel::DLT4000(), sim.CreateResource("tape"));
  ASSERT_TRUE(drive.Load(&volume, 0.0).ok());
  ASSERT_TRUE(drive.Append(NumberedBlocks(10), 0.0, 0.0).ok());
  int disk_reads = 0;
  drive.SetWindow(0, 10, [&](BlockIndex, BlockCount, SimSeconds ready) -> Result<Interval> {
    if (++disk_reads == 1) return Status::DeviceError("cache copy read failed");
    return Interval{ready, ready + 1.0};
  });

  Pipeline pipe(0.0);
  std::vector<BlockPayload> out;
  auto stage = drive.IssueRead(pipe, "s-read", std::initializer_list<StageId>{}, 0, 10, &out,
                               /*retry_limit=*/1);
  ASSERT_TRUE(stage.ok()) << stage.status();
  EXPECT_EQ(disk_reads, 2);
  EXPECT_EQ(pipe.chunk_retries(), 1u);
  ASSERT_EQ(out.size(), 10u);
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ((*out[i])[0], i) << i;
  EXPECT_EQ(drive.stats().blocks_cached, 10u);
  EXPECT_EQ(drive.stats().blocks_read, 0u);
}

TEST(DeviceFaults, BackwardReadInsideAWindowDrawsNothing) {
  // Either kind of window serves a backward read as it serves a forward one:
  // no fault draw even when every read would fail, no head motion, payloads
  // in the order the blocks pass the head, counted under the window's kind.
  for (bool multicast : {true, false}) {
    SCOPED_TRACE(multicast ? "multicast window" : "extent-cache window");
    Simulation sim;
    tape::TapeVolume volume("t", 1024);
    tape::TapeDrive drive("tapeS", tape::TapeDriveModel::Ideal(1e6), sim.CreateResource("tape"));
    ASSERT_TRUE(drive.Load(&volume, 0.0).ok());
    ASSERT_TRUE(drive.Append(NumberedBlocks(10), 0.0, 0.0).ok());
    FaultProfile profile;
    profile.transient_read_error_rate = 1.0;
    profile.max_retries = 0;
    FaultInjector injector(profile, 1, "tapeS");
    drive.set_fault_injector(&injector);
    int disk_reads = 0;
    if (multicast) {
      drive.SetWindow(0, 10);
    } else {
      drive.SetWindow(0, 10, [&](BlockIndex, BlockCount, SimSeconds ready) -> Result<Interval> {
        ++disk_reads;
        return Interval{ready, ready + 1.0};
      });
    }
    const BlockIndex head = drive.head_position();

    std::vector<BlockPayload> out;
    auto read = drive.Read(2, 6, 0.0, &out, /*backwards=*/true);
    ASSERT_TRUE(read.ok()) << read.status();
    EXPECT_EQ(injector.stats().transient_faults, 0u);
    EXPECT_EQ(injector.stats().hard_failures, 0u);
    EXPECT_EQ(drive.head_position(), head);
    ASSERT_EQ(out.size(), 6u);
    for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ((*out[i])[0], 7 - i) << i;
    EXPECT_EQ(drive.stats().blocks_read, 0u);
    EXPECT_EQ(drive.stats().blocks_shared, multicast ? 6u : 0u);
    EXPECT_EQ(drive.stats().blocks_cached, multicast ? 0u : 6u);
    EXPECT_EQ(disk_reads, multicast ? 0 : 1);
  }
}

TEST(DeviceFaults, FailedExtentListReadLeavesTheOutputAsItWas) {
  Simulation sim;
  disk::StripedDiskGroup group(
      disk::DiskGroupConfig::Uniform(2, disk::DiskModel::QuantumFireball1080(), 200, 1024),
      &sim);
  const disk::ExtentList extents{{0, 0, 4}, {1, 0, 4}};
  const std::vector<BlockPayload> blocks = NumberedBlocks(8);
  ASSERT_TRUE(group.WriteExtents(extents, 0.0, &blocks).ok());
  // Only the second extent's disk fails.
  FaultProfile profile;
  profile.transient_read_error_rate = 1.0;
  profile.max_retries = 0;
  FaultInjector injector(profile, 1, "disk1");
  group.disk(1)->set_fault_injector(&injector);

  const BlockPayload earlier = MakePayload(std::vector<std::uint8_t>(1024, 0xee));
  std::vector<BlockPayload> out{earlier};
  auto read = group.ReadExtents(extents, 10.0, &out);
  EXPECT_EQ(read.status().code(), StatusCode::kDeviceError);
  ASSERT_EQ(out.size(), 1u);  // disk 0's four blocks were dropped again
  EXPECT_EQ(out[0], earlier);
  EXPECT_EQ(group.disk(0)->stats().blocks_read, 4u);
  EXPECT_EQ(injector.stats().hard_failures, 1u);
}

// ---- Chunk retry ------------------------------------------------------------

/// A source that fails with kDeviceError on its first `fail_count` reads of
/// `fail_offset`, then succeeds; every read costs one second.
class FlakySource final : public BlockSource {
 public:
  FlakySource(BlockCount fail_offset, int fail_count)
      : fail_offset_(fail_offset), fail_count_(fail_count) {}

  Result<Interval> Read(BlockCount offset, BlockCount count, SimSeconds ready,
                        std::vector<BlockPayload>* out) override {
    reads_.push_back(offset);
    if (offset == fail_offset_ && failures_ < fail_count_) {
      ++failures_;
      return Status::DeviceError("flaky source");
    }
    if (out != nullptr) out->insert(out->end(), count.value(), nullptr);
    return Interval{ready, ready + 1.0};
  }
  std::string_view device() const override { return "flaky"; }

  const std::vector<BlockCount>& reads() const { return reads_; }

 private:
  BlockCount fail_offset_;
  int fail_count_;
  int failures_ = 0;
  std::vector<BlockCount> reads_;
};

class NullSink final : public BlockSink {
 public:
  Result<Interval> Write(BlockCount, BlockCount, SimSeconds ready,
                         std::vector<BlockPayload>*) override {
    return Interval::At(ready);
  }
  std::string_view device() const override { return "null"; }
};

TEST(ChunkRetry, TransferRetriesFailedChunkInPlace) {
  Pipeline pipe(0.0);
  FlakySource source(/*fail_offset=*/4, /*fail_count=*/2);
  NullSink sink;
  Pipeline::TransferPlan plan;
  plan.read_phase = "read";
  plan.write_phase = "write";
  plan.total = 8;
  plan.chunk = 2;
  plan.chunk_retry_limit = 3;
  auto result = pipe.Transfer(plan, source, sink);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(pipe.chunk_retries(), 2u);
  // Chunk at offset 4 was attempted three times; the rest once.
  EXPECT_EQ(source.reads(), (std::vector<BlockCount>{0, 2, 4, 4, 4, 6}));
}

TEST(ChunkRetry, ExhaustedChunkRetriesPropagateTheError) {
  Pipeline pipe(0.0);
  FlakySource source(4, /*fail_count=*/5);
  NullSink sink;
  Pipeline::TransferPlan plan;
  plan.read_phase = "read";
  plan.write_phase = "write";
  plan.total = 8;
  plan.chunk = 2;
  plan.chunk_retry_limit = 1;
  auto result = pipe.Transfer(plan, source, sink);
  EXPECT_EQ(result.status().code(), StatusCode::kDeviceError);
  EXPECT_EQ(pipe.chunk_retries(), 1u);
}

TEST(ChunkRetry, NonDeviceErrorsAreNeverRetried) {
  Pipeline pipe(0.0);
  class BadSource final : public BlockSource {
   public:
    Result<Interval> Read(BlockCount, BlockCount, SimSeconds,
                          std::vector<BlockPayload>*) override {
      ++calls_;
      return Status::InvalidArgument("not retryable");
    }
    std::string_view device() const override { return "bad"; }
    int calls() const { return calls_; }

   private:
    int calls_ = 0;
  } source;
  NullSink sink;
  Pipeline::TransferPlan plan;
  plan.read_phase = "read";
  plan.write_phase = "write";
  plan.total = 4;
  plan.chunk = 2;
  plan.chunk_retry_limit = 5;
  auto result = pipe.Transfer(plan, source, sink);
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(source.calls(), 1);
  EXPECT_EQ(pipe.chunk_retries(), 0u);
}

TEST(ChunkRetry, StageWithRetryRecoversBareStages) {
  Pipeline pipe(0.0);
  int failures = 2;
  auto op = [&](SimSeconds ready) -> Result<Interval> {
    if (failures > 0) {
      --failures;
      return Status::DeviceError("flaky stage");
    }
    return Interval{ready, ready + 1.0};
  };
  auto stage = pipe.StageWithRetry("scan", "dev", std::initializer_list<StageId>{}, 4, 0, op,
                                   /*retry_limit=*/3);
  ASSERT_TRUE(stage.ok()) << stage.status();
  EXPECT_EQ(pipe.chunk_retries(), 2u);

  failures = 5;
  auto exhausted = pipe.StageWithRetry("scan", "dev", std::initializer_list<StageId>{}, 4, 0,
                                       op, /*retry_limit=*/1);
  EXPECT_EQ(exhausted.status().code(), StatusCode::kDeviceError);
}

}  // namespace
}  // namespace tertio::sim

// ---- Joins under faults ----------------------------------------------------

namespace tertio::join {
namespace {

constexpr ByteCount kBlock = 1024;

exec::SiteConfig FaultySite(const sim::FaultPlan& faults) {
  exec::SiteConfig config;
  config.block_bytes = kBlock;
  config.disk_space_bytes = 64 * kBlock;
  config.memory_bytes = 16 * kBlock;
  config.stripe_unit = 4;
  config.faults = faults;
  return config;
}

struct FaultyRun {
  JoinStats stats;
  JoinOutput reference;
  sim::FaultStats site_faults;
};

Result<FaultyRun> RunUnderFaults(const sim::FaultPlan& faults, JoinMethodId method,
                                 bool retain_spans = false) {
  exec::Site site(FaultySite(faults));
  std::unique_ptr<exec::QuerySession> session = test::WholeSiteSession(site);
  FaultyRun run;
  rel::GeneratorConfig rc, sc;
  rc.name = "R";
  rc.tuple_count = 400;
  rc.keys = rel::KeySequence::kSequentialUnique;
  rc.compressibility = 0.25;
  rc.seed = 11;
  sc.name = "S";
  sc.tuple_count = 2000;
  sc.keys = rel::KeySequence::kForeignKeyUniform;
  sc.key_domain = 400;
  sc.compressibility = 0.25;
  sc.seed = 12;
  TERTIO_ASSIGN_OR_RETURN(exec::PreparedWorkload prepared,
                          exec::PrepareWorkload(session.get(), rc, sc));
  TERTIO_ASSIGN_OR_RETURN(run.reference, ReferenceJoin(prepared.r, prepared.s, 0, 0));
  JoinSpec spec;
  spec.r = &prepared.r;
  spec.s = &prepared.s;
  auto executor = CreateJoinMethod(method);
  JoinContext ctx = session->context();
  ctx.retain_spans = retain_spans;
  TERTIO_ASSIGN_OR_RETURN(run.stats, executor->Execute(spec, ctx));
  run.site_faults = site.TotalFaultStats();
  return run;
}

sim::FaultPlan ModeratePlan() {
  sim::FaultPlan plan;
  plan.seed = 7;
  plan.tape.transient_read_error_rate = 0.01;
  plan.tape.bad_block_rate = 0.002;
  plan.disk.transient_read_error_rate = 0.005;
  plan.disk.bad_block_rate = 0.001;
  return plan;
}

/// CTT-GH on READ REVERSE drives (TapeDriveModel::Ideal), D < |R| so Step
/// II takes several passes and the odd ones read backwards, under `plan`.
struct ReverseRun {
  JoinStats stats;
  JoinOutput reference;
  /// The R drive's operations, in order.
  std::vector<sim::OpRecord> drive_ops;
};

Result<ReverseRun> RunCttGhOnReverseDrives(const sim::FaultPlan& plan) {
  exec::SiteConfig config = FaultySite(plan);
  config.memory_bytes = 20 * kBlock;
  config.disk_space_bytes = 30 * kBlock;
  config.tape_model = tape::TapeDriveModel::Ideal(1e6);
  exec::Site site(config);
  std::unique_ptr<exec::QuerySession> session = test::WholeSiteSession(site);
  rel::GeneratorConfig rc, sc;
  rc.tuple_count = 400;
  sc.tuple_count = 2000;
  sc.keys = rel::KeySequence::kForeignKeyUniform;
  sc.key_domain = 400;
  sc.seed = 5;
  TERTIO_ASSIGN_OR_RETURN(exec::PreparedWorkload prepared,
                          exec::PrepareWorkload(session.get(), rc, sc));
  session->drive_r()->resource()->EnableTrace();
  JoinSpec spec;
  spec.r = &prepared.r;
  spec.s = &prepared.s;
  ReverseRun run;
  TERTIO_ASSIGN_OR_RETURN(run.stats,
                          CreateJoinMethod(JoinMethodId::kCttGh)->Execute(spec, session->context()));
  TERTIO_ASSIGN_OR_RETURN(run.reference, ReferenceJoin(prepared.r, prepared.s, 0, 0));
  run.drive_ops = session->drive_r()->resource()->trace();
  return run;
}

TEST(FaultyReadReverse, ReversePassesDrawFaultsAndMatchTheReference) {
  sim::FaultPlan plan;
  plan.seed = 3;
  plan.tape.transient_read_error_rate = 0.02;
  auto run = RunCttGhOnReverseDrives(plan);
  ASSERT_TRUE(run.ok()) << run.status();
  ASSERT_GE(run->stats.iterations, 2u);  // reverse passes happened
  EXPECT_GT(run->stats.faults_injected, 0u);
  // Some reverse pass paid recovery time beyond its clean transfer.
  const tape::TapeDriveModel model = tape::TapeDriveModel::Ideal(1e6);
  int reverse_reads = 0;
  int recovered = 0;
  for (const sim::OpRecord& op : run->drive_ops) {
    if (std::string_view(op.tag) != "tape.read-reverse") continue;
    ++reverse_reads;
    if (op.interval.duration() > model.TransferSeconds(op.bytes, 0.0)) ++recovered;
  }
  EXPECT_GT(reverse_reads, 0);
  EXPECT_GT(recovered, 0);
  EXPECT_EQ(run->stats.output_tuples, run->reference.tuples());
  EXPECT_EQ(run->stats.output_checksum, run->reference.checksum());
}

TEST(FaultyReadReverse, AFailedReversePassIsRetried) {
  // No device-level retries: a faulted block fails its read outright, and
  // the chunk-level retry re-reads the run, seeking back to its end first.
  std::int64_t failed_reverse = 0;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    sim::FaultPlan plan;
    plan.seed = seed;
    plan.tape.transient_read_error_rate = 0.01;
    plan.tape.max_retries = 0;
    auto run = RunCttGhOnReverseDrives(plan);
    ASSERT_TRUE(run.ok()) << "seed " << seed << ": " << run.status();
    const auto failed =
        std::count_if(run->drive_ops.begin(), run->drive_ops.end(), [](const sim::OpRecord& op) {
          return std::string_view(op.tag) == "tape.read-reverse-failed";
        });
    EXPECT_GE(run->stats.chunk_retries, static_cast<std::uint64_t>(failed)) << seed;
    EXPECT_EQ(run->stats.output_tuples, run->reference.tuples()) << seed;
    EXPECT_EQ(run->stats.output_checksum, run->reference.checksum()) << seed;
    failed_reverse += failed;
  }
  EXPECT_GT(failed_reverse, 0);
}

class FaultyJoinTest : public ::testing::TestWithParam<JoinMethodId> {};

TEST_P(FaultyJoinTest, RecoveredJoinMatchesReferenceExactly) {
  auto run = RunUnderFaults(ModeratePlan(), GetParam());
  ASSERT_TRUE(run.ok()) << run.status();
  EXPECT_TRUE(run->stats.output_valid);
  EXPECT_EQ(run->stats.output_tuples, run->reference.tuples());
  EXPECT_EQ(run->stats.output_checksum, run->reference.checksum());
  // Faults were actually injected, recovered, and surfaced in the stats.
  EXPECT_GT(run->stats.faults_injected, 0u);
  EXPECT_GT(run->stats.fault_retries, 0u);
  EXPECT_GT(run->stats.recovery_seconds, 0.0);
  EXPECT_EQ(run->stats.faults_injected, run->site_faults.faults());
}

TEST_P(FaultyJoinTest, FaultsOnlySlowTheJoinDown) {
  auto clean = RunUnderFaults(sim::FaultPlan{}, GetParam());
  auto faulty = RunUnderFaults(ModeratePlan(), GetParam());
  ASSERT_TRUE(clean.ok()) << clean.status();
  ASSERT_TRUE(faulty.ok()) << faulty.status();
  EXPECT_EQ(clean->stats.faults_injected, 0u);
  EXPECT_DOUBLE_EQ((clean->stats.recovery_seconds).value(), 0.0);
  EXPECT_GT(faulty->stats.response_seconds, clean->stats.response_seconds);
  EXPECT_EQ(faulty->stats.output_checksum, clean->stats.output_checksum);
}

TEST_P(FaultyJoinTest, FaultyRunsReplayExactly) {
  auto a = RunUnderFaults(ModeratePlan(), GetParam());
  auto b = RunUnderFaults(ModeratePlan(), GetParam());
  ASSERT_TRUE(a.ok()) << a.status();
  ASSERT_TRUE(b.ok()) << b.status();
  EXPECT_DOUBLE_EQ((a->stats.response_seconds).value(), ((b->stats.response_seconds)).value());
  EXPECT_EQ(a->stats.faults_injected, b->stats.faults_injected);
  EXPECT_EQ(a->stats.fault_retries, b->stats.fault_retries);
  EXPECT_EQ(a->stats.blocks_remapped, b->stats.blocks_remapped);
  EXPECT_DOUBLE_EQ((a->stats.recovery_seconds).value(), ((b->stats.recovery_seconds)).value());
}

TEST_P(FaultyJoinTest, ChunkRetriesRecoverHardDeviceFailures) {
  // No device-level retries at all: every transient fault is a hard failure
  // and only the pipeline's chunk-granular recovery saves the join.
  sim::FaultPlan plan;
  plan.seed = 13;
  plan.tape.transient_read_error_rate = 0.01;
  plan.tape.max_retries = 0;
  plan.disk.transient_read_error_rate = 0.005;
  plan.disk.max_retries = 0;
  auto run = RunUnderFaults(plan, GetParam());
  ASSERT_TRUE(run.ok()) << run.status();
  EXPECT_GT(run->stats.chunk_retries, 0u);
  EXPECT_EQ(run->stats.output_tuples, run->reference.tuples());
  EXPECT_EQ(run->stats.output_checksum, run->reference.checksum());
}

TEST_P(FaultyJoinTest, CoalescingToggleIsInvisibleUnderFaults) {
  // With injectors active the coalesced fast path must disengage (batching
  // would skip the per-chunk fault draws and desynchronise the seeded RNG
  // stream), so a default run and the per-chunk reference (a run that
  // retains its spans) both take the per-chunk path and replay each other
  // exactly.
  auto on = RunUnderFaults(ModeratePlan(), GetParam());
  auto off = RunUnderFaults(ModeratePlan(), GetParam(), /*retain_spans=*/true);
  ASSERT_TRUE(on.ok()) << on.status();
  ASSERT_TRUE(off.ok()) << off.status();
  EXPECT_GT(on->stats.faults_injected, 0u);
  EXPECT_EQ(on->stats.response_seconds, off->stats.response_seconds);
  EXPECT_EQ(on->stats.step1_seconds, off->stats.step1_seconds);
  EXPECT_EQ(on->stats.step2_seconds, off->stats.step2_seconds);
  EXPECT_EQ(on->stats.faults_injected, off->stats.faults_injected);
  EXPECT_EQ(on->stats.fault_retries, off->stats.fault_retries);
  EXPECT_EQ(on->stats.blocks_remapped, off->stats.blocks_remapped);
  EXPECT_EQ(on->stats.chunk_retries, off->stats.chunk_retries);
  EXPECT_EQ(on->stats.recovery_seconds, off->stats.recovery_seconds);
  EXPECT_EQ(on->stats.disk_requests, off->stats.disk_requests);
  EXPECT_EQ(on->stats.output_checksum, off->stats.output_checksum);
}

INSTANTIATE_TEST_SUITE_P(AllMethods, FaultyJoinTest,
                         ::testing::Values(JoinMethodId::kDtNb, JoinMethodId::kCdtNbMb,
                                           JoinMethodId::kCdtNbDb, JoinMethodId::kDtGh,
                                           JoinMethodId::kCdtGh, JoinMethodId::kCttGh,
                                           JoinMethodId::kTtGh),
                         [](const auto& info) {
                           std::string name(JoinMethodName(info.param));
                           for (char& c : name) {
                             if (c == '-' || c == '/') c = '_';
                           }
                           return name;
                         });

// ---- Coalescing fallback boundary ------------------------------------------

// A fault injector on the device empties its chunk cost profiles: the profile
// is the coalescing contract ("every chunk costs exactly this"), and a faulty
// device cannot promise that without consuming its per-chunk fault draws.
TEST(CoalesceFaultFallback, EnabledInjectorEmptiesTapeCostProfiles) {
  sim::Simulation sim;
  tape::TapeVolume volume("t", kBlock);
  ASSERT_TRUE(volume.AppendPhantom(256, 0.25).ok());
  tape::TapeDrive drive("tapeR", tape::TapeDriveModel::DLT4000(),
                        sim.CreateResource("tape"));
  ASSERT_TRUE(drive.Load(&volume, 0.0).ok());
  EXPECT_GT(drive.ReadCostProfile(0, 8, 16).chunks, 0u);

  sim::FaultProfile profile;
  profile.transient_read_error_rate = 0.01;
  sim::FaultInjector injector(profile, 1, "tapeR");
  drive.set_fault_injector(&injector);
  EXPECT_EQ(drive.ReadCostProfile(0, 8, 16).chunks, 0u);

  // Removing the injector restores the fast path.
  drive.set_fault_injector(nullptr);
  EXPECT_GT(drive.ReadCostProfile(0, 8, 16).chunks, 0u);
}

// End-to-end: on a site with a fault plan, the shared transfer helpers
// never engage the coalesced path (contrast with the SimSan engagement test
// on a clean site, where the same staging coalesces most of its chunks).
TEST(CoalesceFaultFallback, FaultyMachineForcesThePerChunkPath) {
  exec::SiteConfig config = exec::SiteConfig::PaperTestbed(50 * kMB, 5400 * kKB);
  config.faults = ModeratePlan();
  exec::Site site(config);
  std::unique_ptr<exec::QuerySession> session = test::WholeSiteSession(site);
  exec::WorkloadConfig workload;
  workload.r_bytes = 18 * kMB;
  workload.s_bytes = 100 * kMB;
  workload.phantom = true;
  auto prepared = exec::PrepareWorkload(session.get(), workload);
  ASSERT_TRUE(prepared.ok()) << prepared.status();
  JoinContext ctx = session->context();

  sim::Pipeline pipe(ctx.sim->Horizon(), nullptr, ctx.sim->auditor());
  BlockCount chunk = DefaultTapeChunk(prepared->r);
  auto staged = StageRelationToDisk(ctx, pipe, ctx.drive_r, prepared->r, chunk,
                                    /*concurrent=*/true, "faulty-r", {});
  ASSERT_TRUE(staged.ok()) << staged.status();
  EXPECT_EQ(pipe.coalesced_chunks(), 0u);

  auto scan = ScanDiskAndProbe(ctx, pipe, "r-scan", staged->space.extents(), chunk,
                               {staged->done_stage}, /*phantom=*/true, nullptr, 0,
                               nullptr, nullptr);
  ASSERT_TRUE(scan.ok()) << scan.status();
  EXPECT_EQ(pipe.coalesced_chunks(), 0u);
}

}  // namespace
}  // namespace tertio::join

// ---- Regressions: library mount swap, scheduler requeue --------------------

namespace tertio::tape {
namespace {

constexpr ByteCount kBlock = 1024;

std::unique_ptr<TapeVolume> MakeCartridge(BlockCount blocks) {
  auto volume = std::make_unique<TapeVolume>("cart", kBlock);
  TERTIO_CHECK(volume->AppendPhantom(blocks, 0.25).ok(), "");
  return volume;
}

TEST(TapeLibraryMount, SwapChargesRewindUnloadAndBothRobotTrips) {
  sim::Simulation sim;
  TapeLibrary library(TapeLibraryModel::SmallAutoloader(), sim.CreateResource("robot"));
  const TapeDriveModel model = TapeDriveModel::DLT4000();
  TapeDrive drive("drv", model, sim.CreateResource("tape"));
  ASSERT_TRUE(library.AddCartridge(MakeCartridge(50)).ok());
  ASSERT_TRUE(library.AddCartridge(MakeCartridge(50)).ok());

  auto first = library.Mount(0, &drive, 0.0);
  ASSERT_TRUE(first.ok());
  // Empty drive: one robot trip plus the drive load.
  EXPECT_DOUBLE_EQ((first->duration()).value(),
                   (library.model().exchange_seconds + model.load_seconds).value());

  auto swap = library.Mount(1, &drive, first->end);
  ASSERT_TRUE(swap.ok());
  // Swap: rewind + unload on the drive, eject + inject robot trips, load.
  EXPECT_DOUBLE_EQ((swap->duration()).value(),
                   (model.rewind_seconds + model.load_seconds +
                    2 * library.model().exchange_seconds + model.load_seconds)
                       .value());
  EXPECT_EQ(drive.stats().rewind_count, 1u);
  EXPECT_EQ(drive.stats().load_count, 2u);
  // Bookkeeping: cartridge 0 is home again — another mount of it succeeds.
  sim::Simulation sim2;
  TapeDrive other("other", model, sim2.CreateResource("tape2"));
  EXPECT_TRUE(library.Mount(0, &other, 0.0).ok());
}

TEST(TapeLibraryMount, FailedExchangeLeavesSlotBookkeepingConsistent) {
  sim::Simulation sim;
  TapeLibrary library(TapeLibraryModel::SmallAutoloader(), sim.CreateResource("robot"));
  TapeDrive drive("drv", TapeDriveModel::DLT4000(), sim.CreateResource("tape"));
  ASSERT_TRUE(library.AddCartridge(MakeCartridge(50)).ok());

  sim::FaultProfile profile;
  profile.exchange_failure_rate = 1.0;
  profile.max_retries = 0;
  sim::FaultInjector injector(profile, 1, "robot");
  library.set_fault_injector(&injector);
  auto failed = library.Mount(0, &drive, 0.0);
  EXPECT_EQ(failed.status().code(), StatusCode::kDeviceError);

  // The failed mount must NOT have marked the cartridge as mounted (the old
  // bug set mounted_in before the physical steps succeeded): with the robot
  // healthy again, the same mount goes through.
  library.set_fault_injector(nullptr);
  EXPECT_TRUE(library.Mount(0, &drive, 0.0).ok());
}

}  // namespace
}  // namespace tertio::tape
