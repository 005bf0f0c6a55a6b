// SimSan (sim/auditor.h) tests.
//
// Positive: every join method at paper parameters runs audit-clean with a
// nonzero check count and auditing never perturbs simulated time. Negative:
// each invariant class is seeded with a violation — through the real
// pipeline where practical, through the hooks directly otherwise — and must
// be detected with a replayable diagnostic. The negative tests bind a
// standalone Auditor (never a Simulation's own), so they run identically in
// TERTIO_SIMSAN builds, where an unclean Simulation aborts at destruction.

#include <gtest/gtest.h>

#include <bit>
#include <string>
#include <vector>

#include "exec/experiment.h"
#include "hash/disk_partitioner.h"
#include "join/join_common.h"
#include "join/join_method.h"
#include "sim/auditor.h"
#include "sim/pipeline.h"
#include "sim/recurrence.h"
#include "sim/resource.h"
#include "sim/simulation.h"
#include "sim/span_registry.h"
#include "whole_site.h"

namespace tertio::sim {

/// Reaches a Pipeline's kept replays (its friend).
struct PipelineTestPeer {
  static std::vector<KeptWindow>& kept_windows(Pipeline& pipe) { return pipe.kept_windows_; }
};

namespace {

static_assert(IsRegisteredSpan("probe"));
static_assert(IsRegisteredSpan("stage:tape-read"));
static_assert(!IsRegisteredSpan("no-such-phase"));
static_assert(!IsRegisteredSpan(""));

bool HasKind(const Auditor& auditor, AuditKind kind) {
  for (const AuditViolation& v : auditor.violations()) {
    if (v.kind == kind) return true;
  }
  return false;
}

TEST(SimSanPositiveTest, AllSevenMethodsAuditCleanAtPaperParameters) {
  for (JoinMethodId method : kAllJoinMethods) {
    // Experiment-3 parameters: |S| = 1000 MB, |R| = 18 MB, D = 50 MB,
    // M = 0.3|R| — every method in Table 2 is feasible here.
    exec::SiteConfig config = exec::SiteConfig::PaperTestbed(50 * kMB, 5400 * kKB);
    exec::Site site(config);
    Auditor* auditor = site.EnableAudit();
    std::unique_ptr<exec::QuerySession> session = test::WholeSiteSession(site);
    ASSERT_NE(auditor, nullptr) << JoinMethodName(method);
    exec::WorkloadConfig workload;
    workload.r_bytes = 18 * kMB;
    workload.s_bytes = 1000 * kMB;
    workload.phantom = true;
    auto prepared = exec::PrepareWorkload(session.get(), workload);
    ASSERT_TRUE(prepared.ok()) << prepared.status();
    join::JoinSpec spec;
    spec.r = &prepared->r;
    spec.s = &prepared->s;
    join::JoinContext ctx = session->context();
    auto stats = join::CreateJoinMethod(method)->Execute(spec, ctx);
    ASSERT_TRUE(stats.ok()) << JoinMethodName(method) << ": " << stats.status();
    EXPECT_GT(auditor->checks_performed(), 0u)
        << JoinMethodName(method) << ": auditor was never consulted";
    EXPECT_TRUE(auditor->clean()) << JoinMethodName(method) << ":\n"
                                  << auditor->TraceString();
    EXPECT_TRUE(auditor->Check().ok()) << JoinMethodName(method);
  }
}

TEST(SimSanPositiveTest, AuditingNeverPerturbsSimulatedTime) {
  // The acceptance bar: simulated join times are bit-identical with the
  // auditor on or off. (In TERTIO_SIMSAN builds both runs are audited and
  // the comparison is trivially true; the default tier-1 build exercises
  // the audited-vs-unaudited pair.)
  auto run = [](bool audited) {
    exec::SiteConfig config = exec::SiteConfig::PaperTestbed(30 * kMB, 2 * kMB);
    exec::Site site(config);
    if (audited) site.EnableAudit();
    std::unique_ptr<exec::QuerySession> session = test::WholeSiteSession(site);
    exec::WorkloadConfig workload;
    workload.r_bytes = 10 * kMB;
    workload.s_bytes = 100 * kMB;
    workload.phantom = true;
    auto prepared = exec::PrepareWorkload(session.get(), workload);
    TERTIO_CHECK(prepared.ok(), "setup failed");
    join::JoinSpec spec;
    spec.r = &prepared->r;
    spec.s = &prepared->s;
    join::JoinContext ctx = session->context();
    auto stats = join::CreateJoinMethod(JoinMethodId::kCttGh)->Execute(spec, ctx);
    TERTIO_CHECK(stats.ok(), stats.status().ToString());
    return stats.value();
  };
  join::JoinStats plain = run(false);
  join::JoinStats audited = run(true);
  EXPECT_EQ(plain.response_seconds, audited.response_seconds);  // exact, not near
  EXPECT_EQ(plain.step1_seconds, audited.step1_seconds);
  EXPECT_EQ(plain.tape_blocks_read, audited.tape_blocks_read);
  EXPECT_EQ(plain.disk_blocks_written, audited.disk_blocks_written);
}

// A transfer commits per-chunk wherever its trace retains spans, and in
// closed form (jumped or reused) where it coalesces otherwise: both report
// bit-identical simulated time and span aggregates for every join method.
// Both runs are audited and must end clean; the closed-form run's auditor
// re-derives every coalesced window with the O(chunks) replay. Exact
// comparisons throughout: the claim is bit-identity of the floating-point
// results, not tolerance agreement.
TEST(SimSanCoalesceTest, AllSevenMethodsAreBitIdenticalAcrossCommitPaths) {
  for (JoinMethodId method : kAllJoinMethods) {
    auto run = [&](bool retain_spans) {
      exec::SiteConfig config = exec::SiteConfig::PaperTestbed(50 * kMB, 5400 * kKB);
      exec::Site site(config);
      Auditor* auditor = site.EnableAudit();
      std::unique_ptr<exec::QuerySession> session = test::WholeSiteSession(site);
      TERTIO_CHECK(auditor != nullptr, "audit must bind");
      exec::WorkloadConfig workload;
      workload.r_bytes = 18 * kMB;
      workload.s_bytes = 1000 * kMB;
      workload.phantom = true;
      auto prepared = exec::PrepareWorkload(session.get(), workload);
      TERTIO_CHECK(prepared.ok(), "setup failed");
      join::JoinSpec spec;
      spec.r = &prepared->r;
      spec.s = &prepared->s;
      join::JoinContext ctx = session->context();
      ctx.retain_spans = retain_spans;
      auto stats = join::CreateJoinMethod(method)->Execute(spec, ctx);
      TERTIO_CHECK(stats.ok(), stats.status().ToString());
      TERTIO_CHECK(auditor->clean(), auditor->TraceString());
      TERTIO_CHECK(auditor->checks_performed() > 0, "the auditor checked nothing");
      return stats.value();
    };
    SCOPED_TRACE(JoinMethodName(method));
    const join::JoinStats per_chunk = run(true);
    const join::JoinStats closed = run(false);
    EXPECT_FALSE(per_chunk.spans.spans().empty());
    EXPECT_EQ(per_chunk.response_seconds, closed.response_seconds);
    EXPECT_EQ(per_chunk.step1_seconds, closed.step1_seconds);
    EXPECT_EQ(per_chunk.step2_seconds, closed.step2_seconds);
    EXPECT_EQ(per_chunk.tape_blocks_read, closed.tape_blocks_read);
    EXPECT_EQ(per_chunk.tape_blocks_written, closed.tape_blocks_written);
    EXPECT_EQ(per_chunk.disk_blocks_read, closed.disk_blocks_read);
    EXPECT_EQ(per_chunk.disk_blocks_written, closed.disk_blocks_written);
    EXPECT_EQ(per_chunk.disk_requests, closed.disk_requests);
    EXPECT_EQ(per_chunk.peak_memory_blocks, closed.peak_memory_blocks);
    EXPECT_EQ(per_chunk.peak_disk_blocks, closed.peak_disk_blocks);
    ASSERT_EQ(per_chunk.spans.phases().size(), closed.spans.phases().size());
    for (std::size_t i = 0; i < per_chunk.spans.phases().size(); ++i) {
      const PhaseSummary& a = per_chunk.spans.phases()[i];
      const PhaseSummary& b = closed.spans.phases()[i];
      SCOPED_TRACE("phase " + a.phase);
      EXPECT_EQ(a.phase, b.phase);
      EXPECT_EQ(a.device, b.device);
      EXPECT_EQ(a.stage_count, b.stage_count);
      EXPECT_EQ(a.blocks, b.blocks);
      EXPECT_EQ(a.bytes, b.bytes);
      EXPECT_EQ(a.busy_seconds, b.busy_seconds);
      EXPECT_EQ(a.window.start, b.window.start);
      EXPECT_EQ(a.window.end, b.window.end);
    }
  }
}

// Engagement, not just equivalence: on the paper testbed the shared transfer
// helpers (tape-to-disk staging, disk scan-and-probe) must actually reach
// the coalesced path for nearly every chunk after the per-chunk warm-up.
TEST(SimSanCoalesceTest, SharedTransferHelpersEngageTheCoalescedPath) {
  exec::SiteConfig config = exec::SiteConfig::PaperTestbed(50 * kMB, 5400 * kKB);
  exec::Site site(config);
  Auditor* auditor = site.EnableAudit();
  std::unique_ptr<exec::QuerySession> session = test::WholeSiteSession(site);
  ASSERT_NE(auditor, nullptr);
  exec::WorkloadConfig workload;
  workload.r_bytes = 18 * kMB;
  workload.s_bytes = 100 * kMB;
  workload.phantom = true;
  auto prepared = exec::PrepareWorkload(session.get(), workload);
  ASSERT_TRUE(prepared.ok()) << prepared.status();
  join::JoinContext ctx = session->context();

  Pipeline pipe(ctx.sim->Horizon(), nullptr, ctx.sim->auditor());
  BlockCount chunk = join::DefaultTapeChunk(prepared->r);
  auto staged = join::StageRelationToDisk(ctx, pipe, ctx.drive_r, prepared->r, chunk,
                                          /*concurrent=*/true, "engage-r", {});
  ASSERT_TRUE(staged.ok()) << staged.status();
  std::uint64_t after_staging = pipe.coalesced_chunks();
  // The first chunk warms up per-chunk (tape locate, first disk seek);
  // the steady state coalesces the rest.
  BlockCount total_chunks = prepared->r.blocks / chunk;
  EXPECT_GE(after_staging, total_chunks / 2);

  auto scan = join::ScanDiskAndProbe(ctx, pipe, "r-scan", staged->space.extents(), chunk,
                                     {staged->done_stage}, /*phantom=*/true, nullptr, 0,
                                     nullptr, nullptr);
  ASSERT_TRUE(scan.ok()) << scan.status();
  EXPECT_GT(pipe.coalesced_chunks(), after_staging);

  // A GH probe scan of one partitioned bucket. The partitioner's flushes of
  // four buckets interleave on disk, so every write-buffer chunk of the
  // bucket's scan seeks; the seeking pattern repeats, so the scan coalesces
  // all but its warm-up chunks.
  hash::DiskPartitioner::Options options;
  options.bucket_count = 4;
  options.write_buffer_blocks = 8;
  options.alloc_tag = "S-iter-even";
  hash::DiskPartitioner partitioner(ctx.disks, options);
  ASSERT_TRUE(partitioner.AddPhantomBlocks(2048, pipe.end(*scan)).ok());
  ASSERT_TRUE(partitioner.Flush().ok());
  const hash::DiskBucket& bucket = partitioner.buckets()[0];
  const std::uint64_t bucket_chunks = bucket.blocks / options.write_buffer_blocks;
  ASSERT_GE(bucket_chunks, 60u);
  const std::uint64_t before_bucket = pipe.coalesced_chunks();
  auto bucket_scan = join::ScanDiskAndProbe(ctx, pipe, "s-bucket-scan", bucket.extents,
                                            options.write_buffer_blocks, {*scan},
                                            /*phantom=*/true, nullptr, 0, nullptr, nullptr);
  ASSERT_TRUE(bucket_scan.ok()) << bucket_scan.status();
  EXPECT_GE(pipe.coalesced_chunks() - before_bucket, bucket_chunks * 3 / 4);
  EXPECT_TRUE(auditor->clean()) << auditor->TraceString();
}

TEST(SimSanNegativeTest, DetectsIntervalOverlap) {
  Auditor auditor;
  auditor.OnSchedule("tapeR", 0.0, Interval{0.0, 5.0}, 0);
  auditor.OnSchedule("tapeR", 0.0, Interval{4.0, 6.0}, 0);  // starts inside [0,5)
  EXPECT_FALSE(auditor.clean());
  EXPECT_TRUE(HasKind(auditor, AuditKind::kIntervalOverlap));
  // The diagnostic replays both offending intervals.
  ASSERT_FALSE(auditor.violations().empty());
  EXPECT_GE(auditor.violations()[0].intervals.size(), 2u);
}

TEST(SimSanNegativeTest, DetectsTimeRegression) {
  Auditor auditor;
  auditor.OnSchedule("disk0", 3.0, Interval{5.0, 4.0}, 0);  // ends before it starts
  EXPECT_TRUE(HasKind(auditor, AuditKind::kTimeRegression));
  Auditor early;
  early.OnSchedule("disk0", 3.0, Interval{2.0, 6.0}, 0);  // starts before ready
  EXPECT_TRUE(HasKind(early, AuditKind::kTimeRegression));
}

// A BlockSource that claims to have finished before it was allowed to start
// — the class of bug a miswired device model would introduce.
class TimeTravelSource final : public BlockSource {
 public:
  Result<Interval> Read(BlockCount offset, BlockCount count, SimSeconds ready,
                        std::vector<BlockPayload>* out) override {
    (void)offset;
    (void)count;
    (void)out;
    return Interval{ready - 2.0, ready - 1.0};
  }
  std::string_view device() const override { return "evil"; }
};

TEST(SimSanNegativeTest, DetectsCausalityBreakThroughRealTransfer) {
  Auditor auditor;
  Pipeline pipe(/*start=*/5.0, /*trace=*/nullptr, &auditor);
  TimeTravelSource source;
  CollectSink sink(nullptr);
  Pipeline::TransferPlan plan;
  plan.read_phase = "s-read";
  plan.write_phase = "probe";
  plan.total = 4;
  plan.chunk = 2;
  auto result = pipe.Transfer(plan, source, sink);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_FALSE(auditor.clean());
  EXPECT_TRUE(HasKind(auditor, AuditKind::kCausality));
  // The conservation ledger itself balances: the source lied about time,
  // not about block counts.
  EXPECT_FALSE(HasKind(auditor, AuditKind::kByteConservation));
}

TEST(SimSanNegativeTest, DetectsBufferOvercommit) {
  Auditor auditor;
  auditor.OnMemoryReserve("hash-table", 20, /*reserved_after=*/120, /*total=*/100);
  EXPECT_TRUE(HasKind(auditor, AuditKind::kBufferOvercommit));
}

TEST(SimSanNegativeTest, DetectsScratchOvercommit) {
  Auditor disk_auditor;
  disk_auditor.OnDiskUsage("stage-r", 1.5, /*used_after=*/501, /*capacity=*/500);
  EXPECT_TRUE(HasKind(disk_auditor, AuditKind::kScratchOvercommit));
  Auditor tape_auditor;
  tape_auditor.OnTapeOccupancy("scratchR", /*size_after=*/1001, /*capacity=*/1000);
  EXPECT_TRUE(HasKind(tape_auditor, AuditKind::kScratchOvercommit));
  // Capacity 0 means unbounded: no violation however large the volume.
  Auditor unbounded;
  unbounded.OnTapeOccupancy("archive", 1'000'000, 0);
  EXPECT_TRUE(unbounded.clean());
}

TEST(SimSanNegativeTest, DetectsByteConservationBreak) {
  Auditor short_delivery;
  short_delivery.OnTransferEnd("r-scan", /*expected=*/64, /*completed=*/63, /*issued=*/63,
                               /*dropped=*/0);
  EXPECT_TRUE(HasKind(short_delivery, AuditKind::kByteConservation));
  Auditor leaky_ledger;
  leaky_ledger.OnTransferEnd("r-scan", 64, 64, /*issued=*/70, /*dropped=*/2);  // 70 != 64+2
  EXPECT_TRUE(HasKind(leaky_ledger, AuditKind::kByteConservation));
  Auditor with_retries;
  with_retries.OnTransferEnd("r-scan", 64, 64, /*issued=*/66, /*dropped=*/2);  // balances
  EXPECT_TRUE(with_retries.clean());
}

TEST(SimSanNegativeTest, DetectsHorizonIncoherence) {
  Auditor auditor;
  auditor.OnHorizonCheck(/*cached=*/10.0, /*recomputed=*/7.5);
  EXPECT_TRUE(HasKind(auditor, AuditKind::kHorizonIncoherence));
}

TEST(SimSanNegativeTest, DetectsAccountingBreaks) {
  Auditor over_release;
  over_release.OnMemoryRelease("ring", /*released=*/8, /*held_under_tag=*/5);
  EXPECT_TRUE(HasKind(over_release, AuditKind::kAccounting));
  Auditor over_free;
  over_free.OnDiskOverfree("stage-s", "freed extent [10, 20) that was never allocated");
  EXPECT_TRUE(HasKind(over_free, AuditKind::kAccounting));
}

TEST(SimSanNegativeTest, DetectsUnregisteredSpan) {
  Auditor auditor;
  auditor.OnStage("probee" /* typo'd "probe" */, "disks", 0.0, 0.0, Interval{0.0, 1.0});
  EXPECT_TRUE(HasKind(auditor, AuditKind::kUnregisteredSpan));
}

TEST(SimSanNegativeTest, DetectsClosedFormDivergence) {
  Auditor auditor;
  auditor.OnClosedFormCheck("s-bucket-scan", 64, nullptr, 70.5, 70.5);
  EXPECT_TRUE(auditor.clean());
  auditor.OnClosedFormCheck("s-bucket-scan", 64, "read chain end", 0x1.171d558d41e48p+6,
                            0x1.171d558d41ec8p+6);
  ASSERT_TRUE(HasKind(auditor, AuditKind::kClosedFormDivergence));
  EXPECT_NE(auditor.TraceString().find("read chain end"), std::string::npos);
}

// A source whose every chunk costs one constant device op: the simplest
// window the closed-form commit keeps and reuses.
class SteadySource final : public BlockSource {
 public:
  Result<Interval> Read(BlockCount offset, BlockCount count, SimSeconds ready,
                        std::vector<BlockPayload>* out) override {
    (void)offset;
    (void)count;
    (void)out;
    return resource_.Schedule(ready, kCost);
  }
  std::string_view device() const override { return "disks"; }
  ChunkCostProfile CostProfile(BlockCount offset, BlockCount chunk,
                               std::uint64_t max_chunks) override {
    (void)offset;
    (void)chunk;
    ChunkCostProfile profile;
    profile.chunks = max_chunks;
    profile.ops_per_chunk = {1};
    profile.ops = {{&resource_, kCost, 0}};
    return profile;
  }

 private:
  static constexpr double kCost = 0.25;
  Resource resource_{"disk0"};
};

// A kept replay that no longer matches its window is caught when a later
// window reuses it: SimSan re-derives the reused window by replay.
TEST(SimSanNegativeTest, DetectsACorruptedKeptReplayThroughARealTransfer) {
  Auditor auditor;
  Pipeline pipe(/*start=*/0.0, /*trace=*/nullptr, &auditor);
  SteadySource source;
  CollectSink sink(nullptr);
  Pipeline::TransferPlan plan;
  plan.read_phase = "r-scan";
  plan.write_phase = "probe";
  plan.total = 16;
  plan.chunk = 1;
  plan.streaming = true;
  // Sixteen quarter-second chunks from 1024 s end at 1028 s; the repeat
  // from 1028 + 2^-41 s is an even-ulp translation of the first window.
  ASSERT_TRUE(pipe.Transfer(plan, source, sink, {pipe.Event("start", 1024.0)}).ok());
  ASSERT_EQ(PipelineTestPeer::kept_windows(pipe).size(), 1u);
  Recurrence& kept = PipelineTestPeer::kept_windows(pipe).front().replays.back().end;
  const auto bits = std::bit_cast<std::uint64_t>(kept.slots.front().available.value());
  kept.slots.front().available = std::bit_cast<double>(bits ^ 1);
  ASSERT_TRUE(
      pipe.Transfer(plan, source, sink, {pipe.Event("start", 1028.0 + 0x1p-41)}).ok());
  EXPECT_EQ(pipe.reused_windows(), 1u);
  ASSERT_TRUE(HasKind(auditor, AuditKind::kClosedFormDivergence)) << auditor.TraceString();
  EXPECT_NE(auditor.TraceString().find("slot availability"), std::string::npos);
}

TEST(SimSanDiagnosticTest, CheckCarriesReplayableTrace) {
  Auditor auditor;
  auditor.OnSchedule("tapeS", 0.0, Interval{0.0, 5.0}, 0);
  auditor.OnSchedule("tapeS", 0.0, Interval{3.0, 7.0}, 0);
  Status status = auditor.Check();
  ASSERT_FALSE(status.ok());
  const std::string message(status.message());
  EXPECT_NE(message.find("SimSan"), std::string::npos);
  EXPECT_NE(message.find("IntervalOverlap"), std::string::npos);
  EXPECT_NE(message.find("tapeS"), std::string::npos);
  EXPECT_NE(message.find("replay:"), std::string::npos);
  // The offending intervals appear with enough precision to replay exactly.
  EXPECT_NE(message.find("[3.000000000, 7.000000000)"), std::string::npos);
}

TEST(SimSanDiagnosticTest, ClearForgetsEverything) {
  Auditor auditor;
  auditor.OnSchedule("r", 0.0, Interval{0.0, 5.0}, 0);
  auditor.OnSchedule("r", 0.0, Interval{1.0, 2.0}, 0);
  ASSERT_FALSE(auditor.clean());
  auditor.Clear();
  EXPECT_TRUE(auditor.clean());
  EXPECT_EQ(auditor.checks_performed(), 0u);
  // And the per-resource timeline restarts, too.
  auditor.OnSchedule("r", 0.0, Interval{0.0, 1.0}, 0);
  EXPECT_TRUE(auditor.clean());
}

TEST(SimSanDiagnosticTest, ViolationCapReportsDrops) {
  Auditor auditor;
  for (int i = 0; i < 100; ++i) {
    auditor.OnHorizonCheck(1.0, 2.0);
  }
  EXPECT_EQ(auditor.violations().size(), 64u);
  EXPECT_NE(auditor.TraceString().find("dropped"), std::string::npos);
}

}  // namespace
}  // namespace tertio::sim
