// Unit tests for the pipeline engine (sim/pipeline.h) and the extent
// slicing under it: stage dependencies, Transfer dependency structure
// (lock-step vs streaming), span aggregation, ExtentCursor slice edge cases.

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "disk/extent.h"
#include "disk/striped_group.h"
#include "sim/auditor.h"
#include "sim/pipeline.h"
#include "sim/resource.h"
#include "sim/simulation.h"
#include "sim/trace_report.h"

namespace tertio::sim {
namespace {

// A block device with a fixed per-block cost, for exercising Transfer's
// dependency structure without the real device models.
class FakeDevice final : public BlockSource, public BlockSink {
 public:
  FakeDevice(std::string name, SimSeconds seconds_per_block)
      : resource_(std::move(name)), cost_(seconds_per_block) {}

  Result<Interval> Read(BlockCount offset, BlockCount count, SimSeconds ready,
                        std::vector<BlockPayload>* out) override {
    (void)offset;
    if (out != nullptr) out->resize(((out->size() + count)).value());  // phantom payloads
    return resource_.Schedule(ready, cost_ * static_cast<double>(count.value()));
  }

  Result<Interval> Write(BlockCount offset, BlockCount count, SimSeconds ready,
                         std::vector<BlockPayload>* payloads) override {
    (void)offset;
    (void)payloads;
    return resource_.Schedule(ready, cost_ * static_cast<double>(count.value()));
  }

  std::string_view device() const override { return resource_.name(); }

 private:
  Resource resource_;
  SimSeconds cost_;
};

TEST(PipelineTest, EventIsFlooredAtStart) {
  Pipeline pipe(100.0);
  StageId early = pipe.Event("early", 50.0);
  StageId late = pipe.Event("late", 150.0);
  EXPECT_DOUBLE_EQ((pipe.end(early)).value(), 100.0);
  EXPECT_DOUBLE_EQ((pipe.end(late)).value(), 150.0);
}

TEST(PipelineTest, NoStageSentinelIsIgnoredInDeps) {
  Pipeline pipe(10.0);
  std::vector<StageId> none{kNoStage};
  EXPECT_DOUBLE_EQ((pipe.ReadyAfter(none)).value(), 10.0);
  StageId e = pipe.Event("e", 25.0);
  StageId barrier = pipe.Barrier("sync", {kNoStage, e, kNoStage});
  EXPECT_DOUBLE_EQ((pipe.end(barrier)).value(), 25.0);
}

TEST(PipelineTest, BarrierJoinsChains) {
  Pipeline pipe(0.0);
  StageId a = pipe.Event("a", 7.0);
  StageId b = pipe.Event("b", 12.0);
  StageId barrier = pipe.Barrier("sync", {a, b});
  EXPECT_DOUBLE_EQ((pipe.end(barrier)).value(), 12.0);
  EXPECT_DOUBLE_EQ((pipe.Horizon()).value(), 12.0);
}

// Lock-step: chunk i+1's read waits for write i — the single process of the
// sequential (DT) methods. With a 1 s/block source and 2 s/block sink moving
// 4 blocks in 2-block chunks: read [0,2], write [2,6], read [6,8],
// write [8,12].
TEST(PipelineTest, LockStepTransferAlternatesDevices) {
  FakeDevice src("src", 1.0);
  FakeDevice dst("dst", 2.0);
  Pipeline pipe(0.0);
  Pipeline::TransferPlan plan;
  plan.read_phase = "read";
  plan.write_phase = "write";
  plan.total = 4;
  plan.chunk = 2;
  plan.streaming = false;
  auto result = pipe.Transfer(plan, src, dst);
  ASSERT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ((pipe.end(result->last_read)).value(), 8.0);
  EXPECT_DOUBLE_EQ(result->source_done.value(), 8.0);
  EXPECT_DOUBLE_EQ((pipe.end(result->last_write)).value(), 12.0);
  EXPECT_DOUBLE_EQ(result->done.value(), 12.0);
}

// Streaming: the producer runs ahead (read i+1 follows read i); the sink
// trails. Same devices and volume as above: reads [0,2] [2,4], writes
// [2,6] [6,10] — two seconds faster than lock-step.
TEST(PipelineTest, StreamingTransferOverlapsProducerAndConsumer) {
  FakeDevice src("src", 1.0);
  FakeDevice dst("dst", 2.0);
  Pipeline pipe(0.0);
  Pipeline::TransferPlan plan;
  plan.read_phase = "read";
  plan.write_phase = "write";
  plan.total = 4;
  plan.chunk = 2;
  plan.streaming = true;
  auto result = pipe.Transfer(plan, src, dst);
  ASSERT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ(result->source_done.value(), 4.0);
  EXPECT_DOUBLE_EQ((pipe.end(result->last_write)).value(), 10.0);
  EXPECT_DOUBLE_EQ(result->done.value(), 10.0);
}

TEST(PipelineTest, TransferTailChunkCoversRemainder) {
  FakeDevice src("src", 1.0);
  FakeDevice dst("dst", 1.0);
  SpanTrace trace;
  Pipeline pipe(0.0, &trace);
  Pipeline::TransferPlan plan;
  plan.read_phase = "read";
  plan.write_phase = "write";
  plan.total = 5;
  plan.chunk = 2;
  plan.streaming = true;
  auto result = pipe.Transfer(plan, src, dst);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(trace.phases().size(), 2u);
  EXPECT_EQ(trace.phases()[0].phase, "read");
  EXPECT_EQ(trace.phases()[0].stage_count, 3u);  // chunks of 2, 2, 1
  EXPECT_EQ(trace.phases()[0].blocks, 5u);
  EXPECT_EQ(trace.phases()[1].blocks, 5u);
}

TEST(PipelineTest, SpanWindowMatchesHorizon) {
  FakeDevice src("src", 1.0);
  FakeDevice dst("dst", 2.0);
  SpanTrace trace;
  trace.set_retain(true);
  Pipeline pipe(5.0, &trace);
  Pipeline::TransferPlan plan;
  plan.read_phase = "read";
  plan.write_phase = "write";
  plan.total = 4;
  plan.chunk = 2;
  plan.streaming = false;
  auto result = pipe.Transfer(plan, src, dst);
  ASSERT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ(trace.window().start.value(), 5.0);
  EXPECT_DOUBLE_EQ(trace.window().end.value(), (pipe.Horizon()).value());
  EXPECT_EQ(trace.spans().size(), pipe.size());
  EXPECT_EQ(trace.phases()[0].device, "src");
  EXPECT_EQ(trace.phases()[1].device, "dst");
  std::string gantt = RenderSpanGantt(trace);
  EXPECT_NE(gantt.find("read"), std::string::npos);
  EXPECT_NE(gantt.find("write"), std::string::npos);
}

// A device that advertises its steady-state chunk costs through CostProfile,
// with call counters to observe which path Transfer took.
class CoalescibleDevice final : public BlockSource, public BlockSink {
 public:
  CoalescibleDevice(std::string name, SimSeconds seconds_per_block)
      : resource_(std::move(name)), cost_(seconds_per_block) {}

  Result<Interval> Read(BlockCount offset, BlockCount count, SimSeconds ready,
                        std::vector<BlockPayload>* out) override {
    (void)offset;
    if (out != nullptr) out->resize(((out->size() + count)).value());
    ++read_calls_;
    return resource_.Schedule(ready, cost_ * static_cast<double>(count.value()));
  }

  Result<Interval> Write(BlockCount offset, BlockCount count, SimSeconds ready,
                         std::vector<BlockPayload>* payloads) override {
    (void)offset;
    (void)payloads;
    ++write_calls_;
    return resource_.Schedule(ready, cost_ * static_cast<double>(count.value()));
  }

  ChunkCostProfile CostProfile(BlockCount offset, BlockCount chunk,
                               std::uint64_t max_chunks) override {
    (void)offset;
    ChunkCostProfile profile;
    profile.chunks = max_chunks;
    profile.cycle = 1;
    profile.ops_per_chunk = {1};
    profile.ops = {{&resource_, cost_ * static_cast<double>(chunk.value()), 0}};
    profile.commit = [this](BlockCount committed) { committed_ += committed; };
    return profile;
  }

  std::string_view device() const override { return resource_.name(); }

  Resource& resource() { return resource_; }
  void set_cost(SimSeconds seconds_per_block) { cost_ = seconds_per_block; }
  int read_calls() const { return read_calls_; }
  int write_calls() const { return write_calls_; }
  BlockCount committed_chunks() const { return committed_; }

 private:
  Resource resource_;
  SimSeconds cost_;
  int read_calls_ = 0;
  int write_calls_ = 0;
  BlockCount committed_ = 0;
};

// One Transfer over a pair of CoalescibleDevices, with everything a
// bit-identity comparison needs captured by value.
struct CoalesceRun {
  SimSeconds source_done = 0.0;
  SimSeconds done = 0.0;
  SimSeconds horizon = 0.0;
  std::uint64_t coalesced_chunks = 0;
  int read_calls = 0;
  int write_calls = 0;
  BlockCount committed_chunks = 0;
  ResourceStats src_stats;
  ResourceStats dst_stats;
  SpanTrace trace;
};

// A run whose trace retains spans commits every chunk per-chunk: the
// reference the coalesced runs are compared against.
CoalesceRun RunCoalescibleTransfer(bool per_chunk, bool streaming, BlockCount total,
                                   BlockCount chunk) {
  CoalescibleDevice src("src", 0.125);
  CoalescibleDevice dst("dst", 0.25);
  CoalesceRun run;
  run.trace.set_retain(per_chunk);
  Pipeline pipe(3.0, &run.trace);
  Pipeline::TransferPlan plan;
  plan.read_phase = "read";
  plan.write_phase = "write";
  plan.total = total;
  plan.chunk = chunk;
  plan.streaming = streaming;
  auto result = pipe.Transfer(plan, src, dst);
  TERTIO_CHECK(result.ok(), "coalescible transfer failed");
  run.source_done = result->source_done;
  run.done = result->done;
  run.horizon = pipe.Horizon();
  run.coalesced_chunks = pipe.coalesced_chunks();
  run.read_calls = src.read_calls();
  run.write_calls = dst.write_calls();
  run.committed_chunks = src.committed_chunks();
  run.src_stats = src.resource().stats();
  run.dst_stats = dst.resource().stats();
  return run;
}

// Exact comparisons throughout: the fast path's claim is bit-identity, not
// tolerance-level agreement.
void ExpectSamePhases(const SpanTrace& a, const SpanTrace& b) {
  ASSERT_EQ(a.phases().size(), b.phases().size());
  for (std::size_t i = 0; i < a.phases().size(); ++i) {
    const PhaseSummary& pa = a.phases()[i];
    const PhaseSummary& pb = b.phases()[i];
    EXPECT_EQ(pa.phase, pb.phase);
    EXPECT_EQ(pa.device, pb.device);
    EXPECT_EQ(pa.stage_count, pb.stage_count);
    EXPECT_EQ(pa.blocks, pb.blocks);
    EXPECT_EQ(pa.bytes, pb.bytes);
    EXPECT_EQ(pa.busy_seconds, pb.busy_seconds);
    EXPECT_EQ(pa.window.start, pb.window.start);
    EXPECT_EQ(pa.window.end, pb.window.end);
  }
  EXPECT_EQ(a.window().start, b.window().start);
  EXPECT_EQ(a.window().end, b.window().end);
}

void ExpectBitIdentical(const CoalesceRun& a, const CoalesceRun& b) {
  EXPECT_EQ(a.source_done, b.source_done);
  EXPECT_EQ(a.done, b.done);
  EXPECT_EQ(a.horizon, b.horizon);
  EXPECT_EQ(a.src_stats.op_count, b.src_stats.op_count);
  EXPECT_EQ(a.src_stats.busy_seconds, b.src_stats.busy_seconds);
  EXPECT_EQ(a.src_stats.horizon, b.src_stats.horizon);
  EXPECT_EQ(a.dst_stats.op_count, b.dst_stats.op_count);
  EXPECT_EQ(a.dst_stats.busy_seconds, b.dst_stats.busy_seconds);
  EXPECT_EQ(a.dst_stats.horizon, b.dst_stats.horizon);
  ExpectSamePhases(a.trace, b.trace);
}

// The tentpole claim: the coalesced fast path commits the same simulated
// seconds and aggregates as the per-chunk loop, while engaging (batching
// nearly all chunks into O(1) endpoint calls).
TEST(PipelineCoalesceTest, CoalescedTransferIsBitIdenticalToPerChunk) {
  for (bool streaming : {false, true}) {
    SCOPED_TRACE(streaming ? "streaming" : "lock-step");
    CoalesceRun fast = RunCoalescibleTransfer(/*per_chunk=*/false, streaming, 64, 4);
    CoalesceRun slow = RunCoalescibleTransfer(/*per_chunk=*/true, streaming, 64, 4);
    EXPECT_EQ(fast.coalesced_chunks, 16u);
    EXPECT_EQ(fast.committed_chunks, 16u);
    EXPECT_EQ(fast.read_calls, 0);
    EXPECT_EQ(fast.write_calls, 0);
    EXPECT_EQ(slow.coalesced_chunks, 0u);
    EXPECT_EQ(slow.read_calls, 16);
    EXPECT_EQ(slow.write_calls, 16);
    ExpectBitIdentical(fast, slow);
  }
}

// A total that is not a chunk multiple leaves a tail chunk; the batch covers
// the full chunks and the tail runs per-chunk, with identical results.
TEST(PipelineCoalesceTest, TailChunkRunsPerChunkAfterTheBatch) {
  CoalesceRun fast = RunCoalescibleTransfer(/*per_chunk=*/false, /*streaming=*/true, 61, 4);
  CoalesceRun slow = RunCoalescibleTransfer(/*per_chunk=*/true, /*streaming=*/true, 61, 4);
  EXPECT_EQ(fast.coalesced_chunks, 15u);
  EXPECT_EQ(fast.read_calls, 1);  // the 1-block tail
  ExpectBitIdentical(fast, slow);
}

// Retained span lists need one span per stage, which a batch cannot supply:
// a retaining trace must force the per-chunk path.
TEST(PipelineCoalesceTest, RetainedTraceForcesPerChunkPath) {
  CoalescibleDevice src("src", 1.0);
  CoalescibleDevice dst("dst", 1.0);
  SpanTrace trace;
  trace.set_retain(true);
  Pipeline pipe(0.0, &trace);
  Pipeline::TransferPlan plan;
  plan.read_phase = "read";
  plan.write_phase = "write";
  plan.total = 8;
  plan.chunk = 2;
  plan.streaming = true;
  auto result = pipe.Transfer(plan, src, dst);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(pipe.coalesced_chunks(), 0u);
  EXPECT_EQ(src.read_calls(), 4);
  EXPECT_EQ(trace.spans().size(), 8u);
}

// A per-op device trace (Resource::EnableTrace) also cannot be reconstructed
// from a batch; a traced resource vetoes coalescing at the slot level.
TEST(PipelineCoalesceTest, TracedResourceForcesPerChunkPath) {
  CoalescibleDevice src("src", 1.0);
  CoalescibleDevice dst("dst", 1.0);
  src.resource().EnableTrace();
  Pipeline pipe(0.0);
  Pipeline::TransferPlan plan;
  plan.read_phase = "read";
  plan.write_phase = "write";
  plan.total = 8;
  plan.chunk = 2;
  plan.streaming = true;
  auto result = pipe.Transfer(plan, src, dst);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(pipe.coalesced_chunks(), 0u);
  EXPECT_EQ(src.resource().trace().size(), 4u);
}

// A streaming transfer of `chunks` one-block chunks over a single-op
// coalescible source into a free sink: the closed-form jump's simplest
// recurrence, end = fl(end + duration) per chunk. A `per_chunk` run retains
// its spans; otherwise `auditor` is bound and re-derives every closed-form
// batch with the O(chunks) replay.
CoalesceRun RunSingleOpStream(bool per_chunk, SimSeconds origin, SimSeconds duration,
                              BlockCount chunks, Auditor* auditor = nullptr) {
  CoalescibleDevice src("src", duration);
  CollectSink sink(nullptr);
  CoalesceRun run;
  run.trace.set_retain(per_chunk);
  Pipeline pipe(origin, &run.trace, auditor);
  Pipeline::TransferPlan plan;
  plan.read_phase = "stage:tape-read";
  plan.write_phase = "stage:disk-write";
  plan.total = chunks;
  plan.chunk = 1;
  plan.streaming = true;
  auto result = pipe.Transfer(plan, src, sink);
  TERTIO_CHECK(result.ok(), "single-op transfer failed");
  run.source_done = result->source_done;
  run.done = result->done;
  run.horizon = pipe.Horizon();
  run.coalesced_chunks = pipe.coalesced_chunks();
  run.src_stats = src.resource().stats();
  return run;
}

// The closed-form jump must not measure its per-period translation across a
// power of two: here the pre-check period starts below 2^6 and the watched
// period ends above it, where the realised step is one ulp of 2^-47 larger.
// A jump that trusted the lower binade's step ended 1.8e-12 s early.
TEST(PipelineCoalesceTest, ClosedFormJumpNeverSpansABinadeBoundary) {
  const SimSeconds origin = 0x1.fb8c49ba5e354p+5;
  const SimSeconds duration = 0x1.037cd3d7ca9e6p-6;
  CoalesceRun per_chunk = RunSingleOpStream(/*per_chunk=*/true, origin, duration, 400);
  Auditor auditor;
  CoalesceRun closed =
      RunSingleOpStream(/*per_chunk=*/false, origin, duration, 400, &auditor);
  EXPECT_EQ(per_chunk.done, SimSeconds(0x1.171d558d41ec8p+6));
  EXPECT_EQ(per_chunk.coalesced_chunks, 0u);
  EXPECT_EQ(closed.coalesced_chunks, 400u);
  ExpectBitIdentical(per_chunk, closed);
  // The SimSan cross-check replayed the batch and found nothing.
  EXPECT_GT(auditor.checks_performed(), 0u);
  EXPECT_TRUE(auditor.clean()) << auditor.TraceString();
}

// A seeded sweep of the same shape: transfers that start i * 0.0371 s below
// a power of two and whose op duration grows with i, so the boundary falls
// at a different chunk, step and grid phase in every case.
TEST(PipelineCoalesceTest, ClosedFormMatchesPerChunkAcrossBinadeCrossings) {
  int mismatches = 0;
  for (int k : {6, 7, 8, 9, 10, 12}) {
    for (int i = 1; i <= 200; ++i) {
      const SimSeconds origin = std::ldexp(1.0, k) - 0.0371 * i;
      const SimSeconds duration = 0.0371 * i / 35.13 + 1e-9 * k;
      CoalesceRun per_chunk = RunSingleOpStream(/*per_chunk=*/true, origin, duration, 400);
      Auditor auditor;
      CoalesceRun closed =
          RunSingleOpStream(/*per_chunk=*/false, origin, duration, 400, &auditor);
      SCOPED_TRACE(testing::Message() << "2^" << k << " - " << i << " * 0.0371");
      EXPECT_GT(auditor.checks_performed(), 0u);
      EXPECT_TRUE(auditor.clean()) << auditor.TraceString();
      if (per_chunk.done != closed.done ||
          per_chunk.src_stats.busy_seconds != closed.src_stats.busy_seconds) {
        ++mismatches;
      }
      ExpectBitIdentical(per_chunk, closed);
    }
  }
  EXPECT_EQ(mismatches, 0);
}

// ---------------------------------------------------------------------------
// Kept replays: a coalesced window that recurs at a translated start
// ---------------------------------------------------------------------------

void ExpectSameResource(const Resource& a, const Resource& b) {
  EXPECT_EQ(a.available_at(), b.available_at()) << a.name();
  EXPECT_EQ(a.stats().op_count, b.stats().op_count) << a.name();
  EXPECT_EQ(a.stats().busy_seconds, b.stats().busy_seconds) << a.name();
  EXPECT_EQ(a.stats().bytes_transferred, b.stats().bytes_transferred) << a.name();
  EXPECT_EQ(a.stats().horizon, b.stats().horizon) << a.name();
}

// NB Step II's shape: one disk-resident list scanned again and again into
// memory, each scan after the previous one, through one source whose walk
// keeps its chunk profiles. The pipeline's auditor re-derives every
// closed-form window with the O(chunks) replay.
struct ScanRun {
  Simulation sim;
  disk::StripedDiskGroup group{
      disk::DiskGroupConfig::Uniform(2, disk::DiskModel::QuantumFireball1080(), 8192, 8192, 32),
      &sim};
  SpanTrace trace;
  Auditor auditor;
  std::uint64_t reused = 0;
  std::uint64_t coalesced = 0;
};

// A `per_chunk` run retains its spans, which keeps every chunk per-chunk.
void RunRepeatedScans(bool per_chunk, bool streaming, BlockCount chunk, ScanRun& run) {
  const disk::ExtentList list = *run.group.allocator().Allocate(2000, 0.0, "r");
  disk::ExtentReadSource source(&run.group, &list);
  CollectSink sink(nullptr);
  run.trace.set_retain(per_chunk);
  Pipeline pipe(700.0, &run.trace, &run.auditor);
  Pipeline::TransferPlan plan;
  plan.read_phase = "r-scan";
  plan.write_phase = "probe";
  plan.total = 2000;
  plan.chunk = chunk;
  plan.streaming = streaming;
  StageId last = kNoStage;
  for (int scan = 0; scan < 24; ++scan) {
    // The memory load of S between two scans.
    const StageId load = pipe.Event("s-read", pipe.Horizon() + 0.375 * (scan % 3));
    auto result = pipe.Transfer(plan, source, sink, {last, load});
    ASSERT_TRUE(result.ok()) << result.status();
    last = result->last_write;
  }
  run.reused = pipe.reused_windows();
  run.coalesced = pipe.coalesced_chunks();
}

TEST(PipelineWindowReuseTest, RepeatedScansOfOneStripedListReuseTheirReplays) {
  for (bool streaming : {false, true}) {
    for (BlockCount chunk : {BlockCount(11), BlockCount(32), BlockCount(40)}) {
      SCOPED_TRACE(testing::Message() << (streaming ? "streaming" : "lock-step") << " chunk "
                                      << chunk.value());
      ScanRun closed;
      ScanRun per_chunk;
      RunRepeatedScans(/*per_chunk=*/false, streaming, chunk, closed);
      RunRepeatedScans(/*per_chunk=*/true, streaming, chunk, per_chunk);
      if (HasFatalFailure()) return;
      EXPECT_GT(closed.reused, 20u);
      EXPECT_EQ(per_chunk.coalesced, 0u);
      EXPECT_GT(closed.auditor.checks_performed(), 0u);
      EXPECT_TRUE(closed.auditor.clean()) << closed.auditor.TraceString();
      EXPECT_TRUE(per_chunk.auditor.clean()) << per_chunk.auditor.TraceString();
      for (int d = 0; d < 2; ++d) {
        ExpectSameResource(*closed.group.disk(d)->resource(),
                           *per_chunk.group.disk(d)->resource());
        EXPECT_EQ(closed.group.disk(d)->stats().requests,
                  per_chunk.group.disk(d)->stats().requests);
      }
      ExpectSamePhases(closed.trace, per_chunk.trace);
    }
  }
}

// Windows of a single-op source streaming `chunks` chunks into memory, each
// transfer starting at its own time in one pipeline; `costs` sets the
// source's per-chunk cost for each transfer. A `per_chunk` run retains its
// spans; the pipeline's auditor re-derives every closed-form window.
struct WindowRun {
  CoalescibleDevice src{"src", 0.25};
  SpanTrace trace;
  Auditor auditor;
  std::uint64_t reused = 0;
};

void RunWindows(bool per_chunk, std::span<const SimSeconds> starts, BlockCount chunks,
                WindowRun& run, std::span<const SimSeconds> costs = {}) {
  CollectSink sink(nullptr);
  run.trace.set_retain(per_chunk);
  Pipeline pipe(0.0, &run.trace, &run.auditor);
  Pipeline::TransferPlan plan;
  plan.read_phase = "stage:tape-read";
  plan.write_phase = "stage:disk-write";
  plan.total = chunks;
  plan.chunk = 1;
  plan.streaming = true;
  for (std::size_t i = 0; i < starts.size(); ++i) {
    if (!costs.empty()) run.src.set_cost(costs[i]);
    const StageId start = pipe.Event("start", starts[i]);
    auto result = pipe.Transfer(plan, run.src, sink, {start});
    TERTIO_CHECK(result.ok(), "window transfer failed");
  }
  run.reused = pipe.reused_windows();
}

// Runs the windows under both commits: the closed form must equal the
// per-chunk run bit for bit, and its audit the replay, whether or not it
// reused. \returns the windows it reused.
std::uint64_t ReusedAndExact(std::span<const SimSeconds> starts, BlockCount chunks,
                             std::span<const SimSeconds> costs = {}) {
  WindowRun closed;
  WindowRun per_chunk;
  RunWindows(/*per_chunk=*/false, starts, chunks, closed, costs);
  RunWindows(/*per_chunk=*/true, starts, chunks, per_chunk, costs);
  ExpectSameResource(closed.src.resource(), per_chunk.src.resource());
  ExpectSamePhases(closed.trace, per_chunk.trace);
  EXPECT_EQ(per_chunk.reused, 0u);
  EXPECT_GT(closed.auditor.checks_performed(), 0u);
  EXPECT_TRUE(closed.auditor.clean()) << closed.auditor.TraceString();
  return closed.reused;
}

// At 2^10 the ulp is 2^-42. A window of 16 quarter-second chunks from 1024 s
// ends at 1028 s, so a repeat from 1028 + 2^-41 is translated by an even
// multiple of the ulp and one from 1028 + 2^-42 by an odd one.
TEST(PipelineWindowReuseTest, ReuseNeedsAnEvenMultipleOfTheTopUlp) {
  const SimSeconds even[] = {1024.0, 1028.0 + 0x1p-41};
  const SimSeconds odd[] = {1024.0, 1028.0 + 0x1p-42};
  EXPECT_EQ(ReusedAndExact(even, 16), 1u);
  EXPECT_EQ(ReusedAndExact(odd, 16), 0u);
  // The key keeps two replays: a third window odd from the second is even
  // from the first.
  const SimSeconds parity[] = {1024.0, 1028.0 + 0x1p-42, 1032.0 + 0x1p-41};
  EXPECT_EQ(ReusedAndExact(parity, 16), 1u);
}

TEST(PipelineWindowReuseTest, ReuseNeverCarriesAValueAcrossAPowerOfTwo) {
  // An op end: eight quarter-second chunks from 1016 s end at 1018 s, which
  // a shift of 7 s carries past 1024 s and one of 2 s does not.
  const SimSeconds ends[] = {1016.0, 1023.0};
  EXPECT_EQ(ReusedAndExact(ends, 8), 0u);
  const SimSeconds inside[] = {1016.0, 1018.0};
  EXPECT_EQ(ReusedAndExact(inside, 8), 1u);

  // The final state after a jump. 261 one-second chunks from 1024 s replay
  // their first five (ends up to 1029 s) and jump 256 periods to 1285 s, so
  // the replayed ends alone would admit a shift of 770 s; the jumped-to
  // state, shifted to 2055 s, does not.
  const SimSeconds jumped[] = {1024.0, 1794.0};
  const SimSeconds costs[] = {1.0, 1.0};
  EXPECT_EQ(ReusedAndExact(jumped, 261, costs), 0u);
  const SimSeconds short_of_it[] = {1024.0, 1724.0};
  EXPECT_EQ(ReusedAndExact(short_of_it, 261, costs), 1u);
}

TEST(PipelineWindowReuseTest, ReuseNeedsTheSameIdleSlots) {
  // The second window starts while the first still holds the device.
  const SimSeconds busy[] = {1024.0, 1027.0};
  EXPECT_EQ(ReusedAndExact(busy, 16), 0u);
}

TEST(PipelineWindowReuseTest, ReuseNeedsTheSameProfile) {
  const SimSeconds starts[] = {1024.0, 1028.0 + 0x1p-41};
  const SimSeconds costs[] = {0.25, 0.25 + 0x1p-54};
  EXPECT_EQ(ReusedAndExact(starts, 16, costs), 0u);
}

class SliceExtentsTest : public ::testing::Test {
 protected:
  // One cursor slice of `extents_`, as an endpoint cuts a chunk.
  Result<disk::ExtentList> Slice(BlockCount offset, BlockCount count) {
    disk::ExtentCursor cursor(&extents_);
    disk::ExtentList out;
    TERTIO_RETURN_IF_ERROR(cursor.Slice(offset, count, &out));
    return out;
  }

  // 8 logical blocks: 5 on disk 0 at 10, then 3 on disk 1 at 0.
  disk::ExtentList extents_{{0, 10, 5}, {1, 0, 3}};
};

TEST_F(SliceExtentsTest, ZeroCountSliceIsEmpty) {
  EXPECT_TRUE(Slice(0, 0)->empty());
  EXPECT_TRUE(Slice(4, 0)->empty());
  EXPECT_TRUE(Slice(8, 0)->empty());
}

TEST_F(SliceExtentsTest, SliceWithinOneExtent) {
  auto slice = Slice(1, 3);
  ASSERT_TRUE(slice.ok());
  ASSERT_EQ(slice->size(), 1u);
  EXPECT_EQ((*slice)[0], (disk::Extent{0, 11, 3}));
}

TEST_F(SliceExtentsTest, SliceSpansExtentBoundary) {
  auto slice = Slice(3, 4);
  ASSERT_TRUE(slice.ok());
  ASSERT_EQ(slice->size(), 2u);
  EXPECT_EQ((*slice)[0], (disk::Extent{0, 13, 2}));
  EXPECT_EQ((*slice)[1], (disk::Extent{1, 0, 2}));
}

TEST_F(SliceExtentsTest, FullSliceReturnsWholeList) {
  EXPECT_EQ(*Slice(0, 8), extents_);
}

TEST_F(SliceExtentsTest, OffsetPastEndReturnsInvalidArgument) {
  auto past_end = Slice(6, 5);
  ASSERT_FALSE(past_end.ok());
  EXPECT_EQ(past_end.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(past_end.status().message().find("extent slice out of range"), std::string::npos);
  EXPECT_EQ(Slice(9, 1).status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace tertio::sim
