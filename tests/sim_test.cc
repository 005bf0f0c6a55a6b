// Unit tests for tertio_sim: resource timelines, simulation.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "sim/closed_form.h"
#include "sim/interval.h"
#include "sim/resource.h"
#include "sim/simulation.h"
#include "util/rng.h"

namespace tertio::sim {
namespace {

TEST(IntervalTest, DurationAndHull) {
  Interval a{1.0, 3.0};
  Interval b{2.0, 5.0};
  EXPECT_DOUBLE_EQ((a.duration()).value(), 2.0);
  Interval h = Interval::Hull(a, b);
  EXPECT_DOUBLE_EQ(h.start.value(), 1.0);
  EXPECT_DOUBLE_EQ(h.end.value(), 5.0);
  EXPECT_DOUBLE_EQ((Interval::At(4.0).duration()).value(), 0.0);
}

TEST(ResourceTest, FifoSerialization) {
  Resource r("dev");
  Interval a = r.Schedule(0.0, 10.0);
  Interval b = r.Schedule(0.0, 5.0);
  EXPECT_DOUBLE_EQ(a.start.value(), 0.0);
  EXPECT_DOUBLE_EQ(a.end.value(), 10.0);
  EXPECT_DOUBLE_EQ(b.start.value(), 10.0);  // queued behind a
  EXPECT_DOUBLE_EQ(b.end.value(), 15.0);
  EXPECT_DOUBLE_EQ((r.available_at()).value(), 15.0);
}

TEST(ResourceTest, ReadyTimeDelaysStart) {
  Resource r("dev");
  Interval a = r.Schedule(100.0, 5.0);
  EXPECT_DOUBLE_EQ(a.start.value(), 100.0);
  EXPECT_DOUBLE_EQ(a.end.value(), 105.0);
  // Device idles between ops when the next op is not ready.
  Interval b = r.Schedule(200.0, 1.0);
  EXPECT_DOUBLE_EQ(b.start.value(), 200.0);
}

TEST(ResourceTest, StatsAccumulate) {
  Resource r("dev");
  r.Schedule(0.0, 2.0, 1000, "read");
  r.Schedule(10.0, 3.0, 2000, "write");
  EXPECT_EQ(r.stats().op_count, 2u);
  EXPECT_EQ(r.stats().bytes_transferred, 3000u);
  EXPECT_DOUBLE_EQ(r.stats().busy_seconds.value(), 5.0);
  EXPECT_DOUBLE_EQ(r.stats().horizon.value(), 13.0);
}

TEST(ResourceTest, UtilizationAgainstHorizonAndFixedSpan) {
  Resource r("dev");
  r.Schedule(0.0, 4.0);
  r.Schedule(6.0, 4.0);  // horizon 10, busy 8
  EXPECT_DOUBLE_EQ(r.Utilization(), 0.8);
  EXPECT_DOUBLE_EQ(r.Utilization(20.0), 0.4);
  EXPECT_DOUBLE_EQ(Resource("idle").Utilization(), 0.0);
}

TEST(ResourceTest, TraceRecordsOps) {
  Resource r("dev");
  r.EnableTrace();
  r.Schedule(0.0, 1.0, 10, "a");
  r.Schedule(0.0, 2.0, 20, "b");
  ASSERT_EQ(r.trace().size(), 2u);
  EXPECT_STREQ(r.trace()[0].tag, "a");
  EXPECT_EQ(r.trace()[1].bytes, 20u);
  EXPECT_DOUBLE_EQ(r.trace()[1].interval.start.value(), 1.0);
}

// A coalesced batch must leave the resource in exactly the state the
// equivalent per-op Schedule sequence would have: same availability, stats
// (busy seconds accumulated in the same float order), and horizon.
TEST(ResourceTest, ScheduleBatchMatchesPerOpSchedules) {
  Resource per_op("dev");
  std::vector<SimSeconds> durations{0.125, 0.25, 0.125, 0.25};
  std::vector<ByteCount> bytes{100, 200, 100, 200};
  Interval hull;
  for (int cycle = 0; cycle < 3; ++cycle) {
    for (std::size_t i = 0; i < durations.size(); ++i) {
      Interval interval = per_op.Schedule(0.5, durations[i], bytes[i], "op");
      if (cycle == 0 && i == 0) hull.start = interval.start;
      hull.end = interval.end;
    }
  }
  Resource batched("dev");
  std::vector<SimSeconds> cycle_durations{durations[0], durations[1]};
  std::vector<ByteCount> cycle_bytes{bytes[0], bytes[1]};
  Interval got = batched.ScheduleBatch(6, cycle_durations, cycle_bytes, hull);
  EXPECT_DOUBLE_EQ(got.start.value(), (hull.start).value());
  EXPECT_DOUBLE_EQ(got.end.value(), (hull.end).value());
  EXPECT_DOUBLE_EQ((batched.available_at()).value(), (per_op.available_at()).value());
  EXPECT_EQ(batched.stats().op_count, per_op.stats().op_count);
  EXPECT_EQ(batched.stats().bytes_transferred, per_op.stats().bytes_transferred);
  EXPECT_EQ(batched.stats().busy_seconds, per_op.stats().busy_seconds);
  EXPECT_DOUBLE_EQ(batched.stats().horizon.value(), (per_op.stats().horizon).value());
}

TEST(ResourceTest, TraceOffByDefault) {
  Resource r("dev");
  r.Schedule(0.0, 1.0);
  EXPECT_TRUE(r.trace().empty());
}

TEST(SimulationTest, HorizonSpansResources) {
  Simulation sim;
  Resource* a = sim.CreateResource("a");
  Resource* b = sim.CreateResource("b");
  a->Schedule(0.0, 7.0);
  b->Schedule(0.0, 11.0);
  EXPECT_DOUBLE_EQ((sim.Horizon()).value(), 11.0);
  EXPECT_EQ(sim.resources().size(), 2u);
}

}  // namespace
}  // namespace tertio::sim

// ---- Trace report ----------------------------------------------------------

#include <sstream>

#include "sim/trace_report.h"

namespace tertio::sim {
namespace {

TEST(TraceReportTest, GanttShowsBusyAndIdle) {
  Simulation sim;
  Resource* tape = sim.CreateResource("tape");
  Resource* disk = sim.CreateResource("disk");
  tape->EnableTrace();
  disk->EnableTrace();
  tape->Schedule(0.0, 50.0, 0, "read");   // busy first half
  disk->Schedule(50.0, 50.0, 0, "write"); // busy second half
  GanttOptions options;
  options.width = 10;
  std::string gantt = RenderGantt(sim, options);
  // tape: #####.....  disk: .....#####
  EXPECT_NE(gantt.find("tape  #####....."), std::string::npos) << gantt;
  EXPECT_NE(gantt.find("disk  .....#####"), std::string::npos) << gantt;
  EXPECT_NE(gantt.find("50%"), std::string::npos);
}

TEST(TraceReportTest, UntracedResourceIsFlagged) {
  Simulation sim;
  Resource* r = sim.CreateResource("quiet");
  r->Schedule(0.0, 10.0);
  std::string gantt = RenderGantt(sim);
  EXPECT_NE(gantt.find("(no trace)"), std::string::npos);
}

TEST(TraceReportTest, CsvListsEveryOp) {
  Simulation sim;
  Resource* r = sim.CreateResource("dev");
  r->EnableTrace();
  r->Schedule(0.0, 1.0, 100, "a");
  r->Schedule(0.0, 2.0, 200, "b");
  std::ostringstream out;
  WriteTraceCsv(sim, out);
  std::string csv = out.str();
  EXPECT_NE(csv.find("resource,tag,start,end,bytes"), std::string::npos);
  EXPECT_NE(csv.find("dev,a,0,1,100"), std::string::npos);
  EXPECT_NE(csv.find("dev,b,1,3,200"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Closed-form iterated accumulation (sim/closed_form.h): the O(1)-per-binade
// jump must be bit-identical to the literal rounded-addition loop. These are
// exactness tests — EXPECT_EQ on doubles throughout, never near-comparisons.
// ---------------------------------------------------------------------------

SimSeconds LiteralLoop(SimSeconds acc, std::span<const SimSeconds> deltas,
                       std::uint64_t cycles) {
  for (std::uint64_t c = 0; c < cycles; ++c) {
    for (SimSeconds d : deltas) acc += d;
  }
  return acc;
}

TEST(ClosedFormTest, MatchesLiteralLoopAcrossBinadeCrossings) {
  // Deltas sized so a few hundred thousand iterations cross many binades of
  // the accumulator, including the transition from a zero start.
  const std::vector<std::vector<SimSeconds>> cycles = {
      {1e-7},
      {3.515625e-3},                        // exact dyadic step
      {1e-7, 2.5e-6, 3.3e-5},               // mixed-magnitude cycle
      {0.125, 0.1249999999999999},          // near-equal pair, half-ulp ties
      {1.0 / 3.0, 2.0 / 3.0, 1.0 / 7.0}};  // non-dyadic steps
  const SimSeconds seeds[] = {0.0, 1e-9, 0.75, 1.0, 12345.678};
  const std::uint64_t counts[] = {0, 1, 2, 7, 1000, 250000};
  for (const auto& deltas : cycles) {
    for (SimSeconds seed : seeds) {
      for (std::uint64_t n : counts) {
        const SimSeconds expect = LiteralLoop(seed, deltas, n);
        const SimSeconds got = IteratedAddCycle(seed, deltas, n);
        EXPECT_EQ(expect, got) << "seed=" << seed << " n=" << n
                               << " deltas[0]=" << deltas[0];
      }
    }
  }
}

TEST(ClosedFormTest, MatchesLiteralLoopOnRandomizedInputs) {
  Rng rng(20260808);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<SimSeconds> deltas(1 + rng.NextBelow(4));
    for (SimSeconds& d : deltas) {
      // Durations spanning ~9 orders of magnitude, as chunk costs do.
      d = 1e-9 * static_cast<double>(1 + rng.NextBelow(1000000000ull));
    }
    const SimSeconds seed = 1e-6 * static_cast<double>(rng.NextBelow(1000000000ull));
    const std::uint64_t n = rng.NextBelow(100000);
    const SimSeconds expect = LiteralLoop(seed, deltas, n);
    const SimSeconds got = IteratedAddCycle(seed, deltas, n);
    EXPECT_EQ(expect, got) << "trial=" << trial << " seed=" << seed << " n=" << n;
  }
}

TEST(ClosedFormTest, SingleDeltaConvenienceAgrees) {
  EXPECT_EQ(LiteralLoop(0.0, std::span<const SimSeconds>(), 5), 0.0);
  const SimSeconds d = 2.00000000001e-3;
  SimSeconds acc = 0.4;
  for (int i = 0; i < 1000; ++i) acc += d;
  EXPECT_EQ(acc, IteratedAddCycle(0.4, std::span<const SimSeconds>(&d, 1), 1000));
  // Non-finite and negative inputs take the literal-loop fallback and must
  // still agree with it.
  const SimSeconds neg[] = {-0.25, 1.0};
  EXPECT_EQ(LiteralLoop(1.0, neg, 31), IteratedAddCycle(1.0, neg, 31));
}

}  // namespace
}  // namespace tertio::sim
