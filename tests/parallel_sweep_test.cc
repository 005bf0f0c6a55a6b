// Tests of the deterministic sweep driver (exec/parallel_sweep.h): ordering
// and coverage of the static block-cyclic schedule, exception propagation,
// and — the property the bench suite depends on — bit-identical simulated
// results at any thread count, including with the fault model enabled.

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "exec/experiment.h"
#include "exec/parallel_sweep.h"
#include "join/join_method.h"

namespace tertio::exec {
namespace {

TEST(ParallelForTest, VisitsEveryIndexExactlyOnce) {
  constexpr std::size_t kCount = 257;  // not a multiple of any worker count
  std::vector<std::atomic<int>> visits(kCount);
  ParallelFor(kCount, /*threads=*/8, [&](std::size_t i) { visits[i].fetch_add(1); });
  for (std::size_t i = 0; i < kCount; ++i) {
    EXPECT_EQ(visits[i].load(), 1) << "index " << i;
  }
}

TEST(ParallelForTest, ZeroCountIsANoOp) {
  ParallelFor(0, 8, [&](std::size_t) { FAIL() << "body must not run"; });
}

TEST(ParallelForTest, PropagatesExceptionsFromWorkers) {
  EXPECT_THROW(ParallelFor(100, 4,
                           [&](std::size_t i) {
                             if (i == 63) throw std::runtime_error("boom");
                           }),
               std::runtime_error);
}

TEST(ParallelSweepTest, ResultsArriveInInputOrder) {
  std::vector<int> points(100);
  std::iota(points.begin(), points.end(), 0);
  std::vector<int> serial = ParallelSweep(points, [](int p) { return p * p; }, 1);
  std::vector<int> parallel = ParallelSweep(points, [](int p) { return p * p; }, 8);
  ASSERT_EQ(serial.size(), points.size());
  EXPECT_EQ(serial, parallel);
  for (std::size_t i = 0; i < points.size(); ++i) {
    EXPECT_EQ(serial[i], points[i] * points[i]);
  }
}

TEST(ParseSweepThreadsTest, ParsesFlagAndDefaults) {
  char prog[] = "bench";
  char flag[] = "--threads=3";
  char other[] = "--benchmark_filter=x";
  char* with_flag[] = {prog, flag};
  char* without_flag[] = {prog, other};
  EXPECT_EQ(ParseSweepThreads(2, with_flag), 3);
  EXPECT_EQ(ParseSweepThreads(2, without_flag), 0);
  EXPECT_GE(EffectiveSweepThreads(0), 1);
  EXPECT_EQ(EffectiveSweepThreads(5), 5);
}

/// One figure-style sweep point: a phantom join on the paper testbed with
/// the fault model enabled (transient read errors + latent bad blocks).
Result<join::JoinStats> RunFaultSweepPoint(JoinMethodId method, double error_rate) {
  exec::SiteConfig config = exec::SiteConfig::PaperTestbed(120 * kMB, 16 * kMB);
  config.faults.seed = 7;
  config.faults.tape.transient_read_error_rate = error_rate;
  config.faults.disk.transient_read_error_rate = error_rate;
  config.faults.tape.bad_block_rate = error_rate / 10.0;
  config.faults.disk.bad_block_rate = error_rate / 10.0;
  exec::WorkloadConfig workload;
  workload.r_bytes = 80 * kMB;
  workload.s_bytes = 800 * kMB;
  workload.phantom = true;
  return exec::RunJoinExperiment(config, workload, method);
}

/// The tentpole invariant: simulated results are a function of the sweep
/// point alone, never of the thread count — bit-identical JoinStats
/// (response/step/recovery seconds, traffic, fault counters) at --threads=1
/// and --threads=8.
TEST(ParallelSweepTest, FigureSweepIsBitIdenticalAcrossThreadCounts) {
  struct Point {
    JoinMethodId method;
    double rate;
  };
  std::vector<Point> points;
  for (JoinMethodId method :
       {JoinMethodId::kDtNb, JoinMethodId::kCdtGh, JoinMethodId::kCttGh}) {
    for (double rate : {0.0, 1e-4, 3e-3}) points.push_back({method, rate});
  }
  auto run = [](const Point& p) { return RunFaultSweepPoint(p.method, p.rate); };
  std::vector<Result<join::JoinStats>> serial = ParallelSweep(points, run, 1);
  std::vector<Result<join::JoinStats>> parallel = ParallelSweep(points, run, 8);
  ASSERT_EQ(serial.size(), points.size());
  ASSERT_EQ(parallel.size(), points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    SCOPED_TRACE("point " + std::to_string(i));
    ASSERT_EQ(serial[i].ok(), parallel[i].ok());
    if (!serial[i].ok()) continue;
    const join::JoinStats& a = *serial[i];
    const join::JoinStats& b = *parallel[i];
    // Exact double equality on purpose: the sweep driver must not perturb
    // the simulation in any way.
    EXPECT_EQ(a.response_seconds, b.response_seconds);
    EXPECT_EQ(a.step1_seconds, b.step1_seconds);
    EXPECT_EQ(a.step2_seconds, b.step2_seconds);
    EXPECT_EQ(a.recovery_seconds, b.recovery_seconds);
    EXPECT_EQ(a.disk_blocks_read, b.disk_blocks_read);
    EXPECT_EQ(a.disk_blocks_written, b.disk_blocks_written);
    EXPECT_EQ(a.tape_blocks_read, b.tape_blocks_read);
    EXPECT_EQ(a.tape_blocks_written, b.tape_blocks_written);
    EXPECT_EQ(a.disk_requests, b.disk_requests);
    EXPECT_EQ(a.r_scans, b.r_scans);
    EXPECT_EQ(a.iterations, b.iterations);
    EXPECT_EQ(a.bucket_overflow_slices, b.bucket_overflow_slices);
    EXPECT_EQ(a.peak_memory_blocks, b.peak_memory_blocks);
    EXPECT_EQ(a.peak_disk_blocks, b.peak_disk_blocks);
    EXPECT_EQ(a.robot_exchanges, b.robot_exchanges);
    EXPECT_EQ(a.faults_injected, b.faults_injected);
    EXPECT_EQ(a.fault_retries, b.fault_retries);
    EXPECT_EQ(a.blocks_remapped, b.blocks_remapped);
    EXPECT_EQ(a.chunk_retries, b.chunk_retries);
  }
  // Sanity: the fault plan actually fired, so the fault counters compared
  // above were non-trivially equal.
  bool any_faults = false;
  for (const auto& result : serial) {
    if (result.ok() && result->faults_injected > 0) any_faults = true;
  }
  EXPECT_TRUE(any_faults);
}

}  // namespace
}  // namespace tertio::exec
