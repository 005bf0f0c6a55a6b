// Integration tests: whole experiments executed in-process, asserting the
// figure-level properties the paper reports (so a regression in any layer —
// devices, buffering, partitioning, executors — fails here even if every
// unit test still passes).

#include <gtest/gtest.h>

#include <algorithm>

#include "disk/allocator.h"
#include "exec/experiment.h"
#include "join/advisor.h"
#include "join/join_method.h"
#include "sim/trace_report.h"
#include "whole_site.h"

namespace tertio {
namespace {

TEST(Figure4Integration, InterleavedBufferingHoldsUtilizationNear100) {
  // Join III of Table 3, allocator trace on; replay the Step II window and
  // require >= 95% total utilization at (almost) every sample — the paper's
  // "upper line, at or near 100%".
  exec::SiteConfig config = exec::SiteConfig::PaperTestbed(500 * kMB, 16 * kMB);
  exec::Site site(config);
  std::unique_ptr<exec::QuerySession> session = test::WholeSiteSession(site);
  session->disks().allocator().EnableTrace();
  exec::WorkloadConfig workload;
  workload.r_bytes = 2500 * kMB;
  workload.s_bytes = 5000 * kMB;
  workload.phantom = true;
  auto prepared = exec::PrepareWorkload(session.get(), workload);
  ASSERT_TRUE(prepared.ok());
  join::JoinSpec spec;
  spec.r = &prepared->r;
  spec.s = &prepared->s;
  join::JoinContext ctx = session->context();
  auto stats = join::CreateJoinMethod(JoinMethodId::kCttGh)->Execute(spec, ctx);
  ASSERT_TRUE(stats.ok()) << stats.status();

  std::vector<disk::UsageEvent> trace = session->disks().allocator().trace();
  std::stable_sort(trace.begin(), trace.end(),
                   [](const disk::UsageEvent& a, const disk::UsageEvent& b) {
                     return a.time < b.time;
                   });
  BlockCount capacity = session->disks().allocator().capacity_blocks();
  SimSeconds begin = stats->step1_seconds;
  SimSeconds end = stats->response_seconds;
  std::int64_t used = 0;
  size_t cursor = 0;
  int samples = 0, high = 0;
  for (int i = 1; i <= 40; ++i) {
    SimSeconds t = begin + (end - begin) * i / 40;
    while (cursor < trace.size() && trace[cursor].time <= t) {
      const auto& event = trace[cursor++];
      if (event.tag.rfind("S-iter", 0) == 0) used += event.delta_blocks;
    }
    // Skip warm-up and final drain samples.
    if (i <= 3 || i >= 38) continue;
    ++samples;
    if (static_cast<double>(used) / static_cast<double>(capacity.value()) >= 0.95) ++high;
  }
  ASSERT_GT(samples, 20);
  EXPECT_GE(high, samples - 1) << "utilization dipped below 95% in steady state";
}

TEST(ParallelIoIntegration, ConcurrentMethodOverlapsDevicesSequentialDoesNot) {
  // Device-level check of the parallel-I/O claim: in CDT-GH the sum of
  // per-device busy time exceeds the response (overlap); in DT-GH it
  // roughly equals it (one device at a time).
  auto busy_over_response = [&](JoinMethodId method) {
    exec::SiteConfig config = exec::SiteConfig::PaperTestbed(60 * kMB, 4 * kMB);
    exec::Site site(config);
    std::unique_ptr<exec::QuerySession> session = test::WholeSiteSession(site);
    exec::WorkloadConfig workload;
    workload.r_bytes = 20 * kMB;
    workload.s_bytes = 120 * kMB;
    workload.phantom = true;
    auto prepared = exec::PrepareWorkload(session.get(), workload);
    TERTIO_CHECK(prepared.ok(), "setup failed");
    join::JoinSpec spec;
    spec.r = &prepared->r;
    spec.s = &prepared->s;
    join::JoinContext ctx = session->context();
    auto stats = join::CreateJoinMethod(method)->Execute(spec, ctx);
    TERTIO_CHECK(stats.ok(), stats.status().ToString());
    double busy = 0.0;
    for (const auto& resource : site.sim().resources()) {
      busy += resource->stats().busy_seconds.value();
    }
    return busy / stats->response_seconds;
  };
  double sequential = busy_over_response(JoinMethodId::kDtGh);
  double concurrent = busy_over_response(JoinMethodId::kCdtGh);
  EXPECT_LT(sequential, 1.15);            // essentially serialized
  EXPECT_GT(concurrent, sequential + 0.2);  // genuine overlap
}

TEST(EndToEndIntegration, QueryOverAdvisorChosenJoinOnFreshMachine) {
  // The full stack in one shot: machine -> workload -> advisor -> join ->
  // pipelined consumer, verified against an independent computation.
  exec::SiteConfig config;
  config.block_bytes = 1024;
  config.memory_bytes = 32 * 1024;
  config.disk_space_bytes = 128 * 1024;
  config.stripe_unit = 4;
  exec::Site site(config);
  std::unique_ptr<exec::QuerySession> session = test::WholeSiteSession(site);
  exec::WorkloadConfig workload;
  workload.r_bytes = 40 * 1024;
  workload.s_bytes = 200 * 1024;
  workload.phantom = false;
  auto prepared = exec::PrepareWorkload(session.get(), workload);
  ASSERT_TRUE(prepared.ok());

  std::uint64_t count = 0;
  join::JoinSpec spec;
  spec.r = &prepared->r;
  spec.s = &prepared->s;
  spec.match_sink = [&count](const rel::Tuple&, const rel::Tuple&) {
    ++count;
    return Status::OK();
  };
  auto advice = join::AdviseJoinMethod(exec::CostParamsFor(*session, spec));
  ASSERT_TRUE(advice.ok()) << advice.status();
  join::JoinContext ctx = session->context();
  auto stats = join::CreateJoinMethod(advice->best().method)->Execute(spec, ctx);
  ASSERT_TRUE(stats.ok()) << stats.status();
  // FK-uniform workload: every S tuple matches exactly once.
  EXPECT_EQ(count, prepared->s.tuple_count);
  EXPECT_EQ(stats->output_tuples, count);
  EXPECT_GT(stats->response_seconds, 0.0);
}

TEST(TraceIntegration, GanttRendersAfterARealJoin) {
  exec::SiteConfig config = exec::SiteConfig::PaperTestbed(60 * kMB, 4 * kMB);
  exec::Site site(config);
  std::unique_ptr<exec::QuerySession> session = test::WholeSiteSession(site);
  for (const auto& resource : site.sim().resources()) resource->EnableTrace();
  exec::WorkloadConfig workload;
  workload.r_bytes = 10 * kMB;
  workload.s_bytes = 40 * kMB;
  workload.phantom = true;
  auto prepared = exec::PrepareWorkload(session.get(), workload);
  ASSERT_TRUE(prepared.ok());
  join::JoinSpec spec;
  spec.r = &prepared->r;
  spec.s = &prepared->s;
  join::JoinContext ctx = session->context();
  ASSERT_TRUE(join::CreateJoinMethod(JoinMethodId::kCttGh)->Execute(spec, ctx).ok());
  std::string gantt = sim::RenderGantt(site.sim());
  EXPECT_NE(gantt.find("tapeR"), std::string::npos);
  EXPECT_NE(gantt.find("tapeS"), std::string::npos);
  EXPECT_NE(gantt.find("disk0"), std::string::npos);
  EXPECT_NE(gantt.find('#'), std::string::npos);  // something was busy
}

TEST(ScaleIntegration, TenGigabyteJoinSimulatesQuickly) {
  // The flagship experiment (Join IV) must stay cheap to simulate — this is
  // what makes the benches usable. No wall-clock assertion (machines vary);
  // just end-to-end success at full scale with sane accounting.
  auto stats = exec::RunJoinExperiment(
      exec::SiteConfig::PaperTestbed(500 * kMB, 16 * kMB),
      exec::WorkloadConfig{2500 * kMB, 10000 * kMB, 0.25, 100, 42, true},
      JoinMethodId::kCttGh);
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_GT(stats->response_seconds, 3600.0);  // hours of virtual time
  // Tape traffic: Step I scans R several times, Step II re-reads hashed R
  // per iteration plus S once.
  EXPECT_GT(stats->tape_blocks_read,
            BytesToBlocks(10000 * kMB, kDefaultBlockBytes) +
                5 * BytesToBlocks(2500 * kMB, kDefaultBlockBytes));
}

}  // namespace
}  // namespace tertio
