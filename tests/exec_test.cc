// Tests for tertio_exec: site assembly, workload preparation, experiment
// driving, report rendering.

#include <gtest/gtest.h>

#include <cmath>

#include "exec/experiment.h"
#include "exec/report.h"
#include "whole_site.h"

namespace tertio::exec {
namespace {

using test::WholeSiteSession;

TEST(MachineTest, PaperTestbedShape) {
  Site site(SiteConfig::PaperTestbed(500 * kMB, 16 * kMB));
  std::unique_ptr<QuerySession> session = WholeSiteSession(site);
  EXPECT_EQ(session->disks().disk_count(), 2);
  EXPECT_EQ(session->memory().total_blocks(), BytesToBlocks(16 * kMB, kDefaultBlockBytes));
  EXPECT_GE(session->disks().allocator().capacity_blocks(),
            BytesToBlocks(500 * kMB, kDefaultBlockBytes));
  EXPECT_FALSE(session->drive_r()->loaded());
  tape::TapeVolume r("tape-R", kDefaultBlockBytes);
  tape::TapeVolume s("tape-S", kDefaultBlockBytes);
  session->ForceMount(&r, &s);
  EXPECT_TRUE(session->drive_r()->loaded());
  EXPECT_TRUE(session->drive_s()->loaded());
  EXPECT_EQ(site.library(), nullptr);
}

TEST(MachineTest, EffectiveRatesFollowModels) {
  Site site(SiteConfig::PaperTestbed(100 * kMB, 16 * kMB));
  EXPECT_DOUBLE_EQ((site.EffectiveTapeRate(0.0)).value(), 1.5e6);
  EXPECT_NEAR((site.EffectiveTapeRate(0.25)).value(), 2.0e6, 1e3);
  EXPECT_NEAR((site.AggregateDiskRate()).value(), 2 * 4.2e6, 1.0);
}

TEST(MachineTest, LibraryAttachesWhenRequested) {
  SiteConfig config = SiteConfig::PaperTestbed(100 * kMB, 16 * kMB);
  config.with_library = true;
  Site site(config);
  ASSERT_NE(site.library(), nullptr);
  EXPECT_EQ(site.library()->slot_count(), 0);
}

TEST(WorkloadTest, PreparePlacesRelationsOnTapes) {
  Site site(SiteConfig::PaperTestbed(100 * kMB, 16 * kMB));
  std::unique_ptr<QuerySession> session = WholeSiteSession(site);
  WorkloadConfig workload;
  workload.r_bytes = 10 * kMB;
  workload.s_bytes = 40 * kMB;
  workload.phantom = true;
  auto prepared = PrepareWorkload(session.get(), workload);
  ASSERT_TRUE(prepared.ok());
  EXPECT_EQ(prepared->r.volume, prepared->tape_r.get());
  EXPECT_EQ(prepared->s.volume, prepared->tape_s.get());
  EXPECT_EQ(prepared->r.blocks, BytesToBlocks(10 * kMB, kDefaultBlockBytes));
  EXPECT_EQ(prepared->s.blocks, BytesToBlocks(40 * kMB, kDefaultBlockBytes));
  EXPECT_EQ(session->drive_r()->volume(), prepared->tape_r.get());
  EXPECT_EQ(session->drive_s()->volume(), prepared->tape_s.get());
  // Drives were mounted uncosted: no virtual time has passed.
  EXPECT_DOUBLE_EQ((site.sim().Horizon()).value(), 0.0);
}

TEST(WorkloadTest, InvalidWorkloadRejected) {
  Site site(SiteConfig::PaperTestbed(100 * kMB, 16 * kMB));
  std::unique_ptr<QuerySession> session = WholeSiteSession(site);
  WorkloadConfig workload;
  EXPECT_FALSE(PrepareWorkload(session.get(), workload).ok());  // empty sizes
  EXPECT_FALSE(PrepareWorkload(nullptr, workload).ok());
}

TEST(WorkloadTest, FullDataKeysReferenceR) {
  Site site(SiteConfig::PaperTestbed(100 * kMB, 16 * kMB));
  std::unique_ptr<QuerySession> session = WholeSiteSession(site);
  WorkloadConfig workload;
  workload.r_bytes = 200 * kKB;
  workload.s_bytes = 800 * kKB;
  workload.phantom = false;
  auto prepared = PrepareWorkload(session.get(), workload);
  ASSERT_TRUE(prepared.ok());
  EXPECT_GT(prepared->r.tuple_count, 0u);
  EXPECT_FALSE(prepared->r.phantom);
}

TEST(ExperimentTest, RunJoinExperimentEndToEnd) {
  SiteConfig config = SiteConfig::PaperTestbed(60 * kMB, 4 * kMB);
  WorkloadConfig workload;
  workload.r_bytes = 10 * kMB;
  workload.s_bytes = 50 * kMB;
  workload.phantom = true;
  auto stats = RunJoinExperiment(config, workload, JoinMethodId::kCdtGh);
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_GT(stats->response_seconds, 0.0);
  EXPECT_EQ(stats->method, "CDT-GH");
}

TEST(ExperimentTest, InvalidSiteConfigReturnsInvalidArgument) {
  WorkloadConfig workload;
  workload.r_bytes = 10 * kMB;
  workload.s_bytes = 50 * kMB;
  SiteConfig no_disks = SiteConfig::PaperTestbed(60 * kMB, 4 * kMB);
  no_disks.disk_count = 0;
  EXPECT_EQ(RunJoinExperiment(no_disks, workload, JoinMethodId::kCdtGh).status().code(),
            StatusCode::kInvalidArgument);
  SiteConfig sub_block_memory = SiteConfig::PaperTestbed(60 * kMB, 4 * kMB);
  sub_block_memory.memory_bytes = sub_block_memory.block_bytes - 1;
  EXPECT_EQ(RunJoinExperiment(sub_block_memory, workload, JoinMethodId::kCdtGh).status().code(),
            StatusCode::kInvalidArgument);
}

/// A whole-site session on `config` with a workload prepared on it, and
/// the cost inputs CostParamsFor builds for the join.
struct PlannedJoin {
  std::unique_ptr<Site> site;
  std::unique_ptr<QuerySession> session;
  PreparedWorkload prepared;
  cost::CostParams params;
};

PlannedJoin PlanJoin(const SiteConfig& config, const WorkloadConfig& workload) {
  PlannedJoin plan;
  plan.site = std::make_unique<Site>(config);
  plan.session = WholeSiteSession(*plan.site);
  plan.prepared = PrepareWorkload(plan.session.get(), workload).value();
  join::JoinSpec spec;
  spec.r = &plan.prepared.r;
  spec.s = &plan.prepared.s;
  plan.params = CostParamsFor(*plan.session, spec);
  return plan;
}

WorkloadConfig PhantomWorkload(ByteCount r_bytes, ByteCount s_bytes) {
  WorkloadConfig workload;
  workload.r_bytes = r_bytes;
  workload.s_bytes = s_bytes;
  workload.phantom = true;
  return workload;
}

TEST(ExperimentTest, CostParamsMatchMachine) {
  // Every input besides D follows from the configuration alone, on the
  // quickstart and README configurations.
  SiteConfig quickstart;
  quickstart.block_bytes = 8 * kKiB;
  quickstart.disk_space_bytes = 16 * kMB;
  quickstart.memory_bytes = 2 * kMB;
  WorkloadConfig quickstart_workload;
  quickstart_workload.r_bytes = 8 * kMB;
  quickstart_workload.s_bytes = 48 * kMB;
  quickstart_workload.phantom = false;
  const struct {
    SiteConfig config;
    WorkloadConfig workload;
  } cases[] = {
      {quickstart, quickstart_workload},
      {SiteConfig::PaperTestbed(500 * kMB, 16 * kMB), PhantomWorkload(2500 * kMB, 10000 * kMB)},
  };
  for (const auto& c : cases) {
    PlannedJoin plan = PlanJoin(c.config, c.workload);
    const ByteCount bb = c.config.block_bytes;
    const cost::CostParams& params = plan.params;
    EXPECT_EQ(params.block_bytes, bb);
    EXPECT_EQ(params.r_blocks, BytesToBlocks(c.workload.r_bytes, bb));
    EXPECT_EQ(params.s_blocks, BytesToBlocks(c.workload.s_bytes, bb));
    EXPECT_EQ(params.memory_blocks, BytesToBlocks(c.config.memory_bytes, bb));
    EXPECT_EQ(params.tape_rate_bps, plan.site->EffectiveTapeRate(c.workload.compressibility));
    EXPECT_EQ(params.disk_rate_bps, 2 * c.config.disk_model.transfer_rate_bps);
    EXPECT_EQ(params.disk_positioning_seconds, c.config.disk_model.positioning_seconds);
    EXPECT_EQ(params.s_cached_blocks, 0u);
    // Both run the paper's DLT-4000 and Fireball models.
    EXPECT_NEAR(params.tape_rate_bps.value(), 2.0e6, 1e3);
    EXPECT_NEAR(params.disk_rate_bps.value(), 8.4e6, 1.0);
  }
}

TEST(ExperimentTest, CostParamsPlanWithTheSessionsDisk) {
  // Striping rounds each disk's share up, so a whole-site session at
  // D = 36 MB leases one block more than 36 MB / 8 KiB rounds to.
  PlannedJoin plan = PlanJoin(SiteConfig::PaperTestbed(36 * kMB, 1800 * kKB),
                              PhantomWorkload(18 * kMB, 1000 * kMB));
  EXPECT_EQ(plan.session->disks().allocator().capacity_blocks(), 4396u);
  EXPECT_EQ(plan.params.disk_blocks, 4396u);
}

TEST(ExperimentTest, CostParamsLeaveOutTheExtentCacheCarve) {
  SiteConfig config = SiteConfig::PaperTestbed(50 * kMB, 5400 * kKB);
  config.cache_blocks = 1000;
  PlannedJoin plan = PlanJoin(config, PhantomWorkload(18 * kMB, 100 * kMB));
  EXPECT_EQ(plan.site->disk_blocks(), 6104u);
  EXPECT_EQ(plan.params.disk_blocks, 5104u);
}

TEST(ExperimentTest, CostParamsCountSOnlyWhenTheCacheHoldsIt) {
  SiteConfig config = SiteConfig::PaperTestbed(50 * kMB, 5400 * kKB);
  config.cache_blocks = 2000;
  PlannedJoin plan = PlanJoin(config, PhantomWorkload(4 * kMB, 12 * kMB));
  const rel::Relation& s = plan.prepared.s;
  EXPECT_EQ(plan.params.s_cached_blocks, 0u);

  disk::ExtentCache* cache = plan.site->extent_cache();
  ASSERT_NE(cache, nullptr);
  auto admitted = cache->Admit(s.volume, s.start_block, s.blocks,
                               plan.site->EffectiveTapeRate(s.compressibility), 0.0);
  ASSERT_TRUE(admitted.ok() && *admitted) << admitted.status();
  join::JoinSpec spec;
  spec.r = &plan.prepared.r;
  spec.s = &s;
  EXPECT_EQ(CostParamsFor(*plan.session, spec).s_cached_blocks, s.blocks);
  // The check does not count as a cache lookup.
  EXPECT_EQ(cache->stats().lookups, 0u);
}

TEST(ReportTest, TableAlignsColumns) {
  TableReport table({"a", "method"});
  table.AddRow({"1", "CTT-GH"});
  table.AddRow({"22", "x"});
  std::string out = table.Render();
  EXPECT_NE(out.find("a   method"), std::string::npos);
  EXPECT_NE(out.find("22  x"), std::string::npos);
  EXPECT_NE(out.find("---"), std::string::npos);
}

TEST(ReportTest, SeriesRendersNanAsDash) {
  SeriesReport series("x", {"y1", "y2"});
  series.AddPoint(1.0, {2.5, std::nan("")});
  std::string out = series.Render(1);
  EXPECT_NE(out.find("2.5"), std::string::npos);
  EXPECT_NE(out.find("-"), std::string::npos);
}

TEST(ReportTest, MismatchedRowAborts) {
  TableReport table({"a", "b"});
  EXPECT_DEATH(table.AddRow({"only-one"}), "row width");
}

}  // namespace
}  // namespace tertio::exec
