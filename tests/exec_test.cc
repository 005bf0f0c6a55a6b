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

TEST(ExperimentTest, CostParamsMatchMachine) {
  Site site(SiteConfig::PaperTestbed(500 * kMB, 16 * kMB));
  WorkloadConfig workload;
  workload.r_bytes = 100 * kMB;
  workload.s_bytes = 400 * kMB;
  workload.compressibility = 0.25;
  auto params = CostParamsFor(site, workload);
  EXPECT_EQ(params.r_blocks, BytesToBlocks(100 * kMB, kDefaultBlockBytes));
  EXPECT_EQ(params.memory_blocks, site.memory_blocks());
  EXPECT_NEAR((params.tape_rate_bps).value(), 2.0e6, 1e3);
  EXPECT_NEAR((params.disk_rate_bps).value(), 8.4e6, 1.0);
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
