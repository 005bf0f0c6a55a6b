// Timing-behaviour tests at paper scale (phantom mode): the simulated
// response times must show the paper's qualitative results, and the
// analytical cost model must track the simulator.

#include <gtest/gtest.h>

#include <cmath>

#include "cost/cost_model.h"
#include "exec/experiment.h"
#include "join/reference_join.h"
#include "relation/generator.h"
#include "tape/tape_model.h"
#include "whole_site.h"

namespace tertio::join {
namespace {

Result<JoinStats> RunPhantom(ByteCount s_bytes, ByteCount r_bytes, ByteCount disk_bytes,
                      ByteCount memory_bytes, JoinMethodId method,
                      double compressibility = 0.25) {
  exec::WorkloadConfig workload;
  workload.r_bytes = r_bytes;
  workload.s_bytes = s_bytes;
  workload.compressibility = compressibility;
  workload.phantom = true;
  return exec::RunJoinExperiment(exec::SiteConfig::PaperTestbed(disk_bytes, memory_bytes),
                                 workload, method);
}

SimSeconds OptimumSeconds(ByteCount s_bytes, double compressibility = 0.25) {
  return tape::TapeDriveModel::DLT4000().TransferSeconds(s_bytes, compressibility);
}

TEST(Experiment1Test, Table3RelativeCostBand) {
  // Joins I-IV of Table 3; the paper's relative costs are 7.9/7.3/6.9/6.8.
  struct Row {
    std::uint64_t s_mb, r_mb, d_mb;
  } rows[] = {{1000, 500, 100}, {2500, 1250, 250}, {5000, 2500, 500}, {10000, 2500, 500}};
  for (const Row& row : rows) {
    auto stats = RunPhantom(row.s_mb * kMB, row.r_mb * kMB, row.d_mb * kMB, 16 * kMB,
                     JoinMethodId::kCttGh);
    ASSERT_TRUE(stats.ok()) << stats.status();
    tape::TapeDriveModel drive = tape::TapeDriveModel::DLT4000();
    SimSeconds bare = drive.TransferSeconds(row.s_mb * kMB, 0.25) +
                      drive.TransferSeconds(row.r_mb * kMB, 0.25);
    double rel_cost = stats->response_seconds / bare;
    EXPECT_GT(rel_cost, 5.0) << row.s_mb;
    EXPECT_LT(rel_cost, 9.0) << row.s_mb;
  }
}

TEST(Experiment1Test, StepOneScansRAsExpected) {
  // Join III: D = |R|/5 means 5 scans of R in Step I, and Step II reads the
  // hashed R once per iteration (10 iterations of 500 MB over 5,000 MB).
  auto stats = RunPhantom(5000 * kMB, 2500 * kMB, 500 * kMB, 16 * kMB, JoinMethodId::kCttGh);
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_EQ(stats->iterations, 10u);
  // Idealized ceil(|R|/D) = 5 Step-I scans; bucket granularity (whole
  // buckets per scan) can add one.
  EXPECT_GE(stats->r_scans, 15u);
  EXPECT_LE(stats->r_scans, 16u);
  // Step I streams R per scan and writes it once to tape.
  double read_r_once = OptimumSeconds(2500 * kMB).value();
  EXPECT_GT(stats->step1_seconds, 5.0 * read_r_once * 0.9);
  EXPECT_LT(stats->step1_seconds, 8.5 * read_r_once);
}

TEST(Experiment1Test, TtGhCountsEveryStepOneScanAsAnIteration) {
  // TT-GH's Step I scans R, then S, once per group of whole buckets that
  // fits on disk; each scan ends in one assemble-flush stage. Bucket
  // granularity can add a scan to ceil(|R|/D) + ceil(|S|/D) (6 and 14 here).
  struct Geometry {
    ByteCount r, s, d, m;
    std::uint64_t scans;
  } geometries[] = {{18 * kMB, 100 * kMB, 20 * kMB, ByteCount{1'800'000}, 7},
                    {40 * kMB, 400 * kMB, 35 * kMB, 4 * kMB, 15}};
  for (const Geometry& g : geometries) {
    auto stats = RunPhantom(g.s, g.r, g.d, g.m, JoinMethodId::kTtGh);
    ASSERT_TRUE(stats.ok()) << stats.status();
    std::uint64_t flushes = 0;
    for (const sim::PhaseSummary& phase : stats->spans.phases()) {
      if (phase.phase == "assemble-flush") flushes = phase.stage_count;
    }
    EXPECT_EQ(stats->iterations, flushes) << g.r;
    EXPECT_EQ(stats->iterations, g.scans) << g.r;
  }
}

TEST(Experiment2Test, CdtGhExplodesAsDiskApproachesR) {
  // Figure 5: at D = 20 MB, CDT-GH buffers S in ~2 MB pieces -> ~500 scans
  // of R; CTT-GH keeps all 20 MB -> ~50 scans.
  auto cdt = RunPhantom(1000 * kMB, 18 * kMB, 20 * kMB, 1800 * kKB, JoinMethodId::kCdtGh);
  auto ctt = RunPhantom(1000 * kMB, 18 * kMB, 20 * kMB, 1800 * kKB, JoinMethodId::kCttGh);
  ASSERT_TRUE(cdt.ok()) << cdt.status();
  ASSERT_TRUE(ctt.ok()) << ctt.status();
  EXPECT_GT(cdt->r_scans, 350u);
  EXPECT_LT(cdt->r_scans, 650u);
  EXPECT_GT(ctt->r_scans, 40u);
  EXPECT_LT(ctt->r_scans, 70u);
  EXPECT_GT(cdt->response_seconds, 2.0 * ctt->response_seconds);
}

TEST(Experiment2Test, CdtGhWinsWhenDiskIsAmple) {
  auto cdt = RunPhantom(1000 * kMB, 18 * kMB, 54 * kMB, 1800 * kKB, JoinMethodId::kCdtGh);
  auto ctt = RunPhantom(1000 * kMB, 18 * kMB, 54 * kMB, 1800 * kKB, JoinMethodId::kCttGh);
  ASSERT_TRUE(cdt.ok() && ctt.ok());
  // "When ample disk space but little main memory is available, CDT-GH is
  // the preferred method" — at D = 3|R| they are close, CDT-GH no worse.
  EXPECT_LE(cdt->response_seconds, ctt->response_seconds * 1.05);
}

TEST(Experiment3Test, NbMethodsBlowUpAtSmallMemory) {
  ByteCount small_m = static_cast<ByteCount>(0.05 * 18 * static_cast<double>(kMB.value()));
  ByteCount large_m = 18 * kMB;
  for (JoinMethodId method : {JoinMethodId::kDtNb, JoinMethodId::kCdtNbMb}) {
    auto small = RunPhantom(1000 * kMB, 18 * kMB, 50 * kMB, small_m, method);
    auto large = RunPhantom(1000 * kMB, 18 * kMB, 50 * kMB, large_m, method);
    ASSERT_TRUE(small.ok() && large.ok()) << JoinMethodName(method);
    EXPECT_GT(small->response_seconds, 5.0 * large->response_seconds)
        << JoinMethodName(method);
  }
}

TEST(Experiment3Test, CdtNbMbApproachesOptimumAtFullMemory) {
  auto stats = RunPhantom(1000 * kMB, 18 * kMB, 50 * kMB, 18 * kMB, JoinMethodId::kCdtNbMb);
  ASSERT_TRUE(stats.ok());
  double optimum = OptimumSeconds(1000 * kMB).value();
  // Paper: "close to reaching the optimum join time".
  EXPECT_LT(stats->response_seconds, optimum * 1.10);
  EXPECT_GE(stats->response_seconds, optimum * 0.999);
}

TEST(Experiment3Test, CdtGhDominatesAtSmallMemory) {
  ByteCount m = static_cast<ByteCount>(0.15 * 18 * static_cast<double>(kMB.value()));
  auto cdt_gh = RunPhantom(1000 * kMB, 18 * kMB, 50 * kMB, m, JoinMethodId::kCdtGh);
  ASSERT_TRUE(cdt_gh.ok());
  for (JoinMethodId method : {JoinMethodId::kDtNb, JoinMethodId::kCdtNbMb,
                              JoinMethodId::kCdtNbDb, JoinMethodId::kDtGh}) {
    auto other = RunPhantom(1000 * kMB, 18 * kMB, 50 * kMB, m, method);
    ASSERT_TRUE(other.ok()) << JoinMethodName(method);
    EXPECT_LT(cdt_gh->response_seconds, other->response_seconds) << JoinMethodName(method);
  }
}

TEST(Experiment3Test, ConcurrentVariantsBeatSequentialOnes) {
  ByteCount m = static_cast<ByteCount>(0.3 * 18 * static_cast<double>(kMB.value()));
  auto dt_gh = RunPhantom(1000 * kMB, 18 * kMB, 50 * kMB, m, JoinMethodId::kDtGh);
  auto cdt_gh = RunPhantom(1000 * kMB, 18 * kMB, 50 * kMB, m, JoinMethodId::kCdtGh);
  ASSERT_TRUE(dt_gh.ok() && cdt_gh.ok());
  EXPECT_LT(cdt_gh->response_seconds, dt_gh->response_seconds);
  auto dt_nb = RunPhantom(1000 * kMB, 18 * kMB, 50 * kMB, m, JoinMethodId::kDtNb);
  auto mb = RunPhantom(1000 * kMB, 18 * kMB, 50 * kMB, m, JoinMethodId::kCdtNbMb);
  ASSERT_TRUE(dt_nb.ok() && mb.ok());
  // At 0.3|R|, CDT-NB/MB's halved chunks are already amortized; it wins.
  EXPECT_LT(mb->response_seconds, dt_nb->response_seconds * 1.10);
}

TEST(Experiment3Test, GraceTrafficConstantNbTrafficExplodes) {
  // Figure 7's contrast, on the simulator.
  ByteCount small_m = static_cast<ByteCount>(0.1 * 18 * static_cast<double>(kMB.value()));
  ByteCount large_m = static_cast<ByteCount>(0.8 * 18 * static_cast<double>(kMB.value()));
  auto gh_small = RunPhantom(1000 * kMB, 18 * kMB, 50 * kMB, small_m, JoinMethodId::kDtGh);
  auto gh_large = RunPhantom(1000 * kMB, 18 * kMB, 50 * kMB, large_m, JoinMethodId::kDtGh);
  ASSERT_TRUE(gh_small.ok() && gh_large.ok());
  double ratio = static_cast<double>(gh_small->disk_traffic_blocks().value()) /
                 static_cast<double>(gh_large->disk_traffic_blocks().value());
  EXPECT_GT(ratio, 0.8);
  EXPECT_LT(ratio, 1.3);
  // GH traffic ~ 3,000 MB at these parameters (paper's "around 3,000 MB").
  double gh_mb = static_cast<double>(
                     BlocksToBytes(gh_large->disk_traffic_blocks(), kDefaultBlockBytes).value()) /
                 static_cast<double>(kMB.value());
  EXPECT_GT(gh_mb, 2000.0);
  EXPECT_LT(gh_mb, 4000.0);
  auto nb_small = RunPhantom(1000 * kMB, 18 * kMB, 50 * kMB, small_m, JoinMethodId::kDtNb);
  ASSERT_TRUE(nb_small.ok());
  EXPECT_GT(nb_small->disk_traffic_blocks(), 3 * gh_small->disk_traffic_blocks());
}

TEST(Experiment3Test, TapeSpeedLeavesConcurrentResponseNearlyUnchanged) {
  // Figures 9-11: concurrent methods are disk-bound; halving/doubling the
  // effective tape rate moves the optimum, not the response.
  ByteCount m = static_cast<ByteCount>(0.3 * 18 * static_cast<double>(kMB.value()));
  auto slow = RunPhantom(1000 * kMB, 18 * kMB, 50 * kMB, m, JoinMethodId::kCdtGh, 0.0);
  auto base = RunPhantom(1000 * kMB, 18 * kMB, 50 * kMB, m, JoinMethodId::kCdtGh, 0.25);
  auto fast = RunPhantom(1000 * kMB, 18 * kMB, 50 * kMB, m, JoinMethodId::kCdtGh, 0.5);
  ASSERT_TRUE(slow.ok() && base.ok() && fast.ok());
  EXPECT_NEAR((fast->response_seconds).value(), ((slow->response_seconds)).value(),
              slow->response_seconds.value() * 0.25);
  double overhead_slow = slow->response_seconds / OptimumSeconds(1000 * kMB, 0.0) - 1.0;
  double overhead_fast = fast->response_seconds / OptimumSeconds(1000 * kMB, 0.5) - 1.0;
  EXPECT_GT(overhead_fast, overhead_slow + 0.2);
}

TEST(CrossValidationTest, CostModelTracksSimulator) {
  // The analytical estimates (Figures 1-3) should track the simulator
  // within a band across methods and regimes — the validation the paper
  // performs in Sections 7-9.
  struct Case {
    std::uint64_t s_mb, r_mb, d_mb, m_kb;
  } cases[] = {
      {1000, 18, 50, 5400},    // Experiment 3 mid-memory
      {1000, 18, 36, 1800},    // Experiment 2 regime
      {2000, 200, 500, 20000}, // larger R
  };
  for (const Case& c : cases) {
    for (JoinMethodId method : kAllJoinMethods) {
      exec::Site site(exec::SiteConfig::PaperTestbed(c.d_mb * kMB, c.m_kb * kKB));
      std::unique_ptr<exec::QuerySession> session = test::WholeSiteSession(site);
      exec::WorkloadConfig workload;
      workload.r_bytes = c.r_mb * kMB;
      workload.s_bytes = c.s_mb * kMB;
      auto prepared = exec::PrepareWorkload(session.get(), workload);
      ASSERT_TRUE(prepared.ok()) << prepared.status();
      JoinSpec spec;
      spec.r = &prepared->r;
      spec.s = &prepared->s;
      auto estimate = cost::Estimate(method, exec::CostParamsFor(*session, spec));
      JoinContext ctx = session->context();
      auto stats = CreateJoinMethod(method)->Execute(spec, ctx);
      ASSERT_EQ(stats.ok(), estimate.ok()) << JoinMethodName(method) << " feasibility disagrees";
      if (!stats.ok()) continue;
      double ratio = stats->response_seconds / estimate->total_seconds;
      EXPECT_GT(ratio, 0.6) << JoinMethodName(method) << " s=" << c.s_mb << " d=" << c.d_mb;
      EXPECT_LT(ratio, 1.7) << JoinMethodName(method) << " s=" << c.s_mb << " d=" << c.d_mb;
    }
  }
}

TEST(PhantomStatsTest, OutputInvalidButTrafficTracked) {
  auto stats = RunPhantom(100 * kMB, 10 * kMB, 30 * kMB, 2 * kMB, JoinMethodId::kCttGh);
  ASSERT_TRUE(stats.ok());
  EXPECT_FALSE(stats->output_valid);
  EXPECT_EQ(stats->output_tuples, 0u);
  EXPECT_GT(stats->tape_blocks_read, 0u);
  EXPECT_GT(stats->disk_blocks_written, 0u);
}

}  // namespace
}  // namespace tertio::join

namespace tertio::join {
namespace {

TEST(ReadReverseTest, BiDirectionalDriveAvoidsLocates) {
  // Paper footnote 2: a drive with READ REVERSE never repositions between
  // CTT-GH Step II iterations. Compare the same join on a DLT with and
  // without the capability.
  auto run_with = [&](bool bidi, tape::TapeDriveStats* drive_stats, std::uint64_t* drive_ops) {
    exec::SiteConfig config = exec::SiteConfig::PaperTestbed(100 * kMB, 8 * kMB);
    config.tape_model.supports_read_reverse = bidi;
    exec::Site site(config);
    std::unique_ptr<exec::QuerySession> session = test::WholeSiteSession(site);
    exec::WorkloadConfig workload;
    workload.r_bytes = 200 * kMB;
    workload.s_bytes = 1000 * kMB;
    workload.phantom = true;
    auto prepared = exec::PrepareWorkload(session.get(), workload);
    TERTIO_CHECK(prepared.ok(), "setup failed");
    JoinSpec spec;
    spec.r = &prepared->r;
    spec.s = &prepared->s;
    JoinContext ctx = session->context();
    auto stats = CreateJoinMethod(JoinMethodId::kCttGh)->Execute(spec, ctx);
    TERTIO_CHECK(stats.ok(), stats.status().ToString());
    *drive_stats = session->drive_r()->stats();
    *drive_ops = session->drive_r()->resource()->stats().op_count;
    return stats->response_seconds;
  };
  tape::TapeDriveStats forward_stats, bidi_stats;
  std::uint64_t forward_ops = 0, bidi_ops = 0;
  SimSeconds forward = run_with(false, &forward_stats, &forward_ops);
  SimSeconds bidi = run_with(true, &bidi_stats, &bidi_ops);
  EXPECT_LE(bidi, forward);
  EXPECT_LT(bidi_stats.reposition_count, forward_stats.reposition_count);
  // Pinned bits: every backward pass here starts with the head already at
  // its run's end, so it seeks +0.0 and no drive op is added or merged.
  EXPECT_EQ(bidi.value(), 0x1.03c6d4217b7adp+11);
  EXPECT_EQ(bidi_ops, 591u);
  EXPECT_EQ(bidi_ops, forward_ops);
  EXPECT_EQ(bidi_stats.locate_count, 5u);
}

TEST(ReadReverseTest, CorrectResultsUnderReversePasses) {
  exec::SiteConfig config;
  config.block_bytes = 1024;
  config.memory_bytes = 20 * 1024;
  config.disk_space_bytes = 30 * 1024;  // D < |R|: several Step II passes
  config.stripe_unit = 4;
  config.tape_model = tape::TapeDriveModel::DLT4000();
  config.tape_model.supports_read_reverse = true;
  exec::Site site(config);
  std::unique_ptr<exec::QuerySession> session = test::WholeSiteSession(site);
  rel::GeneratorConfig r_config;
  r_config.tuple_count = 400;  // 40 blocks
  rel::GeneratorConfig s_config;
  s_config.tuple_count = 2000;
  s_config.keys = rel::KeySequence::kForeignKeyUniform;
  s_config.key_domain = 400;
  s_config.seed = 5;
  auto prepared = exec::PrepareWorkload(session.get(), r_config, s_config);
  ASSERT_TRUE(prepared.ok()) << prepared.status();
  JoinSpec spec;
  spec.r = &prepared->r;
  spec.s = &prepared->s;
  JoinContext ctx = session->context();
  auto stats = CreateJoinMethod(JoinMethodId::kCttGh)->Execute(spec, ctx);
  ASSERT_TRUE(stats.ok()) << stats.status();
  ASSERT_GE(stats->iterations, 2u);  // reverse passes actually happened
  // Pinned bits: no figure run reads backwards, so this is the record of the
  // READ REVERSE path's timing.
  EXPECT_EQ(stats->response_seconds.value(), 0x1.dcdc08d2da3a1p+4);
  EXPECT_EQ(session->drive_r()->resource()->stats().op_count, 37u);
  EXPECT_EQ(session->drive_r()->stats().locate_count, 3u);
  auto reference = ReferenceJoin(prepared->r, prepared->s, 0, 0);
  ASSERT_TRUE(reference.ok());
  EXPECT_EQ(stats->output_tuples, reference->tuples());
  EXPECT_EQ(stats->output_checksum, reference->checksum());
}

}  // namespace
}  // namespace tertio::join
