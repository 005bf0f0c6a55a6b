// Tests for the join advisor: the paper's Section 10 conclusions must fall
// out of the ranking.

#include <gtest/gtest.h>

#include "join/advisor.h"
#include "tape/tape_model.h"

namespace tertio::join {
namespace {

cost::CostParams Params(BlockCount r, BlockCount s, BlockCount m, BlockCount d) {
  cost::CostParams p;
  p.r_blocks = r;
  p.s_blocks = s;
  p.memory_blocks = m;
  p.disk_blocks = d;
  p.tape_rate_bps = 2.0e6;
  p.disk_rate_bps = 8.4e6;
  p.disk_positioning_seconds = 0.0145;
  return p;
}

TEST(AdvisorTest, RankedFastestFirstAndConsistent) {
  auto report = AdviseJoinMethod(Params(2304, 128000, 700, 6400));
  ASSERT_TRUE(report.ok());
  ASSERT_FALSE(report->ranked.empty());
  for (size_t i = 1; i < report->ranked.size(); ++i) {
    EXPECT_LE(report->ranked[i - 1].estimate.total_seconds,
              report->ranked[i].estimate.total_seconds);
  }
  EXPECT_EQ(report->ranked.size() + report->rejected.size(), kAllJoinMethods.size());
}

TEST(AdvisorTest, VeryLargeRPicksCttGh) {
  // "Of the join methods analyzed, CTT-GH is the sole candidate for very
  // large tape joins" — |R| far beyond D.
  auto report = AdviseJoinMethod(Params(500000, 2000000, 2000, 60000));
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->best().method, JoinMethodId::kCttGh);
  // All disk-tape methods must be among the rejected.
  EXPECT_EQ(report->rejected.size(), 5u);
}

TEST(AdvisorTest, AmpleDiskLittleMemoryFavorsCdtGh) {
  // "When ample disk space but little main memory is available, CDT-GH is
  // the preferred join method." In Figure 5's D = 3|R| regime CDT-GH and
  // CTT-GH are nearly tied (983 vs 985 s in the simulator), so the firm
  // claim is: CDT-GH ranks in the top two and beats every other disk-tape
  // method.
  auto report = AdviseJoinMethod(Params(2304, 128000, 230, 4 * 2304));
  ASSERT_TRUE(report.ok());
  ASSERT_GE(report->ranked.size(), 2u);
  EXPECT_TRUE(report->ranked[0].method == JoinMethodId::kCdtGh ||
              report->ranked[1].method == JoinMethodId::kCdtGh);
  auto estimate_of = [&](JoinMethodId id) -> double {
    for (const auto& choice : report->ranked) {
      if (choice.method == id) return choice.estimate.total_seconds.value();
    }
    return -1.0;
  };
  double cdt_gh = estimate_of(JoinMethodId::kCdtGh);
  ASSERT_GT(cdt_gh, 0.0);
  for (JoinMethodId other : {JoinMethodId::kDtNb, JoinMethodId::kCdtNbMb,
                             JoinMethodId::kCdtNbDb, JoinMethodId::kDtGh}) {
    double estimate = estimate_of(other);
    if (estimate > 0.0) {
      EXPECT_LT(cdt_gh, estimate) << JoinMethodName(other);
    }
  }
}

TEST(AdvisorTest, LargeMemoryPicksCdtNbMb) {
  // "CDT-NB yields very good performance when a large fraction of the
  // smaller relation fits in memory."
  auto report = AdviseJoinMethod(Params(2304, 128000, 2304, 6400));
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->best().method, JoinMethodId::kCdtNbMb);
}

TEST(AdvisorTest, ConcurrentBeatsSequentialInRanking) {
  auto report = AdviseJoinMethod(Params(2304, 128000, 700, 6400));
  ASSERT_TRUE(report.ok());
  auto rank_of = [&](JoinMethodId id) -> int {
    for (size_t i = 0; i < report->ranked.size(); ++i) {
      if (report->ranked[i].method == id) return static_cast<int>(i);
    }
    return -1;
  };
  int cdt_gh = rank_of(JoinMethodId::kCdtGh);
  int dt_gh = rank_of(JoinMethodId::kDtGh);
  ASSERT_GE(cdt_gh, 0);
  ASSERT_GE(dt_gh, 0);
  EXPECT_LT(cdt_gh, dt_gh);
}

TEST(AdvisorTest, NothingFeasibleIsAnError) {
  // Memory of 1 block: no method can run (NB needs 2+, hashing needs more).
  auto report = AdviseJoinMethod(Params(100000, 1000000, 1, 50));
  EXPECT_EQ(report.status().code(), StatusCode::kResourceExhausted);
}

TEST(AdvisorTest, InvalidInputIsInvalidArgumentNotAShortage) {
  // |R| > |S| and |R| = 0 fail the input check every estimate shares, on
  // a machine with ample memory and disk.
  for (const cost::CostParams& params :
       {Params(4000, 1000, 2000, 60000), Params(0, 1000, 2000, 60000)}) {
    auto report = AdviseJoinMethod(params);
    EXPECT_EQ(report.status().code(), StatusCode::kInvalidArgument) << report.status();
  }
}

TEST(AdvisorTest, RejectionsCarryReasons) {
  auto report = AdviseJoinMethod(Params(500000, 2000000, 2000, 60000));
  ASSERT_TRUE(report.ok());
  for (const auto& rejection : report->rejected) {
    EXPECT_FALSE(rejection.reason.ok());
    EXPECT_FALSE(rejection.reason.message().empty());
  }
}

}  // namespace
}  // namespace tertio::join
