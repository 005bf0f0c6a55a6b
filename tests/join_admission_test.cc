// Admission tests: Execute admits exactly what Requirements() reports. Over
// a grid of memory and disk sizes around every method's Table 2 boundary, a
// join whose Requirements() fit the session runs, and a join refused for
// want of resources is refused with ResourceExhausted before it touches the
// session: memory, disk, both tapes and both drives are left as they were.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "exec/experiment.h"
#include "join/join_method.h"
#include "whole_site.h"

namespace tertio::join {
namespace {

constexpr ByteCount kBlock = 1024;
constexpr std::uint64_t kMemorySizes[] = {8, 14, 24};
constexpr std::uint64_t kMinDisk = 4;
constexpr std::uint64_t kMaxDisk = 140;

/// A grid point where Requirements() fit the session and Execute failed.
struct Point {
  JoinMethodId method;
  std::uint64_t memory_blocks;
  std::uint64_t disk_blocks;
  bool operator==(const Point&) const = default;
};

std::ostream& operator<<(std::ostream& os, const Point& p) {
  return os << JoinMethodName(p.method) << " at M = " << p.memory_blocks
            << ", D = " << p.disk_blocks;
}

/// What a join may touch, captured before it runs.
struct SessionState {
  BlockCount memory_reserved;
  BlockCount disk_used;
  BlockCount tape_r_size;
  BlockCount tape_s_size;
  const tape::TapeVolume* drive_r_volume;
  const tape::TapeVolume* drive_s_volume;
  bool operator==(const SessionState&) const = default;
};

SessionState Capture(exec::QuerySession& session, const exec::PreparedWorkload& prepared,
                     const JoinContext& ctx) {
  return {session.memory().reserved_blocks(), session.disks().allocator().used_blocks(),
          prepared.tape_r->size_blocks(),     prepared.tape_s->size_blocks(),
          ctx.drive_r->volume(),              ctx.drive_s->volume()};
}

/// R: 600 unique keys (60 blocks); S: 1,800 tuples whose keys are drawn
/// uniformly from R's (180 blocks). Which disk sizes TT-GH's S buckets
/// overflow depends on the draw; seed 3 is one that overflows at M = 24.
exec::WorkloadConfig Workload(bool phantom) {
  exec::WorkloadConfig workload;
  workload.r_bytes = 60 * kBlock;
  workload.s_bytes = 180 * kBlock;
  workload.seed = 3;
  workload.phantom = phantom;
  return workload;
}

/// Runs all seven methods at every (M, D) of the grid and returns the
/// points where Requirements() fit the session and Execute failed. Checks
/// along the way that every failure is ResourceExhausted, that no join
/// leaves the session changed, and that every join Execute admits fits
/// Requirements().
std::vector<Point> RunGrid(bool phantom) {
  std::vector<Point> disagreements;
  for (std::uint64_t m : kMemorySizes) {
    for (std::uint64_t d = kMinDisk; d <= kMaxDisk; ++d) {
      exec::SiteConfig config;
      config.block_bytes = kBlock;
      config.disk_space_bytes = d * kBlock;
      config.memory_bytes = m * kBlock;
      config.stripe_unit = 4;
      exec::Site site(config);
      std::unique_ptr<exec::QuerySession> session = test::WholeSiteSession(site);
      auto prepared = exec::PrepareWorkload(session.get(), Workload(phantom));
      EXPECT_TRUE(prepared.ok()) << prepared.status();
      if (!prepared.ok()) return disagreements;
      JoinSpec spec;
      spec.r = &prepared->r;
      spec.s = &prepared->s;
      for (JoinMethodId id : kAllJoinMethods) {
        const Point point{id, m, d};
        SCOPED_TRACE(::testing::PrintToString(point));
        JoinContext ctx = session->context();
        const SessionState before = Capture(*session, *prepared, ctx);
        auto method = CreateJoinMethod(id);
        auto needs = method->Requirements(spec, ctx);
        const bool fits = needs.ok() && needs->memory_blocks <= ctx.memory->free_blocks() &&
                          needs->disk_blocks <= ctx.disks->allocator().free_blocks();
        auto stats = method->Execute(spec, ctx);
        EXPECT_TRUE(Capture(*session, *prepared, ctx) == before);
        if (stats.ok()) {
          EXPECT_TRUE(fits);
          continue;
        }
        EXPECT_EQ(stats.status().code(), StatusCode::kResourceExhausted) << stats.status();
        if (fits) {
          disagreements.push_back(point);
          EXPECT_NE(stats.status().message().find("tag=tape-assembly"), std::string::npos)
              << stats.status();
        }
      }
    }
  }
  return disagreements;
}

TEST(JoinAdmissionTest, TimingOnlyJoinsRunWheneverRequirementsFit) {
  EXPECT_EQ(RunGrid(/*phantom=*/true), std::vector<Point>{});
}

/// The four full-data exceptions are TT-GH's data-dependent S-bucket
/// overflow: at M = 24 it assembles one S bucket per scan (B = 18 at
/// D = 13-14, B = 11 at D = 21-22), and an S bucket of uniform foreign keys
/// outgrows the ceil(|S|/B) + 1 blocks of the assembly area.
TEST(JoinAdmissionTest, FullDataJoinsRunWheneverRequirementsFit) {
  const std::vector<Point> expected = {
      {JoinMethodId::kTtGh, 24, 13},
      {JoinMethodId::kTtGh, 24, 14},
      {JoinMethodId::kTtGh, 24, 21},
      {JoinMethodId::kTtGh, 24, 22},
  };
  EXPECT_EQ(RunGrid(/*phantom=*/false), expected);
}

/// Timing-only TT-GH at M = 24 and D = 8 needs B >= ceil(|S|/D) = 23
/// buckets, whose write buffers alone fill M; the refusal names that bound,
/// not the M >= 2*sqrt(|R|) = 16 that M satisfies.
TEST(JoinAdmissionTest, TtGhRefusalNamesTheBucketCountTheDiskForces) {
  exec::SiteConfig config;
  config.block_bytes = kBlock;
  config.disk_space_bytes = 8 * kBlock;
  config.memory_bytes = 24 * kBlock;
  config.stripe_unit = 4;
  exec::Site site(config);
  std::unique_ptr<exec::QuerySession> session = test::WholeSiteSession(site);
  auto prepared = exec::PrepareWorkload(session.get(), Workload(/*phantom=*/true));
  ASSERT_TRUE(prepared.ok()) << prepared.status();
  JoinSpec spec;
  spec.r = &prepared->r;
  spec.s = &prepared->s;
  auto method = CreateJoinMethod(JoinMethodId::kTtGh);
  for (const Status& status : {method->Requirements(spec, session->context()).status(),
                               method->Execute(spec, session->context()).status()}) {
    EXPECT_EQ(status.code(), StatusCode::kResourceExhausted);
    EXPECT_NE(status.message().find("23 buckets need 23 write-buffer blocks"),
              std::string::npos)
        << status;
  }
}

}  // namespace
}  // namespace tertio::join
