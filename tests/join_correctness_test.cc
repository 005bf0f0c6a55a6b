// Correctness tests: every join method must produce exactly the same join
// result (tuple count + order-independent checksum) as the in-memory
// reference join, across key distributions, selectivities and geometries.

#include <gtest/gtest.h>

#include "exec/experiment.h"
#include "join/advisor.h"
#include "join/flat_table.h"
#include "join/join_common.h"
#include "join/join_method.h"
#include "join/legacy_table.h"
#include "join/reference_join.h"
#include "join/simd.h"
#include "relation/block.h"
#include "relation/generator.h"
#include "relation/tuple.h"
#include "tape/tape_volume.h"
#include "whole_site.h"

namespace tertio::join {
namespace {

constexpr ByteCount kBlock = 1024;

struct Workload {
  rel::GeneratorConfig r;
  rel::GeneratorConfig s;
};

/// Small site where all seven methods are feasible.
exec::SiteConfig SmallSite(ByteCount disk_bytes = 64 * kBlock,
                           ByteCount memory_bytes = 16 * kBlock) {
  exec::SiteConfig config;
  config.block_bytes = kBlock;
  config.disk_space_bytes = disk_bytes;
  config.memory_bytes = memory_bytes;
  config.stripe_unit = 4;
  return config;
}

Workload DefaultWorkload() {
  Workload w;
  w.r.name = "R";
  w.r.tuple_count = 400;  // 40 blocks at 10 tuples/block
  w.r.keys = rel::KeySequence::kSequentialUnique;
  w.r.compressibility = 0.25;
  w.r.seed = 11;
  w.s.name = "S";
  w.s.tuple_count = 2000;  // 200 blocks
  w.s.keys = rel::KeySequence::kForeignKeyUniform;
  w.s.key_domain = 400;
  w.s.compressibility = 0.25;
  w.s.seed = 12;
  return w;
}

struct RunResult {
  JoinStats stats;
  JoinOutput reference;
};

Result<RunResult> RunAndReference(const exec::SiteConfig& site_config,
                                  const Workload& workload, JoinMethodId method) {
  exec::Site site(site_config);
  std::unique_ptr<exec::QuerySession> session = test::WholeSiteSession(site);
  RunResult result;
  TERTIO_ASSIGN_OR_RETURN(exec::PreparedWorkload prepared,
                          exec::PrepareWorkload(session.get(), workload.r, workload.s));
  TERTIO_ASSIGN_OR_RETURN(result.reference, ReferenceJoin(prepared.r, prepared.s, 0, 0));
  JoinSpec spec;
  spec.r = &prepared.r;
  spec.s = &prepared.s;
  auto executor = CreateJoinMethod(method);
  join::JoinContext ctx = session->context();
  TERTIO_ASSIGN_OR_RETURN(result.stats, executor->Execute(spec, ctx));
  return result;
}

class AllMethodsTest : public ::testing::TestWithParam<JoinMethodId> {};

TEST_P(AllMethodsTest, MatchesReferenceOnForeignKeyWorkload) {
  auto result = RunAndReference(SmallSite(), DefaultWorkload(), GetParam());
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(result->stats.output_valid);
  // FK-uniform S over unique R keys: every S tuple matches exactly once.
  EXPECT_EQ(result->reference.tuples(), 2000u);
  EXPECT_EQ(result->stats.output_tuples, result->reference.tuples());
  EXPECT_EQ(result->stats.output_checksum, result->reference.checksum());
}

TEST_P(AllMethodsTest, MatchesReferenceOnManyToManyWorkload) {
  Workload w = DefaultWorkload();
  w.r.keys = rel::KeySequence::kUniformRandom;  // duplicate keys on both sides
  w.r.key_domain = 120;
  w.s.key_domain = 120;
  auto result = RunAndReference(SmallSite(), w, GetParam());
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_GT(result->reference.tuples(), 2000u);  // duplicates multiply matches
  EXPECT_EQ(result->stats.output_tuples, result->reference.tuples());
  EXPECT_EQ(result->stats.output_checksum, result->reference.checksum());
}

TEST_P(AllMethodsTest, MatchesReferenceOnZipfSkew) {
  Workload w = DefaultWorkload();
  w.s.keys = rel::KeySequence::kZipf;
  w.s.key_domain = 400;
  w.s.zipf_theta = 1.0;
  auto result = RunAndReference(SmallSite(), w, GetParam());
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->stats.output_tuples, result->reference.tuples());
  EXPECT_EQ(result->stats.output_checksum, result->reference.checksum());
}

TEST_P(AllMethodsTest, MatchesReferenceOnBuildSideZipfSkew) {
  Workload w = DefaultWorkload();
  // R keys Zipf(1.5): the hottest key holds about a third of R, so the
  // tables hold long duplicate chains and the hash methods' hot bucket
  // outgrows memory.
  w.r.keys = rel::KeySequence::kZipf;
  w.r.key_domain = 400;
  w.r.zipf_theta = 1.5;
  auto result = RunAndReference(SmallSite(), w, GetParam());
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_GT(result->reference.tuples(), 0u);
  EXPECT_EQ(result->stats.output_tuples, result->reference.tuples());
  EXPECT_EQ(result->stats.output_checksum, result->reference.checksum());
}

TEST_P(AllMethodsTest, MatchesReferenceOnLowSelectivity) {
  Workload w = DefaultWorkload();
  // S keys drawn from a domain 10x wider than R: ~10% of S tuples match.
  w.s.key_domain = 4000;
  auto result = RunAndReference(SmallSite(), w, GetParam());
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_LT(result->reference.tuples(), 500u);
  EXPECT_GT(result->reference.tuples(), 50u);
  EXPECT_EQ(result->stats.output_tuples, result->reference.tuples());
  EXPECT_EQ(result->stats.output_checksum, result->reference.checksum());
}

TEST_P(AllMethodsTest, MatchesReferenceWhenRelationsEqualSize) {
  Workload w = DefaultWorkload();
  w.s.tuple_count = w.r.tuple_count;
  auto result = RunAndReference(SmallSite(), w, GetParam());
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->stats.output_tuples, result->reference.tuples());
  EXPECT_EQ(result->stats.output_checksum, result->reference.checksum());
}

TEST_P(AllMethodsTest, MatchesReferenceWhenAllRKeysAreEqual) {
  // One R key: every R tuple hashes to one bucket, so the hash methods join
  // empty R buckets against full S buckets, and the one full R bucket
  // outgrows memory.
  Workload w = DefaultWorkload();
  w.r.keys = rel::KeySequence::kUniformRandom;
  w.r.key_domain = 1;
  auto result = RunAndReference(SmallSite(300 * kBlock, 20 * kBlock), w, GetParam());
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_GT(result->reference.tuples(), 0u);
  EXPECT_EQ(result->stats.output_tuples, result->reference.tuples());
  EXPECT_EQ(result->stats.output_checksum, result->reference.checksum());
}

TEST_P(AllMethodsTest, MatchesReferenceWhenAllSKeysAreEqual) {
  // One S key: every S tuple hashes to one bucket, so the hash methods read
  // R buckets whose S buckets are empty.
  Workload w = DefaultWorkload();
  w.s.keys = rel::KeySequence::kUniformRandom;
  w.s.key_domain = 1;
  auto result = RunAndReference(SmallSite(300 * kBlock, 20 * kBlock), w, GetParam());
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_GT(result->reference.tuples(), 0u);
  EXPECT_EQ(result->stats.output_tuples, result->reference.tuples());
  EXPECT_EQ(result->stats.output_checksum, result->reference.checksum());
}

TEST_P(AllMethodsTest, TimingInvariantsHold) {
  auto result = RunAndReference(SmallSite(), DefaultWorkload(), GetParam());
  ASSERT_TRUE(result.ok()) << result.status();
  const JoinStats& stats = result->stats;
  EXPECT_GT(stats.response_seconds, 0.0);
  EXPECT_GE(stats.step1_seconds, 0.0);
  EXPECT_GE(stats.step2_seconds, 0.0);
  EXPECT_NEAR((stats.step1_seconds + stats.step2_seconds).value(), ((stats.response_seconds)).value(),
              stats.response_seconds.value() * 0.05 + 1e-6);
  EXPECT_GE(stats.r_scans, 1u);
  EXPECT_GE(stats.iterations, 1u);
  // Both relations are read off tape at least once.
  EXPECT_GE(stats.tape_blocks_read, 40u + 200u);
}

TEST_P(AllMethodsTest, ScratchStateRestoredAfterRun) {
  exec::Site site(SmallSite());
  std::unique_ptr<exec::QuerySession> session = test::WholeSiteSession(site);
  Workload w = DefaultWorkload();
  auto prepared = exec::PrepareWorkload(session.get(), w.r, w.s);
  ASSERT_TRUE(prepared.ok()) << prepared.status();
  BlockCount tape_r_size = prepared->tape_r->size_blocks();
  BlockCount tape_s_size = prepared->tape_s->size_blocks();
  JoinSpec spec;
  spec.r = &prepared->r;
  spec.s = &prepared->s;
  auto executor = CreateJoinMethod(GetParam());
  join::JoinContext ctx = session->context();
  auto stats = executor->Execute(spec, ctx);
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_EQ(session->memory().reserved_blocks(), 0u);
  EXPECT_EQ(session->disks().allocator().used_blocks(), 0u);
  EXPECT_EQ(prepared->tape_r->size_blocks(), tape_r_size);
  EXPECT_EQ(prepared->tape_s->size_blocks(), tape_s_size);
}

TEST_P(AllMethodsTest, BackToBackRunsAgree) {
  // Two consecutive runs on the same site must produce identical results
  // and (since scratch state is restored) identical response times.
  exec::Site site(SmallSite());
  std::unique_ptr<exec::QuerySession> session = test::WholeSiteSession(site);
  Workload w = DefaultWorkload();
  auto prepared = exec::PrepareWorkload(session.get(), w.r, w.s);
  ASSERT_TRUE(prepared.ok()) << prepared.status();
  JoinSpec spec;
  spec.r = &prepared->r;
  spec.s = &prepared->s;
  auto executor = CreateJoinMethod(GetParam());
  join::JoinContext ctx = session->context();
  auto first = executor->Execute(spec, ctx);
  ASSERT_TRUE(first.ok()) << first.status();
  // The second run pays a head locate back to the relations' start (the
  // first run found the heads parked there), so compare steady-state runs.
  auto second = executor->Execute(spec, ctx);
  ASSERT_TRUE(second.ok()) << second.status();
  auto third = executor->Execute(spec, ctx);
  ASSERT_TRUE(third.ok()) << third.status();
  EXPECT_EQ(first->output_checksum, second->output_checksum);
  EXPECT_EQ(second->output_checksum, third->output_checksum);
  EXPECT_NEAR((second->response_seconds).value(), ((third->response_seconds)).value(),
              second->response_seconds.value() * 0.01);
}

// ---- The pipelined consumer (JoinSpec::match_sink, Section 3.2). ------

/// A whole-site session on a 1 KiB-block site with M = 24 and D = 96
/// blocks, holding R (200 unique keys) and S (1,000 foreign keys into R).
struct SinkSession {
  std::unique_ptr<exec::Site> site;
  std::unique_ptr<exec::QuerySession> session;
  exec::PreparedWorkload prepared;

  explicit SinkSession(bool phantom = false) {
    site = std::make_unique<exec::Site>(SmallSite(96 * kBlock, 24 * kBlock));
    session = test::WholeSiteSession(*site);
    rel::GeneratorConfig r;
    r.name = "R";
    r.tuple_count = 200;
    r.keys = rel::KeySequence::kSequentialUnique;
    r.phantom = phantom;
    rel::GeneratorConfig s;
    s.name = "S";
    s.tuple_count = 1000;
    s.keys = rel::KeySequence::kForeignKeyUniform;
    s.key_domain = 200;
    s.seed = 77;
    s.phantom = phantom;
    prepared = exec::PrepareWorkload(session.get(), r, s).value();
  }

  JoinSpec Spec() const {
    JoinSpec spec;
    spec.r = &prepared.r;
    spec.s = &prepared.s;
    return spec;
  }
};

TEST_P(AllMethodsTest, MatchSinkSeesExactlyTheReferencePairs) {
  SinkSession fixture;
  JoinOutput seen;  // digests computed in the sink, from the pairs it receives
  JoinSpec spec = fixture.Spec();
  spec.match_sink = [&seen](const rel::Tuple& r, const rel::Tuple& s) {
    seen.AddMatch(r.GetInt64(0), HashBytes(r.bytes()), HashBytes(s.bytes()));
    return Status::OK();
  };
  JoinContext ctx = fixture.session->context();
  auto stats = CreateJoinMethod(GetParam())->Execute(spec, ctx);
  ASSERT_TRUE(stats.ok()) << stats.status();
  auto reference = ReferenceJoin(fixture.prepared.r, fixture.prepared.s, 0, 0);
  ASSERT_TRUE(reference.ok());
  EXPECT_EQ(seen.tuples(), reference->tuples());
  EXPECT_EQ(seen.checksum(), reference->checksum());
  EXPECT_EQ(stats->output_tuples, seen.tuples());
  EXPECT_EQ(stats->output_checksum, seen.checksum());
}

TEST_P(AllMethodsTest, TimingOnlyRunNeverCallsTheSink) {
  SinkSession fixture(/*phantom=*/true);
  std::uint64_t calls = 0;
  JoinSpec spec = fixture.Spec();
  spec.match_sink = [&calls](const rel::Tuple&, const rel::Tuple&) {
    ++calls;
    return Status::OK();
  };
  JoinContext ctx = fixture.session->context();
  auto stats = CreateJoinMethod(GetParam())->Execute(spec, ctx);
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_FALSE(stats->output_valid);
  EXPECT_EQ(calls, 0u);
}

/// Runs the fixture's join with a sink that fails on its 10th pair.
/// \returns the join's status; `calls` counts the sink's invocations.
Status RunWithSinkFailingAtTenthPair(SinkSession& fixture, JoinMethodId method,
                                     std::uint64_t* calls) {
  JoinSpec spec = fixture.Spec();
  spec.match_sink = [calls](const rel::Tuple&, const rel::Tuple&) {
    return ++*calls == 10 ? Status::FailedPrecondition("consumer gave up") : Status::OK();
  };
  JoinContext ctx = fixture.session->context();
  return CreateJoinMethod(method)->Execute(spec, ctx).status();
}

TEST_P(AllMethodsTest, FailingSinkStopsTheJoinAndRestoresScratch) {
  // The scratch contract of join_method.h holds on the error path too: a
  // join stopped by its consumer returns its memory, disk space and tape
  // appends, exactly as ScratchStateRestoredAfterRun checks on success.
  SinkSession fixture;
  BlockCount tape_r_size = fixture.prepared.tape_r->size_blocks();
  BlockCount tape_s_size = fixture.prepared.tape_s->size_blocks();
  std::uint64_t calls = 0;
  Status status = RunWithSinkFailingAtTenthPair(fixture, GetParam(), &calls);
  EXPECT_EQ(calls, 10u);
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(status.message(), "consumer gave up");
  EXPECT_EQ(fixture.session->memory().reserved_blocks(), 0u);
  EXPECT_EQ(fixture.session->disks().allocator().used_blocks(), 0u);
  EXPECT_EQ(fixture.prepared.tape_r->size_blocks(), tape_r_size);
  EXPECT_EQ(fixture.prepared.tape_s->size_blocks(), tape_s_size);
}

TEST_P(AllMethodsTest, JoinRerunsAfterAFailedSink) {
  SinkSession fixture;
  std::uint64_t calls = 0;
  ASSERT_FALSE(RunWithSinkFailingAtTenthPair(fixture, GetParam(), &calls).ok());
  JoinSpec spec = fixture.Spec();
  JoinContext ctx = fixture.session->context();
  auto stats = CreateJoinMethod(GetParam())->Execute(spec, ctx);
  ASSERT_TRUE(stats.ok()) << stats.status();
  auto reference = ReferenceJoin(fixture.prepared.r, fixture.prepared.s, 0, 0);
  ASSERT_TRUE(reference.ok());
  EXPECT_EQ(stats->output_tuples, reference->tuples());
  EXPECT_EQ(stats->output_checksum, reference->checksum());
}

INSTANTIATE_TEST_SUITE_P(AllSeven, AllMethodsTest, ::testing::ValuesIn(kAllJoinMethods),
                         [](const ::testing::TestParamInfo<JoinMethodId>& info) {
                           std::string name(JoinMethodName(info.param));
                           for (char& c : name) {
                             if (c == '-' || c == '/') c = '_';
                           }
                           return name;
                         });

TEST(TapeTapeOnlyTest, TapeTapeMethodsWorkWithDiskSmallerThanR) {
  // D = 24 blocks < |R| = 40 blocks: the defining regime of Section 5.2.
  exec::SiteConfig config = SmallSite(/*disk_bytes=*/24 * kBlock);
  for (JoinMethodId method : {JoinMethodId::kCttGh, JoinMethodId::kTtGh}) {
    auto result = RunAndReference(config, DefaultWorkload(), method);
    ASSERT_TRUE(result.ok()) << JoinMethodName(method) << ": " << result.status();
    EXPECT_EQ(result->stats.output_tuples, result->reference.tuples());
    EXPECT_EQ(result->stats.output_checksum, result->reference.checksum());
  }
}

TEST(TapeTapeOnlyTest, DiskTapeMethodsRejectDiskSmallerThanR) {
  exec::SiteConfig config = SmallSite(/*disk_bytes=*/24 * kBlock);
  for (JoinMethodId method : {JoinMethodId::kDtNb, JoinMethodId::kCdtNbMb,
                              JoinMethodId::kCdtNbDb, JoinMethodId::kDtGh,
                              JoinMethodId::kCdtGh}) {
    auto result = RunAndReference(config, DefaultWorkload(), method);
    EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted)
        << JoinMethodName(method);
  }
}

/// Pins an open TT-GH defect: when every S tuple shares one key, the one S
/// bucket holds all of S and outgrows the disk assembly area Table 2 sizes
/// for uniform hashing. Requirements() admits the input (one S bucket of
/// ceil(|S|/B) blocks plus a partial block: |S| = 200 blocks over B = 11
/// buckets at D = 24, over B = 5 at D = 64 and 96), and Execute fails with
/// ResourceExhausted at every disk size tried. The failure is clean: no
/// abort, and the session's drives, memory and disk are left as they were.
TEST(TapeTapeOnlyTest, TtGhFailsCleanlyWhenOneSKeyOutgrowsTheAssemblyArea) {
  Workload w = DefaultWorkload();
  w.s.keys = rel::KeySequence::kUniformRandom;
  w.s.key_domain = 1;
  struct Point {
    std::uint64_t disk_blocks;
    std::uint64_t buckets;
  };
  for (Point point : {Point{24, 11}, Point{64, 5}, Point{96, 5}}) {
    const std::uint64_t disk_blocks = point.disk_blocks;
    SCOPED_TRACE(disk_blocks);
    exec::Site site(SmallSite(disk_blocks * kBlock, 16 * kBlock));
    std::unique_ptr<exec::QuerySession> session = test::WholeSiteSession(site);
    auto prepared = exec::PrepareWorkload(session.get(), w.r, w.s);
    ASSERT_TRUE(prepared.ok()) << prepared.status();
    const BlockCount tape_r_size = prepared->tape_r->size_blocks();
    const BlockCount tape_s_size = prepared->tape_s->size_blocks();
    JoinSpec spec;
    spec.r = &prepared->r;
    spec.s = &prepared->s;
    join::JoinContext ctx = session->context();
    auto executor = CreateJoinMethod(JoinMethodId::kTtGh);
    auto needs = executor->Requirements(spec, ctx);
    ASSERT_TRUE(needs.ok()) << needs.status();
    EXPECT_EQ(needs->memory_blocks, 16u);
    EXPECT_EQ(needs->disk_blocks, (200 + point.buckets - 1) / point.buckets + 1);
    EXPECT_LE(needs->disk_blocks, disk_blocks);
    auto stats = executor->Execute(spec, ctx);
    EXPECT_EQ(stats.status().code(), StatusCode::kResourceExhausted);
    EXPECT_NE(stats.status().message().find("tag=tape-assembly"), std::string::npos)
        << stats.status();
    EXPECT_EQ(session->memory().reserved_blocks(), 0u);
    EXPECT_EQ(session->disks().allocator().used_blocks(), 0u);
    EXPECT_EQ(ctx.drive_r->volume(), prepared->tape_r.get());
    EXPECT_EQ(ctx.drive_s->volume(), prepared->tape_s.get());
    EXPECT_EQ(prepared->tape_r->size_blocks(), tape_r_size);
    EXPECT_EQ(prepared->tape_s->size_blocks(), tape_s_size);
  }
}

TEST(ValidationTest, SwappedRelationsRejected) {
  exec::Site site(SmallSite());
  std::unique_ptr<exec::QuerySession> session = test::WholeSiteSession(site);
  Workload w = DefaultWorkload();
  auto prepared = exec::PrepareWorkload(session.get(), w.r, w.s);
  ASSERT_TRUE(prepared.ok()) << prepared.status();
  JoinSpec spec;
  spec.r = &prepared->s;  // swapped: |R| > |S|
  spec.s = &prepared->r;
  auto executor = CreateJoinMethod(JoinMethodId::kCttGh);
  join::JoinContext ctx = session->context();
  EXPECT_FALSE(executor->Execute(spec, ctx).ok());
}

TEST(ValidationTest, UnmountedTapesRejected) {
  exec::Site site(SmallSite());
  std::unique_ptr<exec::QuerySession> session = test::WholeSiteSession(site);
  Workload w = DefaultWorkload();
  tape::TapeVolume tape_r("tape-R", kBlock);
  tape::TapeVolume tape_s("tape-S", kBlock);
  auto r = rel::GenerateOnTape(w.r, &tape_r);
  auto s = rel::GenerateOnTape(w.s, &tape_s);
  ASSERT_TRUE(r.ok() && s.ok());
  // Tapes never mounted.
  JoinSpec spec;
  spec.r = &r.value();
  spec.s = &s.value();
  auto executor = CreateJoinMethod(JoinMethodId::kDtNb);
  join::JoinContext ctx = session->context();
  EXPECT_EQ(executor->Execute(spec, ctx).status().code(), StatusCode::kFailedPrecondition);
}

TEST(ValidationTest, MixedPhantomRealRejected) {
  exec::Site site(SmallSite());
  std::unique_ptr<exec::QuerySession> session = test::WholeSiteSession(site);
  Workload w = DefaultWorkload();
  w.r.phantom = true;
  auto prepared = exec::PrepareWorkload(session.get(), w.r, w.s);
  ASSERT_TRUE(prepared.ok()) << prepared.status();
  JoinSpec spec;
  spec.r = &prepared->r;
  spec.s = &prepared->s;
  auto executor = CreateJoinMethod(JoinMethodId::kDtGh);
  join::JoinContext ctx = session->context();
  EXPECT_FALSE(executor->Execute(spec, ctx).ok());
}

TEST(ReferenceJoinTest, RejectsPhantoms) {
  Workload w = DefaultWorkload();
  w.r.phantom = true;
  w.s.phantom = true;
  tape::TapeVolume tape_r("tape-R", kBlock);
  tape::TapeVolume tape_s("tape-S", kBlock);
  auto r = rel::GenerateOnTape(w.r, &tape_r);
  auto s = rel::GenerateOnTape(w.s, &tape_s);
  ASSERT_TRUE(r.ok() && s.ok());
  EXPECT_FALSE(ReferenceJoin(r.value(), s.value(), 0, 0).ok());
}

}  // namespace
}  // namespace tertio::join

namespace tertio::join {
namespace {

TEST(SkewHandlingTest, ExtremeSkewTriggersOverflowPathButStaysCorrect) {
  // All S keys identical and one R key heavily duplicated: one bucket holds
  // far more than |R|/B blocks, forcing the overflow (bucket slicing) path.
  exec::Site site(SmallSite(/*disk_bytes=*/96 * kBlock, /*memory_bytes=*/16 * kBlock));
  std::unique_ptr<exec::QuerySession> session = test::WholeSiteSession(site);
  Workload w = DefaultWorkload();
  w.r.keys = rel::KeySequence::kUniformRandom;
  w.r.key_domain = 3;  // three keys over 400 tuples: giant buckets
  w.s.key_domain = 3;
  w.s.tuple_count = 600;
  exec::PreparedWorkload prepared = exec::PrepareWorkload(session.get(), w.r, w.s).value();
  auto reference = ReferenceJoin(prepared.r, prepared.s, 0, 0);
  ASSERT_TRUE(reference.ok());
  JoinSpec spec;
  spec.r = &prepared.r;
  spec.s = &prepared.s;
  join::JoinContext ctx = session->context();
  for (JoinMethodId method : {JoinMethodId::kDtGh, JoinMethodId::kCdtGh,
                              JoinMethodId::kCttGh, JoinMethodId::kTtGh}) {
    auto stats = CreateJoinMethod(method)->Execute(spec, ctx);
    ASSERT_TRUE(stats.ok()) << JoinMethodName(method) << ": " << stats.status();
    EXPECT_GT(stats->bucket_overflow_slices, 0u) << JoinMethodName(method);
    EXPECT_EQ(stats->output_tuples, reference->tuples()) << JoinMethodName(method);
    EXPECT_EQ(stats->output_checksum, reference->checksum()) << JoinMethodName(method);
  }
}

TEST(SkewHandlingTest, UniformKeysNeverOverflow) {
  auto result = RunAndReference(SmallSite(), DefaultWorkload(), JoinMethodId::kCdtGh);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->stats.bucket_overflow_slices, 0u);
}

TEST(EmptyBucketTest, ScanOfAnEmptyRBucketsSBucketWaitsForItsLastWrite) {
  // With one R key, all but one R bucket is empty, and their S buckets are
  // scanned without a table. Such a scan, like every other S-bucket scan,
  // starts only once the bucket's last write hit the disk. CDT-GH's joins
  // trail its tape reads, so that wait moves its response time; DT-GH's
  // joins already wait for the slab's flush.
  Workload w = DefaultWorkload();
  w.r.keys = rel::KeySequence::kUniformRandom;
  w.r.key_domain = 1;
  auto cdt = RunAndReference(SmallSite(64 * kBlock, 20 * kBlock), w, JoinMethodId::kCdtGh);
  ASSERT_TRUE(cdt.ok()) << cdt.status();
  EXPECT_NEAR(cdt->stats.response_seconds.value(), 5.024369905, 1e-9);
  auto dt = RunAndReference(SmallSite(64 * kBlock, 20 * kBlock), w, JoinMethodId::kDtGh);
  ASSERT_TRUE(dt.ok()) << dt.status();
  EXPECT_NEAR(dt->stats.response_seconds.value(), 5.138740952, 1e-9);
  for (const auto* result : {&cdt, &dt}) {
    EXPECT_EQ((*result)->stats.output_tuples, (*result)->reference.tuples());
    EXPECT_EQ((*result)->stats.output_checksum, (*result)->reference.checksum());
  }
}

/// NB Step II probes R through a DecodedColumnStore. The scan it issues
/// (JoinChunkAgainstR's ScanAndProbe call) fills one entry per R block when
/// real tuples move through the batched kernel (the forced-scalar one
/// ignores the store), and none in a timing-only run, which has no table
/// and no payloads: a phantom NB join allocates no store entry.
TEST(DecodedColumnStoreTest, OnlyARealScanFillsTheStore) {
  const bool batched = simd::BestSupportedLevel() != simd::Level::kScalar;
  for (bool phantom : {false, true}) {
    SCOPED_TRACE(phantom ? "phantom" : "real");
    exec::Site site(SmallSite());
    std::unique_ptr<exec::QuerySession> session = test::WholeSiteSession(site);
    exec::WorkloadConfig timing_only;
    timing_only.r_bytes = 40 * kBlock;
    timing_only.s_bytes = 200 * kBlock;
    const Workload w = DefaultWorkload();
    auto prepared = phantom ? exec::PrepareWorkload(session.get(), timing_only)
                            : exec::PrepareWorkload(session.get(), w.r, w.s);
    ASSERT_TRUE(prepared.ok()) << prepared.status();
    ASSERT_EQ(prepared->r.phantom, phantom);
    join::JoinContext ctx = session->context();
    sim::Pipeline pipe(ctx.sim->Horizon(), nullptr, ctx.sim->auditor());
    auto staged = StageRelationToDisk(ctx, pipe, ctx.drive_r, prepared->r, 8,
                                      /*concurrent=*/true, "R-copy", {});
    ASSERT_TRUE(staged.ok()) << staged.status();
    FlatJoinTable table(&prepared->s.schema, 0, /*build_is_r=*/false);
    if (!phantom) {
      std::vector<BlockPayload> chunk;
      for (BlockCount i = 0; i < 8; ++i) {
        chunk.push_back(prepared->s.volume->ReadBlock(prepared->s.start_block + i).value());
      }
      ASSERT_TRUE(table.AddBlocks(chunk).ok());
    }
    disk::ExtentReadSource r_source(ctx.disks, &staged->space.extents());
    JoinOutput out;
    DecodedColumnStore store;
    simd::SetLevelForTest(simd::BestSupportedLevel());
    auto scan = ScanAndProbe(pipe, "r-scan", r_source, prepared->r.blocks, 8,
                             {&staged->done_stage, 1}, phantom, &prepared->r.schema, 0,
                             phantom ? nullptr : &table, &out, &store);
    simd::ResetLevelForTest();
    ASSERT_TRUE(scan.ok()) << scan.status();
    EXPECT_EQ(store.size(), !phantom && batched ? prepared->r.blocks.value() : 0u);
    EXPECT_EQ(out.tuples() > 0, !phantom);
  }
}

// ---------------------------------------------------------------------------
// Flat open-addressing table vs the seed's multimap table
// ---------------------------------------------------------------------------

struct GeneratedBlocks {
  rel::Relation relation;
  std::vector<BlockPayload> blocks;
};

GeneratedBlocks GenerateBlocks(const rel::GeneratorConfig& config) {
  GeneratedBlocks g;
  tape::TapeVolume tape(config.name, kBlock);
  g.relation = rel::GenerateOnTape(config, &tape).value();
  for (BlockIndex i = 0; i < tape.size_blocks(); ++i) {
    g.blocks.push_back(tape.ReadBlock(i).value());
  }
  return g;
}

/// Both table substrates must emit the identical pair multiset over the
/// property-test workload generator, across key distributions.
TEST(FlatTableEquivalenceTest, MatchesLegacyMultimapOnGeneratedWorkloads) {
  struct Case {
    const char* name;
    rel::KeySequence r_keys;
    rel::KeySequence s_keys;
    std::uint64_t key_domain;
  };
  const Case cases[] = {
      {"foreign-key", rel::KeySequence::kSequentialUnique,
       rel::KeySequence::kForeignKeyUniform, 400},
      {"many-to-many", rel::KeySequence::kUniformRandom, rel::KeySequence::kUniformRandom,
       120},
      {"zipf-skew", rel::KeySequence::kSequentialUnique, rel::KeySequence::kZipf, 400},
      {"low-selectivity", rel::KeySequence::kSequentialUnique,
       rel::KeySequence::kForeignKeyUniform, 4000},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    rel::GeneratorConfig r_config;
    r_config.name = "R";
    r_config.tuple_count = 400;
    r_config.keys = c.r_keys;
    r_config.key_domain = c.key_domain;
    r_config.seed = 101;
    rel::GeneratorConfig s_config;
    s_config.name = "S";
    s_config.tuple_count = 1500;
    s_config.keys = c.s_keys;
    s_config.key_domain = c.key_domain;
    s_config.seed = 202;
    GeneratedBlocks r = GenerateBlocks(r_config);
    GeneratedBlocks s = GenerateBlocks(s_config);

    FlatJoinTable flat(&r.relation.schema, 0, /*build_is_r=*/true);
    LegacyMultimapJoinTable legacy(&r.relation.schema, 0, /*build_is_r=*/true);
    ASSERT_TRUE(flat.AddBlocks(r.blocks).ok());
    ASSERT_TRUE(legacy.AddBlocks(r.blocks).ok());
    EXPECT_EQ(flat.size(), legacy.size());

    JoinOutput flat_out, legacy_out;
    ASSERT_TRUE(flat.Probe(s.blocks, &s.relation.schema, 0, &flat_out).ok());
    ASSERT_TRUE(legacy.Probe(s.blocks, &s.relation.schema, 0, &legacy_out).ok());
    EXPECT_EQ(flat_out.tuples(), legacy_out.tuples());
    EXPECT_EQ(flat_out.checksum(), legacy_out.checksum());

    // Clear() keeps capacity but must drop every entry (the tape-tape
    // methods rebuild per bucket slice); a rebuilt table agrees again.
    flat.Clear();
    EXPECT_EQ(flat.size(), 0u);
    ASSERT_TRUE(flat.AddBlocks(r.blocks).ok());
    JoinOutput rebuilt_out;
    ASSERT_TRUE(flat.Probe(s.blocks, &s.relation.schema, 0, &rebuilt_out).ok());
    EXPECT_EQ(rebuilt_out.tuples(), legacy_out.tuples());
    EXPECT_EQ(rebuilt_out.checksum(), legacy_out.checksum());
  }
}

std::vector<BlockPayload> BlocksForKeys(const rel::Schema* schema,
                                        const std::vector<std::int64_t>& keys) {
  std::vector<BlockPayload> blocks;
  rel::BlockBuilder builder(schema, kBlock);
  rel::TupleBuilder tuple(schema);
  for (std::int64_t key : keys) {
    if (builder.full()) blocks.push_back(builder.Finish());
    tuple.SetInt64(0, key).SetFixedChar(1, "payload");
    TERTIO_CHECK(builder.Append(tuple.bytes()).ok(), "append failed");
  }
  if (builder.record_count() > 0) blocks.push_back(builder.Finish());
  return blocks;
}

/// The record digest's per-word step is a bijection of the hash state, so
/// every single-bit flip of a record changes HashBytes, and so does
/// zero-extending it by one byte (only the mixed-in length differs).
TEST(HashBytesTest, EveryBitFlipAndZeroExtensionChangesTheDigest) {
  std::vector<std::uint8_t> record(100);
  for (std::size_t i = 0; i < record.size(); ++i) {
    record[i] = static_cast<std::uint8_t>(i * 37 + 11);
  }
  const std::uint64_t digest = HashBytes(record);
  for (std::size_t bit = 0; bit < 8 * record.size(); ++bit) {
    std::vector<std::uint8_t> flipped = record;
    flipped[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    EXPECT_NE(HashBytes(flipped), digest) << "bit " << bit;
  }
  std::vector<std::uint8_t> extended = record;
  extended.push_back(0);
  EXPECT_NE(HashBytes(extended), digest);
  EXPECT_EQ(HashBytes(record), digest);
}

std::uint64_t CollidingKeyHash(std::int64_t) { return 42; }

/// Regression: the flat table places slots by key digest and compares the
/// digest before the key bytes. With a degenerate hash that maps every key
/// to the same digest, unequal keys collide in every slot — and must still
/// never match. (hash::HashKey is a bijection, so a real collision cannot be
/// constructed without injecting the hash.)
TEST(FlatTableDigestCollision, UnequalKeysWithEqualDigestsDoNotMatch) {
  rel::Schema schema = rel::Schema::KeyPayload(100);
  std::vector<std::int64_t> build_keys;
  for (std::int64_t k = 0; k < 64; ++k) build_keys.push_back(k);
  std::vector<BlockPayload> build = BlocksForKeys(&schema, build_keys);

  FlatJoinTable colliding(&schema, 0, /*build_is_r=*/true, /*capture_records=*/false,
                          &CollidingKeyHash);
  ASSERT_TRUE(colliding.AddBlocks(build).ok());
  ASSERT_EQ(colliding.size(), build_keys.size());

  // Absent keys share the digest of every stored key; none may match.
  JoinOutput miss_out;
  std::vector<BlockPayload> misses = BlocksForKeys(&schema, {64, 100, -1, 1 << 20});
  ASSERT_TRUE(colliding.Probe(misses, &schema, 0, &miss_out).ok());
  EXPECT_EQ(miss_out.tuples(), 0u);

  // Present keys must still match exactly once each, and produce the same
  // pair set as a table using the production hash.
  std::vector<std::int64_t> probe_keys = {0, 7, 63, 31};
  std::vector<BlockPayload> hits = BlocksForKeys(&schema, probe_keys);
  JoinOutput collide_out, production_out;
  ASSERT_TRUE(colliding.Probe(hits, &schema, 0, &collide_out).ok());
  FlatJoinTable production(&schema, 0, /*build_is_r=*/true);
  ASSERT_TRUE(production.AddBlocks(build).ok());
  ASSERT_TRUE(production.Probe(hits, &schema, 0, &production_out).ok());
  EXPECT_EQ(collide_out.tuples(), probe_keys.size());
  EXPECT_EQ(collide_out.tuples(), production_out.tuples());
  EXPECT_EQ(collide_out.checksum(), production_out.checksum());
}

}  // namespace
}  // namespace tertio::join
