// Query-service tests: Site, QuerySession and the QueryScheduler on top.
//
// Sessions must partition (and return) the site's memory, disk and drive
// budgets; the scheduler must admission-check requests, drain in arrival
// order, and — under the shared-scan policy — multicast an in-flight S pass
// to queued joins on the same cartridge, with identical join results to the
// no-sharing baseline.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "exec/query_scheduler.h"
#include "exec/query_session.h"
#include "exec/service_workload.h"
#include "exec/site.h"
#include "join/join_method.h"
#include "relation/generator.h"
#include "sim/auditor.h"
#include "sim/fault.h"
#include "sim/simulation.h"
#include "tape/tape_drive.h"
#include "tape/tape_volume.h"

namespace tertio::exec {
namespace {

void ExpectBitIdentical(const join::JoinStats& a, const join::JoinStats& b,
                        std::string_view label) {
  EXPECT_EQ(a.response_seconds, b.response_seconds) << label;  // exact, not near
  EXPECT_EQ(a.step1_seconds, b.step1_seconds) << label;
  EXPECT_EQ(a.step2_seconds, b.step2_seconds) << label;
  EXPECT_EQ(a.tape_blocks_read, b.tape_blocks_read) << label;
  EXPECT_EQ(a.tape_blocks_written, b.tape_blocks_written) << label;
  EXPECT_EQ(a.tape_blocks_shared, b.tape_blocks_shared) << label;
  EXPECT_EQ(a.tape_blocks_cached, b.tape_blocks_cached) << label;
  EXPECT_EQ(a.disk_blocks_read, b.disk_blocks_read) << label;
  EXPECT_EQ(a.disk_blocks_written, b.disk_blocks_written) << label;
  EXPECT_EQ(a.disk_requests, b.disk_requests) << label;
  EXPECT_EQ(a.r_scans, b.r_scans) << label;
  EXPECT_EQ(a.iterations, b.iterations) << label;
  EXPECT_EQ(a.peak_memory_blocks, b.peak_memory_blocks) << label;
  EXPECT_EQ(a.peak_disk_blocks, b.peak_disk_blocks) << label;
  EXPECT_EQ(a.memory_occupied_blocks, b.memory_occupied_blocks) << label;
  ASSERT_EQ(a.spans.phases().size(), b.spans.phases().size()) << label;
  for (std::size_t i = 0; i < a.spans.phases().size(); ++i) {
    const sim::PhaseSummary& pa = a.spans.phases()[i];
    const sim::PhaseSummary& pb = b.spans.phases()[i];
    SCOPED_TRACE(std::string(label) + " phase " + pa.phase);
    EXPECT_EQ(pa.phase, pb.phase);
    EXPECT_EQ(pa.device, pb.device);
    EXPECT_EQ(pa.stage_count, pb.stage_count);
    EXPECT_EQ(pa.blocks, pb.blocks);
    EXPECT_EQ(pa.bytes, pb.bytes);
    EXPECT_EQ(pa.busy_seconds, pb.busy_seconds);
    EXPECT_EQ(pa.window.start, pb.window.start);
    EXPECT_EQ(pa.window.end, pb.window.end);
  }
}

TEST(SiteConfigTest, ValidateRejectsDegenerateConfigs) {
  SiteConfig good;
  EXPECT_TRUE(good.Validate().ok());

  // Wrap boundary: configurations whose byte sizing overflows 64 bits must
  // be rejected as a Status by the checked conversions, not wrapped into a
  // tiny allocation (regression for the CheckedBlocksToBytes adoption).
  SiteConfig wrap_disk = good;
  wrap_disk.disk_space_bytes = ByteCount{~std::uint64_t{0}};
  EXPECT_FALSE(wrap_disk.Validate().ok());

  SiteConfig wrap_cache = good;
  wrap_cache.cache_blocks = BlockCount{~std::uint64_t{0} / 2};
  EXPECT_FALSE(wrap_cache.Validate().ok());

  SiteConfig no_disks = good;
  no_disks.disk_count = 0;
  EXPECT_FALSE(no_disks.Validate().ok());
  EXPECT_FALSE(Site::Create(no_disks).ok());

  SiteConfig tiny_memory = good;
  tiny_memory.memory_bytes = good.block_bytes - 1;
  EXPECT_FALSE(tiny_memory.Validate().ok());

  SiteConfig no_stripe = good;
  no_stripe.stripe_unit = 0;
  EXPECT_FALSE(no_stripe.Validate().ok());

  SiteConfig one_drive = good;
  one_drive.drive_count = 1;
  EXPECT_FALSE(one_drive.Validate().ok());

  SiteConfig no_blocks = good;
  no_blocks.block_bytes = 0;
  EXPECT_FALSE(no_blocks.Validate().ok());

  SiteConfig tiny_disk = good;
  tiny_disk.disk_space_bytes = good.block_bytes - 1;
  EXPECT_FALSE(tiny_disk.Validate().ok());

  // The extent cache may not swallow the whole disk: sessions need space.
  SiteConfig cache_eats_disk = good;
  cache_eats_disk.cache_blocks = BytesToBlocks(good.disk_space_bytes, good.block_bytes);
  EXPECT_FALSE(cache_eats_disk.Validate().ok());
  cache_eats_disk.cache_blocks -= 1;
  EXPECT_TRUE(cache_eats_disk.Validate().ok());
}

TEST(QuerySessionTest, LeasesPartitionTheSiteAndReturnOnClose) {
  SiteConfig config;
  config.drive_count = 4;
  config.memory_bytes = 32 * kMB;
  config.disk_space_bytes = 100 * kMB;
  Site site(config);

  SessionResources half;
  half.name = "a";
  half.memory_blocks = site.memory_blocks() / 2;
  half.disk_blocks = site.disk_blocks() / 2;
  auto a = QuerySession::Open(&site, half);
  ASSERT_TRUE(a.ok()) << a.status();
  EXPECT_EQ(site.memory().reserved_blocks(), half.memory_blocks);
  EXPECT_EQ(site.free_drives(), 2);

  half.name = "b";
  auto b = QuerySession::Open(&site, half);
  ASSERT_TRUE(b.ok()) << b.status();
  EXPECT_EQ(site.memory().reserved_blocks(), 2 * half.memory_blocks);
  EXPECT_EQ(site.free_drives(), 0);
  EXPECT_EQ(site.disks().allocator().free_blocks(), site.disk_blocks() - 2 * half.disk_blocks);

  // No drives (and no memory) left: a third lease must fail cleanly.
  half.name = "c";
  auto c = QuerySession::Open(&site, half);
  EXPECT_FALSE(c.ok());

  // Closing a session returns every resource it held.
  a->reset();
  EXPECT_EQ(site.memory().reserved_blocks(), half.memory_blocks);
  EXPECT_EQ(site.free_drives(), 2);
  EXPECT_EQ(site.disks().allocator().free_blocks(), site.disk_blocks() - half.disk_blocks);
  half.name = "d";
  auto d = QuerySession::Open(&site, half);
  EXPECT_TRUE(d.ok()) << d.status();
}

TEST(QuerySessionTest, SessionBudgetBoundsAreLocal) {
  SiteConfig config;
  config.memory_bytes = 32 * kMB;
  Site site(config);
  SessionResources res;
  res.memory_blocks = 16;
  res.disk_blocks = 64;
  auto session = QuerySession::Open(&site, res);
  ASSERT_TRUE(session.ok()) << session.status();
  // The session's own M_q is the binding constraint, not the site's M.
  EXPECT_TRUE((*session)->memory().Reserve(16, "w").ok());
  EXPECT_FALSE((*session)->memory().Reserve(1, "w").ok());
  EXPECT_GT(site.memory().free_blocks(), 0u);
  // Same for the disk carve.
  auto fits = (*session)->disks().allocator().Allocate(64, 0.0, "w");
  EXPECT_TRUE(fits.ok());
  auto overflow = (*session)->disks().allocator().Allocate(1, 0.0, "w");
  EXPECT_FALSE(overflow.ok());
  Status freed = (*session)->disks().allocator().Free(*fits, 0.0, "w");
  EXPECT_TRUE(freed.ok());
  Status released = (*session)->memory().ReleaseAll("w");
  EXPECT_TRUE(released.ok());
}

TEST(QuerySessionTest, FailedOpenReleasesItsDrivesThroughTheLeaseGuard) {
  SiteConfig config;
  config.memory_bytes = 32 * kMB;
  Site site(config);
  sim::Auditor* auditor = site.EnableAudit();

  // Regression: Open leases its two drives before the memory lease and the
  // disk carve. Either later step failing used to leak the drives (the
  // error return skipped the release); the DriveLease guard is now the
  // single release path, so a failed admission leaves the pool untouched.
  ASSERT_EQ(site.free_drives(), 2);

  SessionResources over_memory;
  over_memory.name = "over-mem";
  over_memory.memory_blocks = site.memory_blocks() + 1;
  EXPECT_FALSE(QuerySession::Open(&site, over_memory).ok());
  EXPECT_EQ(site.free_drives(), 2);
  EXPECT_EQ(site.memory().reserved_blocks(), 0u);

  SessionResources over_disk;
  over_disk.name = "over-disk";
  over_disk.memory_blocks = 1;
  over_disk.disk_blocks = site.disk_blocks() + 1;
  EXPECT_FALSE(QuerySession::Open(&site, over_disk).ok());
  EXPECT_EQ(site.free_drives(), 2);
  // The memory lease acquired before the failing carve must unwind too.
  EXPECT_EQ(site.memory().reserved_blocks(), 0u);

  // The pool is genuinely usable afterwards, and the auditor's
  // lease-exclusivity ledger balanced over the failed opens.
  SessionResources fits;
  fits.name = "fits";
  fits.memory_blocks = 1;
  auto session = QuerySession::Open(&site, fits);
  EXPECT_TRUE(session.ok()) << session.status();
  session->reset();
  EXPECT_EQ(site.free_drives(), 2);
  EXPECT_TRUE(auditor->Check().ok()) << auditor->TraceString();
}

ServiceWorkloadConfig SmallServiceWorkload(bool phantom) {
  ServiceWorkloadConfig config;
  config.s_cartridges = 1;
  config.s_bytes = phantom ? 100 * kMB : 64 * kKB;
  config.r_relations = 3;
  config.r_bytes = phantom ? 5 * kMB : 16 * kKB;
  config.phantom = phantom;
  return config;
}

JoinRequest RequestFor(Site* site, const ServiceWorkload& workload, int r_index, int s_index,
                       SimSeconds arrival) {
  JoinRequest request;
  request.arrival = arrival;
  request.spec.r = &workload.r[static_cast<size_t>(r_index)];
  request.spec.s = &workload.s[static_cast<size_t>(s_index)];
  request.method = JoinMethodId::kCdtGh;
  request.memory_blocks = site->memory_blocks();
  request.disk_blocks = site->session_disk_blocks();
  return request;
}

TEST(QuerySchedulerTest, AdmissionControlRejectsImpossibleRequests) {
  SiteConfig config;
  config.with_library = true;
  Site site(config);
  auto workload = PrepareServiceWorkload(&site, SmallServiceWorkload(/*phantom=*/true));
  ASSERT_TRUE(workload.ok()) << workload.status();
  QueryScheduler scheduler(&site, ServicePolicy::kFifo);

  JoinRequest over_memory = RequestFor(&site, *workload, 0, 0, 0.0);
  over_memory.memory_blocks = site.memory_blocks() + 1;
  EXPECT_FALSE(scheduler.Submit(over_memory).ok());

  JoinRequest over_disk = RequestFor(&site, *workload, 0, 0, 0.0);
  over_disk.disk_blocks = site.disk_blocks() + 1;
  EXPECT_FALSE(scheduler.Submit(over_disk).ok());

  // A relation on a loose (non-library) volume is not addressable.
  tape::TapeVolume loose("loose", config.block_bytes);
  rel::Relation foreign = workload->r[0];
  foreign.volume = &loose;
  JoinRequest off_library = RequestFor(&site, *workload, 0, 0, 0.0);
  off_library.spec.r = &foreign;
  EXPECT_FALSE(scheduler.Submit(off_library).ok());

  EXPECT_TRUE(scheduler.Submit(RequestFor(&site, *workload, 0, 0, 0.0)).ok());
  EXPECT_EQ(scheduler.pending(), 1u);
  EXPECT_EQ(scheduler.pending_on(workload->s_slots[0]), 1u);
  EXPECT_EQ(scheduler.service_stats().rejected, 3u);

  // A site without a library cannot serve at all.
  SiteConfig bare_config;
  Site bare(bare_config);
  QueryScheduler bare_scheduler(&bare, ServicePolicy::kFifo);
  EXPECT_FALSE(bare_scheduler.Submit(RequestFor(&bare, *workload, 0, 0, 0.0)).ok());
}

TEST(QuerySchedulerTest, FifoDrainsInArrivalOrderAndQueriesNeverStartEarly) {
  SiteConfig config;
  config.with_library = true;
  Site site(config);
  auto workload = PrepareServiceWorkload(&site, SmallServiceWorkload(/*phantom=*/true));
  ASSERT_TRUE(workload.ok()) << workload.status();
  QueryScheduler scheduler(&site, ServicePolicy::kFifo);
  // Submitted out of arrival order on purpose.
  auto q2 = scheduler.Submit(RequestFor(&site, *workload, 1, 0, 100.0));
  auto q1 = scheduler.Submit(RequestFor(&site, *workload, 0, 0, 0.0));
  auto q3 = scheduler.Submit(RequestFor(&site, *workload, 2, 0, 200.0));
  ASSERT_TRUE(q1.ok() && q2.ok() && q3.ok());
  ASSERT_TRUE(scheduler.Run().ok());
  const auto& outcomes = scheduler.outcomes();
  ASSERT_EQ(outcomes.size(), 3u);
  EXPECT_EQ(outcomes[0].id, *q1);
  EXPECT_EQ(outcomes[1].id, *q2);
  EXPECT_EQ(outcomes[2].id, *q3);
  for (const QueryOutcome& out : outcomes) {
    EXPECT_TRUE(out.status.ok()) << out.status;
    EXPECT_GE(out.start, out.arrival);
    EXPECT_GT(out.completion, out.start);
    EXPECT_FALSE(out.scan_shared);
    EXPECT_EQ(out.stats.tape_blocks_shared, 0u);
  }
  ServiceStats stats = scheduler.service_stats();
  EXPECT_EQ(stats.completed, 3u);
  EXPECT_EQ(stats.scan_shared_queries, 0u);
  EXPECT_EQ(stats.makespan, site.sim().Horizon());
}

TEST(QuerySchedulerTest, SharedScanMulticastsTheSPassAndReducesTapeTraffic) {
  auto run = [](ServicePolicy policy) {
    SiteConfig config;
    config.with_library = true;
    auto site = std::make_unique<Site>(config);
    auto workload = PrepareServiceWorkload(site.get(), SmallServiceWorkload(/*phantom=*/true));
    TERTIO_CHECK(workload.ok(), "workload setup failed");
    QueryScheduler scheduler(site.get(), policy);
    for (int j = 0; j < 3; ++j) {
      auto id = scheduler.Submit(RequestFor(site.get(), *workload, j, 0, 0.0));
      TERTIO_CHECK(id.ok(), "submit failed");
    }
    Status ran = scheduler.Run();
    TERTIO_CHECK(ran.ok(), "run failed");
    ServiceStats stats = scheduler.service_stats();
    TERTIO_CHECK(stats.completed == 3, "all queries must complete");
    return stats;
  };
  ServiceStats fifo = run(ServicePolicy::kFifo);
  ServiceStats shared = run(ServicePolicy::kSharedScan);
  EXPECT_EQ(fifo.scan_shared_queries, 0u);
  EXPECT_EQ(fifo.tape_blocks_shared, 0u);
  // Two of the three queries ride the leader's pass: their S blocks move
  // from read to shared, and the queue drains sooner.
  EXPECT_EQ(shared.scan_shared_queries, 2u);
  EXPECT_GT(shared.tape_blocks_shared, 0u);
  EXPECT_LT(shared.tape_blocks_read, fifo.tape_blocks_read);
  EXPECT_EQ(shared.tape_blocks_read + shared.tape_blocks_shared, fifo.tape_blocks_read);
  EXPECT_LT(shared.makespan, fifo.makespan);
}

TEST(QuerySchedulerTest, SharedScanDeliversIdenticalJoinResults) {
  // Full-data mode: the multicast path must deliver the same tuples the
  // physical pass would.
  auto run = [](ServicePolicy policy) {
    SiteConfig config;
    config.with_library = true;
    auto site = std::make_unique<Site>(config);
    auto workload = PrepareServiceWorkload(site.get(), SmallServiceWorkload(/*phantom=*/false));
    TERTIO_CHECK(workload.ok(), "workload setup failed");
    QueryScheduler scheduler(site.get(), policy);
    for (int j = 0; j < 3; ++j) {
      auto id = scheduler.Submit(RequestFor(site.get(), *workload, j, 0, 0.0));
      TERTIO_CHECK(id.ok(), "submit failed");
    }
    Status ran = scheduler.Run();
    TERTIO_CHECK(ran.ok(), "run failed");
    return scheduler.outcomes();
  };
  auto fifo = run(ServicePolicy::kFifo);
  auto shared = run(ServicePolicy::kSharedScan);
  ASSERT_EQ(fifo.size(), shared.size());
  for (std::size_t i = 0; i < fifo.size(); ++i) {
    ASSERT_TRUE(fifo[i].status.ok()) << fifo[i].status;
    ASSERT_TRUE(shared[i].status.ok()) << shared[i].status;
    EXPECT_EQ(fifo[i].id, shared[i].id);
    ASSERT_TRUE(fifo[i].stats.output_valid);
    ASSERT_TRUE(shared[i].stats.output_valid);
    EXPECT_EQ(fifo[i].stats.output_tuples, shared[i].stats.output_tuples) << i;
    EXPECT_EQ(fifo[i].stats.output_checksum, shared[i].stats.output_checksum) << i;
  }
}

TEST(QuerySchedulerTest, ClosedLoopClientsSubmitFromCompletions) {
  SiteConfig config;
  config.with_library = true;
  Site site(config);
  auto workload = PrepareServiceWorkload(&site, SmallServiceWorkload(/*phantom=*/true));
  ASSERT_TRUE(workload.ok()) << workload.status();
  QueryScheduler scheduler(&site, ServicePolicy::kSharedScan);
  int resubmits = 2;
  scheduler.set_on_complete([&](const QueryOutcome& out) {
    if (resubmits-- > 0) {
      JoinRequest next = RequestFor(&site, *workload, resubmits, 0, out.completion);
      auto id = scheduler.Submit(std::move(next));
      TERTIO_CHECK(id.ok(), "closed-loop submit failed");
    }
  });
  ASSERT_TRUE(scheduler.Submit(RequestFor(&site, *workload, 0, 0, 0.0)).ok());
  ASSERT_TRUE(scheduler.Run().ok());
  EXPECT_EQ(scheduler.outcomes().size(), 3u);
  EXPECT_EQ(scheduler.service_stats().completed, 3u);
  // Each closed-loop arrival is its predecessor's completion, so starts are
  // strictly ordered.
  for (std::size_t i = 1; i < scheduler.outcomes().size(); ++i) {
    EXPECT_GE(scheduler.outcomes()[i].start, scheduler.outcomes()[i - 1].completion);
  }
}

// --- Scheduler bugfix regressions ------------------------------------------

TEST(QuerySchedulerTest, DuplicateExplicitIdsAreRejectedAndIdSpaceSaturates) {
  SiteConfig config;
  config.with_library = true;
  Site site(config);
  auto workload = PrepareServiceWorkload(&site, SmallServiceWorkload(/*phantom=*/true));
  ASSERT_TRUE(workload.ok()) << workload.status();
  QueryScheduler scheduler(&site, ServicePolicy::kFifo);

  JoinRequest explicit_id = RequestFor(&site, *workload, 0, 0, 0.0);
  explicit_id.id = 7;
  ASSERT_TRUE(scheduler.Submit(explicit_id).ok());

  // Regression: a duplicate explicit id used to be queued twice into the
  // cartridge index, corrupting Take()/Unindex() pairing. It must reject.
  JoinRequest duplicate = RequestFor(&site, *workload, 1, 0, 1.0);
  duplicate.id = 7;
  auto rejected = scheduler.Submit(duplicate);
  EXPECT_FALSE(rejected.ok());
  EXPECT_EQ(scheduler.pending(), 1u);
  EXPECT_EQ(scheduler.pending_on(workload->s_slots[0]), 1u);
  EXPECT_EQ(scheduler.service_stats().rejected, 1u);

  // Auto ids continue past the highest explicit id.
  auto next = scheduler.Submit(RequestFor(&site, *workload, 1, 0, 1.0));
  ASSERT_TRUE(next.ok());
  EXPECT_EQ(*next, 8u);

  // Regression: id UINT64_MAX used to wrap next_id_ back to 0, re-issuing
  // live ids. The cursor saturates instead, and once the last id is taken
  // the auto-assign path reports exhaustion rather than duplicating it.
  JoinRequest last = RequestFor(&site, *workload, 2, 0, 2.0);
  last.id = std::numeric_limits<std::uint64_t>::max();
  ASSERT_TRUE(scheduler.Submit(last).ok());
  auto exhausted = scheduler.Submit(RequestFor(&site, *workload, 0, 0, 3.0));
  EXPECT_FALSE(exhausted.ok());
}

TEST(QuerySchedulerTest, FollowersRequeueInsteadOfJumpingTheQueueWhenTheLeaderFails) {
  SiteConfig config;
  config.with_library = true;
  Site site(config);
  ServiceWorkloadConfig shape = SmallServiceWorkload(/*phantom=*/true);
  shape.s_cartridges = 2;
  auto workload = PrepareServiceWorkload(&site, shape);
  ASSERT_TRUE(workload.ok()) << workload.status();
  QueryScheduler scheduler(&site, ServicePolicy::kSharedScan);

  // W executes first and advances the horizon, so everything below is
  // already "arrived" when its leader starts.
  auto w = scheduler.Submit(RequestFor(&site, *workload, 0, 1, 0.0));
  // L leads cartridge 0 but cannot run: its disk carve is far below what
  // CDT-GH needs, so execution fails after admission.
  JoinRequest broken = RequestFor(&site, *workload, 1, 0, 0.1);
  broken.disk_blocks = 2;
  auto l = scheduler.Submit(std::move(broken));
  // X arrived before F but waits on the *other* cartridge.
  auto x = scheduler.Submit(RequestFor(&site, *workload, 2, 1, 0.15));
  auto f = scheduler.Submit(RequestFor(&site, *workload, 0, 0, 0.2));
  ASSERT_TRUE(w.ok() && l.ok() && x.ok() && f.ok());
  ASSERT_TRUE(scheduler.Run().ok());

  const auto& outcomes = scheduler.outcomes();
  ASSERT_EQ(outcomes.size(), 4u);
  EXPECT_EQ(outcomes[0].id, *w);
  EXPECT_TRUE(outcomes[0].status.ok()) << outcomes[0].status;
  EXPECT_EQ(outcomes[1].id, *l);
  EXPECT_FALSE(outcomes[1].status.ok());
  // Regression: F was swept up as L's follower; when L failed, F used to
  // execute immediately anyway — jumping X, which arrived earlier. F must
  // requeue and wait its turn behind X.
  EXPECT_EQ(outcomes[2].id, *x);
  EXPECT_TRUE(outcomes[2].status.ok()) << outcomes[2].status;
  EXPECT_EQ(outcomes[3].id, *f);
  EXPECT_TRUE(outcomes[3].status.ok()) << outcomes[3].status;
  EXPECT_FALSE(outcomes[3].scan_shared);
  ServiceStats stats = scheduler.service_stats();
  EXPECT_EQ(stats.completed, 3u);
  EXPECT_EQ(stats.failed, 1u);
}

TEST(QuerySchedulerTest, FailedLeaderRequeuesItsFollowersBeforeReportingTheFailure) {
  SiteConfig config;
  config.with_library = true;
  Site site(config);
  auto workload = PrepareServiceWorkload(&site, SmallServiceWorkload(/*phantom=*/true));
  ASSERT_TRUE(workload.ok()) << workload.status();
  QueryScheduler scheduler(&site, ServicePolicy::kSharedScan);

  // L cannot run (its disk carve is far below what CDT-GH needs); F is
  // swept up as its follower.
  JoinRequest broken = RequestFor(&site, *workload, 0, 0, 0.0);
  broken.disk_blocks = 2;
  auto l = scheduler.Submit(std::move(broken));
  JoinRequest follower = RequestFor(&site, *workload, 1, 0, 0.0);
  follower.id = 40;
  auto f = scheduler.Submit(std::move(follower));
  ASSERT_TRUE(l.ok() && f.ok());

  // When L's failure is reported, F is already back in the queue, so a
  // client re-using F's id is told it is queued instead of creating a
  // second request with the same id.
  bool checked = false;
  scheduler.set_on_complete([&](const QueryOutcome& out) {
    if (out.id != *l) return;
    checked = true;
    EXPECT_EQ(scheduler.pending(), 1u);
    EXPECT_EQ(scheduler.pending_on(workload->s_slots[0]), 1u);
    JoinRequest reuse = RequestFor(&site, *workload, 2, 0, out.completion);
    reuse.id = *f;
    EXPECT_FALSE(scheduler.Submit(std::move(reuse)).ok());
  });
  ASSERT_TRUE(scheduler.Run().ok());
  EXPECT_TRUE(checked);
  const auto& outcomes = scheduler.outcomes();
  ASSERT_EQ(outcomes.size(), 2u);
  EXPECT_FALSE(outcomes[0].status.ok());
  EXPECT_EQ(outcomes[1].id, *f);
  EXPECT_TRUE(outcomes[1].status.ok()) << outcomes[1].status;
  EXPECT_EQ(scheduler.service_stats().rejected, 1u);
}

TEST(QuerySchedulerTest, NonFiniteArrivalsAreRejected) {
  SiteConfig config;
  config.with_library = true;
  Site site(config);
  auto workload = PrepareServiceWorkload(&site, SmallServiceWorkload(/*phantom=*/true));
  ASSERT_TRUE(workload.ok()) << workload.status();
  QueryScheduler scheduler(&site, ServicePolicy::kElevator);
  ASSERT_TRUE(scheduler.Submit(RequestFor(&site, *workload, 0, 0, 0.0)).ok());

  // NaN would break the queue's (arrival, id) order, and an infinite
  // arrival could never be served at a finite time.
  const double kInf = std::numeric_limits<double>::infinity();
  for (double arrival : {std::numeric_limits<double>::quiet_NaN(), kInf, -kInf}) {
    auto id = scheduler.Submit(RequestFor(&site, *workload, 1, 0, arrival));
    ASSERT_FALSE(id.ok()) << arrival;
    EXPECT_EQ(id.status().code(), StatusCode::kInvalidArgument) << arrival;
  }
  EXPECT_EQ(scheduler.pending(), 1u);
  EXPECT_EQ(scheduler.pending_on(workload->s_slots[0]), 1u);
  EXPECT_EQ(scheduler.service_stats().rejected, 3u);

  // A finite negative arrival is an ordinary (early) arrival.
  ASSERT_TRUE(scheduler.Submit(RequestFor(&site, *workload, 1, 0, -5.0)).ok());
  ASSERT_TRUE(scheduler.Run().ok());
  ServiceStats stats = scheduler.service_stats();
  EXPECT_EQ(stats.completed, 2u);
  EXPECT_TRUE(std::isfinite(stats.makespan.value()));
}

TEST(QuerySchedulerDeathTest, NanAgingBoundIsRejectedAtConstruction) {
  SiteConfig config;
  config.with_library = true;
  Site site(config);
  SchedulerOptions options;
  options.elevator_aging_seconds = std::numeric_limits<double>::quiet_NaN();
  EXPECT_DEATH(QueryScheduler(&site, ServicePolicy::kElevator, options), "NaN");
  // A pure sweep (+inf) and FIFO (a negative bound) stay legal.
  options.elevator_aging_seconds = std::numeric_limits<double>::infinity();
  QueryScheduler sweep(&site, ServicePolicy::kElevator, options);
  options.elevator_aging_seconds = -1.0;
  QueryScheduler fifo(&site, ServicePolicy::kElevator, options);
  EXPECT_EQ(fifo.pending(), 0u);
}

// --- Tape-drive window regressions -----------------------------------------

TEST(TapeDriveWindowTest, RangeContainsIsOverflowSafe) {
  using tape::TapeDrive;
  constexpr auto kMax = std::numeric_limits<std::uint64_t>::max();
  EXPECT_TRUE(TapeDrive::RangeContains(5, 10, 5, 10));
  EXPECT_TRUE(TapeDrive::RangeContains(5, 10, 10, 5));
  EXPECT_FALSE(TapeDrive::RangeContains(5, 10, 4, 1));
  EXPECT_FALSE(TapeDrive::RangeContains(5, 10, 10, 6));
  // Regression: the old `start + count <= window_start + window_count`
  // comparison overflowed for huge starts/counts and reported containment.
  EXPECT_FALSE(TapeDrive::RangeContains(0, 10, kMax, 2));
  EXPECT_FALSE(TapeDrive::RangeContains(0, 10, 2, kMax));
  EXPECT_TRUE(TapeDrive::RangeContains(0, kMax, kMax - 1, 1));
}

TEST(TapeDriveWindowTest, UnloadInvalidatesSharedAndCacheWindows) {
  // The drive has one window, of either kind. The scheduler never declares
  // both at once: a multicast window is set only after the leader's session
  // (and with it any extent-cache window) has closed, and followers never
  // arm the cache. So each kind is pinned alone: it serves and counts as its
  // kind, and it dies with the mount.
  for (bool multicast : {true, false}) {
    SCOPED_TRACE(multicast ? "multicast window" : "extent-cache window");
    sim::Simulation sim;
    tape::TapeDrive drive("t", tape::TapeDriveModel::DLT4000(), sim.CreateResource("t"));
    tape::TapeVolume volume("vol", kDefaultBlockBytes);

    auto loaded = drive.Load(&volume, 0.0);
    ASSERT_TRUE(loaded.ok()) << loaded.status();
    auto appended = drive.AppendPhantom(100, 0.25, loaded->end);
    ASSERT_TRUE(appended.ok()) << appended.status();

    int cache_reads = 0;
    if (multicast) {
      drive.SetWindow(0, 100);
    } else {
      drive.SetWindow(0, 100, [&](BlockIndex, BlockCount, SimSeconds ready) {
        ++cache_reads;
        return Result<sim::Interval>(sim::Interval{ready, ready});
      });
    }
    EXPECT_TRUE(drive.window_active());
    auto served = drive.Read(0, 10, appended->end);
    ASSERT_TRUE(served.ok()) << served.status();
    EXPECT_EQ(drive.stats().blocks_shared, multicast ? 10u : 0u);
    EXPECT_EQ(drive.stats().blocks_cached, multicast ? 0u : 10u);
    EXPECT_EQ(drive.stats().blocks_read, 0u);
    EXPECT_EQ(cache_reads, multicast ? 0 : 1);

    // Regression: Unload left the window pointing at the ejected volume; a
    // re-load of the same volume then served "free" multicast reads for a
    // pass nobody was running. The window must die with the mount.
    auto unloaded = drive.Unload(served->end);
    ASSERT_TRUE(unloaded.ok()) << unloaded.status();
    EXPECT_FALSE(drive.window_active());
    auto reloaded = drive.Load(&volume, unloaded->end);
    ASSERT_TRUE(reloaded.ok()) << reloaded.status();
    EXPECT_FALSE(drive.window_active());
    auto physical = drive.Read(0, 10, reloaded->end);
    ASSERT_TRUE(physical.ok()) << physical.status();
    EXPECT_EQ(drive.stats().blocks_read, 10u);
    EXPECT_EQ(drive.stats().blocks_shared, multicast ? 10u : 0u);  // unchanged
    EXPECT_EQ(drive.stats().blocks_cached, multicast ? 0u : 10u);  // unchanged
    EXPECT_EQ(cache_reads, multicast ? 0 : 1);
  }
}

// --- Extent-cache service behavior -----------------------------------------

TEST(ExtentCacheServiceTest, CacheBlocksZeroMatchesAnUnconfiguredSiteBitForBit) {
  auto run = [](bool explicit_zero) {
    SiteConfig config;
    config.with_library = true;
    if (explicit_zero) config.cache_blocks = 0;
    auto site = std::make_unique<Site>(config);
    EXPECT_EQ(site->extent_cache(), nullptr);
    EXPECT_EQ(site->session_disk_blocks(), site->disk_blocks());
    auto workload = PrepareServiceWorkload(site.get(), SmallServiceWorkload(/*phantom=*/true));
    TERTIO_CHECK(workload.ok(), "workload setup failed");
    QueryScheduler scheduler(site.get(), ServicePolicy::kSharedScan);
    for (int j = 0; j < 3; ++j) {
      auto id = scheduler.Submit(RequestFor(site.get(), *workload, j, 0, 0.0));
      TERTIO_CHECK(id.ok(), "submit failed");
    }
    Status ran = scheduler.Run();
    TERTIO_CHECK(ran.ok(), "run failed");
    return scheduler.outcomes();
  };
  auto base = run(/*explicit_zero=*/false);
  auto zero = run(/*explicit_zero=*/true);
  ASSERT_EQ(base.size(), zero.size());
  for (std::size_t i = 0; i < base.size(); ++i) {
    EXPECT_EQ(base[i].completion, zero[i].completion) << i;  // exact
    ExpectBitIdentical(base[i].stats, zero[i].stats, "cache_blocks=0");
    EXPECT_EQ(zero[i].stats.tape_blocks_cached, 0u);
  }
}

// Three FIFO joins of the small workload's R relations with its one S on a
// site with `cache_blocks` of extent cache. The first arrives at t = 0. With
// `back_to_back`, the other two arrive at t = 0 as well, so each dispatches
// at its predecessor's completion, while that query's cache fill may still
// be writing. Otherwise they arrive once the first Run() has drained, at the
// site horizon, when the fill is on disk.
struct ThreeJoinRun {
  std::vector<QueryOutcome> outcomes;
  ServiceStats stats;
};

ThreeJoinRun RunThreeCachedJoins(BlockCount cache_blocks, bool phantom, bool back_to_back) {
  SiteConfig config;
  config.with_library = true;
  config.cache_blocks = cache_blocks;
  auto site = std::make_unique<Site>(config);
  site->EnableAudit();
  auto workload = PrepareServiceWorkload(site.get(), SmallServiceWorkload(phantom));
  TERTIO_CHECK(workload.ok(), "workload setup failed");
  QueryScheduler scheduler(site.get(), ServicePolicy::kFifo);
  for (int j = 0; j < 3; ++j) {
    if (j == 1 && !back_to_back) {
      TERTIO_CHECK(scheduler.Run().ok(), "run failed");
    }
    SimSeconds arrival = j == 0 || back_to_back ? SimSeconds(0.0) : site->sim().Horizon();
    auto id = scheduler.Submit(RequestFor(site.get(), *workload, j, 0, arrival));
    TERTIO_CHECK(id.ok(), "submit failed");
  }
  Status ran = scheduler.Run();
  TERTIO_CHECK(ran.ok(), "run failed");
  TERTIO_CHECK(site->auditor()->clean(), "cache run must stay SimSan-clean");
  ThreeJoinRun result{scheduler.outcomes(), scheduler.service_stats()};
  TERTIO_CHECK(result.stats.completed == 3, "all queries must complete");
  return result;
}

TEST(ExtentCacheServiceTest, WarmCacheServesRepeatSScansFromDisk) {
  // 150 MB of cache comfortably holds the 100 MB S relation.
  SiteConfig defaults;
  ServiceStats cold = RunThreeCachedJoins(0, /*phantom=*/true, /*back_to_back=*/false).stats;
  ServiceStats warm = RunThreeCachedJoins(BytesToBlocks(150 * kMB, defaults.block_bytes),
                                          /*phantom=*/true, /*back_to_back=*/false)
                          .stats;

  EXPECT_EQ(cold.cache_hits, 0u);
  EXPECT_EQ(cold.tape_blocks_cached, 0u);

  // Query 1 misses and fills; queries 2 and 3 read S from disk.
  EXPECT_EQ(warm.cache_misses, 1u);
  EXPECT_EQ(warm.cache_fills, 1u);
  EXPECT_EQ(warm.cache_hits, 2u);
  EXPECT_EQ(warm.cache_evictions, 0u);
  EXPECT_EQ(warm.cached_queries, 2u);
  EXPECT_GT(warm.tape_blocks_cached, 0u);
  EXPECT_EQ(warm.tape_blocks_read + warm.tape_blocks_cached, cold.tape_blocks_read);
  // Two of three S passes moved off tape: at least a 2x drop in tape reads.
  EXPECT_LT(2 * warm.tape_blocks_read, cold.tape_blocks_read);
  EXPECT_LT(warm.makespan, cold.makespan);
}

TEST(ExtentCacheServiceTest, BackToBackQueryMissesAFillStillBeingWritten) {
  // A query dispatches at its predecessor's completion, which is when that
  // query's S starts filling the cache. The entry serves lookups only once
  // the fill write is done, so query 2 misses and reads tape; by query 3's
  // dispatch the fill is on disk.
  SiteConfig defaults;
  ServiceStats cold = RunThreeCachedJoins(0, /*phantom=*/true, /*back_to_back=*/true).stats;
  ServiceStats warm = RunThreeCachedJoins(BytesToBlocks(150 * kMB, defaults.block_bytes),
                                          /*phantom=*/true, /*back_to_back=*/true)
                          .stats;
  EXPECT_EQ(warm.cache_misses, 2u);
  EXPECT_EQ(warm.cache_fills, 1u);
  EXPECT_EQ(warm.cache_hits, 1u);
  EXPECT_EQ(warm.cache_evictions, 0u);
  EXPECT_EQ(warm.cached_queries, 1u);
  EXPECT_EQ(warm.tape_blocks_read + warm.tape_blocks_cached, cold.tape_blocks_read);
}

TEST(ExtentCacheServiceTest, CachedReadsDeliverIdenticalJoinResults) {
  // Full-data mode: blocks served through the cache window must carry the
  // exact payloads a physical tape pass would deliver.
  SiteConfig defaults;
  ThreeJoinRun plain = RunThreeCachedJoins(0, /*phantom=*/false, /*back_to_back=*/false);
  ThreeJoinRun cached = RunThreeCachedJoins(BytesToBlocks(1 * kMB, defaults.block_bytes),
                                            /*phantom=*/false, /*back_to_back=*/false);
  // The cached run really exercised the cache path: two joins read S from it.
  EXPECT_EQ(cached.stats.cache_hits, 2u);
  EXPECT_EQ(cached.stats.cached_queries, 2u);
  EXPECT_GT(cached.stats.tape_blocks_cached, 0u);
  ASSERT_EQ(plain.outcomes.size(), cached.outcomes.size());
  for (std::size_t i = 0; i < plain.outcomes.size(); ++i) {
    const QueryOutcome& a = plain.outcomes[i];
    const QueryOutcome& b = cached.outcomes[i];
    ASSERT_TRUE(a.status.ok()) << a.status;
    ASSERT_TRUE(b.status.ok()) << b.status;
    ASSERT_TRUE(a.stats.output_valid);
    ASSERT_TRUE(b.stats.output_valid);
    EXPECT_EQ(a.stats.output_tuples, b.stats.output_tuples) << i;
    EXPECT_EQ(a.stats.output_checksum, b.stats.output_checksum) << i;
  }
}

// --- The read contract under faults, end to end ----------------------------

// Three FIFO joins of three small R relations with one full-data S, on a
// site with `cache_blocks` of extent cache and the fault plan `faults`.
std::vector<QueryOutcome> RunThreeJoinsOnOneS(JoinMethodId method, BlockCount cache_blocks,
                                              std::string_view faults) {
  SiteConfig config;
  config.with_library = true;
  config.cache_blocks = cache_blocks;
  if (!faults.empty()) {
    auto plan = sim::FaultPlan::Parse(faults);
    TERTIO_CHECK(plan.ok(), plan.status().ToString());
    config.faults = *plan;
  }
  auto site = std::make_unique<Site>(config);
  ServiceWorkloadConfig shape;
  shape.s_cartridges = 1;
  shape.s_bytes = 256 * kKB;
  shape.r_relations = 3;
  shape.r_bytes = 16 * kKB;
  shape.phantom = false;
  auto workload = PrepareServiceWorkload(site.get(), shape);
  TERTIO_CHECK(workload.ok(), "workload setup failed");
  QueryScheduler scheduler(site.get(), ServicePolicy::kFifo);
  for (int j = 0; j < 3; ++j) {
    JoinRequest request = RequestFor(site.get(), *workload, j, 0, 0.0);
    request.method = method;
    TERTIO_CHECK(scheduler.Submit(std::move(request)).ok(), "submit failed");
  }
  Status ran = scheduler.Run();
  TERTIO_CHECK(ran.ok(), "run failed");
  return scheduler.outcomes();
}

TEST(ServiceFaultTest, CachedQueriesJoinEachSBlockOnceUnderDiskFaults) {
  // A cache-window read whose disk copy fails is retried in place. It must
  // deliver nothing on the failed attempt, or the retried chunk is joined
  // twice and the query returns OK with doubled output. Each of these seeds
  // fails one cached S read of both methods.
  const BlockCount cache = BytesToBlocks(1 * kMB, SiteConfig{}.block_bytes);
  std::uint64_t cached_checked = 0;
  for (JoinMethodId method : {JoinMethodId::kDtNb, JoinMethodId::kCdtNbMb}) {
    const std::vector<QueryOutcome> want = RunThreeJoinsOnOneS(method, 0, "");
    ASSERT_EQ(want.size(), 3u);
    for (int seed : {3, 12, 20}) {
      SCOPED_TRACE(std::string(JoinMethodName(method)) + " seed " + std::to_string(seed));
      const std::string plan =
          "seed=" + std::to_string(seed) + ",disk-transient=3e-3,retries=0";
      for (const QueryOutcome& out : RunThreeJoinsOnOneS(method, cache, plan)) {
        if (!out.status.ok() || !out.cached) continue;
        ++cached_checked;
        const QueryOutcome& reference = want[out.id - 1];
        ASSERT_EQ(reference.id, out.id);
        EXPECT_EQ(out.stats.output_tuples, reference.stats.output_tuples) << out.id;
        EXPECT_EQ(out.stats.output_checksum, reference.stats.output_checksum) << out.id;
      }
    }
  }
  EXPECT_GT(cached_checked, 0u);
}

}  // namespace
}  // namespace tertio::exec
