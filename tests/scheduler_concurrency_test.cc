// Concurrent-dispatch and elevator-policy tests for the query scheduler.
//
// The event-driven Run() loop keeps several QuerySessions in flight in
// simulated time whenever the site's free drives / memory / session disk can
// cover another admitted request. These tests pin down the concurrency
// contract: disjoint queries genuinely overlap in virtual time and cut
// makespan; outcomes are a pure function of the submitted request set —
// independent of the order Submit() was called in, including submissions
// interleaved from on_complete callbacks, under an active fault plan; the
// elevator policy sweeps the library by slot with an aging valve against
// starvation; and cartridge-affinity drive routing keeps hot cartridges
// mounted so the robot makes fewer exchange trips.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "exec/query_scheduler.h"
#include "exec/query_session.h"
#include "exec/service_workload.h"
#include "exec/site.h"
#include "sim/auditor.h"
#include "sim/fault.h"
#include "sim/simulation.h"

namespace tertio::exec {
namespace {

// A site wide enough for two 2-drive sessions side by side.
SiteConfig WideSite() {
  SiteConfig config;
  config.with_library = true;
  config.drive_count = 4;
  config.memory_bytes = 32 * kMB;
  config.disk_space_bytes = 1000 * kMB;
  return config;
}

// Two S cartridges and R relations spread over two cartridges, so a pair of
// queries can touch fully disjoint media.
ServiceWorkloadConfig DisjointWorkload(int r_relations, int r_cartridges, int s_cartridges) {
  ServiceWorkloadConfig config;
  config.s_cartridges = s_cartridges;
  config.s_bytes = 100 * kMB;
  config.r_relations = r_relations;
  config.r_cartridges = r_cartridges;
  config.r_bytes = 5 * kMB;
  config.phantom = true;
  return config;
}

// A request sized to half the site, so two fit at once.
JoinRequest HalfSiteRequest(Site* site, const ServiceWorkload& workload, int r_index,
                            int s_index, SimSeconds arrival) {
  JoinRequest request;
  request.arrival = arrival;
  request.spec.r = &workload.r[static_cast<size_t>(r_index)];
  request.spec.s = &workload.s[static_cast<size_t>(s_index)];
  request.method = JoinMethodId::kCdtGh;
  request.memory_blocks = site->memory_blocks() / 2;
  request.disk_blocks = site->session_disk_blocks() / 2;
  return request;
}

TEST(SchedulerConcurrencyTest, DisjointQueriesOverlapInVirtualTimeAndCutMakespan) {
  struct RunResult {
    std::vector<QueryOutcome> outcomes;
    ServiceStats stats;
  };
  auto run = [](int max_in_flight, bool audited) {
    auto site = std::make_unique<Site>(WideSite());
    if (audited) site->EnableAudit();
    auto workload = PrepareServiceWorkload(site.get(), DisjointWorkload(2, 2, 2));
    TERTIO_CHECK(workload.ok(), "workload setup failed");
    SchedulerOptions options;
    options.max_in_flight = max_in_flight;
    QueryScheduler scheduler(site.get(), ServicePolicy::kFifo, options);
    auto q1 = scheduler.Submit(HalfSiteRequest(site.get(), *workload, 0, 0, 0.0));
    auto q2 = scheduler.Submit(HalfSiteRequest(site.get(), *workload, 1, 1, 0.0));
    TERTIO_CHECK(q1.ok() && q2.ok(), "submit failed");
    Status ran = scheduler.Run();
    TERTIO_CHECK(ran.ok(), "run failed");
    if (audited) {
      Status clean = site->auditor()->Check();
      TERTIO_CHECK(clean.ok(), "overlapping sessions must stay SimSan-clean");
      TERTIO_CHECK(site->auditor()->checks_performed() > 0, "auditor must be live");
    }
    RunResult result;
    result.outcomes = scheduler.outcomes();
    result.stats = scheduler.service_stats();
    return result;
  };

  RunResult serial = run(1, /*audited=*/false);
  RunResult concurrent = run(2, /*audited=*/true);

  ASSERT_EQ(serial.outcomes.size(), 2u);
  ASSERT_EQ(concurrent.outcomes.size(), 2u);
  for (const QueryOutcome& out : concurrent.outcomes) {
    EXPECT_TRUE(out.status.ok()) << out.status;
    EXPECT_GE(out.start, out.arrival);
  }
  EXPECT_EQ(serial.stats.peak_in_flight, 1u);
  EXPECT_EQ(concurrent.stats.peak_in_flight, 2u);

  // Outcomes retire in virtual-completion order; with both queries
  // dispatched at t=0 on disjoint drives their executions overlap: the
  // second starts long before the first completes.
  EXPECT_LT(concurrent.outcomes[1].start, concurrent.outcomes[0].completion);
  // Serially the second query cannot start until the first completed.
  EXPECT_GE(serial.outcomes[1].start, serial.outcomes[0].completion);

  // The overlap is the whole point: the queue drains materially sooner.
  EXPECT_LT(concurrent.stats.makespan, serial.stats.makespan);
  EXPECT_EQ(concurrent.stats.completed, 2u);
}

TEST(SchedulerConcurrencyTest, FailedExecutionLeavesTheDrivePoolIntact) {
  auto site = std::make_unique<Site>(WideSite());
  auto workload = PrepareServiceWorkload(site.get(), DisjointWorkload(2, 2, 2));
  ASSERT_TRUE(workload.ok()) << workload.status();
  SchedulerOptions options;
  options.max_in_flight = 2;
  QueryScheduler scheduler(site.get(), ServicePolicy::kFifo, options);

  // Passes admission (the demand fits an idle site) but fails in execution:
  // the disk carve is far below what CDT-GH needs.
  JoinRequest broken = HalfSiteRequest(site.get(), *workload, 0, 0, 0.0);
  broken.disk_blocks = 2;
  ASSERT_TRUE(scheduler.Submit(broken).ok());
  ASSERT_TRUE(scheduler.Submit(HalfSiteRequest(site.get(), *workload, 1, 1, 0.0)).ok());
  ASSERT_TRUE(scheduler.Run().ok());

  ServiceStats stats = scheduler.service_stats();
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.failed, 1u);
  // Regression: a failed query's session must release its drives through
  // the lease guard — nothing may stay leased once the queue drains.
  EXPECT_EQ(site->free_drives(), site->drive_count());
  EXPECT_EQ(site->memory().reserved_blocks(), 0u);
}

TEST(SchedulerConcurrencyTest, SharedScanGroupRunsAloneAtTwoInFlight) {
  // Query 1 leads S0, queries 3 and 4 are its followers, and query 2 on S1
  // fits beside any of them on this 4-drive site. Under FIFO, 1 and 2
  // overlap. Under kSharedScan the group is one unit of the loop: the leader
  // starts on an idle site, each follower rides its pass after the previous
  // query retires, and query 2 waits until the last follower has retired.
  auto run = [](ServicePolicy policy) {
    auto site = std::make_unique<Site>(WideSite());
    site->EnableAudit();
    auto workload = PrepareServiceWorkload(site.get(), DisjointWorkload(4, 2, 2));
    TERTIO_CHECK(workload.ok(), "workload setup failed");
    SchedulerOptions options;
    options.max_in_flight = 2;
    QueryScheduler scheduler(site.get(), policy, options);
    for (int s_index : {0, 1, 0, 0}) {
      int r_index = static_cast<int>(scheduler.pending());
      auto id = scheduler.Submit(HalfSiteRequest(site.get(), *workload, r_index, s_index, 0.0));
      TERTIO_CHECK(id.ok(), "submit failed");
    }
    Status ran = scheduler.Run();
    TERTIO_CHECK(ran.ok(), "run failed");
    TERTIO_CHECK(site->auditor()->Check().ok(), "the run must stay SimSan-clean");
    // Every lease comes back, and no drive keeps a window.
    TERTIO_CHECK(site->free_drives() == site->drive_count(), "a drive lease leaked");
    TERTIO_CHECK(site->memory().reserved_blocks() == 0u, "a memory lease leaked");
    TERTIO_CHECK(site->disks().allocator().free_blocks() == site->session_disk_blocks(),
                 "a disk carve leaked");
    for (int i = 0; i < site->drive_count(); ++i) {
      TERTIO_CHECK(!site->drive(i)->window_active(), "a window outlived its group");
    }
    std::vector<QueryOutcome> by_id(scheduler.outcomes().size() + 1);
    for (const QueryOutcome& out : scheduler.outcomes()) {
      TERTIO_CHECK(out.status.ok(), "every query must complete");
      by_id[out.id] = out;
    }
    return std::make_pair(by_id, scheduler.service_stats());
  };

  auto [fifo, fifo_stats] = run(ServicePolicy::kFifo);
  EXPECT_LT(fifo[2].start, fifo[1].completion);
  EXPECT_EQ(fifo_stats.peak_in_flight, 2u);

  auto [shared, stats] = run(ServicePolicy::kSharedScan);
  EXPECT_FALSE(shared[1].scan_shared);
  EXPECT_EQ(shared[1].stats.tape_blocks_shared, 0u);
  for (std::uint64_t follower : {3u, 4u}) {
    EXPECT_TRUE(shared[follower].scan_shared) << follower;
    EXPECT_GT(shared[follower].stats.tape_blocks_shared, 0u) << follower;
  }
  EXPECT_EQ(stats.scan_shared_queries, 2u);
  // One at a time: leader, follower 3, follower 4, then query 2.
  EXPECT_GE(shared[3].start, shared[1].completion);
  EXPECT_GE(shared[4].start, shared[3].completion);
  EXPECT_GE(shared[2].start, shared[4].completion);
  EXPECT_EQ(stats.peak_in_flight, 1u);
}

// One comparable signature per outcome: everything a client can observe.
using OutcomeKey = std::tuple<std::uint64_t, bool, SimSeconds, SimSeconds, bool, bool>;

OutcomeKey KeyOf(const QueryOutcome& out) {
  return {out.id, out.status.ok(), out.start, out.completion, out.scan_shared, out.cached};
}

// Runs one six-query service (four upfront, two submitted from the first
// completion's on_complete callback) and returns the outcome signatures.
// `flip` permutes every Submit() interleaving the client controls — the
// upfront order and the order inside the callback — without changing the
// request set: ids, arrivals and specs are identical across flips.
std::vector<OutcomeKey> RunPermuted(ServicePolicy policy, int max_in_flight, bool flip) {
  SiteConfig site_config = WideSite();
  // An active fault plan: every mount and read consults the seeded
  // injectors, so any dispatch-order dependence would desynchronize the
  // draw sequence and show up as a completion-time diff.
  site_config.faults.seed = 7;
  site_config.faults.tape.transient_read_error_rate = 1e-5;
  site_config.faults.robot.exchange_failure_rate = 0.05;
  auto site = std::make_unique<Site>(site_config);
  auto workload = PrepareServiceWorkload(site.get(), DisjointWorkload(4, 2, 2));
  TERTIO_CHECK(workload.ok(), "workload setup failed");

  SchedulerOptions options;
  options.max_in_flight = max_in_flight;
  QueryScheduler scheduler(site.get(), policy, options);

  auto request = [&](std::uint64_t id, int r_index, int s_index, SimSeconds arrival) {
    JoinRequest r = HalfSiteRequest(site.get(), *workload, r_index, s_index, arrival);
    r.id = id;
    return r;
  };
  std::vector<JoinRequest> upfront;
  upfront.push_back(request(1, 0, 0, 0.0));
  upfront.push_back(request(2, 1, 1, 0.0));
  upfront.push_back(request(3, 2, 0, 30.0));
  upfront.push_back(request(4, 3, 1, 60.0));
  if (flip) std::reverse(upfront.begin(), upfront.end());
  for (JoinRequest& r : upfront) {
    auto id = scheduler.Submit(std::move(r));
    TERTIO_CHECK(id.ok(), "submit failed");
  }

  bool fired = false;
  scheduler.set_on_complete([&](const QueryOutcome& out) {
    if (fired) return;
    fired = true;
    // Two closed-loop arrivals at the first completion, submitted in
    // opposite orders across the flip.
    JoinRequest a = request(5, 0, 1, out.completion);
    JoinRequest b = request(6, 1, 0, out.completion);
    if (flip) std::swap(a, b);
    auto first = scheduler.Submit(std::move(a));
    auto second = scheduler.Submit(std::move(b));
    TERTIO_CHECK(first.ok() && second.ok(), "closed-loop submit failed");
  });

  Status ran = scheduler.Run();
  TERTIO_CHECK(ran.ok(), "run failed");
  std::vector<OutcomeKey> keys;
  for (const QueryOutcome& out : scheduler.outcomes()) keys.push_back(KeyOf(out));
  TERTIO_CHECK(keys.size() == 6, "every query must produce an outcome");
  return keys;
}

TEST(SchedulerConcurrencyTest, OutcomesAreIndependentOfSubmitInterleaving) {
  for (ServicePolicy policy :
       {ServicePolicy::kFifo, ServicePolicy::kSharedScan, ServicePolicy::kElevator}) {
    for (int cap : {1, 2}) {
      SCOPED_TRACE("policy " + std::to_string(static_cast<int>(policy)) + " cap " +
                   std::to_string(cap));
      std::vector<OutcomeKey> forward = RunPermuted(policy, cap, /*flip=*/false);
      std::vector<OutcomeKey> flipped = RunPermuted(policy, cap, /*flip=*/true);
      // Identical request sets must yield bit-identical outcome sequences —
      // same retirement order, same starts and completions to the last ulp —
      // no matter how the client interleaved its Submit() calls.
      EXPECT_EQ(forward, flipped);
    }
  }
}

TEST(SchedulerConcurrencyTest, FailedQueriesAreStampedAtTheirDispatch) {
  // Mount faults (a failed exchange trip with no retries left) and join
  // failures both land in outcomes; query 8's disk carve is far below what
  // CDT-GH needs, so its join fails after its mounts. Whatever failed, an
  // outcome reads arrival <= start <= completion, and a failed query is
  // stamped start = completion = its dispatch, in the serial and the event
  // loop.
  std::uint64_t failed = 0;
  for (ServicePolicy policy : {ServicePolicy::kFifo, ServicePolicy::kElevator}) {
    for (int cap : {1, 2}) {
      SCOPED_TRACE("policy " + std::to_string(static_cast<int>(policy)) + " cap " +
                   std::to_string(cap));
      SiteConfig site_config = WideSite();
      auto plan = sim::FaultPlan::Parse(
          "seed=5,tape-transient=2e-4,disk-transient=2e-4,exchange=0.05,retries=0");
      ASSERT_TRUE(plan.ok()) << plan.status();
      site_config.faults = *plan;
      auto site = std::make_unique<Site>(site_config);
      auto workload = PrepareServiceWorkload(site.get(), DisjointWorkload(6, 2, 3));
      ASSERT_TRUE(workload.ok()) << workload.status();
      SchedulerOptions options;
      options.max_in_flight = cap;
      QueryScheduler scheduler(site.get(), policy, options);
      for (int q = 0; q < 18; ++q) {
        JoinRequest request = HalfSiteRequest(site.get(), *workload, q % 6, q % 3, 40.0 * q);
        if (q == 7) request.disk_blocks = 2;
        ASSERT_TRUE(scheduler.Submit(std::move(request)).ok());
      }
      ASSERT_TRUE(scheduler.Run().ok());
      ASSERT_EQ(scheduler.outcomes().size(), 18u);
      for (const QueryOutcome& out : scheduler.outcomes()) {
        SCOPED_TRACE("query " + std::to_string(out.id) + ": " + out.status.ToString());
        EXPECT_LE(out.arrival, out.start);
        EXPECT_LE(out.start, out.completion);
        if (!out.status.ok()) {
          ++failed;
          EXPECT_EQ(out.start, out.completion);
        }
      }
    }
  }
  EXPECT_GT(failed, 0u);  // the plan really failed queries
}

TEST(SchedulerElevatorTest, SweepOrdersDispatchBySlotAndAgingPromotesTheOldest) {
  // Slot layout: the shared R cartridge sits in slot 0, then S0..S2 in
  // slots 1..3. Arrivals are staggered so only the S2 query has arrived
  // when the service starts.
  auto run = [](SimSeconds aging) {
    SiteConfig config;
    config.with_library = true;
    auto site = std::make_unique<Site>(config);
    auto workload = PrepareServiceWorkload(site.get(), DisjointWorkload(3, 1, 3));
    TERTIO_CHECK(workload.ok(), "workload setup failed");
    SchedulerOptions options;
    options.elevator_aging_seconds = aging;
    QueryScheduler scheduler(site.get(), ServicePolicy::kElevator, options);
    auto full = [&](std::uint64_t id, int r_index, int s_index, SimSeconds arrival) {
      JoinRequest r;
      r.id = id;
      r.arrival = arrival;
      r.spec.r = &workload->r[static_cast<size_t>(r_index)];
      r.spec.s = &workload->s[static_cast<size_t>(s_index)];
      r.method = JoinMethodId::kCdtGh;
      r.memory_blocks = site->memory_blocks();
      r.disk_blocks = site->session_disk_blocks();
      auto submitted = scheduler.Submit(std::move(r));
      TERTIO_CHECK(submitted.ok(), "submit failed");
    };
    full(1, 0, 2, 0.0);
    full(2, 1, 0, 1.0);
    full(3, 2, 1, 2.0);
    Status ran = scheduler.Run();
    TERTIO_CHECK(ran.ok(), "run failed");
    std::vector<std::uint64_t> order;
    for (const QueryOutcome& out : scheduler.outcomes()) {
      TERTIO_CHECK(out.status.ok(), "every query must complete");
      order.push_back(out.id);
    }
    return order;
  };

  // A generous aging bound lets the sweep rule: after the S2 query the arm
  // sits at slot 3, reverses, and serves S1 (slot 2) before S0 (slot 1) —
  // even though the S0 query arrived first.
  std::vector<std::uint64_t> sweep = run(/*aging=*/1e9);
  EXPECT_EQ(sweep, (std::vector<std::uint64_t>{1, 3, 2}));

  // A zero aging bound force-promotes the oldest bypassed query every time:
  // the elevator degenerates to arrival order, its starvation valve.
  std::vector<std::uint64_t> aged = run(/*aging=*/0.0);
  EXPECT_EQ(aged, (std::vector<std::uint64_t>{1, 2, 3}));
}

TEST(SchedulerElevatorTest, AffinityKeepsCartridgesMountedAndCutsRobotExchanges) {
  // Four queries alternating between two S cartridges. FIFO ping-pongs the
  // S drive between them (an eject + inject pair per swap); the elevator
  // batches same-slot queries, and cartridge-affinity drive routing turns
  // the repeat mounts into no-ops.
  auto run = [](ServicePolicy policy) {
    SiteConfig config;
    config.with_library = true;
    // Positive per-slot travel so the arm's path length is costed too.
    config.library_model.travel_seconds_per_slot = 2.0;
    auto site = std::make_unique<Site>(config);
    auto workload = PrepareServiceWorkload(site.get(), DisjointWorkload(4, 1, 2));
    TERTIO_CHECK(workload.ok(), "workload setup failed");
    QueryScheduler scheduler(site.get(), policy);
    for (int j = 0; j < 4; ++j) {
      JoinRequest r;
      r.arrival = 0.0;
      r.spec.r = &workload->r[static_cast<size_t>(j)];
      r.spec.s = &workload->s[static_cast<size_t>(j % 2)];
      r.method = JoinMethodId::kCdtGh;
      r.memory_blocks = site->memory_blocks();
      r.disk_blocks = site->session_disk_blocks();
      auto submitted = scheduler.Submit(std::move(r));
      TERTIO_CHECK(submitted.ok(), "submit failed");
    }
    Status ran = scheduler.Run();
    TERTIO_CHECK(ran.ok(), "run failed");
    ServiceStats stats = scheduler.service_stats();
    TERTIO_CHECK(stats.completed == 4, "every query must complete");
    return stats;
  };

  ServiceStats fifo = run(ServicePolicy::kFifo);
  ServiceStats elevator = run(ServicePolicy::kElevator);

  // FIFO: initial R + S0 injects, then three S swaps of two trips each.
  EXPECT_EQ(fifo.robot_exchanges, 8u);
  // Elevator: initial R + S0 injects, one swap to S1; both repeats no-op.
  EXPECT_EQ(elevator.robot_exchanges, 4u);
  EXPECT_LT(elevator.robot_exchanges, fifo.robot_exchanges);
  // Fewer trips (and less arm travel) is real saved time.
  EXPECT_LT(elevator.makespan, fifo.makespan);
}

TEST(SchedulerElevatorTest, SweepMovesOnlyWhenItsPickDispatches) {
  // bench_query_service's elevator cell at two in flight: 4 closed-loop
  // clients x 3 joins over 4 R and 4 S cartridges, query q joining
  // (R_{q mod 8}, S_{q mod 4}). At two in flight many iterations pick a
  // candidate and then retire an earlier completion instead. Were the pick
  // to move the sweep anyway, the arm's position would run ahead of the
  // cartridges it served, and the cell would make FIFO's 44 robot trips.
  auto run = [](ServicePolicy policy) {
    SiteConfig config = WideSite();
    config.library_model.travel_seconds_per_slot = 1.0;
    auto site = std::make_unique<Site>(config);
    site->EnableAudit();
    ServiceWorkloadConfig shape = DisjointWorkload(8, 4, 4);
    shape.s_bytes = 400 * kMB;
    shape.r_bytes = 12 * kMB;
    auto workload = PrepareServiceWorkload(site.get(), shape);
    TERTIO_CHECK(workload.ok(), "workload setup failed");
    SchedulerOptions options;
    options.max_in_flight = 2;
    QueryScheduler scheduler(site.get(), policy, options);
    constexpr int kClients = 4;
    constexpr int kPerClient = 3;
    std::vector<int> client_of_id(kClients * kPerClient + 1, 0);
    std::vector<int> sequence(kClients, 0);
    auto submit = [&](int client, SimSeconds arrival) {
      int q = client + kClients * sequence[static_cast<size_t>(client)];
      auto id = scheduler.Submit(HalfSiteRequest(site.get(), *workload, q % 8, q % 4, arrival));
      TERTIO_CHECK(id.ok(), "submit failed");
      client_of_id[*id] = client;
    };
    scheduler.set_on_complete([&](const QueryOutcome& out) {
      int client = client_of_id[out.id];
      if (++sequence[static_cast<size_t>(client)] < kPerClient) submit(client, out.completion);
    });
    for (int client = 0; client < kClients; ++client) submit(client, 0.0);
    Status ran = scheduler.Run();
    TERTIO_CHECK(ran.ok(), "run failed");
    TERTIO_CHECK(site->auditor()->Check().ok(), "the run must stay SimSan-clean");
    TERTIO_CHECK(site->free_drives() == site->drive_count(), "every drive lease returns");
    ServiceStats stats = scheduler.service_stats();
    TERTIO_CHECK(stats.completed == kClients * kPerClient, "every query must complete");
    return stats;
  };

  ServiceStats fifo = run(ServicePolicy::kFifo);
  ServiceStats elevator = run(ServicePolicy::kElevator);
  EXPECT_EQ(fifo.robot_exchanges, 44u);
  EXPECT_EQ(elevator.robot_exchanges, 32u);
  EXPECT_EQ(elevator.peak_in_flight, 2u);
}

}  // namespace
}  // namespace tertio::exec
