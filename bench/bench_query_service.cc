// Multi-query join service: scan sharing vs FIFO under open- and
// closed-loop arrivals, plus the HSM extent cache under a Zipf-skewed
// closed loop.
//
// The paper's related work (Section 2) credits Postgres and Paradise with
// batching queries against the same tape to save passes. bench_query_service
// measures the service-level version of that idea: a stream of joins whose
// outer relations live on a few library cartridges, executed by
// exec::QueryScheduler either FIFO (every query pays its own S pass) or with
// scan sharing (queued joins on an already-swept cartridge ride the leader's
// pass). Reported per policy: p50/p99 response time, makespan, and physical
// vs multicast tape blocks.
//
// The Zipf sweep exercises the cross-query extent cache (disk/extent_cache.h):
// closed-loop clients draw their S cartridge from a Zipf(1) popularity
// distribution, and the sweep grows SiteConfig::cache_blocks from 0 (pure
// tape, the PR 6 baseline) to several multiples of one S relation. With a
// warm cache the hot cartridges' S passes become disk reads, so physical
// tape blocks and tail latency both drop.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <map>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "exec/query_scheduler.h"
#include "exec/service_workload.h"
#include "exec/site.h"

namespace tertio::bench {
namespace {

using exec::JoinRequest;
using exec::QueryOutcome;
using exec::QueryScheduler;
using exec::ServicePolicy;
using exec::ServiceStats;
using exec::ServiceWorkload;
using exec::ServiceWorkloadConfig;
using exec::Site;
using exec::SiteConfig;

constexpr int kOpenLoopQueries = 12;
constexpr double kOpenLoopInterarrival = 600.0;  // seconds of virtual time
constexpr int kClosedLoopClients = 3;
constexpr int kClosedLoopQueriesPerClient = 4;

SiteConfig ServiceSite() {
  SiteConfig config;
  config.disk_space_bytes = 500 * kMB;
  config.memory_bytes = 16 * kMB;
  config.with_library = true;
  return config;
}

ServiceWorkloadConfig ServiceLoad() {
  ServiceWorkloadConfig config;
  config.s_cartridges = 2;
  config.s_bytes = 1000 * kMB;
  config.r_relations = 6;
  config.r_bytes = 18 * kMB;
  config.phantom = true;
  return config;
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  auto rank = static_cast<std::size_t>(p * static_cast<double>(values.size() - 1) + 0.5);
  return values[std::min(rank, values.size() - 1)];
}

// One client of a request plan: it submits its first query at
// `first_arrival` and each later one the moment the previous one completes
// (think time zero). A query is the (R index, S index) pair it joins.
struct ClientPlan {
  SimSeconds first_arrival = 0.0;
  std::vector<std::pair<int, int>> queries;
};

// `clients` clients of `per_client` queries each; client c's k-th query has
// index q = c + clients * k and joins (R_{q mod r}, S_{q mod s}). Client c
// arrives at c * `interarrival`, so one-query clients form an open loop.
std::vector<ClientPlan> RoundRobinPlan(int clients, int per_client,
                                       const ServiceWorkloadConfig& load,
                                       double interarrival = 0.0) {
  std::vector<ClientPlan> plan(static_cast<std::size_t>(clients));
  for (int c = 0; c < clients; ++c) {
    ClientPlan& client = plan[static_cast<std::size_t>(c)];
    client.first_arrival = static_cast<double>(c) * interarrival;
    for (int k = 0; k < per_client; ++k) {
      int q = c + clients * k;
      client.queries.emplace_back(q % load.r_relations, q % load.s_cartridges);
    }
  }
  return plan;
}

struct LoopResult {
  ServiceStats stats;
  std::vector<double> responses;
  /// Queue waits (start - arrival): the scheduling delay component.
  std::vector<double> waits;
};

// Runs `plan` on a fresh site and workload. Every query is a CDT-GH join
// leasing a 1/max_in_flight share of the site's memory and session disk.
LoopResult RunService(const SiteConfig& site_config, const ServiceWorkloadConfig& load,
                      ServicePolicy policy, exec::SchedulerOptions options,
                      const std::vector<ClientPlan>& plan) {
  auto site = std::make_unique<Site>(site_config);
  auto workload = exec::PrepareServiceWorkload(site.get(), load);
  TERTIO_CHECK(workload.ok(), "service workload setup failed");
  QueryScheduler scheduler(site.get(), policy, options);
  std::map<std::uint64_t, int> client_of;
  std::vector<std::size_t> sequence(plan.size(), 0);
  auto submit = [&](int client, SimSeconds arrival) {
    auto [r_index, s_index] =
        plan[static_cast<std::size_t>(client)].queries[sequence[static_cast<std::size_t>(client)]];
    JoinRequest request;
    request.arrival = arrival;
    request.spec.r = &workload->r[static_cast<std::size_t>(r_index)];
    request.spec.s = &workload->s[static_cast<std::size_t>(s_index)];
    request.method = JoinMethodId::kCdtGh;
    request.memory_blocks = site->memory_blocks() / options.max_in_flight;
    request.disk_blocks = site->session_disk_blocks() / options.max_in_flight;
    auto id = scheduler.Submit(request);
    TERTIO_CHECK(id.ok(), "service submit rejected");
    client_of[*id] = client;
  };
  scheduler.set_on_complete([&](const QueryOutcome& out) {
    auto it = client_of.find(out.id);
    TERTIO_CHECK(it != client_of.end(), "outcome for unknown client");
    int client = it->second;
    std::size_t next = ++sequence[static_cast<std::size_t>(client)];
    if (next < plan[static_cast<std::size_t>(client)].queries.size()) {
      submit(client, out.completion);
    }
  });
  for (std::size_t client = 0; client < plan.size(); ++client) {
    submit(static_cast<int>(client), plan[client].first_arrival);
  }
  Status ran = scheduler.Run();
  TERTIO_CHECK(ran.ok(), "service run failed");
  LoopResult result;
  result.stats = scheduler.service_stats();
  for (const QueryOutcome& out : scheduler.outcomes()) {
    TERTIO_CHECK(out.status.ok(), "service query failed");
    result.responses.push_back(out.response_seconds().value());
    result.waits.push_back((out.start - out.arrival).value());
  }
  return result;
}

// --- Zipf-skewed closed loop over the extent cache --------------------------

constexpr int kZipfClients = 3;
constexpr int kZipfQueriesPerClient = 6;

ServiceWorkloadConfig ZipfLoad() {
  ServiceWorkloadConfig config;
  config.s_cartridges = 4;
  config.s_bytes = 80 * kMB;
  config.r_relations = 6;
  config.r_bytes = 10 * kMB;
  config.phantom = true;
  return config;
}

SiteConfig ZipfSite(BlockCount cache_blocks) {
  SiteConfig config = ServiceSite();
  // Room for a cache of up to 4 S relations plus the session carves.
  config.disk_space_bytes = 1000 * kMB;
  config.cache_blocks = cache_blocks;
  return config;
}

// Deterministic 64-bit generator (SplitMix64) so every sweep point replays
// the identical query stream.
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) : state_(seed) {}
  std::uint64_t Next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  double NextUnit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

 private:
  std::uint64_t state_;
};

// Zipf(1) over `n` cartridges: cartridge k drawn with weight 1/(k+1)
// (~48/24/16/12% for n = 4).
int ZipfPick(SplitMix64* rng, int n) {
  double total = 0.0;
  for (int k = 1; k <= n; ++k) total += 1.0 / k;
  double u = rng->NextUnit() * total;
  double acc = 0.0;
  for (int k = 0; k < n; ++k) {
    acc += 1.0 / (k + 1);
    if (u < acc) return k;
  }
  return n - 1;
}

// Pre-drawn (r_index, s_index) streams, one per client, identical across
// every cache size in the sweep.
std::vector<ClientPlan> PlanZipfQueries(const ServiceWorkloadConfig& load) {
  std::vector<ClientPlan> plan(kZipfClients);
  for (int client = 0; client < kZipfClients; ++client) {
    SplitMix64 rng(0x5eedULL + static_cast<std::uint64_t>(client));
    for (int q = 0; q < kZipfQueriesPerClient; ++q) {
      int r_index = static_cast<int>(rng.Next() % static_cast<std::uint64_t>(load.r_relations));
      plan[static_cast<size_t>(client)].queries.emplace_back(r_index,
                                                             ZipfPick(&rng, load.s_cartridges));
    }
  }
  return plan;
}

void ReportZipf(BenchRecorder* recorder, ByteCount cache_bytes, const LoopResult& result) {
  double p50 = Percentile(result.responses, 0.50);
  double p99 = Percentile(result.responses, 0.99);
  std::printf("zipf cache %4llu MB   p50 %9.1f s   p99 %9.1f s   makespan %9.1f s   "
              "tape read %8llu blk   cached %8llu blk   hits %llu/%llu\n",
              static_cast<unsigned long long>(cache_bytes / kMB), p50, p99,
              result.stats.makespan.value(),
              static_cast<unsigned long long>(result.stats.tape_blocks_read.value()),
              static_cast<unsigned long long>(result.stats.tape_blocks_cached.value()),
              static_cast<unsigned long long>(result.stats.cache_hits),
              static_cast<unsigned long long>(result.stats.cache_hits +
                                              result.stats.cache_misses));
  std::string prefix =
      "zipf_cache_mb_" + std::to_string(cache_bytes / kMB) + "_";
  recorder->RecordMetric(prefix + "p50_seconds", p50);
  recorder->RecordMetric(prefix + "p99_seconds", p99);
  recorder->RecordMetric(prefix + "makespan_seconds", result.stats.makespan.value());
  recorder->RecordMetric(prefix + "tape_blocks_read",
                         static_cast<double>(result.stats.tape_blocks_read.value()));
  recorder->RecordMetric(prefix + "tape_blocks_cached",
                         static_cast<double>(result.stats.tape_blocks_cached.value()));
  recorder->RecordMetric(prefix + "cache_hits",
                         static_cast<double>(result.stats.cache_hits));
  recorder->RecordMetric(prefix + "cache_evictions",
                         static_cast<double>(result.stats.cache_evictions));
}

// --- Concurrent in-flight sweep: policy x max_in_flight ---------------------
//
// The tentpole measurement: a closed loop of joins scattered over several R
// and S cartridges, executed at max_in_flight 1 / 2 / 4 under each policy.
// The site scales with the cap (2 drives and a 1/cap share of memory and
// disk per session) so the sweep isolates what the dispatch loop and the
// robot-scheduling policy add, not raw hardware growth. The library charges
// per-slot arm travel, so the elevator's shorter sweeps are real seconds.

constexpr int kSweepClients = 4;
constexpr int kSweepQueriesPerClient = 3;

SiteConfig SweepSite(int max_in_flight) {
  SiteConfig config;
  config.with_library = true;
  config.drive_count = 2 * max_in_flight;
  config.memory_bytes = 32 * kMB;
  config.disk_space_bytes = 1000 * kMB;
  config.library_model.travel_seconds_per_slot = 1.0;
  return config;
}

ServiceWorkloadConfig SweepLoad() {
  ServiceWorkloadConfig config;
  config.s_cartridges = 4;
  config.s_bytes = 400 * kMB;
  config.r_relations = 8;
  config.r_cartridges = 4;
  config.r_bytes = 12 * kMB;
  config.phantom = true;
  return config;
}

void ReportSweep(BenchRecorder* recorder, const char* policy, int max_in_flight,
                 const LoopResult& result) {
  double p50 = Percentile(result.responses, 0.50);
  double p99 = Percentile(result.responses, 0.99);
  double wait_p50 = Percentile(result.waits, 0.50);
  double wait_p99 = Percentile(result.waits, 0.99);
  std::printf("svc %-9s c%d   makespan %9.1f s   p50 %9.1f s   p99 %9.1f s   "
              "wait p50 %8.1f s   wait p99 %8.1f s   robot %4llu   peak %llu\n",
              policy, max_in_flight, result.stats.makespan.value(), p50, p99, wait_p50, wait_p99,
              static_cast<unsigned long long>(result.stats.robot_exchanges),
              static_cast<unsigned long long>(result.stats.peak_in_flight));
  std::string prefix =
      std::string("svc_") + policy + "_c" + std::to_string(max_in_flight) + "_";
  recorder->RecordMetric(prefix + "makespan_seconds", result.stats.makespan.value());
  recorder->RecordMetric(prefix + "p50_seconds", p50);
  recorder->RecordMetric(prefix + "p99_seconds", p99);
  recorder->RecordMetric(prefix + "wait_p50_seconds", wait_p50);
  recorder->RecordMetric(prefix + "wait_p99_seconds", wait_p99);
  recorder->RecordMetric(prefix + "robot_exchanges",
                         static_cast<double>(result.stats.robot_exchanges));
  recorder->RecordMetric(prefix + "peak_in_flight",
                         static_cast<double>(result.stats.peak_in_flight));
  recorder->RecordMetric(prefix + "tape_blocks_read",
                         static_cast<double>(result.stats.tape_blocks_read.value()));
}

void Report(BenchRecorder* recorder, const char* loop, const char* policy,
            const LoopResult& result) {
  double p50 = Percentile(result.responses, 0.50);
  double p99 = Percentile(result.responses, 0.99);
  std::printf("%-11s %-11s p50 %9.1f s   p99 %9.1f s   makespan %9.1f s   "
              "tape read %8llu blk   shared %8llu blk   shared-queries %llu\n",
              loop, policy, p50, p99, result.stats.makespan.value(),
              static_cast<unsigned long long>(result.stats.tape_blocks_read.value()),
              static_cast<unsigned long long>(result.stats.tape_blocks_shared.value()),
              static_cast<unsigned long long>(result.stats.scan_shared_queries));
  std::string prefix = std::string(loop) + "_" + policy + "_";
  recorder->RecordMetric(prefix + "p50_seconds", p50);
  recorder->RecordMetric(prefix + "p99_seconds", p99);
  recorder->RecordMetric(prefix + "wait_p50_seconds", Percentile(result.waits, 0.50));
  recorder->RecordMetric(prefix + "wait_p99_seconds", Percentile(result.waits, 0.99));
  recorder->RecordMetric(prefix + "robot_exchanges",
                         static_cast<double>(result.stats.robot_exchanges));
  recorder->RecordMetric(prefix + "makespan_seconds", result.stats.makespan.value());
  recorder->RecordMetric(prefix + "tape_blocks_read",
                         static_cast<double>(result.stats.tape_blocks_read.value()));
  recorder->RecordMetric(prefix + "tape_blocks_shared",
                         static_cast<double>(result.stats.tape_blocks_shared.value()));
  recorder->RecordMetric(prefix + "scan_shared_queries",
                         static_cast<double>(result.stats.scan_shared_queries));
  recorder->RecordSim(prefix + "makespan", result.stats.makespan);
}

int Main(int argc, char** argv) {
  BenchRecorder recorder("bench_query_service", argc, argv);
  Banner("Query service: scan sharing vs FIFO",
         "Section 2 (Postgres/Paradise batching), service-level counterpart",
         "shared scan cuts total tape passes; p99 and makespan drop under load");

  // Open loop: a fixed arrival schedule, every query submitted up front.
  // Closed loop: kClosedLoopClients clients with think time zero.
  const ServiceWorkloadConfig load = ServiceLoad();
  auto open_plan = RoundRobinPlan(kOpenLoopQueries, 1, load, kOpenLoopInterarrival);
  auto closed_plan = RoundRobinPlan(kClosedLoopClients, kClosedLoopQueriesPerClient, load);
  auto serve = [&](ServicePolicy policy, const std::vector<ClientPlan>& plan) {
    return RunService(ServiceSite(), load, policy, {}, plan);
  };
  LoopResult open_fifo = serve(ServicePolicy::kFifo, open_plan);
  LoopResult open_shared = serve(ServicePolicy::kSharedScan, open_plan);
  LoopResult closed_fifo = serve(ServicePolicy::kFifo, closed_plan);
  LoopResult closed_shared = serve(ServicePolicy::kSharedScan, closed_plan);

  Report(&recorder, "open", "fifo", open_fifo);
  Report(&recorder, "open", "shared", open_shared);
  Report(&recorder, "closed", "fifo", closed_fifo);
  Report(&recorder, "closed", "shared", closed_shared);

  // The headline numbers: saved physical passes and the p99 improvement
  // under the saturating (closed-loop) load.
  double saved_blocks = static_cast<double>(closed_fifo.stats.tape_blocks_read.value()) -
                        static_cast<double>(closed_shared.stats.tape_blocks_read.value());
  double p99_fifo = Percentile(closed_fifo.responses, 0.99);
  double p99_shared = Percentile(closed_shared.responses, 0.99);
  recorder.RecordMetric("closed_saved_tape_blocks", saved_blocks);
  recorder.RecordMetric("closed_p99_speedup",
                        p99_shared > 0.0 ? p99_fifo / p99_shared : 0.0);
  std::printf("\nclosed loop: sharing saves %.0f tape blocks, p99 %.2fx\n\n", saved_blocks,
              p99_shared > 0.0 ? p99_fifo / p99_shared : 0.0);

  // The concurrency sweep: policy x max_in_flight over a closed loop
  // scattered across 4 R and 4 S cartridges.
  std::printf("\n");
  struct PolicyName {
    ServicePolicy policy;
    const char* name;
  };
  const PolicyName kPolicies[] = {{ServicePolicy::kFifo, "fifo"},
                                  {ServicePolicy::kSharedScan, "shared"},
                                  {ServicePolicy::kElevator, "elevator"}};
  // Query index q picks (R_{q mod 8}, S_{q mod 4}), identical across every
  // (policy, cap) cell.
  auto sweep_plan = RoundRobinPlan(kSweepClients, kSweepQueriesPerClient, SweepLoad());
  std::map<std::string, LoopResult> cells;
  for (const PolicyName& p : kPolicies) {
    for (int cap : {1, 2, 4}) {
      exec::SchedulerOptions options;
      options.max_in_flight = cap;
      LoopResult cell = RunService(SweepSite(cap), SweepLoad(), p.policy, options, sweep_plan);
      ReportSweep(&recorder, p.name, cap, cell);
      cells.emplace(std::string(p.name) + "_c" + std::to_string(cap), std::move(cell));
    }
  }
  // Headline: concurrent elevator dispatch against the serial FIFO baseline.
  const LoopResult& fifo_c1 = cells.at("fifo_c1");
  const LoopResult& elevator_c4 = cells.at("elevator_c4");
  double sweep_speedup = elevator_c4.stats.makespan > 0.0
                             ? fifo_c1.stats.makespan.value() /
                                   elevator_c4.stats.makespan.value()
                             : 0.0;
  recorder.RecordMetric("svc_elevator_c4_vs_fifo_c1_speedup", sweep_speedup);
  recorder.RecordMetric(
      "svc_elevator_c1_robot_exchange_savings",
      static_cast<double>(cells.at("fifo_c1").stats.robot_exchanges) -
          static_cast<double>(cells.at("elevator_c1").stats.robot_exchanges));
  std::printf("\nconcurrency sweep: elevator@c4 makespan %.2fx vs serial fifo, "
              "elevator@c1 saves %llu robot trips\n",
              sweep_speedup,
              static_cast<unsigned long long>(
                  cells.at("fifo_c1").stats.robot_exchanges -
                  cells.at("elevator_c1").stats.robot_exchanges));

  // The extent-cache sweep: cache sizes in multiples of one S relation
  // (80 MB), from disabled to "all four cartridges fit".
  const ByteCount s_bytes = ZipfLoad().s_bytes;
  const ByteCount kSweep[] = {0, s_bytes / 2, s_bytes, 2 * s_bytes, 4 * s_bytes};
  SiteConfig zipf_site = ZipfSite(0);
  auto zipf_plan = PlanZipfQueries(ZipfLoad());
  std::vector<LoopResult> sweep;
  for (ByteCount cache_bytes : kSweep) {
    sweep.push_back(RunService(ZipfSite(BytesToBlocks(cache_bytes, zipf_site.block_bytes)),
                               ZipfLoad(), ServicePolicy::kFifo, {}, zipf_plan));
    ReportZipf(&recorder, cache_bytes, sweep.back());
  }

  // Headlines: the warm-cache tape-traffic drop and p99 speedup of the
  // largest cache against the cache-less baseline.
  const LoopResult& cold = sweep.front();
  const LoopResult& warm = sweep.back();
  double tape_drop = warm.stats.tape_blocks_read > 0
                         ? static_cast<double>(cold.stats.tape_blocks_read.value()) /
                               static_cast<double>(warm.stats.tape_blocks_read.value())
                         : 0.0;
  double p99_cold = Percentile(cold.responses, 0.99);
  double p99_warm = Percentile(warm.responses, 0.99);
  recorder.RecordMetric("zipf_tape_block_drop", tape_drop);
  recorder.RecordMetric("zipf_p99_speedup", p99_warm > 0.0 ? p99_cold / p99_warm : 0.0);
  std::printf("\nzipf closed loop: warm cache cuts tape blocks %.2fx, p99 %.2fx\n",
              tape_drop, p99_warm > 0.0 ? p99_cold / p99_warm : 0.0);
  return recorder.Finish();
}

}  // namespace
}  // namespace tertio::bench

int main(int argc, char** argv) { return tertio::bench::Main(argc, argv); }
