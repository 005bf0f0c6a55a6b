/// \file tertio_cli.cc
/// Command-line front end to the tertio library.
///
///   tertio_cli advise   --r-mb 2500 --s-mb 10000 --disk-mb 500 --memory-mb 16
///   tertio_cli estimate --method CTT-GH --r-mb 2500 --s-mb 10000 --disk-mb 500 --memory-mb 16
///   tertio_cli run      --method CTT-GH --r-mb 2500 --s-mb 10000 --disk-mb 500 --memory-mb 16
///   tertio_cli sweep    --r-mb 18 --s-mb 1000 --disk-mb 50   (Experiment-3 style M sweep)
///   tertio_cli serve    --r-mb 18 --s-mb 1000 --disk-mb 500 --memory-mb 16
///                       --queries 8 [--clients 3] [--interarrival 600] [--cartridges 2]
///
/// Common flags: --compressibility F (default 0.25), --gantt (run only:
/// print the device timeline; small joins only — traces are large),
/// --spans (run only: print the per-phase span table and phase timeline).
///
/// Exit codes: 0 success, 1 a well-formed request the system cannot serve
/// (e.g. an infeasible method), 2 invalid input (bad flags, |R| > |S|, or a
/// configuration SiteConfig::Validate rejects).

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cost/cost_model.h"
#include "exec/experiment.h"
#include "exec/query_scheduler.h"
#include "exec/report.h"
#include "exec/service_workload.h"
#include "join/advisor.h"
#include "join/join_method.h"
#include "sim/trace_report.h"
#include "util/string_util.h"

using namespace tertio;

namespace {

// Flags that take a number. Parse() reads each once, strictly.
constexpr const char* kNumericFlags[] = {
    "r-mb", "s-mb", "disk-mb", "memory-mb", "compressibility",
    // serve only
    "max-in-flight", "drives", "aging", "cache-blocks", "queries", "clients", "interarrival",
    "cartridges", "r-relations", "r-cartridges"};

// Largest accepted numeric flag value: 1e9 MB still fits a 64-bit byte
// count, and 1e9 fits every int-valued count flag.
constexpr double kMaxFlagValue = 1e9;

struct Flags {
  std::map<std::string, std::string> values;
  std::map<std::string, double> numbers;
  bool gantt = false;
  bool spans = false;

  double GetDouble(const std::string& key, double fallback) const {
    auto it = numbers.find(key);
    return it == numbers.end() ? fallback : it->second;
  }
  /// A megabyte flag (--r-mb and friends) in bytes; 0 when absent.
  ByteCount GetMegabytes(const std::string& key) const {
    return static_cast<ByteCount>(GetDouble(key, 0) * static_cast<double>(kMB.value()));
  }
  std::string GetString(const std::string& key, const std::string& fallback) const {
    auto it = values.find(key);
    return it == values.end() ? fallback : it->second;
  }
  bool Has(const std::string& key) const { return values.count(key) > 0; }
};

// A numeric flag value: the whole text must be a finite number in
// [0, kMaxFlagValue].
Result<double> ParseNumber(const std::string& key, const std::string& text) {
  char* end = nullptr;
  double value = std::strtod(text.c_str(), &end);
  if (text.empty() || *end != '\0' || !std::isfinite(value) || value < 0 ||
      value > kMaxFlagValue) {
    return Status::InvalidArgument(StrFormat("--%s=%s is not a number in [0, %g]", key.c_str(),
                                             text.c_str(), kMaxFlagValue));
  }
  return value;
}

// Prints a failed command's status. \returns its exit code: 2 for invalid
// input, 1 otherwise.
int Fail(const Status& status) {
  std::fprintf(stderr, "%s\n", status.ToString().c_str());
  return status.code() == StatusCode::kInvalidArgument ? 2 : 1;
}

int Usage() {
  std::fprintf(stderr,
               "usage: tertio_cli <advise|estimate|run|sweep|serve> --r-mb N --s-mb N "
               "--disk-mb N --memory-mb N [--method NAME] [--compressibility F] "
               "[--faults SPEC] [--gantt] [--spans]\n"
               "serve:   multi-query service; also takes "
               "[--policy fifo|shared|elevator] [--max-in-flight N] [--aging S] "
               "[--drives N] [--queries N] [--clients N] [--interarrival S] "
               "[--cartridges N] [--r-relations N] [--r-cartridges N] "
               "[--cache-blocks N]\n"
               "methods: DT-NB CDT-NB/MB CDT-NB/DB DT-GH CDT-GH CTT-GH TT-GH\n"
               "faults:  comma list, e.g. "
               "seed=7,tape-transient=1e-4,tape-bad=1e-6,disk-transient=1e-5,"
               "exchange=0.01,retries=4,backoff=0.1,remap=2\n");
  return 2;
}

Result<Flags> Parse(int argc, char** argv) {
  Flags flags;
  for (int i = 2; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--gantt") {
      flags.gantt = true;
      continue;
    }
    if (arg == "--spans") {
      flags.spans = true;
      continue;
    }
    if (arg.rfind("--", 0) != 0) return Status::InvalidArgument("unexpected argument " + arg);
    const std::size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      flags.values[arg.substr(2, eq - 2)] = arg.substr(eq + 1);
      continue;
    }
    if (i + 1 >= argc) return Status::InvalidArgument("flag " + arg + " needs a value");
    flags.values[arg.substr(2)] = argv[++i];
  }
  for (const char* required : {"r-mb", "s-mb", "disk-mb", "memory-mb"}) {
    if (!flags.Has(required)) {
      return Status::InvalidArgument(std::string("missing --") + required);
    }
  }
  for (const char* key : kNumericFlags) {
    if (!flags.Has(key)) continue;
    TERTIO_ASSIGN_OR_RETURN(flags.numbers[key], ParseNumber(key, flags.values[key]));
  }
  return flags;
}

// The single join `run` executes and `advise`/`estimate` plan for: a
// validated paper-testbed site, one session leasing all of it, and a
// phantom workload at the flags' sizes.
struct WholeSiteJoin {
  std::unique_ptr<exec::Site> site;
  std::unique_ptr<exec::QuerySession> session;
  exec::PreparedWorkload workload;

  join::JoinSpec Spec() const {
    join::JoinSpec spec;
    spec.r = &workload.r;
    spec.s = &workload.s;
    return spec;
  }
};

Result<WholeSiteJoin> SetUpJoin(const Flags& flags) {
  exec::SiteConfig config = exec::SiteConfig::PaperTestbed(flags.GetMegabytes("disk-mb"),
                                                           flags.GetMegabytes("memory-mb"));
  if (flags.Has("faults")) {
    TERTIO_ASSIGN_OR_RETURN(config.faults, sim::FaultPlan::Parse(flags.GetString("faults", "")));
  }
  WholeSiteJoin setup;
  TERTIO_ASSIGN_OR_RETURN(setup.site, exec::Site::Create(config));
  if (flags.gantt) {
    for (const auto& resource : setup.site->sim().resources()) resource->EnableTrace();
  }
  TERTIO_ASSIGN_OR_RETURN(setup.session,
                          exec::QuerySession::Open(setup.site.get(),
                                                   exec::SessionResources::WholeSite(*setup.site)));
  exec::WorkloadConfig workload;
  workload.r_bytes = flags.GetMegabytes("r-mb");
  workload.s_bytes = flags.GetMegabytes("s-mb");
  workload.compressibility = flags.GetDouble("compressibility", 0.25);
  workload.phantom = true;
  TERTIO_ASSIGN_OR_RETURN(setup.workload, exec::PrepareWorkload(setup.session.get(), workload));
  return setup;
}

std::string Seconds(SimSeconds s) {
  return StrFormat("%s (%.0f s)", FormatDuration(s).c_str(), s.value());
}

int CmdAdvise(const Flags& flags) {
  auto setup = SetUpJoin(flags);
  if (!setup.ok()) return Fail(setup.status());
  auto report = join::AdviseJoinMethod(exec::CostParamsFor(*setup->session, setup->Spec()));
  if (!report.ok()) return Fail(report.status());
  exec::TableReport table({"rank", "method", "est. response", "Step I", "iterations",
                           "disk traffic (MB)"});
  int rank = 1;
  for (const auto& choice : report->ranked) {
    table.AddRow({StrFormat("%d", rank++), std::string(JoinMethodName(choice.method)),
                  FormatDuration(choice.estimate.total_seconds),
                  FormatDuration(choice.estimate.step1_seconds),
                  StrFormat("%llu", (unsigned long long)choice.estimate.iterations),
                  StrFormat("%.0f",
                            static_cast<double>(BlocksToBytes(
                                choice.estimate.disk_traffic_blocks, kDefaultBlockBytes).value()) /
                                static_cast<double>(kMB.value()))});
  }
  table.Print();
  for (const auto& rejection : report->rejected) {
    std::printf("%-10s infeasible: %s\n", std::string(JoinMethodName(rejection.method)).c_str(),
                rejection.reason.message().c_str());
  }
  return 0;
}

int CmdEstimate(const Flags& flags) {
  JoinMethodId method;
  if (!ParseJoinMethodName(flags.GetString("method", ""), &method)) {
    std::fprintf(stderr, "unknown or missing --method\n");
    return 2;
  }
  auto setup = SetUpJoin(flags);
  if (!setup.ok()) return Fail(setup.status());
  const cost::CostParams params = exec::CostParamsFor(*setup->session, setup->Spec());
  auto estimate = cost::Estimate(method, params);
  if (!estimate.ok()) return Fail(estimate.status());
  std::printf("method           %s\n", std::string(JoinMethodName(method)).c_str());
  std::printf("Step I           %s\n", Seconds(estimate->step1_seconds).c_str());
  std::printf("Step II          %s\n", Seconds(estimate->step2_seconds).c_str());
  std::printf("total            %s\n", Seconds(estimate->total_seconds).c_str());
  std::printf("optimum (read S) %s\n", Seconds(cost::OptimumJoinSeconds(params)).c_str());
  std::printf("overhead         %.0f%%\n",
              100.0 * cost::RelativeJoinOverhead(estimate->total_seconds, params));
  std::printf("iterations       %llu, R scans %llu\n",
              (unsigned long long)estimate->iterations, (unsigned long long)estimate->r_scans);
  std::printf("disk traffic     %s, tape traffic %s\n",
              FormatBytes(BlocksToBytes(estimate->disk_traffic_blocks, kDefaultBlockBytes))
                  .c_str(),
              FormatBytes(BlocksToBytes(estimate->tape_traffic_blocks, kDefaultBlockBytes))
                  .c_str());
  std::printf("needs            M >= %s, D >= %s, T_R %s, T_S %s\n",
              FormatBytes(BlocksToBytes(estimate->memory_required_blocks, kDefaultBlockBytes))
                  .c_str(),
              FormatBytes(BlocksToBytes(estimate->disk_space_blocks, kDefaultBlockBytes))
                  .c_str(),
              FormatBytes(BlocksToBytes(estimate->tape_scratch_r_blocks, kDefaultBlockBytes))
                  .c_str(),
              FormatBytes(BlocksToBytes(estimate->tape_scratch_s_blocks, kDefaultBlockBytes))
                  .c_str());
  return 0;
}

int CmdRun(const Flags& flags) {
  JoinMethodId method;
  if (!ParseJoinMethodName(flags.GetString("method", ""), &method)) {
    std::fprintf(stderr, "unknown or missing --method\n");
    return 2;
  }
  auto setup = SetUpJoin(flags);
  if (!setup.ok()) return Fail(setup.status());
  exec::Site& site = *setup->site;
  const ByteCount block_bytes = site.block_bytes();
  join::JoinSpec spec = setup->Spec();
  auto executor = join::CreateJoinMethod(method);
  join::JoinContext ctx = setup->session->context();
  ctx.retain_spans = flags.spans;
  auto stats = executor->Execute(spec, ctx);
  if (!stats.ok()) return Fail(stats.status());
  std::printf("method       %s (simulated at paper scale)\n", stats->method.c_str());
  std::printf("Step I       %s\n", Seconds(stats->step1_seconds).c_str());
  std::printf("Step II      %s\n", Seconds(stats->step2_seconds).c_str());
  std::printf("response     %s\n", Seconds(stats->response_seconds).c_str());
  std::printf("iterations   %llu, R scans %llu\n", (unsigned long long)stats->iterations,
              (unsigned long long)stats->r_scans);
  std::printf("tape         %s read, %s written\n",
              FormatBytes(BlocksToBytes(stats->tape_blocks_read, block_bytes)).c_str(),
              FormatBytes(BlocksToBytes(stats->tape_blocks_written, block_bytes)).c_str());
  std::printf("disk         %s moved in %llu requests\n",
              FormatBytes(BlocksToBytes(stats->disk_traffic_blocks(), block_bytes)).c_str(),
              (unsigned long long)stats->disk_requests);
  if (site.faults_enabled()) {
    std::printf("faults       %llu injected, %llu retries, %llu chunk retries, "
                "%s recovering\n",
                (unsigned long long)stats->faults_injected,
                (unsigned long long)stats->fault_retries,
                (unsigned long long)stats->chunk_retries,
                FormatDuration(stats->recovery_seconds).c_str());
    std::printf("\n");
    exec::FaultSummaryTable(site.TotalFaultStats()).Print();
  }
  if (flags.spans) {
    std::printf("\n");
    exec::SpanSummaryTable(stats->spans).Print();
    std::printf("\n%s", sim::RenderSpanGantt(stats->spans).c_str());
  }
  if (flags.gantt) {
    std::printf("\n%s", sim::RenderGantt(site.sim()).c_str());
  }
  return 0;
}

int CmdSweep(const Flags& flags) {
  ByteCount r_bytes = flags.GetMegabytes("r-mb");
  ByteCount s_bytes = flags.GetMegabytes("s-mb");
  ByteCount d_bytes = flags.GetMegabytes("disk-mb");
  double c = flags.GetDouble("compressibility", 0.25);
  exec::SeriesReport series("M/|R|", {"DT-NB", "CDT-NB/MB", "CDT-NB/DB", "DT-GH", "CDT-GH"});
  for (double f : {0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9, 1.0}) {
    std::vector<double> row;
    for (JoinMethodId method : {JoinMethodId::kDtNb, JoinMethodId::kCdtNbMb,
                                JoinMethodId::kCdtNbDb, JoinMethodId::kDtGh,
                                JoinMethodId::kCdtGh}) {
      exec::SiteConfig config = exec::SiteConfig::PaperTestbed(
          d_bytes, static_cast<ByteCount>(f * static_cast<double>(r_bytes.value())));
      exec::WorkloadConfig workload;
      workload.r_bytes = r_bytes;
      workload.s_bytes = s_bytes;
      workload.compressibility = c;
      workload.phantom = true;
      auto stats = exec::RunJoinExperiment(config, workload, method);
      // Invalid input fails the sweep; an infeasible point is a gap.
      if (stats.status().code() == StatusCode::kInvalidArgument) return Fail(stats.status());
      row.push_back(stats.ok() ? stats->response_seconds.value()
                               : std::numeric_limits<double>::quiet_NaN());
    }
    series.AddPoint(f, row);
  }
  series.Print(0);
  return 0;
}

// Drives a multi-query stream through exec::QueryScheduler under one policy.
// Open loop (--interarrival) unless --clients > 0 makes it closed loop.
struct ServeResult {
  exec::ServiceStats stats;
  std::vector<double> responses;
};

Result<ServeResult> RunService(const Flags& flags, exec::ServicePolicy policy) {
  int max_in_flight = std::max(1, static_cast<int>(flags.GetDouble("max-in-flight", 1)));
  exec::SiteConfig site_config;
  site_config.disk_space_bytes = flags.GetMegabytes("disk-mb");
  site_config.memory_bytes = flags.GetMegabytes("memory-mb");
  site_config.with_library = true;
  // Concurrency needs drives: default two per in-flight session.
  site_config.drive_count =
      static_cast<int>(flags.GetDouble("drives", 2.0 * max_in_flight));
  // HSM tier: carve this many blocks of the disk into the cross-query
  // extent cache (0 = disabled).
  site_config.cache_blocks = static_cast<BlockCount>(flags.GetDouble("cache-blocks", 0));
  if (flags.Has("faults")) {
    TERTIO_ASSIGN_OR_RETURN(site_config.faults,
                            sim::FaultPlan::Parse(flags.GetString("faults", "")));
  }
  TERTIO_RETURN_IF_ERROR(site_config.Validate());
  exec::Site site(site_config);

  exec::ServiceWorkloadConfig load;
  load.s_bytes = flags.GetMegabytes("s-mb");
  load.r_bytes = flags.GetMegabytes("r-mb");
  load.s_cartridges = static_cast<int>(flags.GetDouble("cartridges", 2));
  load.r_relations = static_cast<int>(flags.GetDouble("r-relations", 4));
  load.r_cartridges = static_cast<int>(flags.GetDouble("r-cartridges", 1));
  load.compressibility = flags.GetDouble("compressibility", 0.25);
  TERTIO_ASSIGN_OR_RETURN(exec::ServiceWorkload workload,
                          exec::PrepareServiceWorkload(&site, load));

  JoinMethodId method = JoinMethodId::kCdtGh;
  if (flags.Has("method") && !ParseJoinMethodName(flags.GetString("method", ""), &method)) {
    return Status::InvalidArgument("unknown --method");
  }
  auto make_request = [&](int q, SimSeconds arrival) {
    exec::JoinRequest request;
    request.arrival = arrival;
    request.spec.r = &workload.r[static_cast<size_t>(q) % workload.r.size()];
    request.spec.s = &workload.s[static_cast<size_t>(q) % workload.s.size()];
    request.method = method;
    // Each in-flight session gets an equal share of memory and disk.
    request.memory_blocks = site.memory_blocks() / max_in_flight;
    request.disk_blocks = site.session_disk_blocks() / max_in_flight;
    return request;
  };

  int queries = static_cast<int>(flags.GetDouble("queries", 8));
  int clients = static_cast<int>(flags.GetDouble("clients", 0));
  double interarrival = flags.GetDouble("interarrival", 600.0);
  exec::SchedulerOptions options;
  options.max_in_flight = max_in_flight;
  options.elevator_aging_seconds =
      flags.GetDouble("aging", options.elevator_aging_seconds.value());
  exec::QueryScheduler scheduler(&site, policy, options);
  if (clients > 0) {
    // Closed loop: each completion triggers that client's next query.
    int issued = clients;
    scheduler.set_on_complete([&](const exec::QueryOutcome& out) {
      if (issued >= queries) return;
      auto id = scheduler.Submit(make_request(issued++, out.completion));
      TERTIO_CHECK(id.ok(), "closed-loop submit rejected");
    });
    for (int c = 0; c < std::min(clients, queries); ++c) {
      TERTIO_RETURN_IF_ERROR(scheduler.Submit(make_request(c, 0.0)).status());
    }
  } else {
    for (int q = 0; q < queries; ++q) {
      TERTIO_RETURN_IF_ERROR(
          scheduler.Submit(make_request(q, static_cast<double>(q) * interarrival)).status());
    }
  }
  TERTIO_RETURN_IF_ERROR(scheduler.Run());

  ServeResult result;
  result.stats = scheduler.service_stats();
  // Failed queries are counted (ServiceStats::failed); the response
  // percentiles cover the completed ones.
  for (const exec::QueryOutcome& out : scheduler.outcomes()) {
    if (out.status.ok()) result.responses.push_back(out.response_seconds().value());
  }
  std::sort(result.responses.begin(), result.responses.end());
  return result;
}

double ServePercentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  auto rank = static_cast<std::size_t>(p * static_cast<double>(sorted.size() - 1) + 0.5);
  return sorted[std::min(rank, sorted.size() - 1)];
}

const char* PolicyLabel(exec::ServicePolicy policy) {
  switch (policy) {
    case exec::ServicePolicy::kFifo:
      return "fifo";
    case exec::ServicePolicy::kSharedScan:
      return "shared-scan";
    case exec::ServicePolicy::kElevator:
      return "elevator";
  }
  return "?";
}

int CmdServe(const Flags& flags) {
  // Default: compare every policy side by side; --policy narrows to one.
  std::vector<exec::ServicePolicy> policies = {exec::ServicePolicy::kFifo,
                                               exec::ServicePolicy::kSharedScan,
                                               exec::ServicePolicy::kElevator};
  if (flags.Has("policy")) {
    std::string name = flags.GetString("policy", "");
    if (name == "fifo") {
      policies = {exec::ServicePolicy::kFifo};
    } else if (name == "shared" || name == "shared-scan") {
      policies = {exec::ServicePolicy::kSharedScan};
    } else if (name == "elevator") {
      policies = {exec::ServicePolicy::kElevator};
    } else {
      std::fprintf(stderr, "unknown --policy %s (fifo|shared|elevator)\n", name.c_str());
      return 2;
    }
  }
  exec::TableReport table({"policy", "queries", "failed", "p50 resp", "p99 resp", "makespan",
                           "tape read (MB)", "shared (MB)", "cached (MB)", "shared queries",
                           "robot", "peak"});
  for (exec::ServicePolicy policy : policies) {
    auto result = RunService(flags, policy);
    if (!result.ok()) return Fail(result.status());
    table.AddRow(
        {PolicyLabel(policy),
         StrFormat("%llu", (unsigned long long)result->stats.completed),
         StrFormat("%llu", (unsigned long long)result->stats.failed),
         FormatDuration(ServePercentile(result->responses, 0.50)),
         FormatDuration(ServePercentile(result->responses, 0.99)),
         FormatDuration(result->stats.makespan),
         StrFormat("%.0f", static_cast<double>(BlocksToBytes(result->stats.tape_blocks_read,
                                                             kDefaultBlockBytes).value()) /
                                static_cast<double>(kMB.value())),
         StrFormat("%.0f", static_cast<double>(BlocksToBytes(result->stats.tape_blocks_shared,
                                                             kDefaultBlockBytes).value()) /
                                static_cast<double>(kMB.value())),
         StrFormat("%.0f", static_cast<double>(BlocksToBytes(result->stats.tape_blocks_cached,
                                                             kDefaultBlockBytes).value()) /
                                static_cast<double>(kMB.value())),
         StrFormat("%llu", (unsigned long long)result->stats.scan_shared_queries),
         StrFormat("%llu", (unsigned long long)result->stats.robot_exchanges),
         StrFormat("%llu", (unsigned long long)result->stats.peak_in_flight)});
  }
  table.Print();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  std::string command = argv[1];
  auto flags = Parse(argc, argv);
  if (!flags.ok()) {
    std::fprintf(stderr, "%s\n", flags.status().ToString().c_str());
    return Usage();
  }
  if (command == "advise") return CmdAdvise(*flags);
  if (command == "estimate") return CmdEstimate(*flags);
  if (command == "run") return CmdRun(*flags);
  if (command == "sweep") return CmdSweep(*flags);
  if (command == "serve") return CmdServe(*flags);
  return Usage();
}
