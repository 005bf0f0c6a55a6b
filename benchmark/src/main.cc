// tertio_bench: runs one workload in this process, single-threaded, and
// prints every metric as `name value unit`, a provenance line, and a final
// JSON result line:
//
//   tertio_bench --workload NAME [--seed N] [--seconds N] [--trace 0|1|FILE] [--smoke]
//
// Untraced runs report the end-to-end metrics; traced runs (--trace 1, or
// --trace FILE to choose the span file) report the per-layer metrics and
// write every span as Chrome trace-event JSON. The exit code is nonzero
// when any correctness check fails or the arguments are bad.

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "harness.h"
#include "workloads.h"

namespace tertio::benchmark {
namespace {

// One set-up sample repeats Setup() until this much host time has passed, so
// that a millisecond-scale set-up is not a single clock reading.
constexpr double kSetupSampleSeconds = 0.05;
// An untraced run takes at least this many set-up samples; setup_s is the
// fastest.
constexpr std::size_t kMinSetupSamples = 5;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_file;
  bool smoke = false;
};

int Usage(const char* message) {
  std::fprintf(stderr,
               "%s\nusage: tertio_bench --workload paper_sweep|svc_closed|svc_backlog|"
               "full_data_skew [--seed N] [--seconds N] [--trace 0|1|FILE] [--smoke]\n",
               message);
  return 2;
}

bool ParseUnsigned(std::string_view text, std::uint64_t* out) {
  if (text.empty()) return false;
  std::uint64_t value = 0;
  for (char c : text) {
    if (c < '0' || c > '9' || value > (UINT64_MAX - 9) / 10) return false;
    value = value * 10 + static_cast<std::uint64_t>(c - '0');
  }
  *out = value;
  return true;
}

// Accepts `--flag value` and `--flag=value`. \returns false on a bad flag.
bool ParseOptions(int argc, char** argv, Options* options) {
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    std::string_view value;
    bool has_value = false;
    if (std::size_t eq = arg.find('='); eq != std::string_view::npos) {
      value = arg.substr(eq + 1);
      arg = arg.substr(0, eq);
      has_value = true;
    }
    if (arg == "--smoke") {
      if (has_value) return false;
      options->smoke = true;
      continue;
    }
    if (!has_value) {
      if (i + 1 >= argc) return false;
      value = argv[++i];
    }
    std::uint64_t number = 0;
    if (arg == "--workload") {
      options->workload = value;
    } else if (arg == "--seed") {
      if (!ParseUnsigned(value, &options->seed)) return false;
    } else if (arg == "--seconds") {
      if (!ParseUnsigned(value, &number) || number == 0) return false;
      options->seconds = static_cast<double>(number);
    } else if (arg == "--trace") {
      options->trace = value != "0";
      if (value != "0" && value != "1") options->trace_file = value;
    } else {
      return false;
    }
  }
  return !options->workload.empty();
}

// Default span file: traces/ beside the binary.
std::string DefaultTraceFile(const Options& options) {
  std::error_code error;
  std::filesystem::path exe = std::filesystem::read_symlink("/proc/self/exe", error);
  std::filesystem::path dir = error ? std::filesystem::path(".") : exe.parent_path();
  dir /= "traces";
  std::filesystem::create_directories(dir, error);
  return (dir / (options.workload + "-seed" + std::to_string(options.seed) + ".trace.json"))
      .string();
}

// Per-layer metrics of one traced round. Host times come from the spans
// recorded since `setup_mark` (set-up) and `serve_mark` (serve and probe);
// work counts from the round's counters.
std::vector<Metric> LayerMetrics(const Tracer& tracer, std::size_t setup_mark,
                                 std::size_t serve_mark, double serve_s,
                                 const LayerCounters& c) {
  auto ratio = [](double num, double den) { return den > 0.0 ? num / den : 0.0; };
  double generate_s = (tracer.TotalMs("relation.GenerateOnTape", setup_mark, serve_mark) +
                       tracer.TotalMs("exec.PrepareServiceWorkload", setup_mark, serve_mark)) *
                      1e-3;
  double execute_ms = 0.0;
  for (double ms : c.execute_ms) execute_ms += ms;
  double run_ms = tracer.TotalMs("exec.QueryScheduler.Run", serve_mark);
  double sched_ms =
      c.scheduled_queries > 0 ? run_ms / static_cast<double>(c.scheduled_queries) - Median(c.execute_ms)
                              : 0.0;
  auto count = [](std::uint64_t n) { return static_cast<double>(n); };
  return {
      {"relation.generate_s", generate_s, "s"},
      {"relation.generate_mb_per_s", ratio(c.generated_mb, generate_s), "MB/s"},
      {"sim.device_ops", count(c.device_ops), "count"},
      {"sim.host_ns_per_device_op", ratio(serve_s * 1e9, count(c.device_ops)), "ns"},
      {"sim.tape_busy_s", c.tape_busy_s, "virtual_s"},
      {"sim.disk_busy_s", c.disk_busy_s, "virtual_s"},
      {"sim.robot_busy_s", c.robot_busy_s, "virtual_s"},
      {"tape.blocks_read", count(c.tape_blocks_read), "blocks"},
      {"tape.blocks_written", count(c.tape_blocks_written), "blocks"},
      {"tape.robot_exchanges", count(c.robot_exchanges), "count"},
      {"disk.requests", count(c.disk_requests), "count"},
      {"disk.blocks_moved", count(c.disk_blocks_moved), "blocks"},
      {"disk.cache_hit_ratio", ratio(count(c.cache_hits), count(c.cache_lookups)), "fraction"},
      {"disk.cache_evictions", count(c.cache_evictions), "count"},
      {"disk.cache_blocks_served", count(c.cache_blocks_served), "blocks"},
      {"mem.peak_occupancy_frac", Mean(c.memory_peak_fracs), "fraction"},
      {"hash.overflow_slices", count(c.overflow_slices), "count"},
      {"hash.r_scans", count(c.r_scans), "count"},
      {"join.execute_s", execute_ms * 1e-3, "s"},
      {"join.execute_ms_p50", Median(c.execute_ms), "ms"},
      {"join.execute_ms_max", Percentile(c.execute_ms, 1.0), "ms"},
      {"join.host_ns_per_input_tuple", ratio(execute_ms * 1e6, count(c.executed_input_tuples)),
       "ns"},
      {"join.checksum_mismatches", count(c.checksum_mismatches), "count"},
      {"cost.advisor_regret", GeoMean(c.advisor_regrets), "ratio"},
      {"cost.advisor_us", Median(tracer.DurationsMs("cost.AdviseJoinMethod", serve_mark)) * 1e3,
       "us"},
      {"exec.run_s", run_ms * 1e-3, "s"},
      {"exec.sched_ms_per_query", sched_ms, "ms"},
      {"exec.submit_us",
       Median(tracer.DurationsMs("exec.QueryScheduler.Submit", serve_mark)) * 1e3, "us"},
      {"exec.queue_depth_mean", Mean(c.queue_depths), "count"},
      {"exec.queue_depth_max", Percentile(c.queue_depths, 1.0), "count"},
      {"exec.session_open_us",
       Median(tracer.DurationsMs("exec.QuerySession.Open", serve_mark)) * 1e3, "us"},
      {"exec.wait_p50_s", Median(c.waits_s), "virtual_s"},
      {"exec.wait_p99_s", Percentile(c.waits_s, 0.99), "virtual_s"},
      {"exec.peak_in_flight", count(c.peak_in_flight), "count"},
      {"exec.leases_leaked", count(c.leases_leaked), "count"},
      {"sim_geomean_response_s", GeoMean(c.responses_s), "virtual_s"},
      {"sim_makespan_s", c.makespan_s, "virtual_s"},
      {"sim_response_p50_s", Median(c.responses_s), "virtual_s"},
      {"sim_response_p99_s", Percentile(c.responses_s, 0.99), "virtual_s"},
  };
}

// Runs Setup() once, then again until `min_seconds` of host time have passed.
// \returns the mean host seconds of one set-up.
Result<double> TimeSetup(Workload* workload, double min_seconds) {
  Clock::time_point start = Clock::now();
  std::size_t count = 0;
  double elapsed = 0.0;
  do {
    TERTIO_RETURN_IF_ERROR(workload->Setup());
    ++count;
    elapsed = SecondsSince(start);
  } while (elapsed < min_seconds);
  return elapsed / static_cast<double>(count);
}

int Run(const Options& options) {
  Tracer tracer(options.workload);
  std::unique_ptr<Workload> workload =
      MakeWorkload(options.workload, {options.seed, options.smoke}, &tracer);
  if (workload == nullptr) return Usage("unknown workload");

  std::vector<double> setup_s;
  std::vector<double> untraced_serve_s;
  std::vector<double> traced_serve_s;
  std::vector<double> joins_per_s;
  std::vector<std::string> layer_order;
  std::map<std::string, std::pair<std::vector<double>, std::string>> layer_samples;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t sim_digest = 0;
  bool correct = true;

  // Rounds repeat until the next one would overrun the time budget. Round 0
  // warms caches and the allocator and is checked but not timed. A traced
  // run then alternates traced and untraced rounds so it can report the
  // tracing overhead; it needs at least one of each. Rounds do identical
  // work and interference from other processes only slows a round down, so
  // the fastest round is the steadiest measure of the code's own speed, and
  // the fastest set-up sample likewise. Traced rounds set up once, so their
  // spans cover exactly one set-up.
  const std::size_t min_rounds = options.trace ? 3 : 2;
  Clock::time_point begin = Clock::now();
  for (std::size_t round = 0;; ++round) {
    bool traced = options.trace && round % 2 == 1;
    bool sampled = round > 0 && !traced;
    tracer.set_enabled(traced);
    std::size_t setup_mark = tracer.size();
    Result<double> setup = TimeSetup(workload.get(), sampled ? kSetupSampleSeconds : 0.0);
    if (!setup.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n", setup.status().ToString().c_str());
      return 1;
    }
    if (sampled) setup_s.push_back(*setup);
    std::size_t serve_mark = tracer.size();
    Clock::time_point start = Clock::now();
    RoundOutcome outcome = workload->Serve();
    double serve = SecondsSince(start);
    attempted += outcome.attempted;
    failed += outcome.failed;
    if (round == 0) sim_digest = outcome.sim_digest;
    if (outcome.sim_digest != sim_digest) {
      std::fprintf(stderr, "round %zu simulated differently from round 0\n", round);
      correct = false;
    }
    if (traced) {
      traced_serve_s.push_back(serve);
      Status probe = workload->Probe();
      if (!probe.ok()) {
        std::fprintf(stderr, "probe failed: %s\n", probe.ToString().c_str());
        correct = false;
      }
      for (Metric& m : LayerMetrics(tracer, setup_mark, serve_mark, serve, workload->counters())) {
        auto [it, added] = layer_samples.try_emplace(m.name);
        if (added) layer_order.push_back(m.name);
        it->second.first.push_back(m.value);
        it->second.second = m.unit;
      }
    } else if (round > 0) {
      untraced_serve_s.push_back(serve);
      joins_per_s.push_back(static_cast<double>(outcome.completed) / serve);
    }
    std::size_t rounds = round + 1;
    if (rounds < min_rounds) continue;
    if (options.smoke) break;
    double elapsed = SecondsSince(begin);
    if (elapsed * static_cast<double>(rounds + 1) / static_cast<double>(rounds) > options.seconds) {
      break;
    }
  }
  tracer.set_enabled(false);
  while (setup_s.size() < kMinSetupSamples && !options.smoke && !options.trace) {
    Result<double> setup = TimeSetup(workload.get(), kSetupSampleSeconds);
    if (!setup.ok()) return 1;
    setup_s.push_back(*setup);
  }
  failed += workload->Verify();
  if (failed > 0) correct = false;

  std::vector<Metric> metrics;
  if (options.trace) {
    for (const std::string& name : layer_order) {
      const auto& [values, unit] = layer_samples.at(name);
      metrics.push_back({name, Median(values), unit});
    }
    metrics.push_back({"trace_overhead_frac",
                       Percentile(traced_serve_s, 0.0) / Percentile(untraced_serve_s, 0.0) - 1.0,
                       "fraction"});
    std::string path = options.trace_file.empty() ? DefaultTraceFile(options) : options.trace_file;
    Status written = tracer.WriteChromeTrace(path);
    if (!written.ok()) {
      std::fprintf(stderr, "%s\n", written.ToString().c_str());
      correct = false;
    } else {
      std::fprintf(stderr, "spans written to %s\n", path.c_str());
    }
  } else {
    metrics.push_back({"setup_s", Percentile(setup_s, 0.0), "s"});
    metrics.push_back({"joins_per_s", Percentile(joins_per_s, 1.0), "joins/s"});
    metrics.push_back({"peak_rss_mb", PeakRssMiB(), "MiB"});
  }
  for (Metric& m : metrics) {
    if (!std::isfinite(m.value)) {
      std::fprintf(stderr, "metric %s is not finite\n", m.name.c_str());
      m.value = 0.0;
      correct = false;
    }
    std::printf("%s %s %s\n", m.name.c_str(), FormatNumber(m.value).c_str(), m.unit.c_str());
  }
  std::printf("{\"provenance\":%s}\n",
              ProvenanceJson(options.workload, options.seed, options.smoke, options.trace,
                             sim_digest)
                  .c_str());
  std::string result = std::string("{\"correct\":") + (correct ? "true" : "false") +
                       ",\"attempted\":" + std::to_string(attempted) +
                       ",\"failed\":" + std::to_string(failed) + ",\"metrics\":{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i != 0) result += ",";
    result += "\"" + metrics[i].name + "\":{\"value\":" + FormatNumber(metrics[i].value) +
              ",\"unit\":\"" + metrics[i].unit + "\"}";
  }
  std::printf("%s}}\n", result.c_str());
  return correct ? 0 : 1;
}

}  // namespace

std::unique_ptr<Workload> MakeWorkload(std::string_view name, const WorkloadOptions& options,
                                       Tracer* tracer) {
  if (name == "paper_sweep") return MakePaperSweep(options, tracer);
  if (name == "svc_closed") return MakeServiceClosed(options, tracer);
  if (name == "svc_backlog") return MakeServiceBacklog(options, tracer);
  if (name == "full_data_skew") return MakeFullDataSkew(options, tracer);
  return nullptr;
}

}  // namespace tertio::benchmark

int main(int argc, char** argv) {
  tertio::benchmark::Options options;
  if (!tertio::benchmark::ParseOptions(argc, argv, &options)) {
    return tertio::benchmark::Usage("bad arguments");
  }
  return tertio::benchmark::Run(options);
}
