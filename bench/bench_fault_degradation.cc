/// \file bench_fault_degradation.cc
/// Response-time degradation under device faults: all seven join methods
/// swept over the per-block transient read error rate (tape and disk), with
/// a proportional latent-bad-block rate riding along.
///
/// Not a paper figure — the paper's testbed is fault-free — but the natural
/// follow-on question for hour-scale tertiary joins: how gracefully does
/// each method absorb retries and remaps? Expected: all methods degrade
/// smoothly (recovery is charged at the device layer, so tape-dominant
/// methods pay in proportion to tape traffic); no method fails until the
/// retry bound is exhausted, which at these rates is vanishingly rare.

#include <string>
#include <vector>

#include "bench/bench_util.h"

namespace tertio::bench {
namespace {

// A workload small enough to sweep 7 methods x 6 rates in seconds of
// wall-clock yet feasible for every method at D = 120 MB, M = 16 MB.
constexpr ByteCount kRBytes = 80 * kMB;
constexpr ByteCount kSBytes = 800 * kMB;
constexpr ByteCount kDiskBytes = 120 * kMB;
constexpr ByteCount kMemoryBytes = 16 * kMB;

constexpr JoinMethodId kMethods[] = {
    JoinMethodId::kDtNb,   JoinMethodId::kCdtNbMb, JoinMethodId::kCdtNbDb,
    JoinMethodId::kDtGh,   JoinMethodId::kCdtGh,   JoinMethodId::kCttGh,
    JoinMethodId::kTtGh,
};

Result<join::JoinStats> RunWithFaults(JoinMethodId method, double error_rate) {
  exec::SiteConfig config = exec::SiteConfig::PaperTestbed(kDiskBytes, kMemoryBytes);
  config.faults.seed = 7;
  config.faults.tape.transient_read_error_rate = error_rate;
  config.faults.disk.transient_read_error_rate = error_rate;
  // Media defects are rarer than transient glitches; keep them proportional.
  config.faults.tape.bad_block_rate = error_rate / 10.0;
  config.faults.disk.bad_block_rate = error_rate / 10.0;
  exec::WorkloadConfig workload;
  workload.r_bytes = kRBytes;
  workload.s_bytes = kSBytes;
  workload.compressibility = kBaseCompressibility;
  workload.phantom = true;
  return exec::RunJoinExperiment(config, workload, method);
}

int Run(int argc, char** argv) {
  BenchRecorder recorder("fault_degradation", argc, argv);
  Banner("Fault degradation — response time vs per-block error rate (all methods)",
         "fault-model extension (not a paper figure)",
         "smooth degradation; recovery cost proportional to device traffic");
  std::vector<std::string> headers{"error rate"};
  for (JoinMethodId method : kMethods) headers.emplace_back(JoinMethodName(method));
  exec::TableReport response(headers);
  exec::TableReport recovery(headers);

  const std::vector<double> rates = {0.0, 1e-5, 1e-4, 3e-4, 1e-3, 3e-3};
  constexpr std::size_t kMethodCount = sizeof(kMethods) / sizeof(kMethods[0]);
  struct Point {
    double rate;
    JoinMethodId method;
  };
  std::vector<Point> points;
  for (double rate : rates) {
    for (JoinMethodId method : kMethods) points.push_back({rate, method});
  }
  std::vector<Result<join::JoinStats>> results = exec::ParallelSweep(
      points, [](const Point& point) { return RunWithFaults(point.method, point.rate); },
      recorder.threads());

  for (std::size_t r = 0; r < rates.size(); ++r) {
    std::vector<std::string> seconds{StrFormat("%g", rates[r])};
    std::vector<std::string> recovered{StrFormat("%g", rates[r])};
    for (std::size_t m = 0; m < kMethodCount; ++m) {
      const Result<join::JoinStats>& stats = results[r * kMethodCount + m];
      seconds.push_back(stats.ok() ? StrFormat("%.0f", stats->response_seconds.value())
                                   : std::string("-"));
      recovered.push_back(stats.ok() ? StrFormat("%.1f", stats->recovery_seconds.value())
                                     : std::string("-"));
      recorder.RecordJoin(StrFormat("rate=%g/%s", rates[r],
                                    std::string(JoinMethodName(kMethods[m])).c_str()),
                          stats);
    }
    response.AddRow(std::move(seconds));
    recovery.AddRow(std::move(recovered));
  }
  std::printf("\nResponse time (s) vs per-block error rate:\n");
  response.Print();
  std::printf("\nRecovery time (s) vs per-block error rate:\n");
  recovery.Print();
  return recorder.Finish();
}

}  // namespace
}  // namespace tertio::bench

int main(int argc, char** argv) { return tertio::bench::Run(argc, argv); }
