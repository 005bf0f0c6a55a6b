/// \file bench_fig8_response_time.cc
/// Reproduces Figure 8 (response time vs memory size, Experiment 3, base
/// tape speed: 25%-compressible data).
///
/// Expected: NB methods blow up at small M; CDT-GH flat and dominant in the
/// small/medium range; CDT-NB/MB approaches the optimum at large M and
/// crosses CDT-GH around M = 0.7|R|; GH shows a small uptick at the very
/// smallest M (bucket writes degrade to random I/O).
///
/// --scale=N multiplies |R|, |S|, D and memory uniformly. --scale=100 is
/// the TB-class timing-only sweep (100 GB S, 1.8 GB R): chunk counts grow
/// 100x but host time barely moves, because the coalesced closed-form
/// commit (DESIGN.md 5.1) is O(1) per steady-state window. A scaled run
/// also spot-checks a (memory, method) grid for bit-identity between the
/// closed-form commit and the O(chunks) replay it replaces.

#include <cstdlib>
#include <cstring>

#include "bench/exp3_common.h"

namespace tertio::bench {
namespace {

/// Parses --scale=N from argv (default 1).
std::uint64_t ParseScale(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--scale=", 8) == 0) {
      const long long value = std::atoll(argv[i] + 8);
      TERTIO_CHECK(value >= 1, "--scale must be >= 1");
      return static_cast<std::uint64_t>(value);
    }
  }
  return 1;
}

/// Re-runs a grid of sweep points through both coalesced commit paths and
/// checks every stat of the runs for bit-identity — the closed-form jump
/// must land exactly where the O(chunks) replay lands, even across the
/// binade crossings a TB-scale busy-seconds accumulation walks through.
void SpotCheckCommitEquivalence(std::uint64_t scale) {
  const double kFractions[] = {0.1, 0.5, 1.0};
  int points = 0;
  for (double fraction : kFractions) {
    for (JoinMethodId method : Exp3Methods()) {
      auto memory = static_cast<ByteCount>(fraction * static_cast<double>(scale * kExp3R.value()));
      Result<join::JoinStats> closed =
          RunPaperJoin(scale * kExp3S, scale * kExp3R, scale * kExp3D, memory, method,
                       kBaseCompressibility, sim::CommitMode::kClosedForm);
      Result<join::JoinStats> replay =
          RunPaperJoin(scale * kExp3S, scale * kExp3R, scale * kExp3D, memory, method,
                       kBaseCompressibility, sim::CommitMode::kReplay);
      TERTIO_CHECK(closed.ok() == replay.ok(),
                   "commit paths disagree on feasibility at a spot-check point");
      if (!closed.ok()) continue;
      TERTIO_CHECK(closed->response_seconds == replay->response_seconds &&
                       closed->step1_seconds == replay->step1_seconds &&
                       closed->step2_seconds == replay->step2_seconds,
                   "closed-form commit diverged from O(chunks) replay in simulated time");
      TERTIO_CHECK(closed->disk_blocks_read == replay->disk_blocks_read &&
                       closed->disk_blocks_written == replay->disk_blocks_written &&
                       closed->tape_blocks_read == replay->tape_blocks_read &&
                       closed->tape_blocks_written == replay->tape_blocks_written &&
                       closed->disk_requests == replay->disk_requests,
                   "closed-form commit diverged from O(chunks) replay in block accounting");
      TERTIO_CHECK(closed->peak_memory_blocks == replay->peak_memory_blocks &&
                       closed->peak_disk_blocks == replay->peak_disk_blocks &&
                       closed->r_scans == replay->r_scans &&
                       closed->iterations == replay->iterations,
                   "closed-form commit diverged from O(chunks) replay in run shape");
      ++points;
    }
  }
  std::printf("Commit-path spot-check: %d feasible grid points bit-identical "
              "(closed-form vs O(chunks) replay)\n",
              points);
}

int Run(int argc, char** argv) {
  const std::uint64_t scale = ParseScale(argc, argv);
  BenchRecorder recorder(scale == 1 ? "fig8_response_time"
                                    : StrFormat("fig8_response_time_x%llu",
                                                (unsigned long long)scale),
                         argc, argv);
  Banner("Figure 8 — response time vs memory size (Experiment 3, base tape speed)",
         "Section 9, Figure 8",
         "NB explodes at small M; CDT-GH flat; crossover near M = 0.7|R|");
  if (scale != 1) {
    std::printf("Scaled sweep: %llux paper size (|S| = %llu MB, |R| = %llu MB, "
                "D = %llu MB), timing-only\n",
                (unsigned long long)scale, (unsigned long long)(scale * kExp3S / kMB),
                (unsigned long long)(scale * kExp3R / kMB),
                (unsigned long long)(scale * kExp3D / kMB));
  }
  Exp3Sweep sweep = RunExp3Sweep(kBaseCompressibility, recorder.threads(), scale);
  PrintExp3Series(
      sweep, "M/|R|", " (s)",
      [](const join::JoinStats& stats) { return stats.response_seconds.value(); }, 0,
      {"Optimum (s)"}, {sweep.optimum_seconds.value()});
  RecordExp3Sweep(recorder, sweep);
  if (scale != 1) SpotCheckCommitEquivalence(scale);
  return recorder.Finish();
}

}  // namespace
}  // namespace tertio::bench

int main(int argc, char** argv) { return tertio::bench::Run(argc, argv); }
