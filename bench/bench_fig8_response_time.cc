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
/// also re-runs a (memory, method) grid on audited sites, whose auditor
/// re-derives every closed-form window with the O(chunks) replay.

#include <cstdlib>
#include <cstring>

#include "bench/exp3_common.h"
#include "sim/auditor.h"

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

/// Re-runs a grid of sweep points on an audited site. The auditor
/// re-derives every closed-form window with the O(chunks) replay, so the
/// jump must land exactly where the replay lands, even across the binade
/// crossings a TB-scale busy-seconds accumulation walks through; a point
/// fails on any violation, or when the audited run differs from the sweep's.
void SpotCheckClosedForm(const Exp3Sweep& sweep, std::uint64_t scale) {
  int points = 0;
  std::uint64_t checks = 0;
  for (std::size_t i = 0; i < sweep.fractions.size(); ++i) {
    const double fraction = sweep.fractions[i];
    if (fraction != 0.1 && fraction != 0.5 && fraction != 1.0) continue;
    for (std::size_t m = 0; m < Exp3Methods().size(); ++m) {
      auto memory = static_cast<ByteCount>(fraction * static_cast<double>(scale * kExp3R.value()));
      exec::Site site(exec::SiteConfig::PaperTestbed(scale * kExp3D, memory));
      sim::Auditor* auditor = site.EnableAudit();
      auto session = exec::QuerySession::Open(&site, exec::SessionResources::WholeSite(site));
      TERTIO_CHECK(session.ok(), session.status().ToString());
      exec::WorkloadConfig workload;
      workload.r_bytes = scale * kExp3R;
      workload.s_bytes = scale * kExp3S;
      workload.compressibility = kBaseCompressibility;
      auto prepared = exec::PrepareWorkload(session->get(), workload);
      TERTIO_CHECK(prepared.ok(), prepared.status().ToString());
      join::JoinSpec spec;
      spec.r = &prepared->r;
      spec.s = &prepared->s;
      Result<join::JoinStats> audited =
          join::CreateJoinMethod(Exp3Methods()[m])->Execute(spec, (*session)->context());
      const Status audit = auditor->Check();
      TERTIO_CHECK(audit.ok(), audit.ToString());
      const Result<join::JoinStats>& plain = sweep.runs[i][m];
      TERTIO_CHECK(audited.ok() == plain.ok(), "audit changed feasibility at a spot-check point");
      if (!audited.ok()) continue;
      TERTIO_CHECK(audited->response_seconds == plain->response_seconds &&
                       audited->step1_seconds == plain->step1_seconds &&
                       audited->step2_seconds == plain->step2_seconds &&
                       audited->disk_requests == plain->disk_requests &&
                       audited->disk_blocks_read == plain->disk_blocks_read &&
                       audited->disk_blocks_written == plain->disk_blocks_written &&
                       audited->tape_blocks_read == plain->tape_blocks_read &&
                       audited->peak_disk_blocks == plain->peak_disk_blocks,
                   "an audited run diverged from the sweep's unaudited run");
      checks += auditor->checks_performed();
      ++points;
    }
  }
  std::printf("Closed-form spot-check: %d feasible grid points audited clean (%llu checks; "
              "every coalesced window re-derived by the O(chunks) replay)\n",
              points, static_cast<unsigned long long>(checks));
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
  if (scale != 1) SpotCheckClosedForm(sweep, scale);
  return recorder.Finish();
}

}  // namespace
}  // namespace tertio::bench

int main(int argc, char** argv) { return tertio::bench::Run(argc, argv); }
