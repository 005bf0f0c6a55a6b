/// \file bench_fig4_disk_utilization.cc
/// Reproduces Figure 4: disk space utilization during Step II of CTT-GH
/// (Join III of Table 3: |S| = 5,000 MB, |R| = 2,500 MB, D = 500 MB,
/// M = 16 MB).
///
/// The paper's figure shows a shark-toothed line for the even-numbered
/// iterations' buffer usage, the odd iterations filling the space between,
/// and total utilization at or near 100% — the signature of interleaved
/// double-buffering (one shared physical buffer, two logical buffers).

#include <algorithm>

#include "bench/bench_util.h"
#include "disk/allocator.h"

namespace tertio::bench {
namespace {

int Run(int argc, char** argv) {
  BenchRecorder recorder("fig4_disk_utilization", argc, argv);
  Banner("Figure 4 — disk space utilization in CTT-GH Step II (Join III)",
         "Section 7, Figure 4",
         "even/odd iteration usage alternates (shark teeth); total ~100%");
  exec::Site site(exec::SiteConfig::PaperTestbed(500 * kMB, 16 * kMB));
  std::unique_ptr<exec::QuerySession> session =
      exec::QuerySession::Open(&site, exec::SessionResources::WholeSite(site)).value();
  disk::DiskSpaceAllocator& allocator = session->disks().allocator();
  allocator.EnableTrace();

  exec::WorkloadConfig workload;
  workload.r_bytes = 2500 * kMB;
  workload.s_bytes = 5000 * kMB;
  workload.compressibility = kBaseCompressibility;
  workload.phantom = true;
  auto prepared = exec::PrepareWorkload(session.get(), workload);
  TERTIO_CHECK(prepared.ok(), "workload setup failed");
  join::JoinSpec spec;
  spec.r = &prepared->r;
  spec.s = &prepared->s;
  auto executor = join::CreateJoinMethod(JoinMethodId::kCttGh);
  join::JoinContext ctx = session->context();
  auto stats = executor->Execute(spec, ctx);
  TERTIO_CHECK(stats.ok(), stats.status().ToString());
  recorder.RecordSim("CTT-GH Join III", stats->response_seconds);

  // Replay the allocator trace over the Step II window, tracking usage by
  // iteration parity. Events are recorded in issue order; the virtual-time
  // overlap of the two logical buffers requires sorting by timestamp.
  std::vector<disk::UsageEvent> trace = allocator.trace();
  std::stable_sort(trace.begin(), trace.end(),
                   [](const disk::UsageEvent& a, const disk::UsageEvent& b) {
                     return a.time < b.time;
                   });
  BlockCount capacity = allocator.capacity_blocks();
  SimSeconds t_begin = stats->step1_seconds;
  SimSeconds t_end = stats->response_seconds;
  const int kSamples = 32;

  exec::SeriesReport series("time (s)", {"even-iter (MB)", "odd-iter (MB)", "total util (%)"});
  std::int64_t even = 0, odd = 0;
  size_t cursor = 0;
  double mean_util = 0.0;
  int counted = 0;
  for (int sample = 1; sample <= kSamples; ++sample) {
    SimSeconds t = t_begin + (t_end - t_begin) * sample / kSamples;
    while (cursor < trace.size() && trace[cursor].time <= t) {
      const disk::UsageEvent& event = trace[cursor];
      if (event.tag == "S-iter-even") even += event.delta_blocks;
      if (event.tag == "S-iter-odd") odd += event.delta_blocks;
      ++cursor;
    }
    double total_pct = 100.0 * static_cast<double>(even + odd) / static_cast<double>(capacity.value());
    series.AddPoint(
        t.value(), {static_cast<double>(
                BlocksToBytes(static_cast<BlockCount>(even), kDefaultBlockBytes).value()) /
                static_cast<double>(kMB.value()),
            static_cast<double>(
                BlocksToBytes(static_cast<BlockCount>(odd), kDefaultBlockBytes).value()) /
                static_cast<double>(kMB.value()),
            total_pct});
    // Skip warm-up and drain when judging steady-state utilization.
    if (sample > 2 && sample < kSamples - 1) {
      mean_util += total_pct;
      ++counted;
    }
  }
  series.Print(1);
  std::printf("\nSteady-state mean total utilization: %.1f%% (paper: at or near 100%%)\n",
              counted > 0 ? mean_util / counted : 0.0);
  recorder.RecordMetric("steady_state_mean_utilization_pct",
                        counted > 0 ? mean_util / counted : 0.0);
  return recorder.Finish();
}

}  // namespace
}  // namespace tertio::bench

int main(int argc, char** argv) { return tertio::bench::Run(argc, argv); }
