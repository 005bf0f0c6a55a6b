/// \file bench_fig6_disk_requirement.cc
/// Reproduces Figure 6 (disk space requirement vs memory size, Experiment 3)
/// and prints Table 2 (resource requirements of all seven methods).
///
/// DT-NB and CDT-NB/MB always need exactly |R| of disk; CDT-NB/DB needs
/// |R| + |Si| (grows with memory); the Grace methods use all of D.

#include "bench/exp3_common.h"

namespace tertio::bench {
namespace {

int Run(int argc, char** argv) {
  BenchRecorder recorder("fig6_disk_requirement", argc, argv);
  Banner("Figure 6 — disk space requirement vs memory size (Experiment 3)",
         "Section 9, Figure 6 + Table 2",
         "NB: |R| flat; CDT-NB/DB grows with M; DT-GH/CDT-GH fixed at D");
  exec::SeriesReport series("M/|R|", Exp3Labels(" (MB)"));
  for (double f : Exp3MemoryFractions()) {
    auto memory_bytes = static_cast<ByteCount>(f * static_cast<double>(kExp3R.value()));
    std::vector<double> values;
    for (JoinMethodId method : Exp3Methods()) {
      cost::CostParams params;
      params.r_blocks = BytesToBlocks(kExp3R, kDefaultBlockBytes);
      params.s_blocks = BytesToBlocks(kExp3S, kDefaultBlockBytes);
      params.memory_blocks = BytesToBlocks(memory_bytes, kDefaultBlockBytes);
      params.disk_blocks = BytesToBlocks(kExp3D, kDefaultBlockBytes);
      auto estimate = cost::Estimate(method, params);
      values.push_back(
          estimate.ok()
              ? static_cast<double>(
                    BlocksToBytes(estimate->disk_space_blocks, kDefaultBlockBytes).value()) /
                    static_cast<double>(kMB.value())
              : std::nan(""));
    }
    series.AddPoint(f, values);
  }
  series.Print(1);

  std::printf("\nTable 2 — resource requirements (at M = 0.5|R|):\n");
  exec::TableReport table({"method", "M (blocks)", "D (blocks)", "T_R", "T_S"});
  exec::Site site(exec::SiteConfig::PaperTestbed(kExp3D, kExp3R / 2));
  std::unique_ptr<exec::QuerySession> session =
      exec::QuerySession::Open(&site, exec::SessionResources::WholeSite(site)).value();
  exec::WorkloadConfig workload;
  workload.r_bytes = kExp3R;
  workload.s_bytes = kExp3S;
  workload.phantom = true;
  auto prepared = exec::PrepareWorkload(session.get(), workload);
  TERTIO_CHECK(prepared.ok(), "workload setup failed");
  join::JoinSpec spec;
  spec.r = &prepared->r;
  spec.s = &prepared->s;
  join::JoinContext ctx = session->context();
  for (JoinMethodId method : kAllJoinMethods) {
    auto executor = join::CreateJoinMethod(method);
    auto req = executor->Requirements(spec, ctx);
    if (!req.ok()) {
      table.AddRow({std::string(JoinMethodName(method)), "infeasible", "-", "-", "-"});
      continue;
    }
    table.AddRow({std::string(JoinMethodName(method)),
                  StrFormat("%llu", (unsigned long long)req->memory_blocks.value()),
                  StrFormat("%llu", (unsigned long long)req->disk_blocks.value()),
                  StrFormat("%llu", (unsigned long long)req->tape_scratch_r_blocks.value()),
                  StrFormat("%llu", (unsigned long long)req->tape_scratch_s_blocks.value())});
  }
  table.Print();
  return recorder.Finish();
}

}  // namespace
}  // namespace tertio::bench

int main(int argc, char** argv) { return tertio::bench::Run(argc, argv); }
