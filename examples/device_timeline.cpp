/// \file device_timeline.cpp
/// Visualizing parallel I/O: run the sequential DT-GH and the concurrent
/// CDT-GH on the same workload with device tracing on, and print ASCII
/// Gantt timelines. The concurrent variant's tape and disk rows overlap —
/// that overlap *is* the paper's contribution in one picture.

#include <cstdio>

#include "exec/experiment.h"
#include "join/join_method.h"
#include "sim/trace_report.h"
#include "util/string_util.h"

using namespace tertio;

namespace {

int RunOne(JoinMethodId method_id) {
  exec::Site site(exec::SiteConfig::PaperTestbed(60 * kMB, 4 * kMB));
  for (const auto& resource : site.sim().resources()) {
    resource->EnableTrace();
  }
  std::unique_ptr<exec::QuerySession> session =
      exec::QuerySession::Open(&site, exec::SessionResources::WholeSite(site)).value();
  exec::WorkloadConfig workload;
  workload.r_bytes = 20 * kMB;
  workload.s_bytes = 120 * kMB;
  workload.phantom = true;
  auto prepared = exec::PrepareWorkload(session.get(), workload);
  if (!prepared.ok()) return 1;
  join::JoinSpec spec;
  spec.r = &prepared->r;
  spec.s = &prepared->s;
  auto method = join::CreateJoinMethod(method_id);
  join::JoinContext ctx = session->context();
  auto stats = method->Execute(spec, ctx);
  if (!stats.ok()) {
    std::fprintf(stderr, "%s failed: %s\n", std::string(JoinMethodName(method_id)).c_str(),
                 stats.status().ToString().c_str());
    return 1;
  }
  std::printf("\n%s — response %s ('#' busy, '.' idle):\n\n", stats->method.c_str(),
              FormatDuration(stats->response_seconds).c_str());
  sim::GanttOptions options;
  options.width = 96;
  std::fputs(sim::RenderGantt(site.sim(), options).c_str(), stdout);
  return 0;
}

}  // namespace

int main() {
  std::printf("Join of 20 MB (tape R) with 120 MB (tape S), D = 60 MB, M = 4 MB.\n");
  std::printf("Sequential vs concurrent Grace Hash Join on the device timelines:\n");
  if (RunOne(JoinMethodId::kDtGh) != 0) return 1;
  if (RunOne(JoinMethodId::kCdtGh) != 0) return 1;
  std::printf(
      "\nIn DT-GH one device works at a time (the single process blocks on\n"
      "each I/O); in CDT-GH the tapeS row overlaps the disk rows — the\n"
      "parallel I/O that cuts the response time.\n");
  return 0;
}
