/// \file capacity_planning.cpp
/// Using the analytical cost model for capacity planning: "this join must
/// finish overnight — how much disk and memory does the workstation need,
/// and which method should run?"
///
/// Sweeps a disk x memory grid, asks the advisor for the best method and
/// estimate in each cell, and marks the cells that meet the deadline.

#include <cstdio>
#include <vector>

#include "exec/experiment.h"
#include "exec/report.h"
#include "join/advisor.h"
#include "util/string_util.h"

using namespace tertio;

int main() {
  // The join to plan: 4 GB fact against a 1 GB dimension, both on tape.
  constexpr ByteCount kRBytes = 1000 * kMB;
  constexpr ByteCount kSBytes = 4000 * kMB;
  constexpr double kDeadlineHours = 8.0;

  std::printf("Planning: %s JOIN %s, deadline %.0f h (overnight)\n\n",
              FormatBytes(kRBytes).c_str(), FormatBytes(kSBytes).c_str(), kDeadlineHours);

  const std::vector<ByteCount> disk_options = {100 * kMB, 500 * kMB, 1200 * kMB,
                                               3000 * kMB, 4000 * kMB};
  const std::vector<ByteCount> memory_options = {8 * kMB, 64 * kMB, 512 * kMB, 1200 * kMB};

  exec::TableReport table({"disk \\ memory", "8 MB", "64 MB", "512 MB", "1.2 GB"});
  for (ByteCount disk : disk_options) {
    std::vector<std::string> row{FormatBytes(disk)};
    for (ByteCount memory : memory_options) {
      // The candidate workstation: the paper's testbed with this D and M,
      // leased whole to the join, with the relations on tape (timing-only).
      exec::Site site(exec::SiteConfig::PaperTestbed(disk, memory));
      std::unique_ptr<exec::QuerySession> session =
          exec::QuerySession::Open(&site, exec::SessionResources::WholeSite(site)).value();
      exec::WorkloadConfig workload;
      workload.r_bytes = kRBytes;
      workload.s_bytes = kSBytes;
      auto prepared = exec::PrepareWorkload(session.get(), workload);
      if (!prepared.ok()) return 1;
      join::JoinSpec spec;
      spec.r = &prepared->r;
      spec.s = &prepared->s;
      auto advice = join::AdviseJoinMethod(exec::CostParamsFor(*session, spec));
      if (!advice.ok()) {
        row.push_back("infeasible");
        continue;
      }
      const auto& best = advice->best();
      double hours = (best.estimate.total_seconds / 3600.0).value();
      row.push_back(StrFormat("%s %.1fh%s", std::string(JoinMethodName(best.method)).c_str(),
                              hours, hours <= kDeadlineHours ? " *" : ""));
    }
    table.AddRow(std::move(row));
  }
  table.Print();
  std::printf("\n'*' meets the %.0f-hour deadline. Note the paper's conclusions appear\n",
              kDeadlineHours);
  std::printf("in the grid: tape-tape CTT-GH when disk < |R|, CDT-GH with ample disk\n");
  std::printf("and tight memory, nested-block variants once memory approaches |R|.\n");
  return 0;
}
