#include "join/advisor.h"

#include <algorithm>

namespace tertio::join {

Result<AdvisorReport> AdviseJoinMethod(const cost::CostParams& params) {
  AdvisorReport report;
  for (JoinMethodId method : kAllJoinMethods) {
    auto estimate = cost::Estimate(method, params);
    if (estimate.ok()) {
      report.ranked.push_back(AdvisorChoice{method, estimate.value()});
    } else {
      report.rejected.push_back(AdvisorReport::Rejection{method, estimate.status()});
    }
  }
  if (report.ranked.empty()) {
    // Every estimate runs the same input check first, so invalid input
    // rejects all seven alike: report it as such, not as a shortage.
    const Status& first = report.rejected.front().reason;
    if (first.code() == StatusCode::kInvalidArgument) return first;
    return Status::ResourceExhausted(
        "no join method is feasible for this configuration (too little memory?)");
  }
  std::stable_sort(report.ranked.begin(), report.ranked.end(),
                   [](const AdvisorChoice& a, const AdvisorChoice& b) {
                     return a.estimate.total_seconds < b.estimate.total_seconds;
                   });
  return report;
}

}  // namespace tertio::join
