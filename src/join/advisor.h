#pragma once

/// \file advisor.h
/// Method selection: the paper's conclusions (Section 10) as an API.
///
/// Given the machine's resources and the relation sizes, the advisor ranks
/// the feasible methods by their analytical cost estimate and returns the
/// winner plus the full ranking. The paper's qualitative rules emerge from
/// the estimates:
///  * very large |R| (beyond disk) — CTT-GH is the sole candidate;
///  * ample disk but little memory — CDT-GH;
///  * a large fraction of R fits in memory — CDT-NB/MB.

#include <vector>

#include "cost/cost_model.h"
#include "cost/method_id.h"
#include "util/status.h"

namespace tertio::join {

/// One ranked candidate.
struct AdvisorChoice {
  JoinMethodId method;
  cost::CostBreakdown estimate;
};

/// Full advisor output: feasible methods ranked by estimated response time
/// (fastest first) plus the infeasible ones with their reasons.
struct AdvisorReport {
  std::vector<AdvisorChoice> ranked;
  struct Rejection {
    JoinMethodId method;
    Status reason;
  };
  std::vector<Rejection> rejected;

  const AdvisorChoice& best() const { return ranked.front(); }
};

/// Ranks all seven methods for the given configuration. Fails only if *no*
/// method is feasible: with the shared input check's InvalidArgument when
/// the inputs are invalid (e.g. |R| > |S|), ResourceExhausted otherwise.
Result<AdvisorReport> AdviseJoinMethod(const cost::CostParams& params);

}  // namespace tertio::join
