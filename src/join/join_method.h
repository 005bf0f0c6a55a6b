#pragma once

/// \file join_method.h
/// The seven tertiary join methods (Section 5) behind one class.
///
/// Usage:
///   auto method = CreateJoinMethod(JoinMethodId::kCttGh);
///   TERTIO_ASSIGN_OR_RETURN(JoinStats stats, method->Execute(spec, ctx));
///
/// Each method family (nested block, disk–tape hash, tape–tape hash) has one
/// planner, which computes Table 2 for a spec in a context together with the
/// geometry its executor runs with. Requirements() reports that plan, and
/// Execute() admits exactly it: it validates the spec, plans, and refuses
/// with ResourceExhausted when the plan's memory or disk exceeds what the
/// context has free, before any device is touched. An admitted join holds
/// one memory lease of the planned size for its whole run.
///
/// Execute runs the *whole* algorithm against the simulated devices in the
/// context: it moves the actual relation blocks, charges every I/O to the
/// device timelines, and returns both the join result digest and the
/// response-time breakdown. Scratch state (disk allocations, tape scratch
/// appends, memory reservations) is restored before returning, on success
/// and on error alike, so the same context can run several joins back to
/// back.

#include <memory>
#include <string_view>

#include "cost/method_id.h"
#include "join/join_spec.h"
#include "util/status.h"

namespace tertio::join {

/// One of the paper's join algorithms.
class JoinMethod {
 public:
  explicit JoinMethod(JoinMethodId id) : id_(id) {}

  JoinMethodId id() const { return id_; }
  std::string_view name() const { return JoinMethodName(id_); }

  /// Table 2: the resources this method needs for `spec` in `ctx` (sizes
  /// that depend on the bucket count or the NB split are evaluated against
  /// the context's actual memory and free disk). Execute admits the join
  /// exactly when these fit what the context has free.
  Result<ResourceRequirements> Requirements(const JoinSpec& spec, const JoinContext& ctx) const;

  /// Runs the join. Fails with ResourceExhausted, without side effects, when
  /// Requirements() does not fit the context. An admitted join can still
  /// fail on its data: a TT-GH bucket that hashing made larger than the
  /// disk assembly area Table 2 sizes for uniform hashing.
  Result<JoinStats> Execute(const JoinSpec& spec, const JoinContext& ctx) const;

 private:
  JoinMethodId id_;
};

/// The method `id`.
std::unique_ptr<JoinMethod> CreateJoinMethod(JoinMethodId id);

}  // namespace tertio::join
