/// \file join_method.cc
/// The admission step every join method runs through: validate the spec,
/// plan, check the plan against what the context has free, then run the
/// family's executor inside one JoinRun holding the join's memory lease.

#include "join/join_method.h"

#include <string>

#include "join/join_common.h"
#include "mem/memory_budget.h"
#include "util/string_util.h"

namespace tertio::join {
namespace {

/// A method's planner and executor.
struct Family {
  Result<JoinPlan> (*plan)(JoinMethodId, const JoinSpec&, const JoinContext&);
  Status (*execute)(JoinRun&, const JoinPlan&);
};

Family FamilyOf(JoinMethodId id) {
  switch (id) {
    case JoinMethodId::kDtNb:
    case JoinMethodId::kCdtNbMb:
    case JoinMethodId::kCdtNbDb:
      return {PlanNb, ExecuteNb};
    case JoinMethodId::kDtGh:
    case JoinMethodId::kCdtGh:
      return {PlanGh, ExecuteGh};
    case JoinMethodId::kCttGh:
      return {PlanTt, ExecuteCttGh};
    case JoinMethodId::kTtGh:
      break;
  }
  return {PlanTt, ExecuteTtGh};
}

/// Validates a spec against a context: relations present, |R| <= |S|, both
/// real or both phantom, tapes mounted in the right drives.
Status ValidateSpecAndContext(const JoinSpec& spec, const JoinContext& ctx) {
  if (spec.r == nullptr || spec.s == nullptr) {
    return Status::InvalidArgument("join spec requires both relations");
  }
  if (ctx.sim == nullptr || ctx.drive_r == nullptr || ctx.drive_s == nullptr ||
      ctx.disks == nullptr || ctx.memory == nullptr) {
    return Status::InvalidArgument("join context is incomplete");
  }
  if (spec.r->blocks == 0 || spec.s->blocks == 0) {
    return Status::InvalidArgument("cannot join empty relations");
  }
  if (spec.r->blocks > spec.s->blocks) {
    return Status::InvalidArgument("R must be the smaller relation (swap the inputs)");
  }
  if (spec.r->phantom != spec.s->phantom) {
    return Status::InvalidArgument("relations must both be real or both be phantom");
  }
  if (ctx.drive_r->volume() != spec.r->volume) {
    return Status::FailedPrecondition("tape R is not mounted in drive R");
  }
  if (ctx.drive_s->volume() != spec.s->volume) {
    return Status::FailedPrecondition("tape S is not mounted in drive S");
  }
  if (spec.r->block_bytes != ctx.disks->block_bytes() ||
      spec.s->block_bytes != ctx.disks->block_bytes()) {
    return Status::InvalidArgument("relation and disk block sizes disagree");
  }
  return Status::OK();
}

}  // namespace

Result<ResourceRequirements> JoinMethod::Requirements(const JoinSpec& spec,
                                                      const JoinContext& ctx) const {
  TERTIO_ASSIGN_OR_RETURN(JoinPlan plan, FamilyOf(id_).plan(id_, spec, ctx));
  return plan.needs;
}

Result<JoinStats> JoinMethod::Execute(const JoinSpec& spec, const JoinContext& ctx) const {
  TERTIO_RETURN_IF_ERROR(ValidateSpecAndContext(spec, ctx));
  const Family family = FamilyOf(id_);
  TERTIO_ASSIGN_OR_RETURN(JoinPlan plan, family.plan(id_, spec, ctx));
  const BlockCount memory_free = ctx.memory->free_blocks();
  const BlockCount disk_free = ctx.disks->allocator().free_blocks();
  if (plan.needs.memory_blocks > memory_free || plan.needs.disk_blocks > disk_free) {
    return Status::ResourceExhausted(StrFormat(
        "%s needs %llu memory and %llu disk blocks; %llu and %llu are free",
        std::string(name()).c_str(),
        static_cast<unsigned long long>(plan.needs.memory_blocks.value()),
        static_cast<unsigned long long>(plan.needs.disk_blocks.value()),
        static_cast<unsigned long long>(memory_free.value()),
        static_cast<unsigned long long>(disk_free.value())));
  }
  JoinRun run(id_, spec, ctx);
  TERTIO_ASSIGN_OR_RETURN(
      run.memory,
      mem::BudgetLease::Acquire(ctx.memory, plan.needs.memory_blocks, std::string(name())));
  TERTIO_RETURN_IF_ERROR(family.execute(run, plan));
  return std::move(run.stats);
}

std::unique_ptr<JoinMethod> CreateJoinMethod(JoinMethodId id) {
  return std::make_unique<JoinMethod>(id);
}

}  // namespace tertio::join
