#include "join/join_common.h"

#include <algorithm>

#include "relation/block.h"
#include "relation/tuple.h"
#include "util/string_util.h"

namespace tertio::join {

Result<sim::Interval> ProbeSink::Write(BlockCount offset, BlockCount count, SimSeconds ready,
                                       std::vector<BlockPayload>* payloads) {
  (void)offset;
  (void)count;
  if (payloads != nullptr && table_ != nullptr) {
    TERTIO_RETURN_IF_ERROR(table_->Probe(*payloads, schema_, key_, out_));
  }
  return sim::Interval::At(ready);
}

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

sim::FaultStats ContextFaultStats(const JoinContext& ctx) {
  sim::FaultStats total;
  if (ctx.drive_r != nullptr && ctx.drive_r->fault_injector() != nullptr) {
    total.Add(ctx.drive_r->fault_injector()->stats());
  }
  if (ctx.drive_s != nullptr && ctx.drive_s->fault_injector() != nullptr &&
      ctx.drive_s != ctx.drive_r) {
    total.Add(ctx.drive_s->fault_injector()->stats());
  }
  if (ctx.disks != nullptr) total.Add(ctx.disks->TotalFaultStats());
  return total;
}

StatsScope::StatsScope(const JoinContext& ctx)
    : ctx_(ctx),
      start_(ctx.exact_anchor ? ctx.not_before
                              : std::max(ctx.sim->Horizon(), ctx.not_before)),
      tape_r_before_(ctx.drive_r->stats()),
      tape_s_before_(ctx.drive_s->stats()),
      disk_before_(ctx.disks->TotalStats()),
      mem_reserved_before_(ctx.memory->reserved_blocks()),
      robot_ops_before_(ctx.robot != nullptr ? ctx.robot->stats().op_count : 0),
      faults_before_(ContextFaultStats(ctx)) {
  if (ctx.exact_anchor) {
    resource_horizons_before_.reserve(ctx.sim->resources().size());
    for (const auto& r : ctx.sim->resources()) {
      resource_horizons_before_.push_back(r->stats().horizon);
    }
  }
}

void StatsScope::Fill(JoinStats* stats) const {
  // SimSan: a join just finished — cross-check the O(1) horizon cache
  // against a recomputation before reporting response time off it.
  ctx_.sim->AuditHorizon();
  const tape::TapeDriveStats& r = ctx_.drive_r->stats();
  const tape::TapeDriveStats& s = ctx_.drive_s->stats();
  disk::DiskStats d = ctx_.disks->TotalStats();
  stats->tape_blocks_read =
      (r.blocks_read - tape_r_before_.blocks_read) + (s.blocks_read - tape_s_before_.blocks_read);
  stats->tape_blocks_written = (r.blocks_written - tape_r_before_.blocks_written) +
                               (s.blocks_written - tape_s_before_.blocks_written);
  stats->tape_blocks_shared = (r.blocks_shared - tape_r_before_.blocks_shared) +
                              (s.blocks_shared - tape_s_before_.blocks_shared);
  stats->tape_blocks_cached = (r.blocks_cached - tape_r_before_.blocks_cached) +
                              (s.blocks_cached - tape_s_before_.blocks_cached);
  stats->disk_blocks_read = d.blocks_read - disk_before_.blocks_read;
  stats->disk_blocks_written = d.blocks_written - disk_before_.blocks_written;
  stats->disk_requests = d.requests - disk_before_.requests;
  if (ctx_.exact_anchor) {
    // Another session may be in flight on other devices (or queued later on
    // shared ones), so the global horizon is not this join's end. The join
    // ends at the latest horizon among the resources *it* advanced.
    SimSeconds join_end = start_;
    const auto& resources = ctx_.sim->resources();
    for (std::size_t i = 0; i < resources.size(); ++i) {
      SimSeconds after = resources[i]->stats().horizon;
      SimSeconds before =
          i < resource_horizons_before_.size() ? resource_horizons_before_[i] : 0.0;
      if (after > before && after > join_end) join_end = after;
    }
    stats->response_seconds = join_end - start_;
  } else {
    stats->response_seconds = ctx_.sim->Horizon() - start_;
  }
  stats->peak_memory_blocks = ctx_.memory->peak_reserved_blocks();
  BlockCount reserved = ctx_.memory->reserved_blocks();
  stats->memory_occupied_blocks =
      reserved > mem_reserved_before_ ? reserved - mem_reserved_before_ : 0;
  stats->robot_exchanges =
      ctx_.robot != nullptr ? ctx_.robot->stats().op_count - robot_ops_before_ : 0;
  sim::FaultStats faults = ContextFaultStats(ctx_);
  stats->faults_injected = faults.faults() - faults_before_.faults();
  stats->fault_retries = faults.retries - faults_before_.retries;
  stats->blocks_remapped = faults.bad_blocks_remapped - faults_before_.bad_blocks_remapped;
  stats->recovery_seconds = faults.recovery_seconds - faults_before_.recovery_seconds;
}

Result<StagedRelation> StageRelationToDisk(const JoinContext& ctx, sim::Pipeline& pipe,
                                           tape::TapeDrive* drive,
                                           const rel::Relation& relation,
                                           BlockCount chunk_blocks, bool concurrent,
                                           const std::string& alloc_tag,
                                           std::span<const sim::StageId> deps) {
  if (chunk_blocks == 0) chunk_blocks = 1;
  StagedRelation staged;
  TERTIO_ASSIGN_OR_RETURN(staged.space,
                          disk::ExtentLease::Allocate(&ctx.disks->allocator(), relation.blocks,
                                                      pipe.ReadyAfter(deps), alloc_tag));

  tape::TapeReadSource source(drive, relation.start_block);
  disk::ExtentWriteSink sink(ctx.disks, &staged.space.extents());
  sim::Pipeline::TransferPlan plan;
  plan.read_phase = "stage:tape-read";
  plan.write_phase = "stage:disk-write";
  plan.total = relation.blocks;
  plan.chunk = chunk_blocks;
  plan.streaming = concurrent;
  plan.move_payloads = !relation.phantom;
  plan.chunk_retry_limit = ctx.chunk_retry_limit;
  plan.commit = ctx.commit;
  TERTIO_ASSIGN_OR_RETURN(sim::Pipeline::TransferResult result,
                          pipe.Transfer(plan, source, sink, deps));
  staged.done_stage = pipe.Event("stage:done", result.done);
  staged.done = pipe.end(staged.done_stage);
  return staged;
}

Result<sim::StageId> ScanDiskAndProbe(const JoinContext& ctx, sim::Pipeline& pipe,
                                      std::string_view phase, const disk::ExtentList& extents,
                                      BlockCount chunk_blocks,
                                      std::span<const sim::StageId> deps, bool phantom,
                                      const rel::Schema* probe_schema, std::size_t probe_key,
                                      const HashJoinTable* table, JoinOutput* out) {
  if (chunk_blocks == 0) chunk_blocks = 1;
  disk::ExtentReadSource source(ctx.disks, &extents);
  ProbeSink sink(table, probe_schema, probe_key, out);
  sim::Pipeline::TransferPlan plan;
  plan.read_phase = phase;
  plan.write_phase = "probe";
  plan.total = disk::TotalBlocks(extents);
  plan.chunk = chunk_blocks;
  plan.streaming = true;  // reads chain read-to-read; probing is free
  plan.move_payloads = !phantom;
  plan.chunk_retry_limit = ctx.chunk_retry_limit;
  plan.commit = ctx.commit;
  TERTIO_ASSIGN_OR_RETURN(sim::Pipeline::TransferResult result,
                          pipe.Transfer(plan, source, sink, deps));
  if (result.last_read == sim::kNoStage) return pipe.Barrier(phase, deps);
  return result.last_read;
}

BlockCount DefaultTapeChunk(const rel::Relation& relation) {
  // Stream in ~1/64ths of the relation, clamped to a sensible request size.
  BlockCount chunk = relation.blocks / 64;
  if (chunk < 8) chunk = 8;
  if (chunk > 2048) chunk = 2048;
  if (chunk > relation.blocks) chunk = relation.blocks;
  return chunk;
}

}  // namespace tertio::join
