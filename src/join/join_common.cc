#include "join/join_common.h"

#include <algorithm>

#include "relation/block.h"
#include "relation/tuple.h"

namespace tertio::join {
namespace {

/// Pipeline sink probing a Transfer's chunks through a hash table — the
/// "consumer is the CPU" end of a scan. Probing is free in the system model
/// (Section 3.2); the sink exists so consumption is a declared stage.
class ProbeSink final : public sim::BlockSink {
 public:
  /// `table` may be null (scan without probing, e.g. an empty build side);
  /// `store`, when set, holds the decoded blocks by their offset in the scan.
  ProbeSink(const FlatJoinTable* table, const rel::Schema* probe_schema,
            std::size_t probe_key_column, JoinOutput* out, DecodedColumnStore* store)
      : table_(table), schema_(probe_schema), key_(probe_key_column), out_(out), store_(store) {}

  Result<sim::Interval> Write(BlockCount offset, BlockCount count, SimSeconds ready,
                              std::vector<BlockPayload>* payloads) override {
    (void)count;
    if (payloads != nullptr && table_ != nullptr) {
      TERTIO_RETURN_IF_ERROR(table_->Probe(*payloads, schema_, key_, out_, store_,
                                           static_cast<std::size_t>(offset.value())));
    }
    return sim::Interval::At(ready);
  }
  /// Probing is free in the system model, so phantom chunks coalesce freely.
  sim::ChunkCostProfile CostProfile(BlockCount offset, BlockCount chunk,
                                    std::uint64_t max_chunks) override {
    (void)offset;
    (void)chunk;
    return sim::ChunkCostProfile::Free(max_chunks);
  }
  std::string_view device() const override { return "mem"; }

 private:
  const FlatJoinTable* table_;
  const rel::Schema* schema_;
  std::size_t key_;
  JoinOutput* out_;
  DecodedColumnStore* store_;
};

/// Aggregated fault counters of every device in `ctx` (drives + disks);
/// zero when no device carries an injector.
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

}  // namespace

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

JoinRun::JoinRun(JoinMethodId id, const JoinSpec& spec, const JoinContext& ctx)
    : id(id),
      spec(spec),
      ctx(ctx),
      phantom(spec.r->phantom),
      scope(ctx),
      pipe(scope.start(), &stats.spans, ctx.sim->auditor()) {
  stats.method = std::string(JoinMethodName(id));
  stats.spans.set_retain(ctx.retain_spans);
  if (!phantom && spec.match_sink) output.set_sink(spec.match_sink);
}

void JoinRun::Finish(SimSeconds step1_end, SimSeconds finish) {
  stats.step1_seconds = step1_end - scope.start();
  stats.step2_seconds = finish - step1_end;
  stats.chunk_retries = pipe.chunk_retries();
  scope.Fill(&stats);
  stats.response_seconds = std::max(stats.response_seconds, finish - scope.start());
  stats.output_valid = !phantom;
  stats.output_tuples = output.tuples();
  stats.output_checksum = output.checksum();
  stats.peak_disk_blocks = std::max(stats.peak_disk_blocks, ctx.disks->allocator().used_blocks());
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
  plan.chunk_retry_limit = kChunkRetryLimit;
  TERTIO_ASSIGN_OR_RETURN(sim::Pipeline::TransferResult result,
                          pipe.Transfer(plan, source, sink, deps));
  staged.done_stage = pipe.Event("stage:done", result.done);
  staged.done = pipe.end(staged.done_stage);
  return staged;
}

Result<sim::StageId> ScanAndProbe(sim::Pipeline& pipe, std::string_view phase,
                                  sim::BlockSource& source, BlockCount total,
                                  BlockCount chunk_blocks, std::span<const sim::StageId> deps,
                                  bool phantom, const rel::Schema* probe_schema,
                                  std::size_t probe_key, const FlatJoinTable* table,
                                  JoinOutput* out, DecodedColumnStore* store) {
  ProbeSink sink(table, probe_schema, probe_key, out, store);
  sim::Pipeline::TransferPlan plan;
  plan.read_phase = phase;
  plan.write_phase = "probe";
  plan.total = total;
  plan.chunk = chunk_blocks == 0 ? 1 : chunk_blocks;
  plan.streaming = true;  // reads chain read-to-read; probing is free
  plan.move_payloads = !phantom;
  plan.chunk_retry_limit = kChunkRetryLimit;
  TERTIO_ASSIGN_OR_RETURN(sim::Pipeline::TransferResult result,
                          pipe.Transfer(plan, source, sink, deps));
  if (result.last_read == sim::kNoStage) return pipe.Barrier(phase, deps);
  return result.last_read;
}

Result<sim::StageId> ScanDiskAndProbe(const JoinContext& ctx, sim::Pipeline& pipe,
                                      std::string_view phase, const disk::ExtentList& extents,
                                      BlockCount chunk_blocks,
                                      std::span<const sim::StageId> deps, bool phantom,
                                      const rel::Schema* probe_schema, std::size_t probe_key,
                                      const FlatJoinTable* table, JoinOutput* out) {
  disk::ExtentReadSource source(ctx.disks, &extents);
  return ScanAndProbe(pipe, phase, source, disk::TotalBlocks(extents), chunk_blocks, deps,
                      phantom, probe_schema, probe_key, table, out);
}

BlockCount DefaultTapeChunk(const rel::Relation& relation) {
  // Stream in ~1/64ths of the relation, clamped to a sensible request size.
  BlockCount chunk = relation.blocks / 64;
  if (chunk < 8) chunk = 8;
  if (chunk > 2048) chunk = 2048;
  if (chunk > relation.blocks) chunk = relation.blocks;
  return chunk;
}

hash::DiskPartitioner::Options BucketOptions(const rel::Relation& relation,
                                             std::size_t key_column,
                                             const hash::BucketLayout& layout,
                                             std::string alloc_tag,
                                             mem::InterleavedBuffer* space,
                                             std::uint32_t first_bucket,
                                             std::uint32_t bucket_span) {
  hash::DiskPartitioner::Options options;
  options.schema = relation.phantom ? nullptr : &relation.schema;
  options.key_column = key_column;
  options.bucket_count = layout.bucket_count;
  options.write_buffer_blocks = layout.write_buffer_blocks;
  options.first_bucket = first_bucket;
  options.bucket_span = bucket_span;
  options.alloc_tag = std::move(alloc_tag);
  options.space = space;
  return options;
}

Result<HashedScan> HashTapeToDisk(JoinRun& run, const HashPhases& phases,
                                  tape::TapeDrive* drive, const rel::Relation& relation,
                                  BlockCount offset, BlockCount count, BlockCount chunk,
                                  bool streaming, hash::DiskPartitioner* partitioner,
                                  sim::StageId after) {
  tape::TapeReadSource source(drive, relation.start_block + offset);
  hash::PartitionerSink sink(partitioner);
  sim::Pipeline::TransferPlan plan;
  plan.read_phase = phases.read_phase;
  plan.write_phase = phases.write_phase;
  plan.total = count;
  plan.chunk = chunk;
  plan.streaming = streaming;
  plan.move_payloads = !relation.phantom;
  plan.chunk_retry_limit = kChunkRetryLimit;
  TERTIO_ASSIGN_OR_RETURN(sim::Pipeline::TransferResult result,
                          run.pipe.Transfer(plan, source, sink, {after}));
  HashedScan scan;
  scan.tape = streaming ? result.last_read : result.last_write;
  TERTIO_ASSIGN_OR_RETURN(scan.flush,
                          sink.IssueFlush(run.pipe, phases.flush_phase, {scan.tape}));
  return scan;
}

}  // namespace tertio::join
