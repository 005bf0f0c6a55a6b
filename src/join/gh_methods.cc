/// \file gh_methods.cc
/// The disk–tape Grace Hash Join pair: DT-GH (Section 5.1.2) and CDT-GH
/// (Section 5.1.4).
///
/// Step I partitions R from tape into B hash buckets on disk. Step II reads
/// S from tape in slabs of d = D - |R| blocks, partitions each slab into S
/// buckets on disk, and joins every (R-bucket, S-bucket) pair: the R bucket
/// is read into memory as the build side, the S bucket streams through it.
/// CDT-GH overlaps the tape read + hashing of slab i+1 with the join of slab
/// i, double-buffering the S-bucket disk space through one shared
/// interleaved buffer (Section 4).
///
/// Both steps are declared sim::Pipeline transfers: the sequential variant's
/// "tape waits for the hash writes" is the lock-step dependency shape, the
/// concurrent variant's overlap is the streaming shape, and bucket readiness
/// enters the stage graph as events.

#include <algorithm>
#include <vector>

#include "hash/bucket_layout.h"
#include "hash/disk_partitioner.h"
#include "join/join_common.h"
#include "join/join_method.h"
#include "mem/double_buffer.h"
#include "mem/memory_budget.h"
#include "util/string_util.h"

namespace tertio::join {
namespace {

/// Joins one R bucket (build) against one S bucket (probe), both disk-
/// resident. Handles bucket overflow: if the R bucket exceeds the memory
/// allowance, it is processed in memory-sized slices, re-scanning the S
/// bucket per slice (the paper assumes uniform hashing and never overflows;
/// tertio degrades gracefully on skew instead). \returns the stage
/// completing the pair.
Result<sim::StageId> JoinBucketPair(const JoinContext& ctx, const JoinSpec& spec,
                                    sim::Pipeline& pipe, const hash::DiskBucket& r_bucket,
                                    const hash::DiskBucket& s_bucket,
                                    BlockCount r_memory_allowance, BlockCount probe_chunk,
                                    bool phantom, sim::StageId ready, JoinOutput* output,
                                    std::uint64_t* overflow_slices) {
  if (r_bucket.blocks == 0 || s_bucket.blocks == 0) {
    // Still pay for reading whichever side exists (its tuples match nothing).
    sim::StageId t = ready;
    if (r_bucket.blocks > 0) {
      TERTIO_ASSIGN_OR_RETURN(
          t, ctx.disks->IssueRead(pipe, "r-bucket-read", {t}, r_bucket.extents, nullptr,
                                  ctx.chunk_retry_limit));
    }
    if (s_bucket.blocks > 0) {
      TERTIO_ASSIGN_OR_RETURN(
          t, ScanDiskAndProbe(ctx, pipe, "s-bucket-scan", s_bucket.extents, probe_chunk, {t},
                              phantom, &spec.s->schema, spec.s_key_column, nullptr, output));
    }
    return t;
  }

  sim::StageId t = ready;
  BlockCount offset = 0;
  std::uint64_t slices = 0;
  disk::ExtentCursor cursor(&r_bucket.extents);
  disk::ExtentList slice;
  while (offset < r_bucket.blocks) {
    BlockCount take = std::min<BlockCount>(r_memory_allowance, r_bucket.blocks - offset);
    TERTIO_RETURN_IF_ERROR(cursor.Slice(offset, take, &slice));
    std::vector<BlockPayload> r_blocks;
    TERTIO_ASSIGN_OR_RETURN(
        sim::StageId read,
        ctx.disks->IssueRead(pipe, "r-bucket-read",
                             {t, pipe.Event("r-bucket-ready", r_bucket.ready)}, slice,
                             phantom ? nullptr : &r_blocks, ctx.chunk_retry_limit));
    t = read;
    HashJoinTable table(&spec.r->schema, spec.r_key_column, /*build_is_r=*/true,
                        /*capture_records=*/output->has_sink());
    if (!phantom) {
      TERTIO_RETURN_IF_ERROR(table.AddBlocks(r_blocks));
    }
    TERTIO_ASSIGN_OR_RETURN(
        t, ScanDiskAndProbe(ctx, pipe, "s-bucket-scan", s_bucket.extents, probe_chunk,
                            {t, pipe.Event("s-bucket-ready", s_bucket.ready)}, phantom,
                            &spec.s->schema, spec.s_key_column, phantom ? nullptr : &table,
                            output));
    offset += take;
    ++slices;
  }
  if (slices > 1 && overflow_slices != nullptr) *overflow_slices += slices - 1;
  return t;
}

/// Step I shared by DT-GH / CDT-GH: partition R from tape into disk buckets.
/// Sequential mode makes the tape wait for each flush (lock-step transfer);
/// concurrent mode streams the tape and lets the disk writes trail.
/// \returns the stage completing the partitioning (trailing flush included).
Result<sim::StageId> PartitionRToDisk(const JoinContext& ctx, const JoinSpec& spec,
                                      sim::Pipeline& pipe, bool concurrent,
                                      hash::DiskPartitioner* partitioner) {
  const rel::Relation& r = *spec.r;
  const bool phantom = r.phantom;
  std::uint64_t tuples_per_block =
      r.blocks > 0 ? (r.tuple_count + r.blocks - 1) / r.blocks : 0;
  tape::TapeReadSource source(ctx.drive_r, r.start_block);
  hash::PartitionerSink sink(partitioner, tuples_per_block, r.tuple_count);
  sim::Pipeline::TransferPlan plan;
  plan.read_phase = "r-hash-read";
  plan.write_phase = "r-hash-write";
  plan.total = r.blocks;
  plan.chunk = DefaultTapeChunk(r);
  plan.streaming = concurrent;
  plan.move_payloads = !phantom;
  plan.chunk_retry_limit = ctx.chunk_retry_limit;
  plan.commit = ctx.commit;
  TERTIO_ASSIGN_OR_RETURN(sim::Pipeline::TransferResult result,
                          pipe.Transfer(plan, source, sink, {}));
  return sink.IssueFlush(pipe, "r-hash-flush",
                         {concurrent ? result.last_read : result.last_write});
}

enum class GhMode { kSequential, kConcurrent };

Result<hash::BucketLayout> PlanGh(const JoinSpec& spec, const JoinContext& ctx) {
  // Real hashing makes bucket sizes fluctuate around |R|/B; plan with a 25%
  // margin so the in-memory bucket allowance absorbs the variance instead of
  // falling back to overflow slices (which re-scan the S bucket).
  BlockCount planned = spec.r->phantom ? spec.r->blocks
                                       : spec.r->blocks + spec.r->blocks / 4 + 1;
  return hash::BucketLayout::Plan(planned, ctx.memory->total_blocks(),
                                  spec.options.preferred_write_buffer);
}

Result<JoinStats> ExecuteGh(GhMode mode, JoinMethodId id, const JoinSpec& spec,
                            const JoinContext& ctx) {
  TERTIO_RETURN_IF_ERROR(ValidateSpecAndContext(spec, ctx));
  TERTIO_ASSIGN_OR_RETURN(hash::BucketLayout layout, PlanGh(spec, ctx));
  const rel::Relation& r = *spec.r;
  const rel::Relation& s = *spec.s;
  const bool phantom = r.phantom;
  const bool concurrent = mode == GhMode::kConcurrent;

  BlockCount disk_free = ctx.disks->allocator().free_blocks();
  if (disk_free <= r.blocks) {
    return Status::ResourceExhausted(
        StrFormat("%s needs disk space beyond |R| (=%llu blocks) to buffer S; only %llu free",
                  std::string(JoinMethodName(id)).c_str(),
                  static_cast<unsigned long long>(r.blocks.value()),
                  static_cast<unsigned long long>(disk_free.value())));
  }
  // Real tuples re-encode into fresh blocks; partitioned R can exceed |R| by
  // one partial block per bucket, and each S slab needs the same slack.
  if (!phantom && disk_free <= r.blocks + 2 * static_cast<BlockCount>(layout.bucket_count)) {
    return Status::ResourceExhausted(
        "full-data mode needs |R| plus two blocks per bucket of disk space");
  }
  StatsScope scope(ctx);
  TERTIO_ASSIGN_OR_RETURN(mem::BudgetLease memory,
                          mem::BudgetLease::Acquire(ctx.memory, layout.memory_blocks,
                                                    "gh/memory"));

  JoinStats stats;
  stats.method = std::string(JoinMethodName(id));
  stats.spans.set_retain(ctx.retain_spans);
  sim::Pipeline pipe(scope.start(), &stats.spans, ctx.sim->auditor());

  // ---- Step I: hash R from tape into disk buckets.
  hash::DiskPartitioner::Options r_options;
  r_options.schema = phantom ? nullptr : &r.schema;
  r_options.key_column = spec.r_key_column;
  r_options.bucket_count = layout.bucket_count;
  r_options.write_buffer_blocks = layout.write_buffer_blocks;
  r_options.alloc_tag = "R-buckets";
  hash::DiskPartitioner r_partitioner(ctx.disks, r_options);
  TERTIO_ASSIGN_OR_RETURN(sim::StageId step1_stage,
                          PartitionRToDisk(ctx, spec, pipe, concurrent, &r_partitioner));
  SimSeconds step1_end = pipe.end(step1_stage);
  stats.step1_seconds = step1_end - scope.start();
  stats.peak_disk_blocks = ctx.disks->allocator().used_blocks();

  // ---- Step II: slabs of S. The S buffer d is whatever disk space the
  // partitioned R left free (the paper's d = D - |R|).
  BlockCount d = ctx.disks->allocator().free_blocks();
  BlockCount slab = d;
  if (!phantom) {
    TERTIO_CHECK(d > layout.bucket_count, "disk margin check failed");
    slab = d - layout.bucket_count;
  }
  JoinOutput output;
  if (!phantom && spec.match_sink) output.set_sink(spec.match_sink);
  std::uint64_t overflow_slices = 0;
  mem::InterleavedBuffer space(d);
  sim::StageId tape_chain = step1_stage;
  sim::StageId join_chain = step1_stage;
  BlockCount s_chunk = std::min<BlockCount>(DefaultTapeChunk(s), slab);
  std::uint64_t s_tuples_per_block = s.blocks > 0 ? (s.tuple_count + s.blocks - 1) / s.blocks : 0;

  for (BlockCount off = 0; off < s.blocks; off += slab) {
    BlockCount take_slab = std::min<BlockCount>(slab, s.blocks - off);
    hash::DiskPartitioner::Options s_options;
    s_options.schema = phantom ? nullptr : &s.schema;
    s_options.key_column = spec.s_key_column;
    s_options.bucket_count = layout.bucket_count;
    s_options.write_buffer_blocks = layout.write_buffer_blocks;
    s_options.alloc_tag = stats.iterations % 2 == 0 ? "S-iter-even" : "S-iter-odd";
    s_options.space = &space;
    hash::DiskPartitioner s_partitioner(ctx.disks, s_options);

    // Hash process: stream this slab from tape S into disk buckets.
    tape::TapeReadSource s_source(ctx.drive_s, s.start_block + off);
    hash::PartitionerSink s_sink(&s_partitioner, s_tuples_per_block);
    sim::Pipeline::TransferPlan plan;
    plan.read_phase = "s-hash-read";
    plan.write_phase = "s-hash-write";
    plan.total = take_slab;
    plan.chunk = s_chunk;
    plan.streaming = concurrent;
    plan.move_payloads = !phantom;
    plan.chunk_retry_limit = ctx.chunk_retry_limit;
    plan.commit = ctx.commit;
    TERTIO_ASSIGN_OR_RETURN(sim::Pipeline::TransferResult slab_result,
                            pipe.Transfer(plan, s_source, s_sink, {tape_chain}));
    tape_chain = concurrent ? slab_result.last_read : slab_result.last_write;
    TERTIO_ASSIGN_OR_RETURN(sim::StageId flush,
                            s_sink.IssueFlush(pipe, "s-hash-flush", {tape_chain}));
    if (!concurrent) {
      tape_chain = flush;
      join_chain = pipe.Barrier("slab-hashed", {join_chain, tape_chain});
    }

    // Join process: every bucket pair of this slab.
    for (std::uint32_t b = 0; b < layout.bucket_count; ++b) {
      const hash::DiskBucket& rb = r_partitioner.buckets()[b];
      hash::DiskBucket& sb = s_partitioner.buckets()[b];
      TERTIO_ASSIGN_OR_RETURN(
          join_chain,
          JoinBucketPair(ctx, spec, pipe, rb, sb, layout.r_bucket_blocks,
                         layout.write_buffer_blocks, phantom, join_chain, &output,
                         &overflow_slices));
      if (sb.blocks > 0) {
        TERTIO_RETURN_IF_ERROR(
            ctx.disks->allocator().Free(sb.extents, pipe.end(join_chain), s_options.alloc_tag));
        TERTIO_RETURN_IF_ERROR(space.Release(sb.blocks, pipe.end(join_chain)));
        sb.extents.clear();
      }
    }
    if (!concurrent) tape_chain = pipe.Barrier("slab-joined", {tape_chain, join_chain});
    stats.iterations += 1;
  }

  SimSeconds finish = std::max(pipe.end(join_chain), pipe.end(tape_chain));
  stats.step2_seconds = finish - step1_end;
  stats.bucket_overflow_slices = overflow_slices;
  stats.r_scans = stats.iterations;  // R's buckets are re-read per slab
  stats.chunk_retries = pipe.chunk_retries();
  scope.Fill(&stats);
  stats.response_seconds = std::max(stats.response_seconds, finish - scope.start());
  stats.output_valid = !phantom;
  stats.output_tuples = output.tuples();
  stats.output_checksum = output.checksum();
  stats.peak_disk_blocks =
      std::max(stats.peak_disk_blocks, ctx.disks->allocator().used_blocks());

  // Restore scratch state.
  for (hash::DiskBucket& rb : r_partitioner.buckets()) {
    if (!rb.extents.empty()) {
      TERTIO_RETURN_IF_ERROR(ctx.disks->allocator().Free(rb.extents, finish, "R-buckets"));
      rb.extents.clear();
    }
  }
  memory.ReleaseNow();
  return stats;
}

class GhJoinMethod final : public JoinMethod {
 public:
  GhJoinMethod(JoinMethodId id, GhMode mode) : id_(id), mode_(mode) {}

  JoinMethodId id() const override { return id_; }

  Result<ResourceRequirements> Requirements(const JoinSpec& spec,
                                            const JoinContext& ctx) const override {
    TERTIO_ASSIGN_OR_RETURN(hash::BucketLayout layout, PlanGh(spec, ctx));
    ResourceRequirements req;
    req.memory_blocks = layout.memory_blocks;
    req.disk_blocks = spec.r->blocks +
                      (spec.r->phantom ? 1 : layout.bucket_count + 1);
    return req;
  }

  Result<JoinStats> Execute(const JoinSpec& spec, const JoinContext& ctx) const override {
    return ExecuteGh(mode_, id_, spec, ctx);
  }

 private:
  JoinMethodId id_;
  GhMode mode_;
};

}  // namespace

std::unique_ptr<JoinMethod> MakeDtGh() {
  return std::make_unique<GhJoinMethod>(JoinMethodId::kDtGh, GhMode::kSequential);
}
std::unique_ptr<JoinMethod> MakeCdtGh() {
  return std::make_unique<GhJoinMethod>(JoinMethodId::kCdtGh, GhMode::kConcurrent);
}

}  // namespace tertio::join
