/// \file gh_methods.cc
/// The disk–tape Grace Hash Joins: DT-GH (Section 5.1.2) and CDT-GH
/// (Section 5.1.4).
///
/// Step I hashes R from tape into B buckets on disk (HashTapeToDisk).
/// Step II is the shared S-slab loop (JoinSlabsOfS): S is read in slabs of
/// d = D - |R| blocks, each slab is hashed into S buckets on disk, and every
/// bucket pair is joined by reading the R bucket into memory as the build
/// side and streaming the S bucket through it (JoinInSlices, which slices
/// an R bucket that outgrew memory). DT-GH runs both steps in lock-step, as
/// one process; CDT-GH lets the tape read and hashing of slab i+1 overlap
/// the joins of slab i, double-buffering the S buckets in one shared
/// interleaved buffer (Section 4).

#include <algorithm>

#include "hash/bucket_layout.h"
#include "hash/disk_partitioner.h"
#include "join/join_common.h"

namespace tertio::join {

// DT-GH and CDT-GH plan alike.
Result<JoinPlan> PlanGh(JoinMethodId, const JoinSpec& spec, const JoinContext& ctx) {
  const rel::Relation& r = *spec.r;
  // Real hashing makes bucket sizes fluctuate around |R|/B; plan with a 25%
  // margin so the in-memory bucket allowance absorbs the variance instead of
  // falling back to overflow slices (which re-scan the S bucket).
  BlockCount planned = r.phantom ? r.blocks : r.blocks + r.blocks / 4 + 1;
  JoinPlan plan;
  TERTIO_ASSIGN_OR_RETURN(plan.layout,
                          hash::BucketLayout::Plan(planned, ctx.memory->total_blocks(),
                                                   spec.options.preferred_write_buffer));
  plan.needs.memory_blocks = plan.layout.memory_blocks;
  // Hashed R plus an S buffer of at least one block. Real tuples re-encode
  // into fresh blocks, so hashed R can exceed |R| by one partial block per
  // bucket, and each S slab needs the same slack (JoinSlabsOfS).
  plan.needs.disk_blocks =
      r.blocks + 1 + (r.phantom ? 0 : 2 * static_cast<BlockCount>(plan.layout.bucket_count));
  return plan;
}

Status ExecuteGh(JoinRun& run, const JoinPlan& plan) {
  const JoinContext& ctx = run.ctx;
  const rel::Relation& r = *run.spec.r;
  const hash::BucketLayout& layout = plan.layout;
  const bool lock_step = run.id == JoinMethodId::kDtGh;
  sim::Pipeline& pipe = run.pipe;

  // ---- Step I: hash R from tape into disk buckets.
  hash::DiskPartitioner r_partitioner(
      ctx.disks, BucketOptions(r, run.spec.r_key_column, layout, "R-buckets"));
  TERTIO_ASSIGN_OR_RETURN(
      HashedScan r_hashed,
      HashTapeToDisk(run,
                     {.read_phase = "r-hash-read", .write_phase = "r-hash-write",
                      .flush_phase = "r-hash-flush"},
                     ctx.drive_r, r, 0, r.blocks, DefaultTapeChunk(r), /*streaming=*/!lock_step,
                     &r_partitioner, sim::kNoStage));
  SimSeconds step1_end = pipe.end(r_hashed.flush);
  run.stats.peak_disk_blocks = ctx.disks->allocator().used_blocks();

  // ---- Step II: join every slab of S against the R buckets.
  disk::ExtentCursor cursor;
  disk::ExtentList slice;
  TERTIO_ASSIGN_OR_RETURN(
      SimSeconds finish,
      JoinSlabsOfS(
          run, layout, lock_step, BucketOrder::kForward, r_hashed.flush,
          [&](std::uint32_t b, const hash::DiskBucket& sb, sim::StageId after, bool) {
            const hash::DiskBucket& rb = r_partitioner.buckets()[b];
            cursor.Reset(&rb.extents);
            return JoinWithDiskBucket(
                run, layout, rb.blocks, sb, after,
                [&](BlockCount offset, BlockCount take, sim::StageId t,
                    std::vector<BlockPayload>* payloads) -> Result<sim::StageId> {
                  TERTIO_RETURN_IF_ERROR(cursor.Slice(offset, take, &slice));
                  return ctx.disks->IssueRead(pipe, "r-bucket-read",
                                              {t, pipe.Event("r-bucket-ready", rb.ready)},
                                              slice, payloads, kChunkRetryLimit);
                });
          }));
  run.stats.r_scans = run.stats.iterations;  // R's buckets are re-read per slab
  run.Finish(step1_end, finish);

  // Restore scratch state.
  for (hash::DiskBucket& rb : r_partitioner.buckets()) {
    if (!rb.extents.empty()) {
      TERTIO_RETURN_IF_ERROR(ctx.disks->allocator().Free(rb.extents, finish, "R-buckets"));
      rb.extents.clear();
    }
  }
  return Status::OK();
}

}  // namespace tertio::join
