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
#include "join/join_method.h"
#include "mem/memory_budget.h"
#include "util/string_util.h"

namespace tertio::join {
namespace {

Result<hash::BucketLayout> PlanGh(const JoinSpec& spec, const JoinContext& ctx) {
  // Real hashing makes bucket sizes fluctuate around |R|/B; plan with a 25%
  // margin so the in-memory bucket allowance absorbs the variance instead of
  // falling back to overflow slices (which re-scan the S bucket).
  BlockCount planned = spec.r->phantom ? spec.r->blocks
                                       : spec.r->blocks + spec.r->blocks / 4 + 1;
  return hash::BucketLayout::Plan(planned, ctx.memory->total_blocks(),
                                  spec.options.preferred_write_buffer);
}

Result<JoinStats> ExecuteGh(JoinMethodId id, const JoinSpec& spec, const JoinContext& ctx) {
  TERTIO_RETURN_IF_ERROR(ValidateSpecAndContext(spec, ctx));
  TERTIO_ASSIGN_OR_RETURN(hash::BucketLayout layout, PlanGh(spec, ctx));
  const rel::Relation& r = *spec.r;
  const bool lock_step = id == JoinMethodId::kDtGh;

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
  if (!r.phantom && disk_free <= r.blocks + 2 * static_cast<BlockCount>(layout.bucket_count)) {
    return Status::ResourceExhausted(
        "full-data mode needs |R| plus two blocks per bucket of disk space");
  }
  JoinRun run(id, spec, ctx);
  sim::Pipeline& pipe = run.pipe;
  TERTIO_ASSIGN_OR_RETURN(mem::BudgetLease memory,
                          mem::BudgetLease::Acquire(ctx.memory, layout.memory_blocks,
                                                    "gh/memory"));

  // ---- Step I: hash R from tape into disk buckets.
  hash::DiskPartitioner r_partitioner(ctx.disks,
                                      BucketOptions(r, spec.r_key_column, layout, "R-buckets"));
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
  memory.ReleaseNow();
  return std::move(run.stats);
}

class GhJoinMethod final : public JoinMethod {
 public:
  explicit GhJoinMethod(JoinMethodId id) : id_(id) {}

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
    return ExecuteGh(id_, spec, ctx);
  }

 private:
  JoinMethodId id_;
};

}  // namespace

std::unique_ptr<JoinMethod> MakeDtGh() {
  return std::make_unique<GhJoinMethod>(JoinMethodId::kDtGh);
}
std::unique_ptr<JoinMethod> MakeCdtGh() {
  return std::make_unique<GhJoinMethod>(JoinMethodId::kCdtGh);
}

}  // namespace tertio::join
