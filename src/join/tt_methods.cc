/// \file tt_methods.cc
/// The tape–tape Grace Hash Joins: CTT-GH (Section 5.2.1) and TT-GH
/// (Section 5.2.2) — the methods that work when D < |R|.
///
/// Both hash a relation to tape the same way (HashRelationToTape): each scan
/// of the relation assembles as many whole buckets as fit on disk and
/// appends them, in bucket order, to a tape.
///
/// CTT-GH appends hashed R to the R tape, scanning R ceil(|R|/D) times or
/// once more. Step II is the S-slab loop DT-GH and CDT-GH share
/// (JoinSlabsOfS): S buckets fill all of D, double-buffered, and the R
/// buckets stream from tape past them once per iteration — backwards on odd
/// iterations when the drive can READ REVERSE.
///
/// TT-GH hashes R onto the S tape and S onto the R tape (no seeks between
/// source and destination), then joins bucket pairs by streaming both hashed
/// tapes in parallel — at the price of also hashing S from tape to tape,
/// the setup cost that rules it out for large |S|.
///
/// Every bucket pair is joined by JoinInSlices, which slices an R bucket
/// that outgrew memory.

#include <algorithm>
#include <utility>
#include <vector>

#include "hash/bucket_layout.h"
#include "hash/disk_partitioner.h"
#include "join/join_common.h"
#include "util/math_util.h"
#include "util/string_util.h"

namespace tertio::join {
namespace {

/// Scratch a join appends to a tape volume (Table 2's T_R and T_S).
/// Restore() truncates the volume back to its size when the owner was made;
/// an owner destroyed before Restore() (the join stopped on an error)
/// truncates it itself.
class TapeScratch {
 public:
  explicit TapeScratch(tape::TapeVolume* volume)
      : volume_(volume), size_(volume->size_blocks()) {}
  TapeScratch(const TapeScratch&) = delete;
  TapeScratch& operator=(const TapeScratch&) = delete;
  ~TapeScratch() { TERTIO_CHECK(Restore().ok(), "tape scratch failed to truncate"); }

  /// Truncates the appended scratch away. Idempotent.
  Status Restore() {
    if (volume_ == nullptr) return Status::OK();
    return std::exchange(volume_, nullptr)->Truncate(size_);
  }

 private:
  tape::TapeVolume* volume_;
  BlockCount size_;
};

/// Where one bucket of a relation hashed to tape landed.
struct TapeRegion {
  BlockIndex start = 0;
  BlockCount blocks = 0;
};

/// Hashes `relation` (read on `source`) into contiguous bucket runs appended
/// to the tape in `target`, recording each bucket's place in `regions`.
/// Scans the relation once per bucket group; each scan materializes as many
/// whole buckets as fit on disk and counts in `scans`. \returns the stage
/// completing the last append.
Result<sim::StageId> HashRelationToTape(JoinRun& run, const rel::Relation& relation,
                                        std::size_t key_column, tape::TapeDrive* source,
                                        tape::TapeDrive* target,
                                        const hash::BucketLayout& layout, sim::StageId start,
                                        std::vector<TapeRegion>* regions,
                                        std::uint64_t* scans) {
  const JoinContext& ctx = run.ctx;
  sim::Pipeline& pipe = run.pipe;
  const bool phantom = relation.phantom;
  BlockCount disk_free = ctx.disks->allocator().free_blocks();
  // Each bucket needs its expected size plus one partial block of slack in
  // full-data mode.
  BlockCount per_bucket = CeilDiv<std::uint64_t>(relation.blocks.value(), layout.bucket_count) +
                          (phantom ? 0 : 1);
  auto per_scan = static_cast<std::uint32_t>(disk_free / per_bucket);
  if (per_scan == 0) {
    return Status::ResourceExhausted(
        StrFormat("disk space of %llu blocks cannot assemble even one bucket (%llu blocks)",
                  static_cast<unsigned long long>(disk_free.value()),
                  static_cast<unsigned long long>(per_bucket.value())));
  }
  per_scan = std::min(per_scan, layout.bucket_count);
  regions->resize(layout.bucket_count);

  sim::StageId cursor = start;
  for (std::uint32_t first = 0; first < layout.bucket_count; first += per_scan, ++*scans) {
    std::uint32_t span = std::min(per_scan, layout.bucket_count - first);
    hash::DiskPartitioner partitioner(
        ctx.disks, BucketOptions(relation, key_column, layout, "tape-assembly",
                                 /*space=*/nullptr, first, span));
    // Scan the relation end to end (the source drive seeks back on demand);
    // hashing to disk streams behind the tape. Bucket readiness enters below
    // as per-bucket events.
    TERTIO_ASSIGN_OR_RETURN(
        HashedScan hashed,
        HashTapeToDisk(run,
                       {.read_phase = "assemble-read", .write_phase = "assemble-write",
                        .flush_phase = "assemble-flush"},
                       source, relation, 0, relation.blocks, DefaultTapeChunk(relation),
                       /*streaming=*/true, &partitioner, cursor));

    // Append the materialized buckets, in bucket order, to the target tape.
    sim::StageId append_chain = hashed.tape;
    for (std::uint32_t local = 0; local < span; ++local) {
      hash::DiskBucket& bucket = partitioner.buckets()[local];
      TapeRegion& region = (*regions)[first + local];
      region.start = ToIndex(target->volume()->size_blocks());
      region.blocks = bucket.blocks;
      if (bucket.blocks == 0) continue;
      std::vector<BlockPayload> payloads;
      TERTIO_ASSIGN_OR_RETURN(
          sim::StageId readback,
          ctx.disks->IssueRead(pipe, "assemble-readback",
                               {append_chain, pipe.Event("bucket-ready", bucket.ready)},
                               bucket.extents, phantom ? nullptr : &payloads, kChunkRetryLimit));
      TERTIO_ASSIGN_OR_RETURN(
          sim::StageId append,
          pipe.Stage("tape-append", target->name(), {readback}, bucket.blocks,
                     bucket.blocks * relation.block_bytes,
                     [&](SimSeconds ready) -> Result<sim::Interval> {
                       if (phantom) {
                         return target->AppendPhantom(bucket.blocks, relation.compressibility,
                                                      ready);
                       }
                       return target->Append(payloads, relation.compressibility, ready);
                     }));
      append_chain = append;
      TERTIO_RETURN_IF_ERROR(
          ctx.disks->allocator().Free(bucket.extents, pipe.end(append), "tape-assembly"));
      bucket.extents.clear();
    }
    cursor = append_chain;
  }
  return cursor;
}

}  // namespace

Result<JoinPlan> PlanTt(JoinMethodId id, const JoinSpec& spec, const JoinContext& ctx) {
  const rel::Relation& r = *spec.r;
  const rel::Relation& s = *spec.s;
  // Buckets of the largest relation a scan *assembles on disk* have to fit
  // the assembly area: CTT-GH assembles only R's buckets (B >= ceil(|R|/D)),
  // TT-GH assembles S's as well (B >= ceil(|S|/D)). Full-data mode keeps
  // one block of partial-block slack per assembled bucket.
  const BlockCount assembled = id == JoinMethodId::kCttGh ? r.blocks : s.blocks;
  const BlockCount slack = r.phantom ? 0 : 1;
  const BlockCount disk_free = ctx.disks->allocator().free_blocks();
  if (disk_free <= slack) {
    return Status::ResourceExhausted("tape-tape joins need some disk assembly space");
  }
  // Real hashing makes bucket sizes fluctuate around |rel|/B; plan with a
  // 25% margin so the largest bucket still fits both the disk assembly area
  // and the in-memory bucket allowance (avoiding overflow slices).
  BlockCount planned = r.phantom ? assembled : assembled + assembled / 4;
  auto min_buckets = static_cast<std::uint32_t>(
      CeilDiv<std::uint64_t>(planned.value(), (disk_free - slack).value()));
  BlockCount planned_r = r.phantom ? r.blocks : r.blocks + r.blocks / 4 + 1;
  JoinPlan plan;
  TERTIO_ASSIGN_OR_RETURN(plan.layout,
                          hash::BucketLayout::Plan(planned_r, ctx.memory->total_blocks(),
                                                   spec.options.preferred_write_buffer,
                                                   min_buckets));
  const std::uint32_t b = plan.layout.bucket_count;
  plan.needs.memory_blocks = plan.layout.memory_blocks;
  // One assembled bucket (HashRelationToTape). CTT-GH's S buckets then fill
  // all of D, which in full-data mode must exceed one block per bucket
  // (JoinSlabsOfS).
  BlockCount area = CeilDiv<std::uint64_t>(assembled.value(), b);
  if (id == JoinMethodId::kCttGh && !r.phantom) area = std::max<BlockCount>(area, b);
  plan.needs.disk_blocks = area + slack;
  if (id == JoinMethodId::kCttGh) {
    plan.needs.tape_scratch_r_blocks = r.blocks;
  } else {
    plan.needs.tape_scratch_r_blocks = s.blocks;
    plan.needs.tape_scratch_s_blocks = r.blocks;
  }
  return plan;
}

// ---------------------------------------------------------------- CTT-GH --

Status ExecuteCttGh(JoinRun& run, const JoinPlan& plan) {
  const JoinContext& ctx = run.ctx;
  const rel::Relation& r = *run.spec.r;
  const hash::BucketLayout& layout = plan.layout;
  sim::Pipeline& pipe = run.pipe;
  TapeScratch r_tape_scratch(r.volume);
  sim::StageId origin = pipe.Event("start", run.scope.start());

  // ---- Step I: hashed copy of R appended to the R tape.
  std::vector<TapeRegion> regions;
  TERTIO_ASSIGN_OR_RETURN(
      sim::StageId step1_stage,
      HashRelationToTape(run, r, run.spec.r_key_column, ctx.drive_r, ctx.drive_r, layout,
                         origin, &regions, &run.stats.r_scans));
  SimSeconds step1_end = pipe.end(step1_stage);

  // ---- Step II: S buckets on disk (all of D, double-buffered); R buckets
  // streamed from tape once per iteration. A backward pass reads a bucket
  // that fits in memory in one READ REVERSE (the head already rests at its
  // end when buckets are visited in descending order; otherwise the read
  // seeks there first); any other bucket is read forward.
  tape::TapeDrive* drive = ctx.drive_r;
  const BucketOrder order = drive->model().supports_read_reverse ? BucketOrder::kAlternate
                                                                 : BucketOrder::kForward;
  TERTIO_ASSIGN_OR_RETURN(
      SimSeconds finish,
      JoinSlabsOfS(
          run, layout, /*lock_step=*/false, order, step1_stage,
          [&](std::uint32_t b, const hash::DiskBucket& sb, sim::StageId after, bool backwards) {
            const TapeRegion& region = regions[b];
            return JoinWithDiskBucket(
                run, layout, region.blocks, sb, after,
                [&](BlockCount offset, BlockCount take, sim::StageId t,
                    std::vector<BlockPayload>* payloads) -> Result<sim::StageId> {
                  return drive->IssueRead(pipe, "r-run-read", {t}, region.start + offset, take,
                                          payloads, kChunkRetryLimit,
                                          backwards && take == region.blocks);
                });
          }));
  run.stats.r_scans += run.stats.iterations;  // one pass over hashed R per iteration
  run.Finish(step1_end, finish);

  // Reclaim the scratch region appended to the R tape.
  return r_tape_scratch.Restore();
}

// ----------------------------------------------------------------- TT-GH --

Status ExecuteTtGh(JoinRun& run, const JoinPlan& plan) {
  const JoinContext& ctx = run.ctx;
  const JoinSpec& spec = run.spec;
  const rel::Relation& r = *spec.r;
  const rel::Relation& s = *spec.s;
  const hash::BucketLayout& layout = plan.layout;
  sim::Pipeline& pipe = run.pipe;
  TapeScratch r_tape_scratch(r.volume);
  TapeScratch s_tape_scratch(s.volume);
  sim::StageId origin = pipe.Event("start", run.scope.start());

  // ---- Step I: hash R onto the S tape, then S onto the R tape. Every scan
  // of either relation is one iteration.
  std::vector<TapeRegion> r_regions, s_regions;
  TERTIO_ASSIGN_OR_RETURN(
      sim::StageId r_hashed,
      HashRelationToTape(run, r, spec.r_key_column, ctx.drive_r, ctx.drive_s, layout, origin,
                         &r_regions, &run.stats.r_scans));
  std::uint64_t s_scans = 0;
  TERTIO_ASSIGN_OR_RETURN(
      sim::StageId step1_stage,
      HashRelationToTape(run, s, spec.s_key_column, ctx.drive_s, ctx.drive_r, layout, r_hashed,
                         &s_regions, &s_scans));
  SimSeconds step1_end = pipe.end(step1_stage);
  run.stats.iterations = run.stats.r_scans + s_scans;

  // ---- Step II: stream bucket pairs — R buckets from the S tape (drive S),
  // S buckets from the R tape (drive R) — in parallel.
  sim::StageId drive_s_chain = step1_stage;  // reads R buckets
  sim::StageId drive_r_chain = step1_stage;  // reads S buckets
  for (std::uint32_t b = 0; b < layout.bucket_count; ++b) {
    const TapeRegion& rb = r_regions[b];
    const TapeRegion& sb = s_regions[b];
    TERTIO_RETURN_IF_ERROR(
        JoinInSlices(
            run, rb.blocks, sb.blocks, layout.r_bucket_blocks, drive_s_chain,
            [&](BlockCount offset, BlockCount take, sim::StageId,
                std::vector<BlockPayload>* payloads) -> Result<sim::StageId> {
              TERTIO_ASSIGN_OR_RETURN(
                  drive_s_chain,
                  ctx.drive_s->IssueRead(pipe, "r-bucket-read", {drive_s_chain},
                                         rb.start + offset, take, payloads, kChunkRetryLimit));
              return drive_s_chain;
            },
            [&](const FlatJoinTable* table, sim::StageId table_ready) -> Result<sim::StageId> {
              // Stream the S bucket from the R tape through the table; the
              // first read waits for both the drive's queue and the table.
              sim::StageId t = pipe.Barrier("pair-sync", {drive_r_chain, table_ready});
              tape::TapeReadSource source(ctx.drive_r, sb.start);
              TERTIO_ASSIGN_OR_RETURN(
                  drive_r_chain,
                  ScanAndProbe(pipe, "s-bucket-read", source, sb.blocks,
                               layout.write_buffer_blocks, {&t, 1}, run.phantom, &s.schema,
                               spec.s_key_column, table, &run.output));
              return drive_r_chain;
            })
            .status());
  }
  run.stats.r_scans += 1;  // the Step II pass over hashed R
  run.Finish(step1_end, std::max(pipe.end(drive_r_chain), pipe.end(drive_s_chain)));

  TERTIO_RETURN_IF_ERROR(r_tape_scratch.Restore());
  return s_tape_scratch.Restore();
}

}  // namespace tertio::join
