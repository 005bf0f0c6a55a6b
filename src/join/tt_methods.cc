/// \file tt_methods.cc
/// The tape–tape Grace Hash Joins: CTT-GH (Section 5.2.1) and TT-GH
/// (Section 5.2.2) — the methods that work when D < |R|.
///
/// CTT-GH Step I builds a hashed copy of R *on the R tape*: R is scanned
/// ceil(|R|/D) times; each scan assembles a fraction of the buckets, in
/// full, on disk and appends them to the R tape. Step II then buffers S
/// buckets on disk (all D blocks, double-buffered) and streams the
/// tape-resident R buckets past them once per iteration.
///
/// TT-GH hashes R onto the S tape and S onto the R tape (eliminating tape
/// seeks between source and destination), then joins bucket pairs by
/// streaming both hashed tapes in parallel — at the price of also hashing S
/// from tape to tape, the setup cost that rules it out for large |S|.
///
/// Scheduling runs on sim::Pipeline: tape scans, bucket assembly, appends
/// and the dual-drive Step II streams are stages; per-drive chains are
/// StageIds and externally-computed readiness (bucket flush times) enters
/// the graph as events.

#include <algorithm>
#include <vector>

#include "hash/bucket_layout.h"
#include "hash/disk_partitioner.h"
#include "hash/tape_bucket_run.h"
#include "join/join_common.h"
#include "join/join_method.h"
#include "mem/double_buffer.h"
#include "mem/memory_budget.h"
#include "util/math_util.h"
#include "util/string_util.h"

namespace tertio::join {
namespace {

/// Plans the bucket layout for a tape–tape method. Buckets of the largest
/// relation that must be *assembled on disk* have to fit the assembly area:
/// CTT-GH assembles only R's buckets (B >= ceil(|R|/D)), TT-GH assembles S's
/// as well (B >= ceil(|S|/D)). Full-data mode keeps one block of partial-
/// block slack per assembled bucket.
Result<hash::BucketLayout> PlanTt(const JoinSpec& spec, const JoinContext& ctx,
                                  BlockCount disk_free, BlockCount assembled_blocks) {
  BlockCount slack = spec.r->phantom ? 0 : 1;
  if (disk_free <= slack) {
    return Status::ResourceExhausted("tape-tape joins need some disk assembly space");
  }
  // Real hashing makes bucket sizes fluctuate around |rel|/B; plan with a
  // 25% margin so the largest bucket still fits both the disk assembly area
  // and the in-memory bucket allowance (avoiding overflow slices).
  BlockCount planned = spec.r->phantom ? assembled_blocks
                                       : assembled_blocks + assembled_blocks / 4;
  auto min_buckets =
      static_cast<std::uint32_t>(CeilDiv<std::uint64_t>(planned.value(), (disk_free - slack).value()));
  BlockCount planned_r =
      spec.r->phantom ? spec.r->blocks : spec.r->blocks + spec.r->blocks / 4 + 1;
  return hash::BucketLayout::Plan(planned_r, ctx.memory->total_blocks(),
                                  spec.options.preferred_write_buffer, min_buckets);
}

/// Hashes `relation` (read on `source`) into a contiguous bucket run
/// appended to the tape in `target`. Scans the relation once per bucket
/// group; each scan materializes as many full buckets as fit on disk.
/// \returns the stage completing the run.
Result<sim::StageId> HashRelationToTape(const JoinContext& ctx, sim::Pipeline& pipe,
                                        const rel::Relation& relation, std::size_t key_column,
                                        tape::TapeDrive* source, tape::TapeDrive* target,
                                        const hash::BucketLayout& layout, sim::StageId start,
                                        hash::TapeBucketRun* run, std::uint64_t* scan_count) {
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

  run->volume = target->volume();
  run->compressibility = relation.compressibility;
  run->regions.resize(layout.bucket_count);

  BlockCount chunk = DefaultTapeChunk(relation);
  std::uint64_t tuples_per_block =
      relation.blocks > 0 ? (relation.tuple_count + relation.blocks - 1) / relation.blocks : 0;
  sim::StageId cursor = start;
  std::uint64_t scans = 0;
  for (std::uint32_t first = 0; first < layout.bucket_count; first += per_scan, ++scans) {
    std::uint32_t span = std::min(per_scan, layout.bucket_count - first);
    hash::DiskPartitioner::Options options;
    options.schema = phantom ? nullptr : &relation.schema;
    options.key_column = key_column;
    options.bucket_count = layout.bucket_count;
    options.write_buffer_blocks = layout.write_buffer_blocks;
    options.first_bucket = first;
    options.bucket_span = span;
    options.alloc_tag = "tape-assembly";
    hash::DiskPartitioner partitioner(ctx.disks, options);

    // Scan the relation end to end (the source drive seeks back on demand);
    // hashing to disk streams behind the tape.
    tape::TapeReadSource scan_source(source, relation.start_block);
    hash::PartitionerSink scan_sink(&partitioner, tuples_per_block);
    sim::Pipeline::TransferPlan plan;
    plan.read_phase = "assemble-read";
    plan.write_phase = "assemble-write";
    plan.total = relation.blocks;
    plan.chunk = chunk;
    plan.streaming = true;
    plan.move_payloads = !phantom;
    plan.chunk_retry_limit = ctx.chunk_retry_limit;
    plan.commit = ctx.commit;
    TERTIO_ASSIGN_OR_RETURN(sim::Pipeline::TransferResult result,
                            pipe.Transfer(plan, scan_source, scan_sink, {cursor}));
    TERTIO_ASSIGN_OR_RETURN(sim::StageId flush,
                            scan_sink.IssueFlush(pipe, "assemble-flush", {result.last_read}));
    (void)flush;  // bucket readiness enters below as per-bucket events

    // Append the materialized buckets, in bucket order, to the target tape.
    sim::StageId append_chain = result.last_read;
    for (std::uint32_t local = 0; local < span; ++local) {
      hash::DiskBucket& bucket = partitioner.buckets()[local];
      hash::TapeBucketRegion& region = run->regions[first + local];
      region.start = ToIndex(target->volume()->size_blocks());
      region.blocks = bucket.blocks;
      region.tuples = bucket.tuples;
      if (bucket.blocks == 0) continue;
      std::vector<BlockPayload> payloads;
      TERTIO_ASSIGN_OR_RETURN(
          sim::StageId readback,
          ctx.disks->IssueRead(pipe, "assemble-readback",
                               {append_chain, pipe.Event("bucket-ready", bucket.ready)},
                               bucket.extents, phantom ? nullptr : &payloads,
                               ctx.chunk_retry_limit));
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
  if (scan_count != nullptr) *scan_count += scans;
  return cursor;
}

// ---------------------------------------------------------------- CTT-GH --

Result<JoinStats> ExecuteCttGh(const JoinSpec& spec, const JoinContext& ctx) {
  TERTIO_RETURN_IF_ERROR(ValidateSpecAndContext(spec, ctx));
  const rel::Relation& r = *spec.r;
  const rel::Relation& s = *spec.s;
  const bool phantom = r.phantom;
  BlockCount disk_free = ctx.disks->allocator().free_blocks();
  TERTIO_ASSIGN_OR_RETURN(hash::BucketLayout layout, PlanTt(spec, ctx, disk_free, spec.r->blocks));
  StatsScope scope(ctx);
  TERTIO_ASSIGN_OR_RETURN(mem::BudgetLease memory,
                          mem::BudgetLease::Acquire(ctx.memory, layout.memory_blocks,
                                                    "ctt/memory"));
  TapeScratch r_tape_scratch(r.volume);

  JoinStats stats;
  stats.method = std::string(JoinMethodName(JoinMethodId::kCttGh));
  stats.spans.set_retain(ctx.retain_spans);
  sim::Pipeline pipe(scope.start(), &stats.spans, ctx.sim->auditor());
  sim::StageId origin = pipe.Event("start", scope.start());

  // ---- Step I: hashed copy of R appended to the R tape.
  hash::TapeBucketRun run;
  std::uint64_t scans = 0;
  TERTIO_ASSIGN_OR_RETURN(
      sim::StageId step1_stage,
      HashRelationToTape(ctx, pipe, r, spec.r_key_column, ctx.drive_r, ctx.drive_r, layout,
                         origin, &run, &scans));
  SimSeconds step1_end = pipe.end(step1_stage);
  stats.step1_seconds = step1_end - scope.start();
  stats.r_scans = scans;

  // ---- Step II: S buckets on disk (all of D, double-buffered); R buckets
  // streamed from tape once per iteration.
  JoinOutput output;
  if (!phantom && spec.match_sink) output.set_sink(spec.match_sink);
  std::uint64_t overflow_slices = 0;
  BlockCount d = ctx.disks->allocator().free_blocks();
  BlockCount slab = d;
  if (!phantom) {
    if (d <= layout.bucket_count) {
      return Status::ResourceExhausted(
          "S buffer space must exceed one block per bucket in full-data mode");
    }
    slab = d - layout.bucket_count;
  }
  mem::InterleavedBuffer space(d);
  sim::StageId tape_s_chain = step1_stage;
  sim::StageId join_chain = step1_stage;
  BlockCount s_chunk = std::min<BlockCount>(DefaultTapeChunk(s), slab);
  std::uint64_t s_tuples_per_block =
      s.blocks > 0 ? (s.tuple_count + s.blocks - 1) / s.blocks : 0;

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
    plan.streaming = true;  // the hash process trails the tape
    plan.move_payloads = !phantom;
    plan.chunk_retry_limit = ctx.chunk_retry_limit;
    plan.commit = ctx.commit;
    TERTIO_ASSIGN_OR_RETURN(sim::Pipeline::TransferResult slab_result,
                            pipe.Transfer(plan, s_source, s_sink, {tape_s_chain}));
    tape_s_chain = slab_result.last_read;
    TERTIO_ASSIGN_OR_RETURN(sim::StageId flush,
                            s_sink.IssueFlush(pipe, "s-hash-flush", {tape_s_chain}));
    (void)flush;  // bucket readiness enters below as events

    // Join: stream R's tape-resident buckets past the disk-resident S
    // buckets — one full pass over hashed R per iteration. On drives with
    // READ REVERSE (the paper's footnote 2, after Knuth), odd iterations
    // walk the bucket run backwards so no locate back to the run's start is
    // ever needed; otherwise every iteration seeks back and reads forward.
    const bool reverse_pass =
        ctx.drive_r->model().supports_read_reverse && stats.iterations % 2 == 1;
    for (std::uint32_t bi = 0; bi < layout.bucket_count; ++bi) {
      std::uint32_t b = reverse_pass ? layout.bucket_count - 1 - bi : bi;
      const hash::TapeBucketRegion& region = run.regions[b];
      hash::DiskBucket& sb = s_partitioner.buckets()[b];
      sim::StageId t = join_chain;
      if (region.blocks > 0 && reverse_pass && region.blocks <= layout.r_bucket_blocks) {
        // Backward read of the whole bucket (head is already at its end when
        // buckets are visited in descending order).
        if (ctx.drive_r->head_position() != region.start + region.blocks) {
          TERTIO_ASSIGN_OR_RETURN(
              t, pipe.Stage("r-run-locate", ctx.drive_r->name(), {t}, 0, 0,
                            [&](SimSeconds ready) {
                              return ctx.drive_r->Locate(region.start + region.blocks, ready);
                            }));
        }
        std::vector<BlockPayload> r_blocks;
        TERTIO_ASSIGN_OR_RETURN(
            t, pipe.Stage("r-run-read", ctx.drive_r->name(), {t}, region.blocks,
                          region.blocks * r.block_bytes,
                          [&](SimSeconds ready) {
                            return ctx.drive_r->ReadReverse(region.blocks, ready,
                                                            phantom ? nullptr : &r_blocks);
                          }));
        HashJoinTable table(&r.schema, spec.r_key_column, /*build_is_r=*/true,
                            /*capture_records=*/output.has_sink());
        if (!phantom) {
          TERTIO_RETURN_IF_ERROR(table.AddBlocks(r_blocks));
        }
        if (sb.blocks > 0) {
          TERTIO_ASSIGN_OR_RETURN(
              t, ScanDiskAndProbe(ctx, pipe, "s-bucket-scan", sb.extents,
                                  layout.write_buffer_blocks,
                                  {t, pipe.Event("s-bucket-ready", sb.ready)}, phantom,
                                  &s.schema, spec.s_key_column, phantom ? nullptr : &table,
                                  &output));
        }
      } else if (region.blocks > 0) {
        // Forward read into memory, possibly in slices on overflow.
        BlockCount offset = 0;
        std::uint64_t slices = 0;
        while (offset < region.blocks) {
          BlockCount take =
              std::min<BlockCount>(layout.r_bucket_blocks, region.blocks - offset);
          std::vector<BlockPayload> r_blocks;
          TERTIO_ASSIGN_OR_RETURN(
              sim::StageId read,
              ctx.drive_r->IssueRead(pipe, "r-run-read", {t}, region.start + offset, take,
                                     phantom ? nullptr : &r_blocks, ctx.chunk_retry_limit));
          t = read;
          HashJoinTable table(&r.schema, spec.r_key_column, /*build_is_r=*/true,
                              /*capture_records=*/output.has_sink());
          if (!phantom) {
            TERTIO_RETURN_IF_ERROR(table.AddBlocks(r_blocks));
          }
          if (sb.blocks > 0) {
            TERTIO_ASSIGN_OR_RETURN(
                t, ScanDiskAndProbe(ctx, pipe, "s-bucket-scan", sb.extents,
                                    layout.write_buffer_blocks,
                                    {t, pipe.Event("s-bucket-ready", sb.ready)}, phantom,
                                    &s.schema, spec.s_key_column,
                                    phantom ? nullptr : &table, &output));
          }
          offset += take;
          ++slices;
        }
        if (slices > 1) overflow_slices += slices - 1;
      } else if (sb.blocks > 0) {
        TERTIO_ASSIGN_OR_RETURN(
            t, ScanDiskAndProbe(ctx, pipe, "s-bucket-scan", sb.extents,
                                layout.write_buffer_blocks,
                                {t, pipe.Event("s-bucket-ready", sb.ready)}, phantom,
                                &s.schema, spec.s_key_column, nullptr, &output));
      }
      join_chain = t;
      if (sb.blocks > 0) {
        TERTIO_RETURN_IF_ERROR(
            ctx.disks->allocator().Free(sb.extents, pipe.end(join_chain), s_options.alloc_tag));
        TERTIO_RETURN_IF_ERROR(space.Release(sb.blocks, pipe.end(join_chain)));
        sb.extents.clear();
      }
    }
    stats.iterations += 1;
    stats.r_scans += 1;  // one pass over hashed R per iteration
  }

  SimSeconds finish = std::max(pipe.end(join_chain), pipe.end(tape_s_chain));
  stats.step2_seconds = finish - step1_end;
  stats.bucket_overflow_slices = overflow_slices;
  stats.chunk_retries = pipe.chunk_retries();
  scope.Fill(&stats);
  stats.response_seconds = std::max(stats.response_seconds, finish - scope.start());
  stats.output_valid = !phantom;
  stats.output_tuples = output.tuples();
  stats.output_checksum = output.checksum();
  stats.peak_disk_blocks = ctx.disks->allocator().used_blocks();

  // Reclaim the scratch region appended to the R tape.
  TERTIO_RETURN_IF_ERROR(r_tape_scratch.Restore());
  memory.ReleaseNow();
  return stats;
}

// ----------------------------------------------------------------- TT-GH --

Result<JoinStats> ExecuteTtGh(const JoinSpec& spec, const JoinContext& ctx) {
  TERTIO_RETURN_IF_ERROR(ValidateSpecAndContext(spec, ctx));
  const rel::Relation& r = *spec.r;
  const rel::Relation& s = *spec.s;
  const bool phantom = r.phantom;
  BlockCount disk_free = ctx.disks->allocator().free_blocks();
  TERTIO_ASSIGN_OR_RETURN(hash::BucketLayout layout, PlanTt(spec, ctx, disk_free, spec.s->blocks));
  StatsScope scope(ctx);
  TERTIO_ASSIGN_OR_RETURN(mem::BudgetLease memory,
                          mem::BudgetLease::Acquire(ctx.memory, layout.memory_blocks,
                                                    "tt/memory"));
  TapeScratch r_tape_scratch(r.volume);
  TapeScratch s_tape_scratch(s.volume);

  JoinStats stats;
  stats.method = std::string(JoinMethodName(JoinMethodId::kTtGh));
  stats.spans.set_retain(ctx.retain_spans);
  sim::Pipeline pipe(scope.start(), &stats.spans, ctx.sim->auditor());
  sim::StageId origin = pipe.Event("start", scope.start());

  // ---- Step I: hash R onto the S tape, then S onto the R tape.
  hash::TapeBucketRun r_run, s_run;
  std::uint64_t scans = 0;
  TERTIO_ASSIGN_OR_RETURN(
      sim::StageId r_hashed,
      HashRelationToTape(ctx, pipe, r, spec.r_key_column, ctx.drive_r, ctx.drive_s, layout,
                         origin, &r_run, &scans));
  stats.r_scans = scans;
  TERTIO_ASSIGN_OR_RETURN(
      sim::StageId step1_stage,
      HashRelationToTape(ctx, pipe, s, spec.s_key_column, ctx.drive_s, ctx.drive_r, layout,
                         r_hashed, &s_run, nullptr));
  SimSeconds step1_end = pipe.end(step1_stage);
  stats.step1_seconds = step1_end - scope.start();
  stats.iterations = CeilDiv<std::uint64_t>(r.blocks.value(), std::max<BlockCount>(disk_free, 1).value()) +
                     CeilDiv<std::uint64_t>(s.blocks.value(), std::max<BlockCount>(disk_free, 1).value());

  // ---- Step II: stream bucket pairs — R buckets from the S tape (drive S),
  // S buckets from the R tape (drive R) — in parallel.
  JoinOutput output;
  if (!phantom && spec.match_sink) output.set_sink(spec.match_sink);
  std::uint64_t overflow_slices = 0;
  sim::StageId drive_s_chain = step1_stage;  // reads R buckets
  sim::StageId drive_r_chain = step1_stage;  // reads S buckets
  BlockCount probe_chunk = std::max<BlockCount>(layout.write_buffer_blocks, 1);
  for (std::uint32_t b = 0; b < layout.bucket_count; ++b) {
    const hash::TapeBucketRegion& rb = r_run.regions[b];
    const hash::TapeBucketRegion& sb = s_run.regions[b];
    sim::StageId table_ready = drive_s_chain;
    HashJoinTable table(&r.schema, spec.r_key_column, /*build_is_r=*/true,
                        /*capture_records=*/output.has_sink());
    std::uint64_t slices = 0;
    BlockCount r_off = 0;
    do {
      BlockCount r_take = std::min<BlockCount>(layout.r_bucket_blocks, rb.blocks - r_off);
      if (rb.blocks > 0) {
        std::vector<BlockPayload> r_blocks;
        TERTIO_ASSIGN_OR_RETURN(
            sim::StageId read,
            ctx.drive_s->IssueRead(pipe, "r-bucket-read", {drive_s_chain}, rb.start + r_off,
                                   r_take, phantom ? nullptr : &r_blocks,
                                   ctx.chunk_retry_limit));
        drive_s_chain = read;
        table_ready = read;
        table.Clear();
        if (!phantom) {
          TERTIO_RETURN_IF_ERROR(table.AddBlocks(r_blocks));
        }
        ++slices;
      }
      // Stream the S bucket from the R tape through the table; the first
      // read waits for both the drive's queue and the build table.
      sim::StageId t = pipe.Barrier("pair-sync", {drive_r_chain, table_ready});
      tape::TapeReadSource sb_source(ctx.drive_r, sb.start);
      ProbeSink sink(phantom || rb.blocks == 0 ? nullptr : &table, &s.schema,
                     spec.s_key_column, &output);
      sim::Pipeline::TransferPlan plan;
      plan.read_phase = "s-bucket-read";
      plan.write_phase = "probe";
      plan.total = sb.blocks;
      plan.chunk = probe_chunk;
      plan.streaming = true;
      plan.move_payloads = !phantom;
      plan.chunk_retry_limit = ctx.chunk_retry_limit;
      plan.commit = ctx.commit;
      TERTIO_ASSIGN_OR_RETURN(sim::Pipeline::TransferResult result,
                              pipe.Transfer(plan, sb_source, sink, {t}));
      drive_r_chain = result.last_read == sim::kNoStage ? t : result.last_read;
      r_off += r_take;
    } while (r_off < rb.blocks);
    if (slices > 1) overflow_slices += slices - 1;
  }

  SimSeconds finish = std::max(pipe.end(drive_r_chain), pipe.end(drive_s_chain));
  stats.step2_seconds = finish - step1_end;
  stats.bucket_overflow_slices = overflow_slices;
  stats.r_scans += 1;  // the Step II pass over hashed R
  stats.chunk_retries = pipe.chunk_retries();
  scope.Fill(&stats);
  stats.response_seconds = std::max(stats.response_seconds, finish - scope.start());
  stats.output_valid = !phantom;
  stats.output_tuples = output.tuples();
  stats.output_checksum = output.checksum();
  stats.peak_disk_blocks = ctx.disks->allocator().used_blocks();

  TERTIO_RETURN_IF_ERROR(r_tape_scratch.Restore());
  TERTIO_RETURN_IF_ERROR(s_tape_scratch.Restore());
  memory.ReleaseNow();
  return stats;
}

class TtJoinMethod final : public JoinMethod {
 public:
  explicit TtJoinMethod(JoinMethodId id) : id_(id) {}

  JoinMethodId id() const override { return id_; }

  Result<ResourceRequirements> Requirements(const JoinSpec& spec,
                                            const JoinContext& ctx) const override {
    BlockCount disk_free = ctx.disks->allocator().free_blocks();
    TERTIO_ASSIGN_OR_RETURN(hash::BucketLayout layout, PlanTt(spec, ctx, disk_free,
                            id_ == JoinMethodId::kCttGh ? spec.r->blocks : spec.s->blocks));
    ResourceRequirements req;
    req.memory_blocks = layout.memory_blocks;
    req.disk_blocks = CeilDiv<std::uint64_t>(spec.r->blocks.value(), layout.bucket_count) +
                      (spec.r->phantom ? 0 : 1);
    if (id_ == JoinMethodId::kCttGh) {
      req.tape_scratch_r_blocks = spec.r->blocks;
    } else {
      req.tape_scratch_r_blocks = spec.s->blocks;
      req.tape_scratch_s_blocks = spec.r->blocks;
    }
    return req;
  }

  Result<JoinStats> Execute(const JoinSpec& spec, const JoinContext& ctx) const override {
    return id_ == JoinMethodId::kCttGh ? ExecuteCttGh(spec, ctx) : ExecuteTtGh(spec, ctx);
  }

 private:
  JoinMethodId id_;
};

}  // namespace

std::unique_ptr<JoinMethod> MakeCttGh() {
  return std::make_unique<TtJoinMethod>(JoinMethodId::kCttGh);
}
std::unique_ptr<JoinMethod> MakeTtGh() {
  return std::make_unique<TtJoinMethod>(JoinMethodId::kTtGh);
}

}  // namespace tertio::join
