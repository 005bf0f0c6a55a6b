#pragma once

/// \file join_common.h
/// The skeleton the seven join-method executors run on.
///
/// Each method family has one planner, which returns a JoinPlan (Table 2's
/// requirements and the geometry the executor runs with), and one executor
/// per distinct algorithm. JoinMethod::Execute (join_method.cc) admits the
/// plan and runs the executor inside one JoinRun: the frame that measures
/// the join (StatsScope), holds its memory lease, owns its JoinStats,
/// sim::Pipeline and JoinOutput, and fills the statistics all methods share
/// in one Finish(). The data movement the methods have in common lives here
/// as well:
///  * StageRelationToDisk copies a relation from tape to disk (NB Step I);
///  * ScanAndProbe / ScanDiskAndProbe stream blocks through a hash table
///    (NB Step II through a DecodedColumnStore, as it re-scans R);
///  * HashTapeToDisk streams tape blocks into a hash::DiskPartitioner and
///    flushes it (DT-GH/CDT-GH Step I, every S slab, and the CTT-GH/TT-GH
///    assembly scans);
///  * JoinSlabsOfS is Step II of DT-GH, CDT-GH and CTT-GH: S is hashed slab
///    by slab into disk buckets, and each bucket is joined with its R bucket;
///  * JoinInSlices joins one bucket pair, in memory-sized slices of the R
///    bucket when it outgrows memory (all four GH methods).
/// Callables are template parameters, so a bucket or a slice costs no
/// std::function.

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "disk/allocator.h"
#include "disk/extent.h"
#include "hash/bucket_layout.h"
#include "hash/disk_partitioner.h"
#include "join/flat_table.h"
#include "join/join_output.h"
#include "join/join_spec.h"
#include "mem/double_buffer.h"
#include "mem/memory_budget.h"
#include "sim/pipeline.h"
#include "util/status.h"

namespace tertio::join {

/// Chunk-level re-attempts every transfer and device read of a join grants
/// after a kDeviceError (a device fault that survived the device's own
/// bounded retries).
inline constexpr int kChunkRetryLimit = 3;

/// Captures device statistics at construction; Fill() writes the deltas
/// (traffic, requests, response time since construction) into a JoinStats.
class StatsScope {
 public:
  explicit StatsScope(const JoinContext& ctx);

  /// Virtual time at which this scope (join) began — the horizon when it was
  /// constructed (or exactly ctx.not_before under JoinContext::exact_anchor).
  /// All of the join's operations start at or after this.
  SimSeconds start() const { return start_; }

  /// Fills traffic/request deltas and response time (horizon - start; under
  /// exact_anchor, the latest per-resource horizon this join advanced minus
  /// start, so another in-flight session's timeline does not count).
  void Fill(JoinStats* stats) const;

 private:
  const JoinContext& ctx_;
  SimSeconds start_;
  tape::TapeDriveStats tape_r_before_;
  tape::TapeDriveStats tape_s_before_;
  disk::DiskStats disk_before_;
  BlockCount mem_reserved_before_;
  std::uint64_t robot_ops_before_;
  sim::FaultStats faults_before_;
  /// Per-resource horizons at construction, index-aligned with
  /// sim.resources(); only captured under exact_anchor.
  std::vector<SimSeconds> resource_horizons_before_;
};

/// The frame of one join execution: the StatsScope measuring it, the memory
/// lease it holds, the stats it reports, the pipeline its stages run on and
/// the output its matches reach (the spec's match_sink, in full-data runs).
/// JoinMethod::Execute constructs it once the plan is admitted and acquires
/// the lease right after, so the occupancy delta attributes the lease to the
/// join; the lease is returned when the run ends.
struct JoinRun {
  JoinRun(JoinMethodId id, const JoinSpec& spec, const JoinContext& ctx);
  JoinRun(const JoinRun&) = delete;
  JoinRun& operator=(const JoinRun&) = delete;

  /// Fills what every method reports: Step I = [start, step1_end], Step II
  /// = [step1_end, finish], the device deltas and response time
  /// (StatsScope), chunk retries, the output digest and the peak disk use.
  /// Call it before the method returns its scratch space.
  void Finish(SimSeconds step1_end, SimSeconds finish);

  const JoinMethodId id;
  const JoinSpec& spec;
  const JoinContext& ctx;
  /// Timing-only run: no payloads move and no table is built.
  const bool phantom;
  StatsScope scope;
  /// The join's one memory reservation: the plan's memory_blocks, under the
  /// method's name.
  mem::BudgetLease memory;
  JoinStats stats;
  sim::Pipeline pipe;
  JoinOutput output;
};

/// A method family's plan for one spec in one context: Table 2's
/// requirements and the geometry the executor runs with. JoinMethod's
/// Requirements() reports `needs`, and Execute() admits exactly them.
struct JoinPlan {
  ResourceRequirements needs;
  /// The NB methods' split of M: M_r for scanning R and one S buffer.
  mem::NbSplit split;
  /// The hash methods' buckets.
  hash::BucketLayout layout;
};

/// The planners of the three families (nb_methods.cc, gh_methods.cc,
/// tt_methods.cc). Each evaluates its terms against the context's memory and
/// free disk and fails with ResourceExhausted when no geometry exists.
Result<JoinPlan> PlanNb(JoinMethodId id, const JoinSpec& spec, const JoinContext& ctx);
Result<JoinPlan> PlanGh(JoinMethodId id, const JoinSpec& spec, const JoinContext& ctx);
Result<JoinPlan> PlanTt(JoinMethodId id, const JoinSpec& spec, const JoinContext& ctx);

/// The executors: each runs an admitted `plan` inside `run`, fills
/// run.stats, calls run.Finish and restores its scratch space.
Status ExecuteNb(JoinRun& run, const JoinPlan& plan);
Status ExecuteGh(JoinRun& run, const JoinPlan& plan);
Status ExecuteCttGh(JoinRun& run, const JoinPlan& plan);
Status ExecuteTtGh(JoinRun& run, const JoinPlan& plan);

/// Result of staging (copying) a relation from tape to disk.
struct StagedRelation {
  disk::ExtentLease space;  // extents in tape order
  /// Stage marking the copy complete (last read and last write done).
  sim::StageId done_stage = sim::kNoStage;
  SimSeconds done = 0.0;
};

/// Copies `relation` from the drive currently holding it to disk, as a
/// declared Transfer starting no earlier than `deps`. Sequential mode
/// alternates tape read / disk write; concurrent mode streams the tape while
/// writes trail behind (CDT variants' Step I).
Result<StagedRelation> StageRelationToDisk(const JoinContext& ctx, sim::Pipeline& pipe,
                                           tape::TapeDrive* drive,
                                           const rel::Relation& relation,
                                           BlockCount chunk_blocks, bool concurrent,
                                           const std::string& alloc_tag,
                                           std::span<const sim::StageId> deps);
inline Result<StagedRelation> StageRelationToDisk(const JoinContext& ctx, sim::Pipeline& pipe,
                                                  tape::TapeDrive* drive,
                                                  const rel::Relation& relation,
                                                  BlockCount chunk_blocks, bool concurrent,
                                                  const std::string& alloc_tag,
                                                  std::initializer_list<sim::StageId> deps) {
  return StageRelationToDisk(ctx, pipe, drive, relation, chunk_blocks, concurrent, alloc_tag,
                             std::span<const sim::StageId>(deps.begin(), deps.size()));
}

/// Streams `total` blocks of `source` in `chunk_blocks` requests starting no
/// earlier than `deps`; when `table` is non-null each chunk is probed into
/// `out`, through `store` (entries indexed by block offset in the scan) when
/// one is given. Reads stream (chunk i+1 follows chunk i). \returns the
/// stage completing the scan (a barrier after `deps` when `total` is 0).
Result<sim::StageId> ScanAndProbe(sim::Pipeline& pipe, std::string_view phase,
                                  sim::BlockSource& source, BlockCount total,
                                  BlockCount chunk_blocks, std::span<const sim::StageId> deps,
                                  bool phantom, const rel::Schema* probe_schema,
                                  std::size_t probe_key, const FlatJoinTable* table,
                                  JoinOutput* out, DecodedColumnStore* store = nullptr);

/// ScanAndProbe over `extents` (a disk-resident relation or bucket).
Result<sim::StageId> ScanDiskAndProbe(const JoinContext& ctx, sim::Pipeline& pipe,
                                      std::string_view phase, const disk::ExtentList& extents,
                                      BlockCount chunk_blocks,
                                      std::span<const sim::StageId> deps, bool phantom,
                                      const rel::Schema* probe_schema, std::size_t probe_key,
                                      const FlatJoinTable* table, JoinOutput* out);
inline Result<sim::StageId> ScanDiskAndProbe(const JoinContext& ctx, sim::Pipeline& pipe,
                                             std::string_view phase,
                                             const disk::ExtentList& extents,
                                             BlockCount chunk_blocks,
                                             std::initializer_list<sim::StageId> deps,
                                             bool phantom, const rel::Schema* probe_schema,
                                             std::size_t probe_key, const FlatJoinTable* table,
                                             JoinOutput* out) {
  return ScanDiskAndProbe(ctx, pipe, phase, extents, chunk_blocks,
                          std::span<const sim::StageId>(deps.begin(), deps.size()), phantom,
                          probe_schema, probe_key, table, out);
}

/// Default tape read chunk for streaming a relation (blocks).
BlockCount DefaultTapeChunk(const rel::Relation& relation);

/// Partitioner options hashing `relation` on `key_column` into the buckets
/// of `layout`, in disk space tagged `alloc_tag`. Only buckets [first_bucket,
/// first_bucket + bucket_span) materialize (span 0 = all); `space`, when
/// set, gates every flush on the shared double buffer (Section 4).
hash::DiskPartitioner::Options BucketOptions(const rel::Relation& relation,
                                             std::size_t key_column,
                                             const hash::BucketLayout& layout,
                                             std::string alloc_tag,
                                             mem::InterleavedBuffer* space = nullptr,
                                             std::uint32_t first_bucket = 0,
                                             std::uint32_t bucket_span = 0);

/// Span labels of one tape-to-partitioner scan.
struct HashPhases {
  std::string_view read_phase;
  std::string_view write_phase;
  std::string_view flush_phase;
};

/// The stages of a HashTapeToDisk scan.
struct HashedScan {
  /// The stage a following tape read waits for: the last read when the scan
  /// streamed, the last bucket write under lock-step.
  sim::StageId tape = sim::kNoStage;
  /// The flush of the trailing write buffers; it ends when the last bucket
  /// write hits the disk.
  sim::StageId flush = sim::kNoStage;
};

/// Streams `count` blocks of `relation`, starting `offset` blocks in, from
/// `drive` into `partitioner` in `chunk` requests, the first of which waits
/// for `after`; then flushes the partitioner's trailing write buffers.
/// Streaming lets the bucket writes trail the tape (the concurrent
/// methods); lock-step makes every tape read wait for the previous chunk's
/// writes (the single process of DT-GH).
Result<HashedScan> HashTapeToDisk(JoinRun& run, const HashPhases& phases,
                                  tape::TapeDrive* drive, const rel::Relation& relation,
                                  BlockCount offset, BlockCount count, BlockCount chunk,
                                  bool streaming, hash::DiskPartitioner* partitioner,
                                  sim::StageId after);

/// Joins one bucket pair: reads the R bucket (`r_blocks`) in slices of at
/// most `allowance` blocks — one slice unless the bucket outgrew memory
/// (key skew; the paper assumes uniform hashing) — builds a table over each
/// slice and streams the S bucket through it, so every extra slice costs one
/// more S-bucket scan (counted in JoinStats::bucket_overflow_slices). Each
/// side is read even when the other is empty, but a table is built and
/// probed only when the S bucket is non-empty; the S bucket of an empty R
/// bucket is scanned once without one.
///
/// `read_r(offset, take, after, payloads)` reads R-bucket blocks [offset,
/// offset + take) into `payloads` (null in timing-only runs);
/// `scan_s(table, after)` streams the S bucket through `table` (null: scan
/// only). Each gets `after`, the stage the previous call returned (the
/// argument for the first), and returns its own last stage; a caller whose
/// two sides run on separate drives (TT-GH) keeps one chain per drive.
/// \returns the last stage returned (`after` when both buckets are empty).
template <typename ReadR, typename ScanS>
Result<sim::StageId> JoinInSlices(JoinRun& run, BlockCount r_blocks, BlockCount s_blocks,
                                  BlockCount allowance, sim::StageId after, ReadR&& read_r,
                                  ScanS&& scan_s) {
  if (r_blocks == 0) {
    if (s_blocks == 0) return after;
    return scan_s(nullptr, after);
  }
  FlatJoinTable table(&run.spec.r->schema, run.spec.r_key_column, /*build_is_r=*/true,
                      /*capture_records=*/run.output.has_sink());
  sim::StageId t = after;
  std::uint64_t slices = 0;
  for (BlockCount offset = 0; offset < r_blocks; ++slices) {
    BlockCount take = std::min<BlockCount>(allowance, r_blocks - offset);
    std::vector<BlockPayload> payloads;
    TERTIO_ASSIGN_OR_RETURN(t, read_r(offset, take, t, run.phantom ? nullptr : &payloads));
    offset += take;
    if (s_blocks == 0) continue;
    table.Clear();
    if (!run.phantom) TERTIO_RETURN_IF_ERROR(table.AddBlocks(payloads));
    TERTIO_ASSIGN_OR_RETURN(t, scan_s(run.phantom ? nullptr : &table, t));
  }
  run.stats.bucket_overflow_slices += slices - 1;
  return t;
}

/// JoinInSlices against a disk-resident S bucket (DT-GH, CDT-GH, CTT-GH):
/// every scan of `s_bucket` also waits for its last write.
template <typename ReadR>
Result<sim::StageId> JoinWithDiskBucket(JoinRun& run, const hash::BucketLayout& layout,
                                        BlockCount r_blocks, const hash::DiskBucket& s_bucket,
                                        sim::StageId after, ReadR&& read_r) {
  const JoinContext& ctx = run.ctx;
  sim::Pipeline& pipe = run.pipe;
  return JoinInSlices(
      run, r_blocks, s_bucket.blocks, layout.r_bucket_blocks, after, read_r,
      [&](const FlatJoinTable* table, sim::StageId t) {
        return ScanDiskAndProbe(ctx, pipe, "s-bucket-scan", s_bucket.extents,
                                layout.write_buffer_blocks,
                                {t, pipe.Event("s-bucket-ready", s_bucket.ready)}, run.phantom,
                                &run.spec.s->schema, run.spec.s_key_column, table,
                                &run.output);
      });
}

/// Visit order of an S slab's buckets.
enum class BucketOrder {
  kForward,
  /// Odd iterations walk the buckets backwards (CTT-GH on drives with READ
  /// REVERSE, which then never locate back to the start of hashed R).
  kAlternate,
};

/// Step II of DT-GH, CDT-GH and CTT-GH. The disk space Step I left free is
/// the S buffer d (the paper's d = D - |R|), shared by consecutive slabs as
/// one interleaved double buffer (Section 4). S is read from tape in slabs
/// that fill it, each slab is hashed into disk buckets, and every bucket b
/// is joined by `join_bucket(b, s_bucket, after, backwards)`, which starts
/// no earlier than `after` and returns the stage completing the pair; the
/// bucket's space is then freed. Lock-step (DT-GH) hashes a slab while
/// nothing joins and joins only after the slab's flush; otherwise the tape
/// read and hashing of slab i+1 overlap the joins of slab i. Counts one
/// iteration per slab. \returns when the last join or tape read finishes.
template <typename JoinBucket>
Result<SimSeconds> JoinSlabsOfS(JoinRun& run, const hash::BucketLayout& layout, bool lock_step,
                                BucketOrder order, sim::StageId step1,
                                JoinBucket&& join_bucket) {
  const rel::Relation& s = *run.spec.s;
  disk::DiskSpaceAllocator& allocator = run.ctx.disks->allocator();
  BlockCount d = allocator.free_blocks();
  BlockCount slab = d;
  if (!run.phantom) {
    // Real tuples re-encode into fresh blocks: a slab's buckets can exceed
    // it by one partial block each.
    if (d <= layout.bucket_count) {
      return Status::ResourceExhausted(
          "S buffer space must exceed one block per bucket in full-data mode");
    }
    slab = d - layout.bucket_count;
  }
  mem::InterleavedBuffer space(d);
  BlockCount chunk = std::min<BlockCount>(DefaultTapeChunk(s), slab);
  sim::StageId tape_chain = step1;
  sim::StageId join_chain = step1;
  for (BlockCount off = 0; off < s.blocks; off += slab) {
    const std::string tag = run.stats.iterations % 2 == 0 ? "S-iter-even" : "S-iter-odd";
    hash::DiskPartitioner partitioner(
        run.ctx.disks, BucketOptions(s, run.spec.s_key_column, layout, tag, &space));
    TERTIO_ASSIGN_OR_RETURN(
        HashedScan hashed,
        HashTapeToDisk(run,
                       {.read_phase = "s-hash-read", .write_phase = "s-hash-write",
                        .flush_phase = "s-hash-flush"},
                       run.ctx.drive_s, s, off, std::min<BlockCount>(slab, s.blocks - off), chunk,
                       /*streaming=*/!lock_step, &partitioner, tape_chain));
    tape_chain = hashed.tape;
    if (lock_step) {
      tape_chain = hashed.flush;
      join_chain = run.pipe.Barrier("slab-hashed", {join_chain, tape_chain});
    }
    const bool backwards = order == BucketOrder::kAlternate && run.stats.iterations % 2 == 1;
    for (std::uint32_t i = 0; i < layout.bucket_count; ++i) {
      std::uint32_t b = backwards ? layout.bucket_count - 1 - i : i;
      hash::DiskBucket& sb = partitioner.buckets()[b];
      TERTIO_ASSIGN_OR_RETURN(join_chain, join_bucket(b, sb, join_chain, backwards));
      if (sb.blocks > 0) {
        SimSeconds joined = run.pipe.end(join_chain);
        TERTIO_RETURN_IF_ERROR(allocator.Free(sb.extents, joined, tag));
        TERTIO_RETURN_IF_ERROR(space.Release(sb.blocks, joined));
        sb.extents.clear();
      }
    }
    if (lock_step) tape_chain = run.pipe.Barrier("slab-joined", {tape_chain, join_chain});
    run.stats.iterations += 1;
  }
  return std::max(run.pipe.end(join_chain), run.pipe.end(tape_chain));
}

}  // namespace tertio::join
