/// \file nb_methods.cc
/// The Nested Block Join family: DT-NB (Section 5.1.1), CDT-NB/MB and
/// CDT-NB/DB (Section 5.1.3).
///
/// All three stage R on disk (Step I, StageRelationToDisk) and then iterate
/// over S in memory-sized chunks, building a table over each chunk and
/// streaming R from disk through it (Step II, ScanAndProbe, decoding each R
/// block once per join into a DecodedColumnStore). They differ only in how
/// the S chunks are buffered:
///   DT-NB      — one memory buffer, strictly sequential;
///   CDT-NB/MB  — two half-size memory buffers, tape read of chunk i+1
///                overlaps the join of chunk i;
///   CDT-NB/DB  — one full-size chunk staged through an interleaved
///                double-buffered disk ring (Section 4), tape-to-disk
///                refill overlaps the join.
///
/// PlanNb splits M once (mem::NbSplit) and sizes Table 2's terms from the
/// split. Like every executor they run inside one JoinRun (join_common.h),
/// whose pipeline makes every tape read, disk transfer and join pass a
/// stage: the overlap of the concurrent variants comes from the declared
/// dependencies (buffer-free stages, staging-done stage), not hand-threaded
/// completion times.

#include <algorithm>
#include <vector>

#include "join/join_common.h"
#include "mem/double_buffer.h"

namespace tertio::join {
namespace {

/// Sub-chunks per S chunk in CDT-NB/DB's interleaved disk ring: the
/// granularity at which freed ring space is refilled (Section 4).
constexpr std::uint64_t kInterleaveSlices = 8;

/// Joins one memory-resident S chunk against disk-resident R: builds a hash
/// table over the chunk and streams R through it in Mr-block requests.
/// Every pass reads through the one `r_source` of Step II, so the chunk
/// profiles of a pass are reused by the next (disk/striped_group.h), and
/// probes through the one `r_columns`, so a pass decodes only the R blocks
/// an earlier pass did not deliver.
/// \returns the stage completing the pass over R.
Result<sim::StageId> JoinChunkAgainstR(JoinRun& run, disk::ExtentReadSource& r_source,
                                       DecodedColumnStore& r_columns, BlockCount mr,
                                       const std::vector<BlockPayload>& chunk,
                                       std::initializer_list<sim::StageId> deps) {
  sim::Pipeline& pipe = run.pipe;
  FlatJoinTable table(&run.spec.s->schema, run.spec.s_key_column, /*build_is_r=*/false,
                      /*capture_records=*/run.output.has_sink());
  if (!run.phantom) {
    TERTIO_RETURN_IF_ERROR(table.AddBlocks(chunk));
  }
  return ScanAndProbe(pipe, "r-scan", r_source, run.spec.r->blocks, mr,
                      std::span<const sim::StageId>(deps.begin(), deps.size()), run.phantom,
                      &run.spec.r->schema, run.spec.r_key_column,
                      run.phantom ? nullptr : &table, &run.output, &r_columns);
}

}  // namespace

Result<JoinPlan> PlanNb(JoinMethodId id, const JoinSpec& spec, const JoinContext& ctx) {
  const bool two_buffers = id == JoinMethodId::kCdtNbMb;
  JoinPlan plan;
  TERTIO_ASSIGN_OR_RETURN(plan.split,
                          mem::NbSplit::Plan(ctx.memory->total_blocks(), two_buffers));
  const BlockCount ms = plan.split.s_blocks;
  plan.needs.memory_blocks = plan.split.r_blocks + (two_buffers ? 2 * ms : ms);
  plan.needs.disk_blocks = spec.r->blocks + (id == JoinMethodId::kCdtNbDb ? ms : 0);
  return plan;
}

Status ExecuteNb(JoinRun& run, const JoinPlan& plan) {
  const JoinContext& ctx = run.ctx;
  const rel::Relation& r = *run.spec.r;
  const rel::Relation& s = *run.spec.s;
  const bool phantom = run.phantom;
  const BlockCount mr = plan.split.r_blocks;
  const BlockCount ms = plan.split.s_blocks;
  JoinStats& stats = run.stats;
  sim::Pipeline& pipe = run.pipe;

  // ---- Step I: copy R from tape to disk.
  TERTIO_ASSIGN_OR_RETURN(
      StagedRelation staged,
      StageRelationToDisk(ctx, pipe, ctx.drive_r, r, ms, run.id != JoinMethodId::kDtNb,
                          "R-copy", {}));
  disk::ExtentReadSource r_source(ctx.disks, &staged.space.extents());
  // R's decoded blocks, by offset in R: passes after the first probe the
  // columns the first one decoded (24 bytes per R tuple, freed when the
  // join returns; a timing-only join allocates nothing).
  DecodedColumnStore r_columns;
  stats.peak_disk_blocks = ctx.disks->allocator().used_blocks();
  sim::StageId finish_stage = staged.done_stage;

  // ---- Step II: iterate over S.
  if (run.id != JoinMethodId::kCdtNbDb) {
    // One S buffer (DT-NB) or two half-size ones (CDT-NB/MB): the tape read
    // of chunk i waits for the join that drained buffer i % buffers, so with
    // two buffers it overlaps the join of chunk i-1.
    const std::uint64_t buffers = run.id == JoinMethodId::kCdtNbMb ? 2 : 1;
    sim::StageId drained[2] = {sim::kNoStage, sim::kNoStage};
    sim::StageId join_chain = staged.done_stage;
    std::uint64_t i = 0;
    for (BlockCount off = 0; off < s.blocks; off += ms, ++i) {
      BlockCount take = std::min<BlockCount>(ms, s.blocks - off);
      std::vector<BlockPayload> chunk;
      TERTIO_ASSIGN_OR_RETURN(
          sim::StageId read,
          ctx.drive_s->IssueRead(pipe, "s-read", {staged.done_stage, drained[i % buffers]},
                                 s.start_block + off, take, phantom ? nullptr : &chunk,
                                 kChunkRetryLimit));
      TERTIO_ASSIGN_OR_RETURN(join_chain,
                              JoinChunkAgainstR(run, r_source, r_columns, mr, chunk,
                                                {read, join_chain}));
      drained[i % buffers] = join_chain;
      stats.iterations += 1;
    }
    finish_stage = join_chain;
  } else {
    // Interleaved double-buffered disk ring of Ms blocks (Section 4). Every
    // chunk but the last is exactly Ms blocks, so each chunk fills the ring
    // from offset 0: a piece's ring offset is its offset within its chunk,
    // and piece j of chunk i+1 refills the space piece j of chunk i frees.
    TERTIO_ASSIGN_OR_RETURN(
        disk::ExtentLease ring_space,
        disk::ExtentLease::Allocate(&ctx.disks->allocator(), ms, staged.done, "S-ring"));
    const disk::ExtentList& ring_extents = ring_space.extents();
    stats.peak_disk_blocks = ctx.disks->allocator().used_blocks();
    mem::InterleavedBuffer ring(ms);
    BlockCount sub = std::max<BlockCount>(1, ms / kInterleaveSlices);

    struct Piece {
      BlockCount ring_off = 0;
      BlockCount count = 0;
      sim::StageId write_stage = sim::kNoStage;
    };
    // Writes and reads sit at different ring positions, so each side keeps
    // its own cursor and slice buffer.
    disk::ExtentCursor write_cursor(&ring_extents);
    disk::ExtentCursor read_cursor(&ring_extents);
    disk::ExtentList write_slice;
    disk::ExtentList read_slice;

    // Produces the piece at `ring_off` of the chunk at S offset `chunk_off`
    // (`count` blocks): waits for ring space (an event stage), reads tape,
    // writes the ring.
    auto produce_piece = [&](BlockCount chunk_off, BlockCount ring_off,
                             BlockCount count) -> Result<Piece> {
      TERTIO_ASSIGN_OR_RETURN(SimSeconds free_at, ring.AcquireFree(count));
      sim::StageId space = pipe.Event("ring-space", free_at);
      std::vector<BlockPayload> payloads;
      TERTIO_ASSIGN_OR_RETURN(
          sim::StageId read,
          ctx.drive_s->IssueRead(pipe, "s-read", {space, staged.done_stage},
                                 s.start_block + chunk_off + ring_off, count,
                                 phantom ? nullptr : &payloads, kChunkRetryLimit));
      TERTIO_RETURN_IF_ERROR(write_cursor.Slice(ring_off, count, &write_slice));
      TERTIO_ASSIGN_OR_RETURN(sim::StageId write,
                              ctx.disks->IssueWrite(pipe, "ring-write", {read}, write_slice,
                                                    phantom ? nullptr : &payloads));
      return Piece{ring_off, count, write};
    };

    // Splits a chunk of `take` blocks into (ring offset, count) pieces.
    auto pieces_of = [&](BlockCount take) {
      std::vector<std::pair<BlockCount, BlockCount>> pieces;
      for (BlockCount done = 0; done < take; done += sub) {
        pieces.emplace_back(done, std::min<BlockCount>(sub, take - done));
      }
      return pieces;
    };

    sim::StageId join_chain = staged.done_stage;
    BlockCount off = 0;
    BlockCount take = std::min<BlockCount>(ms, s.blocks);
    std::vector<Piece> current;
    for (auto [ring_off, n] : pieces_of(take)) {
      TERTIO_ASSIGN_OR_RETURN(Piece piece, produce_piece(off, ring_off, n));
      current.push_back(piece);
    }

    while (take > 0) {
      BlockCount next_off = off + take;
      BlockCount next_take =
          next_off < s.blocks ? std::min<BlockCount>(ms, s.blocks - next_off) : 0;
      auto next_pieces = pieces_of(next_take);

      // Consume current chunk piece-by-piece, producing the next chunk into
      // the space each piece frees (the interleaving of Section 4).
      std::vector<BlockPayload> chunk;
      std::vector<Piece> next;
      size_t piece_count = std::max(current.size(), next_pieces.size());
      sim::StageId t = join_chain;
      for (size_t j = 0; j < piece_count; ++j) {
        if (j < current.size()) {
          TERTIO_RETURN_IF_ERROR(
              read_cursor.Slice(current[j].ring_off, current[j].count, &read_slice));
          TERTIO_ASSIGN_OR_RETURN(
              t, ctx.disks->IssueRead(pipe, "ring-read", {t, current[j].write_stage}, read_slice,
                                      phantom ? nullptr : &chunk, kChunkRetryLimit));
          TERTIO_RETURN_IF_ERROR(ring.Release(current[j].count, pipe.end(t)));
        }
        if (j < next_pieces.size()) {
          TERTIO_ASSIGN_OR_RETURN(
              Piece piece, produce_piece(next_off, next_pieces[j].first, next_pieces[j].second));
          next.push_back(piece);
        }
      }
      TERTIO_ASSIGN_OR_RETURN(join_chain,
                              JoinChunkAgainstR(run, r_source, r_columns, mr, chunk, {t}));
      stats.iterations += 1;
      current = std::move(next);
      off = next_off;
      take = next_take;
    }
    finish_stage = join_chain;
    TERTIO_RETURN_IF_ERROR(ring_space.Free(pipe.end(finish_stage)));
  }

  SimSeconds finish = pipe.end(finish_stage);
  stats.r_scans = stats.iterations;
  run.Finish(staged.done, finish);
  return staged.space.Free(finish);  // restore scratch state
}

}  // namespace tertio::join
