#pragma once

/// \file join_common.h
/// Machinery shared by the seven join-method executors.

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "disk/allocator.h"
#include "disk/extent.h"
#include "join/flat_table.h"
#include "join/join_output.h"
#include "join/join_spec.h"
#include "sim/pipeline.h"
#include "util/status.h"

namespace tertio::join {

/// The build/probe table of every executor: the flat open-addressed table
/// (flat_table.h). The name survives from the seed's multimap implementation
/// (legacy_table.h, now the reference join's table).
using HashJoinTable = FlatJoinTable;

/// Pipeline sink probing a Transfer's chunks through a hash table — the
/// "consumer is the CPU" end of a scan. Probing is free in the system model
/// (Section 3.2); the sink exists so consumption is a declared stage.
class ProbeSink final : public sim::BlockSink {
 public:
  /// `table` may be null (scan without probing, e.g. an empty build side).
  ProbeSink(const HashJoinTable* table, const rel::Schema* probe_schema,
            std::size_t probe_key_column, JoinOutput* out)
      : table_(table), schema_(probe_schema), key_(probe_key_column), out_(out) {}

  Result<sim::Interval> Write(BlockCount offset, BlockCount count, SimSeconds ready,
                              std::vector<BlockPayload>* payloads) override;
  /// Probing is free in the system model, so phantom chunks coalesce freely.
  sim::ChunkCostProfile CostProfile(BlockCount offset, BlockCount chunk,
                                    std::uint64_t max_chunks) override {
    (void)offset;
    (void)chunk;
    return sim::ChunkCostProfile::Free(max_chunks);
  }
  std::string_view device() const override { return "mem"; }

 private:
  const HashJoinTable* table_;
  const rel::Schema* schema_;
  std::size_t key_;
  JoinOutput* out_;
};

/// Validates a spec against a context: relations present, |R| <= |S|, both
/// real or both phantom, tapes mounted in the right drives.
Status ValidateSpecAndContext(const JoinSpec& spec, const JoinContext& ctx);

/// Captures device statistics at construction; Fill() writes the deltas
/// (traffic, requests, response time since construction) into a JoinStats.
/// Construct it *before* the method reserves memory so the occupancy delta
/// attributes the method's own reservations.
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

/// Aggregated fault counters of every device in `ctx` (drives + disks);
/// zero when no device carries an injector.
sim::FaultStats ContextFaultStats(const JoinContext& ctx);

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

/// Scans `extents` (a disk-resident relation) in `chunk_blocks` requests
/// starting no earlier than `deps`; when `table` is non-null each chunk is
/// probed into `out`. Reads stream (chunk i+1 follows chunk i). \returns the
/// stage completing the scan.
Result<sim::StageId> ScanDiskAndProbe(const JoinContext& ctx, sim::Pipeline& pipe,
                                      std::string_view phase, const disk::ExtentList& extents,
                                      BlockCount chunk_blocks,
                                      std::span<const sim::StageId> deps, bool phantom,
                                      const rel::Schema* probe_schema, std::size_t probe_key,
                                      const HashJoinTable* table, JoinOutput* out);
inline Result<sim::StageId> ScanDiskAndProbe(const JoinContext& ctx, sim::Pipeline& pipe,
                                             std::string_view phase,
                                             const disk::ExtentList& extents,
                                             BlockCount chunk_blocks,
                                             std::initializer_list<sim::StageId> deps,
                                             bool phantom, const rel::Schema* probe_schema,
                                             std::size_t probe_key, const HashJoinTable* table,
                                             JoinOutput* out) {
  return ScanDiskAndProbe(ctx, pipe, phase, extents, chunk_blocks,
                          std::span<const sim::StageId>(deps.begin(), deps.size()), phantom,
                          probe_schema, probe_key, table, out);
}

/// Default tape read chunk for streaming a relation (blocks).
BlockCount DefaultTapeChunk(const rel::Relation& relation);

}  // namespace tertio::join
