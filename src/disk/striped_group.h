#pragma once

/// \file striped_group.h
/// The n-disk secondary-storage substrate of the system model.
///
/// The group owns its DiskVolumes and a DiskSpaceAllocator over them.
/// Logical reads and writes address ExtentLists; per-disk pieces of one
/// logical request are dispatched to their disks in parallel (each disk is
/// its own sim::Resource), so a striped transfer approaches the aggregate
/// rate X_D of Section 3.1 while two transfers directed at disjoint disks do
/// not disturb each other — the "finer control over usage of disk arms" of
/// Section 4.

#include <memory>
#include <string>
#include <vector>

#include "disk/allocator.h"
#include "disk/disk_volume.h"
#include "disk/extent.h"
#include "sim/pipeline.h"
#include "sim/simulation.h"
#include "util/status.h"

namespace tertio::disk {

/// Caller-owned walk state over one ExtentList: the forward cursor that an
/// endpoint's per-chunk slices and chunk profiles start from, plus the
/// buffers they refill, so an endpoint's steady state allocates nothing.
/// The list may only grow at the back while the walk is bound to it.
struct ExtentWalk {
  explicit ExtentWalk(const ExtentList* extents) : cursor(extents) {}

  /// Where a disk's next piece must start for the walk to stay sequential.
  struct DiskNext {
    BlockIndex start = 0;
    bool touched = false;
  };

  /// One ExtentChunkProfile question.
  struct Question {
    BlockCount offset = 0;
    BlockCount chunk = 0;
    std::uint64_t max_chunks = 0;
    bool write = false;
    std::size_t list_size = 0;
    friend auto operator<=>(const Question&, const Question&) = default;
  };

  /// A disk's first-touch answer a profile walk read: whether a request at
  /// `start` continues the disk's previous one. These are the only live
  /// device state the walk reads.
  struct FirstTouch {
    int disk = 0;
    BlockIndex start = 0;
    bool sequential = false;
    bool operator==(const FirstTouch&) const = default;
  };

  /// One disk's share of a profile period, for the commit's counters.
  struct DiskShare {
    int disk = 0;
    BlockCount blocks = 0;
    std::uint64_t requests = 0;
    std::uint64_t positioned = 0;
    bool operator==(const DiskShare&) const = default;
  };

  /// A question's answer, rejections included (chunks == 0): the profile
  /// less its commit, and the first-touch answers it rests on.
  struct Answer {
    Question question;
    std::vector<FirstTouch> touches;
    std::uint64_t chunks = 0;
    std::uint64_t cycle = 0;
    std::vector<std::uint32_t> ops_per_chunk;
    std::vector<sim::ChunkCostProfile::Op> ops;
    std::vector<DiskShare> shares;
  };

  ExtentCursor cursor;
  /// The latest per-chunk slice.
  ExtentList slice;
  /// ExtentChunkProfile's lead chunks: their pieces back to back, whether
  /// each piece pays positioning time, and the end of each chunk's pieces in
  /// `lead`.
  ExtentList lead;
  std::vector<bool> lead_positioned;
  std::vector<std::uint32_t> lead_ends;
  std::vector<DiskNext> disk_next;
  /// The first-touch answers of the latest profile walk.
  std::vector<FirstTouch> touches;
  /// Answers kept once the list is scanned again, sorted by question. A
  /// scan asks ascending offsets, so a question below `next_offset` (one
  /// past the previous question's) starts a re-scan; a list scanned once
  /// keeps nothing.
  std::vector<Answer> memo;
  BlockCount next_offset = 0;
  bool rescanned = false;
};

/// Configuration of one disk group.
struct DiskGroupConfig {
  /// Model of each spindle (one entry per disk).
  std::vector<DiskModel> disks;
  /// Capacity per disk, blocks. Must match `disks` in length.
  std::vector<BlockCount> per_disk_capacity;
  ByteCount block_bytes = kDefaultBlockBytes;
  /// Striping granularity in blocks.
  BlockCount stripe_unit = 32;

  /// `n` identical disks evenly sharing `total_capacity_blocks`.
  static DiskGroupConfig Uniform(int n, DiskModel model, BlockCount total_capacity_blocks,
                                 ByteCount block_bytes = kDefaultBlockBytes,
                                 BlockCount stripe_unit = 32);
};

/// n disks + allocator, presented as one substrate.
class StripedDiskGroup {
 public:
  /// Creates the group, registering one resource per disk in `sim`.
  StripedDiskGroup(const DiskGroupConfig& config, sim::Simulation* sim);

  /// Session view over the spindles of an owning group: the device timelines
  /// (and therefore contention) are shared with the owner, but the space
  /// allocator is private and covers exactly `region` — the blocks a query
  /// session leased from the site allocator (exec/query_session.h).
  StripedDiskGroup(std::vector<DiskVolume*> spindles, const ExtentList& region,
                   BlockCount stripe_unit, ByteCount block_bytes);

  int disk_count() const { return static_cast<int>(disks_.size()); }
  DiskVolume* disk(int i) { return disks_[static_cast<size_t>(i)]; }
  DiskSpaceAllocator& allocator() { return allocator_; }
  const DiskSpaceAllocator& allocator() const { return allocator_; }
  ByteCount block_bytes() const { return block_bytes_; }

  /// Sum of per-disk sustained rates — the model's aggregate X_D.
  BytesPerSecond aggregate_rate_bps() const;

  /// Reads every extent in `extents` (one disk request per extent, issued at
  /// `ready`, parallel across disks). Payloads append to `out` in extent
  /// order when non-null; when any extent fails, `out` is left as it was.
  /// \returns the hull of the per-disk intervals.
  Result<sim::Interval> ReadExtents(const ExtentList& extents, SimSeconds ready,
                                    std::vector<BlockPayload>* out = nullptr);

  /// Writes blocks over `extents` in order, all ready at `ready`: the
  /// one-ready case of CommitWrites. `payloads`, when non-null, must hold
  /// exactly TotalBlocks(extents) entries; null writes phantoms. When an
  /// extent names no disk of the group or exceeds its disk's capacity, the
  /// extents before it are written and its error is returned.
  /// \returns the hull of the per-disk intervals.
  Result<sim::Interval> WriteExtents(const ExtentList& extents, SimSeconds ready,
                                     const std::vector<BlockPayload>* payloads = nullptr);

  /// Writes `pieces`, a call's requests in issue order, each at its own
  /// ready time: one pass per disk, as DiskVolume::CommitWrites commits
  /// them. Since a disk serves its requests in issue order and no request
  /// waits on another disk, this equals writing the pieces one by one. Every
  /// piece must name a disk of the group and lie within its capacity. Sets
  /// each piece's `interval`.
  void CommitWrites(std::span<WritePiece> pieces);

  /// Steady-state cost profile for up to `max_chunks` chunked requests over
  /// the list `walk` is bound to, starting at logical block `offset`
  /// (sim/pipeline.h coalescing). The pieces a chunk dissolves into, and
  /// whether each pays positioning time, rotate with a period set by the
  /// chunk size and the layout (the stripe ring, or a partitioner's
  /// interleaved bucket flushes), so the profile carries one period's
  /// operations, each costed by DiskModel::RequestSeconds, and a cycle
  /// length. Empty — per-chunk fallback — when a disk carries an active
  /// fault plan, when a piece names no disk of the group or exceeds its
  /// capacity before two chunks are verified, or when the pattern seeks but
  /// does not repeat at least twice. One forward pass from the walk's
  /// cursor; it stops at the first piece that breaks the pattern. The
  /// profile's commit reads `walk`, so it must run while the endpoint lives.
  /// Once the list is scanned again, an answer the walk keeps is reused
  /// while every disk it touched gives the same first-touch answer; under a
  /// bound auditor every reuse is re-walked and compared.
  sim::ChunkCostProfile ExtentChunkProfile(ExtentWalk& walk, BlockCount offset, BlockCount chunk,
                                           std::uint64_t max_chunks, bool write);

  /// Binds a SimSan auditor (sim/auditor.h) to the allocator and to the
  /// profile memo's cross-check. Null detaches.
  void BindAuditor(sim::Auditor* auditor) {
    auditor_ = auditor;
    allocator_.BindAuditor(auditor);
  }

  /// Aggregated statistics across all disks.
  DiskStats TotalStats() const;

  /// Aggregated fault/recovery counters across all disks (zero when no disk
  /// carries an injector).
  sim::FaultStats TotalFaultStats() const;

  /// Emits a whole-extent-list read as one pipeline stage ready after
  /// `deps`, re-attempted in place up to `retry_limit` times on kDeviceError
  /// (a failed read delivers nothing, so a re-read is clean). \returns the
  /// stage.
  Result<sim::StageId> IssueRead(sim::Pipeline& pipe, std::string_view phase,
                                 std::span<const sim::StageId> deps, const ExtentList& extents,
                                 std::vector<BlockPayload>* out = nullptr, int retry_limit = 0);
  Result<sim::StageId> IssueRead(sim::Pipeline& pipe, std::string_view phase,
                                 std::initializer_list<sim::StageId> deps,
                                 const ExtentList& extents,
                                 std::vector<BlockPayload>* out = nullptr,
                                 int retry_limit = 0) {
    return IssueRead(pipe, phase, std::span<const sim::StageId>(deps.begin(), deps.size()),
                     extents, out, retry_limit);
  }

  /// Emits a whole-extent-list write as one pipeline stage ready after
  /// `deps`. `payloads` null writes phantoms.
  Result<sim::StageId> IssueWrite(sim::Pipeline& pipe, std::string_view phase,
                                  std::span<const sim::StageId> deps, const ExtentList& extents,
                                  const std::vector<BlockPayload>* payloads = nullptr);
  Result<sim::StageId> IssueWrite(sim::Pipeline& pipe, std::string_view phase,
                                  std::initializer_list<sim::StageId> deps,
                                  const ExtentList& extents,
                                  const std::vector<BlockPayload>* payloads = nullptr) {
    return IssueWrite(pipe, phase, std::span<const sim::StageId>(deps.begin(), deps.size()),
                      extents, payloads);
  }

 private:
  /// Spindles owned by this group (empty in a session view).
  std::vector<std::unique_ptr<DiskVolume>> owned_;
  /// The spindles addressed by extents — owned or borrowed.
  std::vector<DiskVolume*> disks_;
  DiskSpaceAllocator allocator_;
  ByteCount block_bytes_;
  sim::Auditor* auditor_ = nullptr;
  /// WriteExtents' pieces, reused across calls.
  std::vector<WritePiece> write_pieces_;

  /// Walks the pieces of `question` and answers it (touches excepted; the
  /// walk leaves them in walk.touches).
  ExtentWalk::Answer WalkChunks(ExtentWalk& walk, const ExtentWalk::Question& question);
  /// The profile of an answer, its commit bound to `walk`.
  sim::ChunkCostProfile ProfileOf(ExtentWalk& walk, ExtentWalk::Answer answer);
};

/// Pipeline source streaming a disk-resident logical sequence: block
/// [offset, offset+count) of a Transfer maps to that slice of `extents`,
/// cut by the source's own cursor. The ExtentList must outlive the source.
class ExtentReadSource final : public sim::BlockSource {
 public:
  ExtentReadSource(StripedDiskGroup* group, const ExtentList* extents)
      : group_(group), walk_(extents) {}

  Result<sim::Interval> Read(BlockCount offset, BlockCount count, SimSeconds ready,
                             std::vector<BlockPayload>* out) override;
  sim::ChunkCostProfile CostProfile(BlockCount offset, BlockCount chunk,
                                    std::uint64_t max_chunks) override {
    return group_->ExtentChunkProfile(walk_, offset, chunk, max_chunks, /*write=*/false);
  }
  std::string_view device() const override { return "disks"; }

 private:
  StripedDiskGroup* group_;
  ExtentWalk walk_;
};

/// Pipeline sink writing a Transfer's chunks over a pre-allocated extent
/// list, sliced the same way.
class ExtentWriteSink final : public sim::BlockSink {
 public:
  ExtentWriteSink(StripedDiskGroup* group, const ExtentList* extents)
      : group_(group), walk_(extents) {}

  Result<sim::Interval> Write(BlockCount offset, BlockCount count, SimSeconds ready,
                              std::vector<BlockPayload>* payloads) override;
  sim::ChunkCostProfile CostProfile(BlockCount offset, BlockCount chunk,
                                    std::uint64_t max_chunks) override {
    return group_->ExtentChunkProfile(walk_, offset, chunk, max_chunks, /*write=*/true);
  }
  std::string_view device() const override { return "disks"; }

 private:
  StripedDiskGroup* group_;
  ExtentWalk walk_;
};

}  // namespace tertio::disk
