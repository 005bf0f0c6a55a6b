#pragma once

/// \file allocator.h
/// Block-granular space management across the disks of a group.
///
/// Section 4 of the paper requires "special disk striping routines to balance
/// the consumption of bandwidth and storage space" — an ordinary RAID layer
/// hides block placement, but interleaved double-buffering needs the space
/// freed by the consumer of iteration i to be immediately reusable by the
/// producer of iteration i+1 without disturbing ongoing reads. The allocator
/// therefore exposes explicit allocate/free of striped extents with a
/// per-disk free list, and a timestamped utilization trace from which
/// Figure 4's utilization curves are drawn.

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "disk/extent.h"
#include "util/status.h"
#include "util/units.h"

namespace tertio::sim {
class Auditor;
}

namespace tertio::disk {

/// One allocate (+delta) or free (-delta) event, timestamped in virtual time.
struct UsageEvent {
  SimSeconds time = 0.0;
  /// Signed occupancy change; Blocks is unsigned, so the raw type stays.
  // tertio-lint: allow(units-raw-param)
  std::int64_t delta_blocks = 0;
  BlockCount used_after = 0;
  /// Owner label, e.g. "R-buckets", "S-iter-even".
  std::string tag;
};

/// Free-list allocator over the disks of one group.
class DiskSpaceAllocator {
 public:
  /// \param per_disk_capacity capacity in blocks of each disk.
  /// \param stripe_unit granularity (blocks) of round-robin striping.
  DiskSpaceAllocator(std::vector<BlockCount> per_disk_capacity, BlockCount stripe_unit);

  /// Allocator whose free space is exactly `region` — extents on disks
  /// [0, disk_count) previously carved from another allocator. The service
  /// layer (exec/query_session.h) gives each query session a private
  /// allocator over its carve, so the session's D_q bound is a locally
  /// audited capacity while the underlying spindles stay shared.
  DiskSpaceAllocator(int disk_count, const ExtentList& region, BlockCount stripe_unit);

  /// Allocates `count` blocks striped round-robin across the disks. The
  /// event is timestamped `now` in the utilization trace under `tag`. The
  /// one-allocation case of a Run.
  Result<ExtentList> Allocate(BlockCount count, SimSeconds now, const std::string& tag);

  class Run;

  /// Returns `extents` to the free lists. Freeing a block that is already
  /// free (any overlap with a free hole or with another extent of the same
  /// call) is a double free and aborts the process.
  Status Free(const ExtentList& extents, SimSeconds now, const std::string& tag);

  BlockCount used_blocks() const { return used_; }
  BlockCount capacity_blocks() const { return capacity_; }
  BlockCount free_blocks() const { return capacity_ - used_; }
  BlockCount stripe_unit() const { return stripe_unit_; }

  /// Enables retention of the utilization trace (Figure 4).
  void EnableTrace(bool enabled = true) { trace_enabled_ = enabled; }
  const std::vector<UsageEvent>& trace() const { return trace_; }

  /// Largest count that a single Allocate can currently satisfy.
  BlockCount FreeBlocksOn(int disk) const;

  /// Registers a SimSan auditor (sim/auditor.h): every occupancy change is
  /// checked against the group capacity D and over-frees are reported. Null
  /// detaches.
  void BindAuditor(sim::Auditor* auditor) { auditor_ = auditor; }

 private:
  // start -> length, non-overlapping, coalesced.
  using FreeList = std::map<BlockIndex, BlockCount>;

  /// A run's planning position on one disk: `taken` blocks of `hole` are
  /// already handed out. The disk's free count (free_per_disk_) is kept
  /// live; its free map is edited when the run ends.
  struct HoleCursor {
    FreeList::iterator hole;
    BlockCount taken = 0;
  };

  /// Ends a stripe walk: drops every hole the walk used up and shortens the
  /// one it stopped in.
  void CommitWalk();

  /// Frees `extents`, first merging each disk's pieces into contiguous runs
  /// so the free map is edited once per run rather than once per piece.
  void FreeRuns(const ExtentList& extents);
  /// Returns one run to its disk's free list, coalescing with neighbours.
  void FreeRun(const Extent& run);
  void Record(SimSeconds now, std::int64_t delta, const std::string& tag);

  std::vector<FreeList> free_lists_;
  std::vector<BlockCount> free_per_disk_;
  /// Per-disk scratch of Run and Free, sized once to the disk count.
  std::vector<HoleCursor> hole_cursors_;
  std::vector<Extent> open_runs_;
  BlockCount stripe_unit_;
  BlockCount capacity_ = 0;
  BlockCount used_ = 0;
  int rr_cursor_ = 0;
  /// A Run is walking the free maps; they are stale until it ends.
  bool walking_ = false;
  sim::Auditor* auditor_ = nullptr;
  bool trace_enabled_ = false;
  std::vector<UsageEvent> trace_;
};

/// One stripe walk shared by consecutive allocations (a partitioner's run of
/// bucket flushes). Each allocation continues where the previous one left
/// the per-disk hole cursors and the round-robin position, so k allocations
/// of a run hand out exactly the extents, trace events and free counts of k
/// Allocate calls; each disk's free map is edited once, when the run ends.
/// The allocator takes no other Allocate or Free while a run is open.
class DiskSpaceAllocator::Run {
 public:
  explicit Run(DiskSpaceAllocator* allocator);
  ~Run();
  Run(const Run&) = delete;
  Run& operator=(const Run&) = delete;

  /// Allocates `count` blocks as Allocate would and appends their extents
  /// to `out` (pieces of this allocation coalesce with each other, never
  /// with what `out` already held). A failed allocation changes nothing.
  Status Allocate(BlockCount count, SimSeconds now, const std::string& tag, ExtentList* out);

 private:
  DiskSpaceAllocator* allocator_;
};

/// RAII owner of one allocation: scratch space a join holds. Free() returns
/// it at the virtual time the caller names; an owner destroyed while still
/// holding space (a join that stopped on an error) returns it itself,
/// stamped with the allocation time, so the allocator is left as it was.
/// Move-only.
class ExtentLease {
 public:
  ExtentLease() = default;
  ExtentLease(const ExtentLease&) = delete;
  ExtentLease& operator=(const ExtentLease&) = delete;
  ExtentLease(ExtentLease&& other) noexcept { *this = std::move(other); }
  ExtentLease& operator=(ExtentLease&& other) noexcept;
  ~ExtentLease();

  /// Allocates `count` blocks from `allocator` at `now` under `tag`.
  static Result<ExtentLease> Allocate(DiskSpaceAllocator* allocator, BlockCount count,
                                      SimSeconds now, std::string tag);

  const ExtentList& extents() const { return extents_; }

  /// Returns the space to the allocator at `now`. Idempotent.
  Status Free(SimSeconds now);

 private:
  DiskSpaceAllocator* allocator_ = nullptr;
  ExtentList extents_;
  std::string tag_;
  SimSeconds allocated_at_ = 0.0;
};

}  // namespace tertio::disk
