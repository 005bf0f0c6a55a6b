#include "disk/allocator.h"

#include <algorithm>

#include "sim/auditor.h"
#include "util/string_util.h"

namespace tertio::disk {

DiskSpaceAllocator::DiskSpaceAllocator(std::vector<BlockCount> per_disk_capacity,
                                       BlockCount stripe_unit)
    : stripe_unit_(stripe_unit) {
  TERTIO_CHECK(!per_disk_capacity.empty(), "allocator requires at least one disk");
  TERTIO_CHECK(stripe_unit > 0, "stripe unit must be positive");
  for (BlockCount cap : per_disk_capacity) {
    FreeList list;
    if (cap > 0) list.emplace(0, cap);
    free_lists_.push_back(std::move(list));
    free_per_disk_.push_back(cap);
    capacity_ += cap;
  }
  hole_cursors_.resize(free_lists_.size());
  open_runs_.resize(free_lists_.size());
}

DiskSpaceAllocator::DiskSpaceAllocator(int disk_count, const ExtentList& region,
                                       BlockCount stripe_unit)
    : stripe_unit_(stripe_unit) {
  TERTIO_CHECK(disk_count > 0, "allocator requires at least one disk");
  TERTIO_CHECK(stripe_unit > 0, "stripe unit must be positive");
  free_lists_.resize(static_cast<size_t>(disk_count));
  free_per_disk_.assign(static_cast<size_t>(disk_count), 0);
  hole_cursors_.resize(static_cast<size_t>(disk_count));
  open_runs_.resize(static_cast<size_t>(disk_count));
  capacity_ = TotalBlocks(region);
  FreeRuns(region);  // coalesces adjacent carve pieces back together
}

BlockCount DiskSpaceAllocator::FreeBlocksOn(int disk) const {
  return free_per_disk_[static_cast<size_t>(disk)];
}

Result<ExtentList> DiskSpaceAllocator::Allocate(BlockCount count, SimSeconds now,
                                                const std::string& tag) {
  ExtentList extents;
  Run run(this);
  TERTIO_RETURN_IF_ERROR(run.Allocate(count, now, tag, &extents));
  return extents;
}

DiskSpaceAllocator::Run::Run(DiskSpaceAllocator* allocator) : allocator_(allocator) {
  TERTIO_CHECK(!allocator_->walking_, "allocator already has an open run");
  allocator_->walking_ = true;
  for (std::size_t i = 0; i < allocator_->free_lists_.size(); ++i) {
    allocator_->hole_cursors_[i] = HoleCursor{allocator_->free_lists_[i].begin(), 0};
  }
}

DiskSpaceAllocator::Run::~Run() {
  allocator_->CommitWalk();
  allocator_->walking_ = false;
}

Status DiskSpaceAllocator::Run::Allocate(BlockCount count, SimSeconds now,
                                         const std::string& tag, ExtentList* out) {
  if (count == 0) return Status::OK();
  DiskSpaceAllocator& a = *allocator_;
  const int n = static_cast<int>(a.free_lists_.size());
  const BlockCount available = a.free_blocks();
  if (available < count) {
    return Status::ResourceExhausted(
        StrFormat("allocation of %llu blocks exceeds free space (%llu blocks, tag=%s)",
                  static_cast<unsigned long long>(count.value()),
                  static_cast<unsigned long long>(available.value()), tag.c_str()));
  }

  // The round-robin stripe walk against per-disk cursors into the free
  // lists, first fit (each disk hands out its lowest-addressed hole first,
  // keeping data packed and sequential requests adjacent).
  const std::size_t first = out->size();
  BlockCount remaining = count;
  int guard = 0;
  while (remaining > 0) {
    TERTIO_CHECK(guard++ < 1'000'000, "allocator failed to converge");
    const int disk = a.rr_cursor_;
    a.rr_cursor_ = (a.rr_cursor_ + 1) % n;
    const auto i = static_cast<std::size_t>(disk);
    if (a.free_per_disk_[i] == 0) continue;
    HoleCursor& cursor = a.hole_cursors_[i];
    BlockCount take = std::min({remaining, a.stripe_unit_, cursor.hole->second - cursor.taken});
    Extent extent{disk, cursor.hole->first + cursor.taken, take};
    cursor.taken += take;
    a.free_per_disk_[i] -= take;
    remaining -= take;
    if (cursor.taken == cursor.hole->second) {
      ++cursor.hole;
      cursor.taken = 0;
    }
    // Coalesce with the previous extent when contiguous on the same disk.
    if (out->size() > first && out->back().disk == extent.disk &&
        out->back().start + out->back().count == extent.start) {
      out->back().count += extent.count;
    } else {
      out->push_back(extent);
    }
  }
  a.used_ += count;
  a.Record(now, static_cast<std::int64_t>(count.value()), tag);
  return Status::OK();
}

void DiskSpaceAllocator::CommitWalk() {
  for (std::size_t i = 0; i < free_lists_.size(); ++i) {
    HoleCursor& cursor = hole_cursors_[i];
    FreeList& list = free_lists_[i];
    if (cursor.hole == list.begin() && cursor.taken == 0) continue;
    list.erase(list.begin(), cursor.hole);
    if (cursor.taken > 0) {
      // The partly used hole keeps its node; only its key moves up.
      auto node = list.extract(cursor.hole);
      node.key() += cursor.taken;
      node.mapped() -= cursor.taken;
      list.insert(list.begin(), std::move(node));
    }
  }
}

void DiskSpaceAllocator::FreeRun(const Extent& run) {
  FreeList& list = free_lists_[static_cast<size_t>(run.disk)];
  const BlockIndex end = run.start + run.count;
  auto next = list.lower_bound(run.start);
  auto prev = next == list.begin() ? list.end() : std::prev(next);
  TERTIO_CHECK(next == list.end() || end <= next->first, "double free of disk extent");
  TERTIO_CHECK(prev == list.end() || prev->first + prev->second <= run.start,
               "double free of disk extent");
  const bool join_prev = prev != list.end() && prev->first + prev->second == run.start;
  const bool join_next = next != list.end() && next->first == end;
  if (join_prev) {
    prev->second += run.count;
    if (join_next) {
      prev->second += next->second;
      list.erase(next);
    }
  } else if (join_next) {
    // The successor hole grows downward: re-key its node in place.
    auto after = std::next(next);
    auto node = list.extract(next);
    node.key() = run.start;
    node.mapped() += run.count;
    list.insert(after, std::move(node));
  } else {
    list.emplace_hint(next, run.start, run.count);
  }
  free_per_disk_[static_cast<size_t>(run.disk)] += run.count;
}

void DiskSpaceAllocator::FreeRuns(const ExtentList& extents) {
  // One open run per disk, extended while the list keeps adding adjacent
  // pieces to it (a striped allocation alternates disks, so its pieces on
  // any one disk are usually back to back). The coalesced free map does not
  // depend on how the blocks are grouped, only on which blocks are freed.
  const int n = static_cast<int>(free_lists_.size());
  for (Extent& run : open_runs_) run.count = 0;
  for (const Extent& piece : extents) {
    TERTIO_CHECK(piece.disk >= 0 && piece.disk < n, "extent names a disk outside the group");
    if (piece.count == 0) continue;
    Extent& run = open_runs_[static_cast<size_t>(piece.disk)];
    if (run.count > 0 && run.start + run.count == piece.start) {
      run.count += piece.count;
    } else {
      if (run.count > 0) FreeRun(run);
      run = piece;
    }
  }
  for (const Extent& run : open_runs_) {
    if (run.count > 0) FreeRun(run);
  }
}

Status DiskSpaceAllocator::Free(const ExtentList& extents, SimSeconds now,
                                const std::string& tag) {
  TERTIO_CHECK(!walking_, "free while an allocation run is open");
  BlockCount total = TotalBlocks(extents);
  if (total > used_) {
    if (auditor_ != nullptr) {
      auditor_->OnDiskOverfree(
          tag, StrFormat("free of %llu blocks exceeds the %llu currently allocated",
                         static_cast<unsigned long long>(total.value()),
                         static_cast<unsigned long long>(used_.value())));
    }
    return Status::Internal("freeing more blocks than are allocated");
  }
  FreeRuns(extents);
  used_ -= total;
  Record(now, -static_cast<std::int64_t>(total.value()), tag);
  return Status::OK();
}

void DiskSpaceAllocator::Record(SimSeconds now, std::int64_t delta, const std::string& tag) {
  if (auditor_ != nullptr) auditor_->OnDiskUsage(tag, now, used_, capacity_);
  if (!trace_enabled_) return;
  trace_.push_back(UsageEvent{now, delta, used_, tag});
}

ExtentLease& ExtentLease::operator=(ExtentLease&& other) noexcept {
  if (this != &other) {
    TERTIO_CHECK(Free(allocated_at_).ok(), "extent lease failed to return its space");
    allocator_ = std::exchange(other.allocator_, nullptr);
    extents_ = std::move(other.extents_);
    tag_ = std::move(other.tag_);
    allocated_at_ = other.allocated_at_;
  }
  return *this;
}

ExtentLease::~ExtentLease() {
  TERTIO_CHECK(Free(allocated_at_).ok(), "extent lease failed to return its space");
}

Result<ExtentLease> ExtentLease::Allocate(DiskSpaceAllocator* allocator, BlockCount count,
                                          SimSeconds now, std::string tag) {
  ExtentLease lease;
  TERTIO_ASSIGN_OR_RETURN(lease.extents_, allocator->Allocate(count, now, tag));
  lease.allocator_ = allocator;
  lease.tag_ = std::move(tag);
  lease.allocated_at_ = now;
  return lease;
}

Status ExtentLease::Free(SimSeconds now) {
  if (allocator_ == nullptr) return Status::OK();
  DiskSpaceAllocator* allocator = std::exchange(allocator_, nullptr);
  return allocator->Free(std::exchange(extents_, {}), now, tag_);
}

}  // namespace tertio::disk
