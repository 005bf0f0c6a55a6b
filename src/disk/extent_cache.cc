#include "disk/extent_cache.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "sim/auditor.h"
#include "util/string_util.h"

namespace tertio::disk {

ExtentCache::ExtentCache(std::string name, std::unique_ptr<StripedDiskGroup> view)
    : name_(std::move(name)), view_(std::move(view)) {
  TERTIO_CHECK(view_ != nullptr, "extent cache requires a disk view");
}

bool ExtentCache::Contains(const void* volume, BlockIndex start, BlockCount count) const {
  return entries_.find(Key{volume, start, count}) != entries_.end();
}

bool ExtentCache::Lookup(const void* volume, BlockIndex start, BlockCount count, SimSeconds now) {
  ++stats_.lookups;
  auto it = entries_.find(Key{volume, start, count});
  if (it == entries_.end() || now < it->second.ready) {
    ++stats_.misses;
    return false;
  }
  ++stats_.hits;
  it->second.last_use = std::max(it->second.last_use, now);
  return true;
}

Status ExtentCache::EvictUntil(BlockCount needed, SimSeconds now) {
  DiskSpaceAllocator& alloc = view_->allocator();
  while (alloc.free_blocks() < needed) {
    if (entries_.empty()) {
      return Status::Internal(StrFormat("extent cache %s: no entries left but %llu of %llu "
                                           "blocks free",
                                           name_.c_str(),
                                           static_cast<unsigned long long>(alloc.free_blocks().value()),
                                           static_cast<unsigned long long>(needed.value())));
    }
    auto victim = entries_.begin();
    double victim_score = std::numeric_limits<double>::infinity();
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      double score = Score(it->second);
      if (score < victim_score) {
        victim_score = score;
        victim = it;
      }
    }
    BlockCount blocks = TotalBlocks(victim->second.extents);
    TERTIO_RETURN_IF_ERROR(alloc.Free(victim->second.extents, now, "cache:evict"));
    // A later entry may reuse the victim's node address.
    if (read_cursor_.extents() == &victim->second.extents) read_cursor_.Reset(nullptr);
    resident_ -= std::min(resident_, blocks);
    ++stats_.evictions;
    stats_.blocks_evicted += blocks;
    entries_.erase(victim);
    if (auditor_ != nullptr) auditor_->OnCacheEvict(name_, blocks, resident_);
  }
  return Status::OK();
}

Result<bool> ExtentCache::Admit(const void* volume, BlockIndex start, BlockCount count,
                                BytesPerSecond tape_rate_bps, SimSeconds now) {
  if (count == 0 || count > capacity_blocks()) return false;
  Key key{volume, start, count};
  auto it = entries_.find(key);
  if (it != entries_.end()) {
    it->second.last_use = std::max(it->second.last_use, now);
    return false;
  }
  TERTIO_RETURN_IF_ERROR(EvictUntil(count, now));
  TERTIO_ASSIGN_OR_RETURN(ExtentList extents,
                          view_->allocator().Allocate(count, now, "cache:fill"));
  // The fill pays the disk side of copying the pass that just swept the
  // extent off tape: a phantom striped write (the simulator never moves
  // payload bytes for cached data — the drive re-reads the tape volume's
  // block store on a hit, so served data is bit-identical).
  auto write = view_->WriteExtents(extents, now, nullptr);
  if (!write.ok()) {
    (void)view_->allocator().Free(extents, now, "cache:fill");  // best-effort unwind
    return write.status();
  }

  Entry entry;
  entry.extents = std::move(extents);
  entry.ready = write.value().end;
  entry.last_use = std::max(now, write.value().end);
  BytesPerSecond disk_rate = view_->aggregate_rate_bps();
  if (tape_rate_bps > 0.0 && disk_rate > 0.0 && disk_rate > tape_rate_bps) {
    double bytes = static_cast<double>(count.value()) * static_cast<double>(view_->block_bytes().value());
    entry.benefit_seconds = bytes / tape_rate_bps.value() - bytes / disk_rate.value();
  }
  entries_.emplace(key, std::move(entry));
  resident_ += count;
  ++stats_.fills;
  stats_.blocks_filled += count;
  if (auditor_ != nullptr) auditor_->OnCacheFill(name_, count, resident_, capacity_blocks());
  return true;
}

Result<sim::Interval> ExtentCache::ReadThrough(const void* volume, BlockIndex entry_start,
                                               BlockCount entry_count, BlockIndex start,
                                               BlockCount count, SimSeconds ready) {
  auto it = entries_.find(Key{volume, entry_start, entry_count});
  if (it == entries_.end()) {
    return Status::NotFound(StrFormat("extent cache %s: read-through of a non-resident entry "
                                         "at block %llu",
                                         name_.c_str(),
                                         static_cast<unsigned long long>(entry_start.value())));
  }
  if (start < entry_start || count > entry_count ||
      start - entry_start > entry_count - count) {
    return Status::InvalidArgument(
        StrFormat("extent cache %s: read [%llu, +%llu) outside entry [%llu, +%llu)",
                     name_.c_str(), static_cast<unsigned long long>(start.value()),
                     static_cast<unsigned long long>(count.value()),
                     static_cast<unsigned long long>(entry_start.value()),
                     static_cast<unsigned long long>(entry_count.value())));
  }
  if (read_cursor_.extents() != &it->second.extents) read_cursor_.Reset(&it->second.extents);
  TERTIO_RETURN_IF_ERROR(read_cursor_.Slice(start - entry_start, count, &read_slice_));
  TERTIO_ASSIGN_OR_RETURN(sim::Interval interval,
                          view_->ReadExtents(read_slice_, ready, nullptr));
  stats_.blocks_served += count;
  it->second.last_use = std::max(it->second.last_use, interval.end);
  return interval;
}

void ExtentCache::BindAuditor(sim::Auditor* auditor) {
  auditor_ = auditor;
  view_->BindAuditor(auditor);
}

}  // namespace tertio::disk
