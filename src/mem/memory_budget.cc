#include "mem/memory_budget.h"

#include <algorithm>

#include "sim/auditor.h"
#include "util/string_util.h"

namespace tertio::mem {

Status MemoryBudget::Reserve(BlockCount count, const std::string& tag) {
  if (reserved_ + count > total_) {
    // Refused, nothing committed: occupancy never exceeded M, so this is an
    // error for the caller but not an audit violation. The auditor hook
    // below only ever sees committed occupancy.
    return Status::ResourceExhausted(
        StrFormat("memory reservation '%s' of %llu blocks exceeds budget "
                  "(%llu of %llu blocks in use)",
                  tag.c_str(), static_cast<unsigned long long>(count.value()),
                  static_cast<unsigned long long>(reserved_.value()),
                  static_cast<unsigned long long>(total_.value())));
  }
  reserved_ += count;
  by_tag_[tag] += count;
  if (reserved_ > peak_) peak_ = reserved_;
  if (auditor_ != nullptr) auditor_->OnMemoryReserve(tag, count, reserved_, total_);
  return Status::OK();
}

Status MemoryBudget::Release(BlockCount count, const std::string& tag) {
  auto it = by_tag_.find(tag);
  BlockCount held = it == by_tag_.end() ? 0 : it->second;
  if (auditor_ != nullptr) auditor_->OnMemoryRelease(tag, count, held);
  if (held < count) {
    return Status::InvalidArgument(
        StrFormat("release of %llu blocks under '%s' exceeds its reservation",
                  static_cast<unsigned long long>(count.value()), tag.c_str()));
  }
  it->second -= count;
  if (it->second == 0) by_tag_.erase(it);
  reserved_ -= count;
  return Status::OK();
}

Status MemoryBudget::ReleaseAll(const std::string& tag) {
  auto it = by_tag_.find(tag);
  if (it == by_tag_.end()) return Status::OK();
  if (auditor_ != nullptr) auditor_->OnMemoryRelease(tag, it->second, it->second);
  reserved_ -= it->second;
  by_tag_.erase(it);
  return Status::OK();
}

BlockCount MemoryBudget::ReservedUnder(const std::string& tag) const {
  auto it = by_tag_.find(tag);
  return it == by_tag_.end() ? 0 : it->second;
}

Result<NbSplit> NbSplit::Plan(BlockCount memory_blocks, bool two_s_buffers) {
  NbSplit split;
  split.r_blocks = std::max<BlockCount>(1, memory_blocks / 10);
  if (memory_blocks <= split.r_blocks) {
    return Status::ResourceExhausted("memory too small for a nested-block join (need >= 2 blocks)");
  }
  BlockCount s_space = memory_blocks - split.r_blocks;
  split.s_blocks = two_s_buffers ? s_space / 2 : s_space;
  if (split.s_blocks == 0) {
    return Status::ResourceExhausted("memory too small to split into two S buffers");
  }
  return split;
}

Result<BudgetLease> BudgetLease::Acquire(MemoryBudget* parent, BlockCount blocks,
                                         std::string tag) {
  if (parent == nullptr) return Status::InvalidArgument("budget lease requires a parent budget");
  TERTIO_RETURN_IF_ERROR(parent->Reserve(blocks, tag));
  return BudgetLease(parent, blocks, std::move(tag));
}

void BudgetLease::ReleaseNow() {
  if (parent_ == nullptr) return;
  Status released = parent_->Release(blocks_, tag_);
  // A lease releases exactly what it reserved, so over-release is impossible
  // unless the parent was mutated behind its back.
  TERTIO_CHECK(released.ok(), "budget lease release failed");
  parent_ = nullptr;
  blocks_ = 0;
}

}  // namespace tertio::mem
