#pragma once

/// \file memory_budget.h
/// Accounting for the fixed main-memory allotment M of the system model.
///
/// The paper allocates a fixed M blocks of main memory to the join (Section
/// 3.1) and charges every buffer against it — including the per-bucket write
/// buffers of the hashing methods, which "become significant" when the
/// bucket count is large (Section 6). MemoryBudget enforces that no join
/// method silently uses more memory than its Table 2 entry.

#include <map>
#include <string>
#include <utility>

#include "util/status.h"
#include "util/units.h"

namespace tertio::sim {
class Auditor;
}

namespace tertio::mem {

/// Block-granular budget with named reservations. A budget can be
/// partitioned: the service layer (exec/site.h) carves each query session's
/// M_q out of the site-wide budget with a BudgetLease and gives the session
/// its own MemoryBudget over the leased blocks, so per-session occupancy
/// bounds stay locally auditable while the site-wide sum can never exceed M.
class MemoryBudget {
 public:
  explicit MemoryBudget(BlockCount total_blocks) : total_(total_blocks) {}

  BlockCount total_blocks() const { return total_; }
  BlockCount reserved_blocks() const { return reserved_; }
  BlockCount free_blocks() const { return total_ - reserved_; }

  /// Reserves `count` blocks under `tag`; fails if the budget is exceeded.
  Status Reserve(BlockCount count, const std::string& tag);

  /// Releases `count` blocks from `tag`; fails on over-release.
  Status Release(BlockCount count, const std::string& tag);

  /// Releases everything held under `tag`.
  Status ReleaseAll(const std::string& tag);

  /// Blocks currently reserved under `tag`.
  BlockCount ReservedUnder(const std::string& tag) const;

  /// Largest reserved_blocks() ever observed — the method's true memory
  /// footprint, compared against Table 2 in tests.
  BlockCount peak_reserved_blocks() const { return peak_; }

  /// Registers a SimSan auditor (sim/auditor.h) observing every reserve and
  /// release — occupancy ≤ M and release ≤ reservation become audited
  /// invariants on top of the Status returns. Null detaches.
  void BindAuditor(sim::Auditor* auditor) { auditor_ = auditor; }

 private:
  BlockCount total_;
  BlockCount reserved_ = 0;
  BlockCount peak_ = 0;
  sim::Auditor* auditor_ = nullptr;
  std::map<std::string, BlockCount> by_tag_;
};

/// The nested-block methods' split of M (Section 5.1): M_r =
/// max(1, floor(0.1 M)) blocks scan R and the remaining M_s = M - M_r hold
/// S; CDT-NB/MB halves M_s into two S buffers. The NB executors and the
/// cost model both plan with it, as the hash methods both plan with
/// hash::BucketLayout::Plan.
struct NbSplit {
  /// M_r: blocks reserved for scanning R.
  BlockCount r_blocks = 0;
  /// Blocks of one S buffer (M_s, or M_s / 2 with two buffers).
  BlockCount s_blocks = 0;

  /// Fails with ResourceExhausted when M leaves no room for an S buffer.
  static Result<NbSplit> Plan(BlockCount memory_blocks, bool two_s_buffers);
};

/// RAII partition of a parent budget: Acquire() reserves `blocks` under
/// `tag` in the parent; destruction (or ReleaseNow) returns them. Move-only.
class BudgetLease {
 public:
  BudgetLease() = default;
  BudgetLease(const BudgetLease&) = delete;
  BudgetLease& operator=(const BudgetLease&) = delete;
  BudgetLease(BudgetLease&& other) noexcept { *this = std::move(other); }
  BudgetLease& operator=(BudgetLease&& other) noexcept {
    if (this != &other) {
      ReleaseNow();
      parent_ = other.parent_;
      blocks_ = other.blocks_;
      tag_ = std::move(other.tag_);
      other.parent_ = nullptr;
      other.blocks_ = 0;
    }
    return *this;
  }
  ~BudgetLease() { ReleaseNow(); }

  /// Reserves `blocks` under `tag` in `parent`. Fails with the parent's
  /// ResourceExhausted when the partition does not fit.
  static Result<BudgetLease> Acquire(MemoryBudget* parent, BlockCount blocks, std::string tag);

  bool active() const { return parent_ != nullptr; }
  BlockCount blocks() const { return blocks_; }
  const std::string& tag() const { return tag_; }

  /// Returns the leased blocks to the parent. Idempotent.
  void ReleaseNow();

 private:
  BudgetLease(MemoryBudget* parent, BlockCount blocks, std::string tag)
      : parent_(parent), blocks_(blocks), tag_(std::move(tag)) {}

  MemoryBudget* parent_ = nullptr;
  BlockCount blocks_ = 0;
  std::string tag_;
};

}  // namespace tertio::mem
