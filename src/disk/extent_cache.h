#pragma once

/// \file extent_cache.h
/// Cross-query cache of hot tape extents on disk — the HSM tier.
///
/// The paper treats disk purely as per-join scratch, but a multi-query
/// service (exec/query_scheduler.h) re-reads the same tape extents across
/// queries. The cache keeps whole relation extents disk-resident inside a
/// dedicated carve of the site's disk space: the carve is allocated from
/// the site allocator up front and managed by the cache's own region-view
/// DiskSpaceAllocator, so it is disjoint from every session's D_q carve and
/// Table 2's scratch bounds keep holding per session. A hit turns a tape
/// pass into striped disk reads at disk cost (the drive stays parked —
/// a TapeDrive::SetWindow with a reader); misses can be admitted after the join
/// that paid the physical pass.
///
/// Eviction is cost-aware (GreedyDual flavor): each entry's score is its
/// last-use virtual time plus the seconds one full re-read would save by
/// coming from disk instead of tape (bytes × tape-vs-disk cost delta), so
/// a recently used or expensive-to-refetch extent outlives a cheap stale
/// one. The cache never moves payload bytes — disk copies are phantom, and
/// the drive delivers payloads from the tape volume's block store — so data
/// served through the cache is bit-identical to a physical read.
///
/// Keys are opaque: (volume pointer, start block, block count) identifies a
/// relation extent without the disk layer depending on tape types. All
/// admission is whole-extent; a partially cached relation is not a hit.
///
/// Under SimSan every fill/evict reports to the auditor, which keeps an
/// independent ledger per cache: resident blocks must stay within the carve
/// and must always equal Σ fills − Σ evicts.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <tuple>

#include "disk/striped_group.h"
#include "util/status.h"
#include "util/units.h"

namespace tertio::sim {
class Auditor;
}

namespace tertio::disk {

/// Cumulative cache activity counters.
struct ExtentCacheStats {
  std::uint64_t lookups = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t fills = 0;
  std::uint64_t evictions = 0;
  /// Blocks delivered out of the cache (disk reads in place of tape reads).
  BlockCount blocks_served = 0;
  BlockCount blocks_filled = 0;
  BlockCount blocks_evicted = 0;
};

/// Site-owned disk cache of tape extents. Thread-compatible like the rest
/// of the simulator: one cache per Site, driven single-threaded.
class ExtentCache {
 public:
  /// \param view session-view StripedDiskGroup over the cache's carve:
  ///        shared spindles (cache traffic contends with scratch traffic),
  ///        private allocator whose capacity is the carve.
  ExtentCache(std::string name, std::unique_ptr<StripedDiskGroup> view);

  const std::string& name() const { return name_; }
  const ExtentCacheStats& stats() const { return stats_; }
  BlockCount capacity_blocks() const { return view_->allocator().capacity_blocks(); }
  BlockCount resident_blocks() const { return resident_; }
  std::size_t entry_count() const { return entries_.size(); }

  /// True when [start, start+count) of `volume` is resident, without
  /// touching counters or recency.
  bool Contains(const void* volume, BlockIndex start, BlockCount count) const;

  /// Hit test that counts: bumps lookups and hits/misses, and refreshes the
  /// entry's recency at `now` on a hit.
  bool Lookup(const void* volume, BlockIndex start, BlockCount count, SimSeconds now);

  /// Admits the extent, evicting lower-scored entries until it fits, and
  /// charges the fill as a phantom striped write at `now` (the disk-side
  /// cost of copying the just-swept pass). `tape_rate_bps` is the effective
  /// tape rate the extent would otherwise be read at — it sets the entry's
  /// retention benefit. \returns false (without error) when the extent can
  /// never fit or is already resident; true when the fill happened.
  Result<bool> Admit(const void* volume, BlockIndex start, BlockCount count,
                     BytesPerSecond tape_rate_bps, SimSeconds now);

  /// Charges the disk reads serving blocks [start, start+count) of the
  /// resident entry keyed by (volume, entry_start, entry_count), ready at
  /// `ready`. The reads are phantom — the caller (the tape drive's cache
  /// window) delivers payloads from the volume's own block store.
  Result<sim::Interval> ReadThrough(const void* volume, BlockIndex entry_start,
                                    BlockCount entry_count, BlockIndex start, BlockCount count,
                                    SimSeconds ready);

  /// Registers a SimSan auditor on the cache and its region allocator.
  /// Null detaches.
  void BindAuditor(sim::Auditor* auditor);

 private:
  using Key = std::tuple<const void*, BlockIndex, BlockCount>;

  struct Entry {
    ExtentList extents;
    /// Virtual time the entry's fill write completed; a Lookup earlier than
    /// this misses (the copy is still being written). The scheduler admits
    /// the fill at a query's completion and may dispatch the next query at
    /// that same instant, at any in-flight cap, so a back-to-back query on
    /// the same S can look up before the fill is ready.
    SimSeconds ready = 0.0;
    SimSeconds last_use = 0.0;
    /// Seconds one full re-read saves coming from disk instead of tape.
    SimSeconds benefit_seconds = 0.0;
  };

  /// GreedyDual retention score: recency aged by refetch benefit. The raw
  /// double is the heap ordering key, not a simulated duration.
  // tertio-lint: allow(units-unwrap)
  static double Score(const Entry& entry) { return (entry.last_use + entry.benefit_seconds).value(); }

  /// Evicts the lowest-scored entries until `needed` blocks are free.
  Status EvictUntil(BlockCount needed, SimSeconds now);

  std::string name_;
  std::unique_ptr<StripedDiskGroup> view_;
  std::map<Key, Entry> entries_;
  /// ReadThrough's cursor, bound to the extents of the entry read last (a
  /// cache window reads one entry chunk by chunk), and its slice buffer.
  ExtentCursor read_cursor_;
  ExtentList read_slice_;
  BlockCount resident_ = 0;
  ExtentCacheStats stats_;
  sim::Auditor* auditor_ = nullptr;
};

}  // namespace tertio::disk
