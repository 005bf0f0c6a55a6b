#pragma once

/// \file auditor.h
/// SimSan — the simulation invariant auditor.
///
/// The paper's results rest on resource invariants the simulator otherwise
/// trusts silently: a serial device serves one operation at a time, buffer
/// occupancy never exceeds the memory allotment M, scratch space never
/// exceeds D / T_R / T_S (Table 2), and every declared transfer moves
/// exactly the bytes it promises. A violated invariant would not crash the
/// simulation — it would skew every reproduced figure. SimSan is the
/// sanitizer for that failure class.
///
/// The Auditor is a passive observer: instrumented layers (sim::Resource,
/// sim::Pipeline, mem::MemoryBudget, disk::DiskSpaceAllocator,
/// tape::TapeVolume) call its On*() hooks when an auditor is bound and never
/// otherwise change behavior, so audited and unaudited runs are
/// bit-identical in simulated time. Violations are collected — never thrown —
/// and surfaced through Check(), which returns a Status carrying a
/// replayable diagnostic trace of the offending intervals.
///
/// Binding is explicit (Simulation::EnableAudit() / exec::Site::EnableAudit())
/// in all builds; under the TERTIO_SIMSAN compile option (on in the Debug,
/// asan and tsan presets) every Simulation auto-enables its auditor and
/// hard-fails at destruction if a violation was recorded, making the whole
/// test and bench suite run sanitized.

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "sim/interval.h"
#include "util/status.h"
#include "util/units.h"

namespace tertio::sim {

#if defined(TERTIO_SIMSAN)
inline constexpr bool kSimSanEnabled = true;
#else
inline constexpr bool kSimSanEnabled = false;
#endif

/// The invariant classes SimSan audits.
enum class AuditKind : int {
  /// A serial resource was occupied by two operations at once.
  kIntervalOverlap,
  /// An operation's interval ends before it starts, or starts before the
  /// operation became eligible.
  kTimeRegression,
  /// A pipeline stage began before its dependencies finished (or before the
  /// pipeline's virtual origin).
  kCausality,
  /// Memory-buffer occupancy exceeded the allotment M.
  kBufferOvercommit,
  /// Scratch occupancy exceeded its bound: disk (D) or tape (T_R / T_S).
  kScratchOvercommit,
  /// A Transfer's block accounting broke: completed != expected, or
  /// issued != completed + dropped-to-retries.
  kByteConservation,
  /// The cached Simulation horizon disagrees with the recomputed maximum
  /// over its resources.
  kHorizonIncoherence,
  /// Bookkeeping went negative (over-release, free of unowned space).
  kAccounting,
  /// A pipeline stage used a phase label missing from span_registry.h.
  kUnregisteredSpan,
  /// A drive lease broke exclusivity: two sessions held the same drive at
  /// once, or a session released a drive it never held.
  kLeaseExclusivity,
  /// A closed-form coalesced batch disagreed, in some bit, with the
  /// O(chunks) replay of the same window (Pipeline::Transfer).
  kClosedFormDivergence,
  /// A reused disk chunk profile disagreed, in some bit, with a fresh walk
  /// of the same question (disk/striped_group.h ExtentChunkProfile).
  kProfileMemoDivergence,
};

std::string_view AuditKindToString(AuditKind kind);

/// One recorded invariant violation. `intervals` holds the offending
/// occupancy intervals (most recent last) so the schedule around the
/// violation can be replayed from the diagnostic alone.
struct AuditViolation {
  AuditKind kind;
  /// The resource / budget / phase the violation is attributed to.
  std::string subject;
  std::string detail;
  std::vector<Interval> intervals;
};

/// Collects invariant checks and violations for one simulated system.
/// Thread-compatible, not thread-safe — one auditor per Simulation, matching
/// the simulator's single-threaded-by-design contract (parallel sweeps use
/// one Site, and therefore one auditor, per worker).
class Auditor {
 public:
  // --- Hooks called by the instrumented layers -----------------------------

  /// A Resource committed `interval` for an operation eligible at `ready`.
  void OnSchedule(std::string_view resource, SimSeconds ready, Interval interval,
                  ByteCount bytes);

  /// A Resource committed a coalesced batch of `op_count` back-to-back
  /// operations occupying `hull` (first operation's start to last
  /// operation's end). Exclusivity is audited at batch granularity: the hull
  /// may not overlap the previously committed operation, and subsequent
  /// operations are checked against the hull's end.
  void OnScheduleBatch(std::string_view resource, Interval hull, std::uint64_t op_count,
                       ByteCount bytes);

  /// A Pipeline committed a stage under `phase` on `device`.
  void OnStage(std::string_view phase, std::string_view device, SimSeconds pipeline_start,
               SimSeconds ready, Interval interval);

  /// A Pipeline committed a coalesced batch of `stages` chunk stages under
  /// `phase` occupying `hull`. `ready` is the first chunk's ready time.
  void OnStageBatch(std::string_view phase, std::string_view device, SimSeconds pipeline_start,
                    SimSeconds ready, Interval hull, std::uint64_t stages);

  /// A Pipeline::Transfer finished. `expected` is the block count the plan
  /// promised (its total), `completed` the blocks whose read
  /// and write both committed, `issued` every block handed to the source
  /// (including failed attempts), `dropped` blocks of failed attempts
  /// discarded to chunk retries.
  void OnTransferEnd(std::string_view read_phase, BlockCount expected, BlockCount completed,
                     BlockCount issued, BlockCount dropped);

  /// A Pipeline re-derived a closed-form batch of `chunks` chunks under
  /// `phase` with the O(chunks) replay from the same starting state.
  /// `divergence` names the first recurrence value (slot availability,
  /// chain end, hull bound, duration sum) whose bits differ, with its
  /// closed-form and replayed values; null when every value agrees.
  void OnClosedFormCheck(std::string_view phase, std::uint64_t chunks, const char* divergence,
                         SimSeconds closed, SimSeconds replay);

  /// A StripedDiskGroup reused a kept chunk-profile answer for the question
  /// at `offset` of a `device` ("disk.read" / "disk.write") walk and
  /// re-walked it. `divergence` names the first field of the answer whose
  /// bits differ; null when the two agree.
  void OnProfileMemoCheck(std::string_view device, BlockCount offset, const char* divergence);

  /// MemoryBudget committed (or refused) a reservation; `reserved_after` is
  /// the occupancy after the call.
  void OnMemoryReserve(std::string_view tag, BlockCount requested, BlockCount reserved_after,
                       BlockCount total);

  /// MemoryBudget released `released` blocks under `tag`, of which
  /// `held_under_tag` were actually reserved.
  void OnMemoryRelease(std::string_view tag, BlockCount released, BlockCount held_under_tag);

  /// DiskSpaceAllocator occupancy changed (allocate or free) at `now`.
  void OnDiskUsage(std::string_view tag, SimSeconds now, BlockCount used_after,
                   BlockCount capacity);

  /// DiskSpaceAllocator was asked to free space it does not track.
  void OnDiskOverfree(std::string_view tag, std::string detail);

  /// A tape volume's recorded size changed (append or truncate).
  /// `capacity` of 0 means unbounded.
  void OnTapeOccupancy(std::string_view volume, BlockCount size_after, BlockCount capacity);

  /// An extent cache (disk/extent_cache.h) filled `blocks` of a tape extent
  /// onto disk; `resident_after` is its occupancy after the fill. The
  /// auditor keeps its own fill/evict ledger per cache, so both the
  /// capacity bound (resident <= cache carve) and byte conservation
  /// (Σ fills − Σ evicts == resident) are checked independently of the
  /// cache's own counters.
  void OnCacheFill(std::string_view cache, BlockCount blocks, BlockCount resident_after,
                   BlockCount capacity);

  /// An extent cache evicted `blocks`; `resident_after` is its occupancy
  /// after the eviction.
  void OnCacheEvict(std::string_view cache, BlockCount blocks, BlockCount resident_after);

  /// The Simulation compared its cached horizon against a recomputation.
  void OnHorizonCheck(SimSeconds cached, SimSeconds recomputed);

  /// A Site leased `drive` to `holder`. The auditor keeps a per-drive holder
  /// ledger, so a lease of a drive another session still holds is a
  /// kLeaseExclusivity violation regardless of what the Site's own free-list
  /// believes — overlapping QuerySessions must partition the drive pool.
  void OnDriveLease(std::string_view drive, std::string_view holder);

  /// A Site took `drive` back from `holder` (empty holder = unknown caller).
  void OnDriveRelease(std::string_view drive, std::string_view holder);

  // --- Results -------------------------------------------------------------

  bool clean() const { return violations_.empty(); }
  const std::vector<AuditViolation>& violations() const { return violations_; }

  /// Total invariant evaluations performed (a run that was never audited
  /// reports 0 — positive tests assert this is > 0 so a silently-unbound
  /// auditor cannot masquerade as a clean one).
  std::uint64_t checks_performed() const { return checks_; }

  /// OK when clean; otherwise kInternal carrying TraceString().
  Status Check() const;

  /// Human-readable, replayable dump of every violation and its intervals.
  std::string TraceString() const;

  /// Forgets violations, counters and per-resource state.
  void Clear();

 private:
  struct ResourceState {
    bool any = false;
    Interval last;
    /// Ring of the most recent intervals, oldest first after Snapshot().
    std::vector<Interval> recent;
    std::size_t ring_pos = 0;
  };

  static constexpr std::size_t kRecentRing = 8;
  /// Violations retained; later ones only bump dropped_violations_.
  static constexpr std::size_t kMaxViolations = 64;

  ResourceState& StateFor(std::string_view resource);
  void Remember(ResourceState& state, Interval interval);
  std::vector<Interval> Snapshot(const ResourceState& state, Interval offending) const;
  void Report(AuditKind kind, std::string_view subject, std::string detail,
              std::vector<Interval> intervals);

  /// Independent fill/evict ledger per extent cache.
  struct CacheLedger {
    BlockCount resident = 0;
  };

  std::map<std::string, ResourceState, std::less<>> resources_;
  std::map<std::string, CacheLedger, std::less<>> caches_;
  /// Per-drive current lease holder (empty value = free).
  std::map<std::string, std::string, std::less<>> drive_holders_;
  std::vector<AuditViolation> violations_;
  std::uint64_t dropped_violations_ = 0;
  std::uint64_t checks_ = 0;
};

}  // namespace tertio::sim
