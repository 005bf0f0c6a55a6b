#include "sim/auditor.h"

#include <utility>

#include "sim/span_registry.h"
#include "util/string_util.h"

namespace tertio::sim {

namespace {

std::string FormatInterval(const Interval& interval) {
  return StrFormat("[%.9f, %.9f)", interval.start.value(), interval.end.value());
}

unsigned long long ull(BlockCount v) { return static_cast<unsigned long long>(v.value()); }

}  // namespace

std::string_view AuditKindToString(AuditKind kind) {
  switch (kind) {
    case AuditKind::kIntervalOverlap:
      return "IntervalOverlap";
    case AuditKind::kTimeRegression:
      return "TimeRegression";
    case AuditKind::kCausality:
      return "Causality";
    case AuditKind::kBufferOvercommit:
      return "BufferOvercommit";
    case AuditKind::kScratchOvercommit:
      return "ScratchOvercommit";
    case AuditKind::kByteConservation:
      return "ByteConservation";
    case AuditKind::kHorizonIncoherence:
      return "HorizonIncoherence";
    case AuditKind::kAccounting:
      return "Accounting";
    case AuditKind::kUnregisteredSpan:
      return "UnregisteredSpan";
    case AuditKind::kLeaseExclusivity:
      return "LeaseExclusivity";
    case AuditKind::kClosedFormDivergence:
      return "ClosedFormDivergence";
    case AuditKind::kProfileMemoDivergence:
      return "ProfileMemoDivergence";
  }
  return "Unknown";
}

Auditor::ResourceState& Auditor::StateFor(std::string_view resource) {
  auto it = resources_.find(resource);
  if (it == resources_.end()) {
    it = resources_.emplace(std::string(resource), ResourceState{}).first;
  }
  return it->second;
}

void Auditor::Remember(ResourceState& state, Interval interval) {
  if (state.recent.size() < kRecentRing) {
    state.recent.push_back(interval);
  } else {
    state.recent[state.ring_pos] = interval;
    state.ring_pos = (state.ring_pos + 1) % kRecentRing;
  }
}

std::vector<Interval> Auditor::Snapshot(const ResourceState& state, Interval offending) const {
  // Unroll the ring oldest-first, then append the offending interval so the
  // diagnostic replays the schedule in commit order.
  std::vector<Interval> out;
  out.reserve(state.recent.size() + 1);
  for (std::size_t i = 0; i < state.recent.size(); ++i) {
    out.push_back(state.recent[(state.ring_pos + i) % state.recent.size()]);
  }
  out.push_back(offending);
  return out;
}

void Auditor::Report(AuditKind kind, std::string_view subject, std::string detail,
                     std::vector<Interval> intervals) {
  if (violations_.size() >= kMaxViolations) {
    ++dropped_violations_;
    return;
  }
  violations_.push_back(AuditViolation{kind, std::string(subject), std::move(detail),
                                       std::move(intervals)});
}

void Auditor::OnSchedule(std::string_view resource, SimSeconds ready, Interval interval,
                         ByteCount bytes) {
  (void)bytes;
  ResourceState& state = StateFor(resource);
  checks_ += 3;
  if (interval.end < interval.start) {
    Report(AuditKind::kTimeRegression, resource,
           StrFormat("operation interval %s ends before it starts",
                     FormatInterval(interval).c_str()),
           Snapshot(state, interval));
  }
  if (interval.start < ready) {
    Report(AuditKind::kTimeRegression, resource,
           StrFormat("operation started at %.9f before its ready time %.9f",
                     interval.start.value(), ready.value()),
           Snapshot(state, interval));
  }
  // Interval exclusivity: a serial device's next operation may not begin
  // before the previous one finished. Exact comparison is sound — starts are
  // computed as max(ready, previous end), which is exact in IEEE doubles.
  if (state.any && interval.start < state.last.end) {
    Report(AuditKind::kIntervalOverlap, resource,
           StrFormat("operation %s overlaps the previous operation %s",
                     FormatInterval(interval).c_str(), FormatInterval(state.last).c_str()),
           Snapshot(state, interval));
  }
  state.any = true;
  state.last = interval;
  Remember(state, interval);
}

void Auditor::OnScheduleBatch(std::string_view resource, Interval hull, std::uint64_t op_count,
                              ByteCount bytes) {
  (void)bytes;
  ResourceState& state = StateFor(resource);
  checks_ += 3;
  if (hull.end < hull.start) {
    Report(AuditKind::kTimeRegression, resource,
           StrFormat("coalesced batch of %llu operations %s ends before it starts",
                     static_cast<unsigned long long>(op_count),
                     FormatInterval(hull).c_str()),
           Snapshot(state, hull));
  }
  if (op_count == 0) {
    Report(AuditKind::kAccounting, resource, "coalesced batch committed zero operations",
           Snapshot(state, hull));
  }
  // Interval exclusivity with multiplicity: the batch occupies the device
  // back-to-back from its first start, so the whole hull must sit after the
  // previously committed operation; later operations are checked against
  // the hull's end.
  if (state.any && hull.start < state.last.end) {
    Report(AuditKind::kIntervalOverlap, resource,
           StrFormat("coalesced batch %s (%llu operations) overlaps the previous operation %s",
                     FormatInterval(hull).c_str(),
                     static_cast<unsigned long long>(op_count),
                     FormatInterval(state.last).c_str()),
           Snapshot(state, hull));
  }
  state.any = true;
  state.last = hull;
  Remember(state, hull);
}

void Auditor::OnStage(std::string_view phase, std::string_view device,
                      SimSeconds pipeline_start, SimSeconds ready, Interval interval) {
  checks_ += 4;
  if (interval.end < interval.start) {
    Report(AuditKind::kTimeRegression, phase,
           StrFormat("stage interval %s on '%.*s' ends before it starts",
                     FormatInterval(interval).c_str(), static_cast<int>(device.size()),
                     device.data()),
           {interval});
  }
  if (interval.start < ready) {
    Report(AuditKind::kCausality, phase,
           StrFormat("stage began at %.9f before its dependencies finished at %.9f",
                     interval.start.value(), ready.value()),
           {Interval::At(ready), interval});
  }
  if (interval.start < pipeline_start) {
    Report(AuditKind::kCausality, phase,
           StrFormat("stage began at %.9f before the pipeline's virtual origin %.9f",
                     interval.start.value(), pipeline_start.value()),
           {Interval::At(pipeline_start), interval});
  }
  if (!IsRegisteredSpan(phase)) {
    Report(AuditKind::kUnregisteredSpan, phase,
           "phase label is not in sim/span_registry.h (typo'd labels silently fork report "
           "rows; register it or fix the call site)",
           {interval});
  }
}

void Auditor::OnStageBatch(std::string_view phase, std::string_view device,
                           SimSeconds pipeline_start, SimSeconds ready, Interval hull,
                           std::uint64_t stages) {
  checks_ += 4;
  if (hull.end < hull.start) {
    Report(AuditKind::kTimeRegression, phase,
           StrFormat("coalesced stage batch %s (%llu stages) on '%.*s' ends before it starts",
                     FormatInterval(hull).c_str(), static_cast<unsigned long long>(stages),
                     static_cast<int>(device.size()), device.data()),
           {hull});
  }
  if (hull.start < ready) {
    Report(AuditKind::kCausality, phase,
           StrFormat("coalesced stage batch began at %.9f before its dependencies finished "
                     "at %.9f",
                     hull.start.value(), ready.value()),
           {Interval::At(ready), hull});
  }
  if (hull.start < pipeline_start) {
    Report(AuditKind::kCausality, phase,
           StrFormat("coalesced stage batch began at %.9f before the pipeline's virtual "
                     "origin %.9f",
                     hull.start.value(), pipeline_start.value()),
           {Interval::At(pipeline_start), hull});
  }
  if (!IsRegisteredSpan(phase)) {
    Report(AuditKind::kUnregisteredSpan, phase,
           "phase label is not in sim/span_registry.h (typo'd labels silently fork report "
           "rows; register it or fix the call site)",
           {hull});
  }
}

void Auditor::OnTransferEnd(std::string_view read_phase, BlockCount expected,
                            BlockCount completed, BlockCount issued, BlockCount dropped) {
  checks_ += 2;
  if (completed != expected) {
    Report(AuditKind::kByteConservation, read_phase,
           StrFormat("transfer completed %llu blocks but the plan promised %llu",
                     ull(completed), ull(expected)),
           {});
  }
  if (issued != completed + dropped) {
    Report(AuditKind::kByteConservation, read_phase,
           StrFormat("blocks sourced (%llu) != blocks sunk (%llu) + blocks dropped to "
                     "retries (%llu)",
                     ull(issued), ull(completed), ull(dropped)),
           {});
  }
}

void Auditor::OnClosedFormCheck(std::string_view phase, std::uint64_t chunks,
                                const char* divergence, SimSeconds closed, SimSeconds replay) {
  checks_ += 1;
  if (divergence != nullptr) {
    Report(AuditKind::kClosedFormDivergence, phase,
           StrFormat("closed-form batch of %llu chunks diverges from the O(chunks) replay in "
                     "its %s: %a vs %a",
                     static_cast<unsigned long long>(chunks), divergence, closed.value(),
                     replay.value()),
           {Interval::At(closed), Interval::At(replay)});
  }
}

void Auditor::OnProfileMemoCheck(std::string_view device, BlockCount offset,
                                 const char* divergence) {
  checks_ += 1;
  if (divergence != nullptr) {
    Report(AuditKind::kProfileMemoDivergence, device,
           StrFormat("reused chunk profile at offset %llu differs from a fresh walk in its %s",
                     ull(offset), divergence),
           {});
  }
}

void Auditor::OnMemoryReserve(std::string_view tag, BlockCount requested,
                              BlockCount reserved_after, BlockCount total) {
  checks_ += 1;
  if (reserved_after > total) {
    Report(AuditKind::kBufferOvercommit, tag,
           StrFormat("memory occupancy %llu blocks exceeds the allotment M = %llu after a "
                     "%llu-block reservation",
                     ull(reserved_after), ull(total), ull(requested)),
           {});
  }
}

void Auditor::OnMemoryRelease(std::string_view tag, BlockCount released,
                              BlockCount held_under_tag) {
  checks_ += 1;
  if (released > held_under_tag) {
    Report(AuditKind::kAccounting, tag,
           StrFormat("release of %llu blocks exceeds the %llu reserved under the tag",
                     ull(released), ull(held_under_tag)),
           {});
  }
}

void Auditor::OnDiskUsage(std::string_view tag, SimSeconds now, BlockCount used_after,
                          BlockCount capacity) {
  checks_ += 1;
  if (used_after > capacity) {
    Report(AuditKind::kScratchOvercommit, tag,
           StrFormat("disk scratch occupancy %llu blocks exceeds D = %llu blocks at t=%.9f",
                     ull(used_after), ull(capacity), now.value()),
           {Interval::At(now)});
  }
}

void Auditor::OnDiskOverfree(std::string_view tag, std::string detail) {
  checks_ += 1;
  Report(AuditKind::kAccounting, tag, std::move(detail), {});
}

void Auditor::OnTapeOccupancy(std::string_view volume, BlockCount size_after,
                              BlockCount capacity) {
  checks_ += 1;
  if (capacity != 0 && size_after > capacity) {
    Report(AuditKind::kScratchOvercommit, volume,
           StrFormat("tape occupancy %llu blocks exceeds the volume capacity %llu "
                     "(Table 2 scratch bound)",
                     ull(size_after), ull(capacity)),
           {});
  }
}

void Auditor::OnCacheFill(std::string_view cache, BlockCount blocks, BlockCount resident_after,
                          BlockCount capacity) {
  checks_ += 2;
  CacheLedger& ledger = caches_[std::string(cache)];
  ledger.resident += blocks;
  if (resident_after > capacity) {
    Report(AuditKind::kScratchOvercommit, cache,
           StrFormat("cache occupancy %llu blocks exceeds the cache carve of %llu blocks "
                     "after a %llu-block fill",
                     ull(resident_after), ull(capacity), ull(blocks)),
           {});
  }
  if (ledger.resident != resident_after) {
    Report(AuditKind::kByteConservation, cache,
           StrFormat("cache reports %llu resident blocks but its fills minus evictions sum "
                     "to %llu",
                     ull(resident_after), ull(ledger.resident)),
           {});
  }
}

void Auditor::OnCacheEvict(std::string_view cache, BlockCount blocks, BlockCount resident_after) {
  checks_ += 2;
  CacheLedger& ledger = caches_[std::string(cache)];
  if (blocks > ledger.resident) {
    Report(AuditKind::kAccounting, cache,
           StrFormat("eviction of %llu blocks exceeds the %llu the ledger holds resident",
                     ull(blocks), ull(ledger.resident)),
           {});
    ledger.resident = 0;
  } else {
    ledger.resident -= blocks;
  }
  if (ledger.resident != resident_after) {
    Report(AuditKind::kByteConservation, cache,
           StrFormat("cache reports %llu resident blocks after eviction but its fills minus "
                     "evictions sum to %llu",
                     ull(resident_after), ull(ledger.resident)),
           {});
  }
}

void Auditor::OnHorizonCheck(SimSeconds cached, SimSeconds recomputed) {
  checks_ += 1;
  if (cached != recomputed) {
    Report(AuditKind::kHorizonIncoherence, "simulation",
           StrFormat("cached horizon %.9f != recomputed maximum %.9f over all resources",
                     cached.value(), recomputed.value()),
           {Interval::At(cached), Interval::At(recomputed)});
  }
}

void Auditor::OnDriveLease(std::string_view drive, std::string_view holder) {
  checks_ += 1;
  std::string& current = drive_holders_[std::string(drive)];
  if (!current.empty()) {
    Report(AuditKind::kLeaseExclusivity, drive,
           StrFormat("leased to '%.*s' while still held by '%s'",
                     static_cast<int>(holder.size()), holder.data(), current.c_str()),
           {});
  }
  // An anonymous lease still occupies the drive in the ledger; "?" keeps it
  // distinct from the empty string that means "free".
  current = holder.empty() ? std::string("?") : std::string(holder);
}

void Auditor::OnDriveRelease(std::string_view drive, std::string_view holder) {
  checks_ += 1;
  std::string& current = drive_holders_[std::string(drive)];
  if (current.empty()) {
    Report(AuditKind::kLeaseExclusivity, drive,
           StrFormat("released by '%.*s' but no session holds it",
                     static_cast<int>(holder.size()), holder.data()),
           {});
  } else if (!holder.empty() && current != "?" && current != holder) {
    Report(AuditKind::kLeaseExclusivity, drive,
           StrFormat("released by '%.*s' but held by '%s'",
                     static_cast<int>(holder.size()), holder.data(), current.c_str()),
           {});
  }
  current.clear();
}

Status Auditor::Check() const {
  if (clean()) return Status::OK();
  return Status::Internal(TraceString());
}

std::string Auditor::TraceString() const {
  std::string out = StrFormat("SimSan: %zu invariant violation(s)", violations_.size());
  if (dropped_violations_ > 0) {
    out += StrFormat(" (+%llu dropped)", static_cast<unsigned long long>(dropped_violations_));
  }
  out += StrFormat(" after %llu checks\n", static_cast<unsigned long long>(checks_));
  for (std::size_t i = 0; i < violations_.size(); ++i) {
    const AuditViolation& v = violations_[i];
    out += StrFormat("  #%zu %.*s on '%s': %s\n", i + 1,
                     static_cast<int>(AuditKindToString(v.kind).size()),
                     AuditKindToString(v.kind).data(), v.subject.c_str(), v.detail.c_str());
    if (!v.intervals.empty()) {
      out += "     replay:";
      for (const Interval& interval : v.intervals) {
        out += " " + FormatInterval(interval);
      }
      out += "\n";
    }
  }
  return out;
}

void Auditor::Clear() {
  resources_.clear();
  caches_.clear();
  drive_holders_.clear();
  violations_.clear();
  dropped_violations_ = 0;
  checks_ = 0;
}

}  // namespace tertio::sim
