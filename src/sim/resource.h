#pragma once

/// \file resource.h
/// A simulated device timeline.
///
/// Every physical device in the system model of Section 3 — each tape drive,
/// each disk arm, the robot of a tape library, optionally the CPU — is a
/// Resource. A Resource serves operations one at a time, in the order they
/// are issued (a FIFO device queue): an operation issued with ready time `r`
/// and duration `d` starts at max(r, time the previous operation finished)
/// and occupies the device for `d` seconds.
///
/// Concurrency between devices (the paper's "parallel I/O") arises naturally:
/// operations on *different* resources with overlapping intervals proceed in
/// parallel; the join executor threads completion times between them to
/// express data dependencies.
///
/// Because operations are served strictly in issue order, executors must
/// issue operations per resource in their logical order. All join methods in
/// tertio do this by construction (they model sequential device queues).

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "sim/interval.h"
#include "util/status.h"
#include "util/units.h"

namespace tertio::sim {

class Auditor;

/// The Simulation's O(1) horizon cache. Resources bound to a cell push their
/// operation end times into `max_end`.
struct HorizonCell {
  SimSeconds max_end = 0.0;
};

/// One completed operation, retained when tracing is enabled.
struct OpRecord {
  Interval interval;
  ByteCount bytes = 0;
  /// Short static label, e.g. "tape.read", "disk.write". Callers pass string
  /// literals; the record does not own the storage.
  const char* tag = "";
};

/// One operation of a Resource::ScheduleEach run: eligible at `ready`,
/// occupying the device for `duration`.
struct QueuedOp {
  SimSeconds ready = 0.0;
  SimSeconds duration = 0.0;
  ByteCount bytes = 0;
  /// Set by ScheduleEach: the interval the operation occupies.
  Interval interval;
};

/// Aggregate counters maintained for every resource, trace or no trace.
struct ResourceStats {
  std::uint64_t op_count = 0;
  ByteCount bytes_transferred = 0;
  SimSeconds busy_seconds = 0.0;
  /// End of the last scheduled operation.
  SimSeconds horizon = 0.0;
};

/// A device timeline. Not thread-safe; the simulation is single-threaded by
/// design (deterministic).
class Resource {
 public:
  explicit Resource(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }

  /// Schedules an operation that becomes eligible at `ready` and occupies the
  /// device for `duration` seconds. \returns the interval it occupies.
  Interval Schedule(SimSeconds ready, SimSeconds duration, ByteCount bytes = 0,
                    const char* tag = "");

  /// Schedules `ops` in order, exactly as ops.size() Schedule() calls with
  /// `tag` would: each starts at max(its ready, device available), busy
  /// seconds grow per operation in issue order, a traced resource records
  /// every operation and a bound auditor sees every one. The counters and
  /// the horizon are updated once. Sets each op's `interval`.
  void ScheduleEach(std::span<QueuedOp> ops, const char* tag = "");

  /// Commits `cycles` repetitions of a fixed cycle of back-to-back operations
  /// as one batch — the device half of the pipeline's coalesced fast path
  /// (pipeline.h). The caller has already replayed the per-operation
  /// recurrence and supplies `hull` = [first operation's start, last
  /// operation's end]; this call updates the timeline and the aggregate
  /// counters exactly as `cycles * cycle_durations.size()` individual
  /// Schedule() calls would have: op_count and bytes gain the full
  /// multiplicity, and busy_seconds accumulates every per-operation duration
  /// in commit order so the float sum is bit-identical to the per-op path.
  /// Requires hull.start >= available_at() (the batch replay started from
  /// this device's live timeline) and tracing disabled (a batch retains no
  /// per-op records).
  Interval ScheduleBatch(std::uint64_t cycles, std::span<const SimSeconds> cycle_durations,
                         std::span<const ByteCount> cycle_bytes, Interval hull);

  /// Time at which the device becomes free.
  SimSeconds available_at() const { return available_; }

  const ResourceStats& stats() const { return stats_; }

  /// Fraction of [0, until] the device was busy. `until` defaults to the
  /// device's own horizon.
  double Utilization(SimSeconds until = -1.0) const;

  /// Enables retention of per-operation records (off by default: traces for
  /// multi-GB joins are large).
  void EnableTrace(bool enabled = true) {
    trace_enabled_ = enabled;
    if (enabled && trace_.capacity() == 0) trace_.reserve(kTraceReserve);
  }
  bool trace_enabled() const { return trace_enabled_; }
  const std::vector<OpRecord>& trace() const { return trace_; }

  /// Registers a max-horizon cell maintained on every Schedule() — the
  /// Simulation's O(1) Horizon() cache. The cell must outlive the resource.
  void BindHorizonCell(HorizonCell* cell) { horizon_cell_ = cell; }

  /// Registers a SimSan auditor observing every Schedule() (see
  /// sim/auditor.h). Auditing never changes scheduling; a null pointer
  /// detaches. The auditor must outlive the resource.
  void BindAuditor(Auditor* auditor) { auditor_ = auditor; }

 private:
  /// Initial trace capacity: enough for every unit-test and report-tool
  /// trace without regrowth, negligible when tracing stays off.
  static constexpr std::size_t kTraceReserve = 1024;

  std::string name_;
  SimSeconds available_ = 0.0;
  ResourceStats stats_;
  HorizonCell* horizon_cell_ = nullptr;
  Auditor* auditor_ = nullptr;
  bool trace_enabled_ = false;
  std::vector<OpRecord> trace_;
};

}  // namespace tertio::sim
