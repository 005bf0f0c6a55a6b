#include "sim/resource.h"

#include "sim/auditor.h"
#include "sim/closed_form.h"

namespace tertio::sim {

Interval Resource::Schedule(SimSeconds ready, SimSeconds duration, ByteCount bytes,
                            const char* tag) {
  QueuedOp op{ready, duration, bytes, {}};
  ScheduleEach(std::span<QueuedOp>(&op, 1), tag);
  return op.interval;
}

void Resource::ScheduleEach(std::span<QueuedOp> ops, const char* tag) {
  if (ops.empty()) return;
  SimSeconds available = available_;
  SimSeconds busy = stats_.busy_seconds;
  ByteCount bytes = 0;
  for (QueuedOp& op : ops) {
    TERTIO_CHECK(op.ready >= 0.0, "operation ready time must be non-negative");
    TERTIO_CHECK(op.duration >= 0.0, "operation duration must be non-negative");
    const SimSeconds start = op.ready > available ? op.ready : available;
    op.interval = Interval{start, start + op.duration};
    available = op.interval.end;
    busy += op.duration;
    bytes += op.bytes;
    if (trace_enabled_) trace_.push_back(OpRecord{op.interval, op.bytes, tag});
    if (auditor_ != nullptr) auditor_->OnSchedule(name_, op.ready, op.interval, op.bytes);
  }
  available_ = available;
  stats_.op_count += ops.size();
  stats_.bytes_transferred += bytes;
  stats_.busy_seconds = busy;
  if (available > stats_.horizon) stats_.horizon = available;
  if (horizon_cell_ != nullptr && available > horizon_cell_->max_end) {
    horizon_cell_->max_end = available;
  }
}

Interval Resource::ScheduleBatch(std::uint64_t cycles,
                                 std::span<const SimSeconds> cycle_durations,
                                 std::span<const ByteCount> cycle_bytes, Interval hull) {
  TERTIO_CHECK(cycles > 0, "a batch must commit at least one cycle");
  TERTIO_CHECK(!cycle_durations.empty(), "a batch cycle must hold at least one operation");
  TERTIO_CHECK(cycle_durations.size() == cycle_bytes.size(),
               "batch cycle durations and bytes must align");
  TERTIO_CHECK(hull.start >= available_, "batch hull starts inside the committed timeline");
  TERTIO_CHECK(hull.end >= hull.start, "batch hull ends before it starts");
  TERTIO_CHECK(!trace_enabled_, "a coalesced batch cannot retain per-operation trace records");
  available_ = hull.end;
  stats_.op_count += cycles * cycle_durations.size();
  ByteCount bytes_per_cycle = 0;
  for (ByteCount b : cycle_bytes) bytes_per_cycle += b;
  stats_.bytes_transferred += cycles * bytes_per_cycle;
  // Busy time must accumulate per operation in commit order: float addition
  // is not associative, so a naive `cycles * sum` would drift from the
  // per-op path in low-order bits. The closed form replays that exact
  // iterated rounding in O(binades crossed) instead of O(cycles).
  stats_.busy_seconds = IteratedAddCycle(stats_.busy_seconds, cycle_durations, cycles);
  if (hull.end > stats_.horizon) stats_.horizon = hull.end;
  if (horizon_cell_ != nullptr && hull.end > horizon_cell_->max_end) {
    horizon_cell_->max_end = hull.end;
  }
  if (auditor_ != nullptr) {
    auditor_->OnScheduleBatch(name_, hull, cycles * cycle_durations.size(),
                              cycles * bytes_per_cycle);
  }
  return hull;
}

double Resource::Utilization(SimSeconds until) const {
  SimSeconds span = until < 0.0 ? stats_.horizon : until;
  if (span <= 0.0) return 0.0;
  double u = stats_.busy_seconds / span;
  return u > 1.0 ? 1.0 : u;
}

}  // namespace tertio::sim
