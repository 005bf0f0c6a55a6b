#include "sim/pipeline.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <iterator>
#include <limits>

#include "sim/auditor.h"
#include "sim/closed_form.h"
#include "sim/recurrence.h"
#include "sim/resource.h"

namespace tertio::sim {

void DurationRunList::Append(SimSeconds value) {
  values_.push_back(value);
  if (!runs_.empty()) {
    Run& tail = runs_.back();
    // Extend an open scalar tail run instead of opening a run per term.
    if (tail.repeats == 1 &&
        static_cast<std::size_t>(tail.offset) + tail.length == values_.size() - 1) {
      ++tail.length;
      ++terms_;
      return;
    }
  }
  runs_.push_back(Run{static_cast<std::uint32_t>(values_.size() - 1), 1, 1});
  ++terms_;
}

void DurationRunList::AppendRun(std::span<const SimSeconds> pattern, std::uint64_t repeats) {
  if (pattern.empty() || repeats == 0) return;
  const auto offset = static_cast<std::uint32_t>(values_.size());
  values_.insert(values_.end(), pattern.begin(), pattern.end());
  runs_.push_back(Run{offset, static_cast<std::uint32_t>(pattern.size()), repeats});
  terms_ += pattern.size() * repeats;
}

SimSeconds DurationRunList::Accumulate(SimSeconds acc) const {
  for (const Run& run : runs_) {
    const std::span<const SimSeconds> pattern(values_.data() + run.offset, run.length);
    if (run.repeats == 1) {
      for (SimSeconds d : pattern) acc += d;
    } else {
      acc = IteratedAddCycle(acc, pattern, run.repeats);
    }
  }
  return acc;
}

std::size_t SpanTrace::PhaseIndex(std::string_view phase, std::string_view device,
                                  Interval interval) {
  auto pos = std::lower_bound(
      by_phase_.begin(), by_phase_.end(), phase,
      [this](std::uint32_t index, std::string_view label) { return phases_[index].phase < label; });
  if (pos != by_phase_.end() && phases_[*pos].phase == phase) return *pos;
  PhaseSummary summary;
  summary.phase = std::string(phase);
  summary.device = std::string(device);
  summary.window = interval;
  phases_.push_back(std::move(summary));
  by_phase_.insert(pos, static_cast<std::uint32_t>(phases_.size() - 1));
  return phases_.size() - 1;
}

void SpanTrace::Record(std::string_view phase, std::string_view device, BlockCount blocks,
                       ByteCount bytes, Interval interval) {
  if (retain_) {
    spans_.push_back(Span{std::string(phase), std::string(device), blocks, bytes, interval});
  }
  PhaseSummary& summary = phases_[PhaseIndex(phase, device, interval)];
  if (summary.device != device) summary.device = "";
  summary.stage_count += 1;
  summary.blocks += blocks;
  summary.bytes += bytes;
  summary.busy_seconds += interval.duration();
  summary.window = Interval::Hull(summary.window, interval);
  window_ = has_window_ ? Interval::Hull(window_, interval) : interval;
  has_window_ = true;
}

void SpanTrace::RecordBatch(std::string_view phase, std::string_view device, BlockCount blocks,
                            ByteCount bytes, Interval hull, std::uint64_t stages,
                            const DurationRunList& stage_durations) {
  TERTIO_CHECK(!retain_, "a coalesced batch cannot be recorded into a retained span list");
  TERTIO_CHECK(stage_durations.terms() == stages,
               "a coalesced batch needs one duration term per stage");
  PhaseSummary& summary = phases_[PhaseIndex(phase, device, hull)];
  if (summary.device != device) summary.device = "";
  summary.stage_count += stages;
  summary.blocks += blocks;
  summary.bytes += bytes;
  // The phase's busy accumulator must see the same float additions, in the
  // same order, as `stages` individual Record() calls; run-compressed terms
  // replay through the exact closed form.
  summary.busy_seconds = stage_durations.Accumulate(summary.busy_seconds);
  summary.window = Interval::Hull(summary.window, hull);
  window_ = has_window_ ? Interval::Hull(window_, hull) : hull;
  has_window_ = true;
}

SimSeconds BinadeTop(SimSeconds v) {
  if (!(v >= 0x1p-1021) || std::ilogb(v.value()) >= 1023) {
    return std::numeric_limits<double>::infinity();
  }
  return std::ldexp(1.0, std::ilogb(v.value()) + 1);
}

ChunkCostProfile ChunkCostProfile::Free(std::uint64_t max_chunks) {
  ChunkCostProfile profile;
  profile.chunks = max_chunks;
  profile.cycle = 1;
  profile.ops_per_chunk = {0};
  return profile;
}

Pipeline::Pipeline(SimSeconds start, SpanTrace* trace, Auditor* auditor)
    : start_(start), trace_(trace), auditor_(auditor) {}

Pipeline::~Pipeline() = default;

SimSeconds Pipeline::ReadyAfter(std::span<const StageId> deps) const {
  SimSeconds ready = start_;
  for (StageId dep : deps) {
    if (dep == kNoStage) continue;
    TERTIO_CHECK(dep < intervals_.size(), "pipeline stage depends on an undispatched stage");
    if (intervals_[dep].end > ready) ready = intervals_[dep].end;
  }
  return ready;
}

StageId Pipeline::Commit(std::string_view phase, std::string_view device, BlockCount blocks,
                         ByteCount bytes, SimSeconds ready, Interval interval) {
  intervals_.push_back(interval);
  if (!any_stage_ || interval.end > horizon_) horizon_ = std::max(horizon_, interval.end);
  any_stage_ = true;
  if (trace_ != nullptr) trace_->Record(phase, device, blocks, bytes, interval);
  if (auditor_ != nullptr) auditor_->OnStage(phase, device, start_, ready, interval);
  return intervals_.size() - 1;
}

StageId Pipeline::CommitBatch(std::string_view phase, std::string_view device,
                              BlockCount blocks, ByteCount bytes, SimSeconds ready,
                              Interval hull, std::uint64_t stages,
                              const DurationRunList& stage_durations) {
  intervals_.push_back(hull);
  if (!any_stage_ || hull.end > horizon_) horizon_ = std::max(horizon_, hull.end);
  any_stage_ = true;
  if (trace_ != nullptr) {
    trace_->RecordBatch(phase, device, blocks, bytes, hull, stages, stage_durations);
  }
  if (auditor_ != nullptr) auditor_->OnStageBatch(phase, device, start_, ready, hull, stages);
  return intervals_.size() - 1;
}

Result<StageId> Pipeline::Stage(std::string_view phase, std::string_view device,
                                std::span<const StageId> deps, BlockCount blocks,
                                ByteCount bytes, StageOp op) {
  SimSeconds ready = ReadyAfter(deps);
  TERTIO_ASSIGN_OR_RETURN(Interval interval, op(ready));
  return Commit(phase, device, blocks, bytes, ready, interval);
}

Result<StageId> Pipeline::StageWithRetry(std::string_view phase, std::string_view device,
                                         std::span<const StageId> deps, BlockCount blocks,
                                         ByteCount bytes, StageOp op, int retry_limit) {
  int attempts = 0;
  for (;;) {
    Result<StageId> stage = Stage(phase, device, deps, blocks, bytes, op);
    if (stage.ok()) return stage;
    // The device model has already charged the failed attempt's time; a
    // kDeviceError is retryable in place. Anything else propagates.
    if (stage.status().code() != StatusCode::kDeviceError || attempts >= retry_limit) {
      return stage;
    }
    ++attempts;
    ++chunk_retries_;
    if (trace_ != nullptr) {
      trace_->Record("recovery:chunk-retry", device, blocks, 0, Interval::At(ReadyAfter(deps)));
    }
  }
}

StageId Pipeline::Event(std::string_view phase, SimSeconds when) {
  SimSeconds at = std::max(start_, when);
  return Commit(phase, "", 0, 0, at, Interval::At(at));
}

StageId Pipeline::Barrier(std::string_view phase, std::span<const StageId> deps) {
  SimSeconds at = ReadyAfter(deps);
  return Commit(phase, "", 0, 0, at, Interval::At(at));
}

namespace {

/// Keys a Pipeline keeps replays for. A `paper_sweep` join uses at most 8;
/// the bound keeps a join's one-off windows from growing the memo.
constexpr std::size_t kKeptWindowKeys = 16;

std::uint64_t Gcd(std::uint64_t a, std::uint64_t b) {
  while (b != 0) {
    std::uint64_t t = a % b;
    a = b;
    b = t;
  }
  return a;
}

/// Structural validity of a CostProfile answer. A malformed profile (an
/// endpoint bug) silently falls back to the always-correct per-chunk path.
bool ProfileShapeOk(const ChunkCostProfile& p) {
  if (p.chunks == 0 || p.cycle == 0 || p.chunks % p.cycle != 0) return false;
  if (p.ops_per_chunk.size() != static_cast<std::size_t>(p.cycle)) return false;
  std::size_t total = 0;
  for (std::uint32_t count : p.ops_per_chunk) total += count;
  if (total != p.ops.size()) return false;
  for (const ChunkCostProfile::Op& op : p.ops) {
    if (op.resource == nullptr || !(op.seconds >= 0.0)) return false;
  }
  return true;
}

/// b == a + delta with a TwoSum error of zero (the addition is exact, not
/// merely round-tripping).
bool ExactlyShifted(SimSeconds a, SimSeconds delta, SimSeconds b) {
  const SimSeconds sum = a + delta;
  if (sum != b) return false;
  const SimSeconds db = sum - a;
  const SimSeconds err = (delta - db) + (a - (sum - db));
  return err == 0.0;
}

/// Exact uniform translation: b[i] == a[i] + delta, each addition exact.
bool Translated(const std::vector<SimSeconds>& a, const std::vector<SimSeconds>& b,
                SimSeconds delta) {
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!ExactlyShifted(a[i], delta, b[i])) return false;
  }
  return true;
}

/// Component by component, a[i] and c[i] lie in one normal binade
/// [2^e, 2^(e+1)).
bool SameBinades(const std::vector<SimSeconds>& a, const std::vector<SimSeconds>& c) {
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!(a[i] >= 0x1p-1021) || std::ilogb(a[i].value()) != std::ilogb(c[i].value())) {
      return false;
    }
  }
  return true;
}

/// The first recurrence value whose bits differ between two replays of one
/// window (`what` is null when they agree).
struct Divergence {
  const char* what = nullptr;
  SimSeconds closed = 0.0;
  SimSeconds replay = 0.0;
};

Divergence FirstDivergence(const Recurrence& closed, const Recurrence& replay) {
  Divergence d;
  auto check = [&d](const char* what, SimSeconds a, SimSeconds b) {
    if (d.what == nullptr &&
        std::bit_cast<std::uint64_t>(a.value()) != std::bit_cast<std::uint64_t>(b.value())) {
      d = Divergence{what, a, b};
    }
  };
  for (std::size_t i = 0; i < closed.slots.size(); ++i) {
    check("slot availability", closed.slots[i].available, replay.slots[i].available);
    check("slot first start", closed.slots[i].first_start, replay.slots[i].first_start);
  }
  check("read first ready", closed.first_read_ready, replay.first_read_ready);
  check("write first ready", closed.first_write_ready, replay.first_write_ready);
  check("read chain end", closed.read_chain, replay.read_chain);
  check("write chain end", closed.write_chain, replay.write_chain);
  check("read hull start", closed.read_hull.start, replay.read_hull.start);
  check("read hull end", closed.read_hull.end, replay.read_hull.end);
  check("write hull start", closed.write_hull.start, replay.write_hull.start);
  check("write hull end", closed.write_hull.end, replay.write_hull.end);
  check("read duration sum", closed.read_durations.Accumulate(0.0),
        replay.read_durations.Accumulate(0.0));
  check("write duration sum", closed.write_durations.Accumulate(0.0),
        replay.write_durations.Accumulate(0.0));
  return d;
}

/// Same profile, op by op (the commit closure aside).
bool SameProfile(const ChunkCostProfile& a, const ChunkCostProfile& b) {
  if (a.chunks != b.chunks || a.cycle != b.cycle || a.ops_per_chunk != b.ops_per_chunk ||
      a.ops.size() != b.ops.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.ops.size(); ++i) {
    const ChunkCostProfile::Op& x = a.ops[i];
    const ChunkCostProfile::Op& y = b.ops[i];
    if (x.resource != y.resource || x.bytes != y.bytes ||
        std::bit_cast<std::uint64_t>(x.seconds.value()) !=
            std::bit_cast<std::uint64_t>(y.seconds.value())) {
      return false;
    }
  }
  return true;
}

/// A profile as a kept window's key holds it: without its commit closure.
ChunkCostProfile KeyOf(const ChunkCostProfile& p) {
  ChunkCostProfile key;
  key.chunks = p.chunks;
  key.cycle = p.cycle;
  key.ops_per_chunk = p.ops_per_chunk;
  key.ops = p.ops;
  return key;
}

bool Idle(const Recurrence& r, const Recurrence::Slot& slot) {
  return slot.available <= r.base_ready;
}

/// The start-state half of a kept window's key: chain flags, the slots'
/// resources and sides in order, and which slots are idle.
bool SameStartShape(const Recurrence& a, const Recurrence& b) {
  if (a.streaming != b.streaming || a.have_read != b.have_read || a.have_write != b.have_write ||
      a.slots.size() != b.slots.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.slots.size(); ++i) {
    if (a.slots[i].resource != b.slots[i].resource ||
        a.slots[i].read_side != b.slots[i].read_side ||
        Idle(a, a.slots[i]) != Idle(b, b.slots[i])) {
      return false;
    }
  }
  return true;
}

/// Largest binade exponent among a replay's end-state values.
int TopExponent(const Recurrence& r) {
  int top = std::numeric_limits<int>::min();
  for (const Recurrence::Slot& slot : r.slots) {
    top = std::max(top, std::ilogb(slot.available.value()));
  }
  for (SimSeconds v : {r.read_chain, r.write_chain, r.read_hull.end, r.write_hull.end}) {
    top = std::max(top, std::ilogb(v.value()));
  }
  return top;
}

/// Reuses `kept` for the window starting at `rec` (DESIGN.md §5.1): when
/// rec's start is kept.start translated by one tau > 0 (base ready time,
/// chain ends and every busy slot's availability, each addition exact),
/// tau is a multiple of twice the ulp of the largest binade among the kept
/// replay's values and rec's start, and every op end and end-state value of
/// the kept replay stays inside its binade when shifted by tau, the window's
/// replay is the kept one shifted by tau with the same durations. \returns
/// false, leaving `rec` as it was, when any condition fails.
bool ReuseShifted(const KeptWindow::Replay& kept, Recurrence& rec) {
  const Recurrence& a = kept.start;
  const SimSeconds tau = rec.base_ready - a.base_ready;
  if (!(tau > 0.0) || !(tau < kept.end.headroom)) return false;
  int top = kept.top_exponent;
  auto shifted = [&](SimSeconds from, SimSeconds to) {
    top = std::max(top, std::ilogb(to.value()));
    return ExactlyShifted(from, tau, to);
  };
  if (!shifted(a.base_ready, rec.base_ready)) return false;
  if (a.have_read && !shifted(a.read_chain, rec.read_chain)) return false;
  if (a.have_write && !shifted(a.write_chain, rec.write_chain)) return false;
  for (std::size_t i = 0; i < a.slots.size(); ++i) {
    if (!Idle(a, a.slots[i]) && !shifted(a.slots[i].available, rec.slots[i].available)) {
      return false;
    }
  }
  // Twice the ulp of binade `top` is 2^(top - 51).
  const double units = std::ldexp(tau.value(), 51 - top);
  if (units != std::floor(units)) return false;

  const Recurrence& e = kept.end;
  for (std::size_t i = 0; i < rec.slots.size(); ++i) {
    rec.slots[i].available = e.slots[i].available + tau;
    rec.slots[i].first_start = e.slots[i].first_start + tau;
    rec.slots[i].any = e.slots[i].any;
  }
  rec.have_read = e.have_read;
  rec.have_write = e.have_write;
  rec.read_chain = e.read_chain + tau;
  rec.write_chain = e.write_chain + tau;
  rec.read_hull = Interval{e.read_hull.start + tau, e.read_hull.end + tau};
  rec.write_hull = Interval{e.write_hull.start + tau, e.write_hull.end + tau};
  rec.first_read_ready = e.first_read_ready + tau;
  rec.first_write_ready = e.first_write_ready + tau;
  rec.k = e.k;
  rec.read_durations = e.read_durations;
  rec.write_durations = e.write_durations;
  return true;
}

}  // namespace

std::uint64_t Pipeline::CoalesceChunks(const TransferPlan& plan, BlockSource& source,
                                       BlockSink& sink, std::span<const StageId> deps,
                                       BlockCount offset, BlockCount chunk, std::uint64_t want,
                                       TransferResult& result) {
  // The sink first: a partitioner sink is never coalescible, and asking a
  // source costs a profile it would throw away. Profiles do not touch device
  // state, so the order moves no simulated value.
  ChunkCostProfile snk = sink.CostProfile(offset, chunk, want);
  if (!ProfileShapeOk(snk)) return 0;
  ChunkCostProfile src = source.CostProfile(offset, chunk, want);
  if (!ProfileShapeOk(src)) return 0;
  // The batch must cover whole pattern periods of both endpoints.
  const std::uint64_t period = src.cycle / Gcd(src.cycle, snk.cycle) * snk.cycle;
  std::uint64_t n = std::min({want, src.chunks, snk.chunks});
  n -= n % period;
  if (n < 2) return 0;

  // Map every cycle op to a slot holding the live timeline of its resource.
  // A resource may appear several times within a cycle (multiple pieces of
  // one striped chunk) but never on both sides: the per-chunk schedule
  // interleaves read and write operations on a shared device, which the
  // two-sided batched replay cannot reproduce.
  Recurrence rec;
  auto slot_for = [&rec](Resource* resource, bool read_side) -> int {
    for (std::size_t i = 0; i < rec.slots.size(); ++i) {
      if (rec.slots[i].resource == resource) {
        return rec.slots[i].read_side == read_side ? static_cast<int>(i) : -1;
      }
    }
    // A per-op trace cannot be reconstructed from a batch.
    if (resource->trace_enabled()) return -1;
    rec.slots.push_back(Recurrence::Slot{resource, resource->available_at(), 0.0, read_side,
                                         false});
    return static_cast<int>(rec.slots.size() - 1);
  };
  ReplaySide src_side(src);
  ReplaySide snk_side(snk);
  for (std::size_t i = 0; i < src.ops.size(); ++i) {
    if ((src_side.op_slot[i] = slot_for(src.ops[i].resource, true)) < 0) return 0;
  }
  for (std::size_t i = 0; i < snk.ops.size(); ++i) {
    if ((snk_side.op_slot[i] = slot_for(snk.ops[i].resource, false)) < 0) return 0;
  }

  // Nothing is committed until the whole window is replayed.
  rec.base_ready = ReadyAfter(deps);
  rec.streaming = plan.streaming;
  rec.have_read = result.last_read != kNoStage;
  rec.have_write = result.last_write != kNoStage;
  rec.read_chain = rec.have_read ? end(result.last_read) : 0.0;
  rec.write_chain = rec.have_write ? end(result.last_write) : 0.0;
  // The window's replay is kept from a copy of its starting state, from
  // which a bound auditor also re-derives every window, reused or jumped,
  // with the O(chunks) replay.
  Recurrence start_state = rec;

  auto replay_periods = [&](std::uint64_t count) {
    for (std::uint64_t c = 0; c < count * period; ++c) rec.Chunk(src_side, snk_side);
  };

  // A window whose key was replayed before may reuse one of the key's kept
  // replays at a translated start.
  KeptWindow* kept = nullptr;
  bool reused = false;
  auto match = std::find_if(kept_windows_.rbegin(), kept_windows_.rend(),
                            [&](const KeptWindow& w) {
                              return w.n == n && w.period == period &&
                                     SameProfile(w.source, src) && SameProfile(w.sink, snk) &&
                                     SameStartShape(w.replays.front().start, rec);
                            });
  if (match != kept_windows_.rend()) {
    std::rotate(std::prev(match.base()), match.base(), kept_windows_.end());
    kept = &kept_windows_.back();
    for (auto it = kept->replays.rbegin(); it != kept->replays.rend() && !reused; ++it) {
      reused = ReuseShifted(*it, rec);
    }
  }

  if (!reused) {
    rec.track_headroom = true;
    // Closed-form commit: replay a pre-check period and a watched period;
    // when both translate the whole recurrence state by one exact delta,
    // every state component stays in its binade across both, and they
    // realise the same durations, jump 2^t periods by translating the state
    // (DESIGN.md §5.1 derives why that is exact). Any failed check falls
    // back to scalar replay with exponential backoff, which is always
    // correct.
    std::vector<SimSeconds> state_a;
    std::vector<SimSeconds> state_b;
    std::vector<SimSeconds> state_c;
    // Per-chunk durations of the pre-check and of the watched period.
    std::vector<SimSeconds> check_read;
    std::vector<SimSeconds> check_write;
    std::vector<SimSeconds> pattern_read;
    std::vector<SimSeconds> pattern_write;
    auto replay_captured = [&](std::vector<SimSeconds>& reads, std::vector<SimSeconds>& writes) {
      reads.clear();
      writes.clear();
      rec.capture_read = &reads;
      rec.capture_write = &writes;
      replay_periods(1);
      rec.capture_read = nullptr;
      rec.capture_write = nullptr;
    };
    std::uint64_t backoff = 1;
    auto back_off = [&](std::uint64_t remaining) {
      replay_periods(std::min<std::uint64_t>(backoff, remaining));
      if (backoff < 64) backoff *= 2;
    };
    while (rec.k < n) {
      std::uint64_t remaining = (n - rec.k) / period;
      if (remaining < 4) {
        replay_periods(remaining);
        break;
      }
      rec.Snapshot(state_a);
      replay_captured(check_read, check_write);
      rec.Snapshot(state_b);
      remaining -= 1;
      const SimSeconds delta = state_b.back() - state_a.back();
      if (!(delta >= 0.0) || !std::isfinite(delta.value()) ||
          !Translated(state_a, state_b, delta)) {
        back_off(remaining);
        continue;
      }
      if (delta == 0.0) {
        // Frozen steady state: every further period replays the recurrence
        // from an identical state, so the remaining periods repeat the last
        // period's durations with no state change at all.
        replay_captured(pattern_read, pattern_write);
        remaining -= 1;
        rec.Snapshot(state_c);
        if (!Translated(state_b, state_c, 0.0)) continue;  // not frozen after all
        rec.read_durations.AppendRun(pattern_read, remaining);
        rec.write_durations.AppendRun(pattern_write, remaining);
        rec.k += remaining * period;
        break;
      }
      JumpWatch watch(delta);
      rec.watch = &watch;
      replay_captured(pattern_read, pattern_write);
      rec.watch = nullptr;
      remaining -= 1;
      rec.Snapshot(state_c);
      const std::uint64_t cap = std::min<std::uint64_t>(watch.max_jump, remaining);
      if (!watch.ok || cap == 0 || !Translated(state_b, state_c, delta) ||
          !SameBinades(state_a, state_c) || check_read != pattern_read ||
          check_write != pattern_write) {
        back_off(remaining);
        continue;
      }
      int t = 0;
      while (t < 62 && (std::uint64_t{2} << t) <= cap) ++t;
      const std::uint64_t jump = std::uint64_t{1} << t;
      const SimSeconds shift = std::ldexp(delta.value(), t);  // exact power-of-two scale
      for (Recurrence::Slot& slot : rec.slots) slot.available += shift;
      rec.read_chain += shift;
      rec.write_chain += shift;
      // Chunk interval ends are monotone along the window, so the hull ends
      // are exactly the (translated) chain ends.
      rec.read_hull.end = rec.read_chain;
      rec.write_hull.end = rec.write_chain;
      rec.read_durations.AppendRun(pattern_read, jump);
      rec.write_durations.AppendRun(pattern_write, jump);
      rec.k += jump * period;
      backoff = 1;
    }
    rec.track_headroom = false;
    rec.CloseHeadroom();
  }
  if (auditor_ != nullptr) {
    Recurrence replay = start_state;
    for (std::uint64_t c = 0; c < n; ++c) replay.Chunk(src_side, snk_side);
    const Divergence d = FirstDivergence(rec, replay);
    auditor_->OnClosedFormCheck(plan.read_phase, n, d.what, d.closed, d.replay);
  }

  // --- Commit --------------------------------------------------------------
  // Device timelines first: one batch per resource. Each resource is
  // single-side, so its own operation order (its cycle durations repeated
  // n / period times) matches the per-chunk schedule exactly.
  struct SlotBatch {
    std::vector<SimSeconds> durations;
    std::vector<ByteCount> bytes;
  };
  std::vector<SlotBatch> batches(rec.slots.size());
  for (std::uint64_t k = 0; k < period; ++k) {
    for (const ReplaySide* side : {&src_side, &snk_side}) {
      const ChunkCostProfile& p = *side->profile;
      const auto cyc = static_cast<std::size_t>(k % p.cycle);
      for (std::size_t i = side->prefix[cyc]; i < side->prefix[cyc + 1]; ++i) {
        SlotBatch& batch = batches[static_cast<std::size_t>(side->op_slot[i])];
        batch.durations.push_back(p.ops[i].seconds);
        batch.bytes.push_back(p.ops[i].bytes);
      }
    }
  }
  const std::uint64_t cycles = n / period;
  for (std::size_t i = 0; i < rec.slots.size(); ++i) {
    const Recurrence::Slot& slot = rec.slots[i];
    if (!slot.any) continue;
    slot.resource->ScheduleBatch(cycles, batches[i].durations, batches[i].bytes,
                                 Interval{slot.first_start, slot.available});
  }
  if (src.commit) src.commit(n);
  if (snk.commit) snk.commit(n);

  // Two batched stages, in the order the per-chunk loop first records the
  // phases (read before write).
  StageId read_stage = CommitBatch(plan.read_phase, source.device(), n * chunk, 0,
                                   rec.first_read_ready, rec.read_hull, n, rec.read_durations);
  StageId write_stage = CommitBatch(plan.write_phase, sink.device(), n * chunk, 0,
                                    rec.first_write_ready, rec.write_hull, n,
                                    rec.write_durations);
  result.last_read = read_stage;
  result.last_write = write_stage;
  result.source_done = end(read_stage);
  result.done = std::max(result.done, std::max(rec.read_hull.end, rec.write_hull.end));
  coalesced_chunks_ += n;

  if (reused) {
    ++reused_windows_;
  } else {
    // Keep the replay: a key holds its last two, and the memo its most
    // recently used keys.
    if (kept == nullptr) {
      if (kept_windows_.size() == kKeptWindowKeys) kept_windows_.erase(kept_windows_.begin());
      kept_windows_.push_back(KeptWindow{KeyOf(src), KeyOf(snk), period, n, {}});
      kept = &kept_windows_.back();
    }
    if (kept->replays.size() == 2) kept->replays.erase(kept->replays.begin());
    const int top = TopExponent(rec);
    kept->replays.push_back(KeptWindow::Replay{std::move(start_state), std::move(rec), top});
  }
  return n;
}

Result<Pipeline::TransferResult> Pipeline::Transfer(const TransferPlan& plan,
                                                    BlockSource& source, BlockSink& sink,
                                                    std::span<const StageId> deps) {
  BlockCount chunk = plan.chunk == 0 ? 1 : plan.chunk;
  TransferResult result;
  result.source_done = ReadyAfter(deps);
  result.done = result.source_done;
  std::vector<StageId> read_deps(deps.begin(), deps.end());
  read_deps.push_back(kNoStage);  // slot for the chaining dependency
  // SimSan conservation ledger: every block handed to the source is either
  // sunk (read and write both committed) or dropped to a chunk retry.
  BlockCount issued_blocks = 0;
  BlockCount sunk_blocks = 0;
  BlockCount dropped_blocks = 0;
  // The coalesced fast path needs a plan with no per-chunk obligations:
  // payload movement demands per-chunk work, retained spans
  // demand per-chunk records, and distinct phases keep the batched
  // busy-seconds accumulation order identical to the interleaved per-chunk
  // one (reads and writes land in different phase summaries).
  const bool plan_coalescible = !plan.move_payloads && plan.read_phase != plan.write_phase &&
                                (trace_ == nullptr || !trace_->retain());
  for (BlockCount offset = 0; offset < plan.total; offset += chunk) {
    BlockCount take = std::min<BlockCount>(chunk, plan.total - offset);
    // Re-attempt coalescing at every full-chunk offset: ineligible windows
    // (a cold head position, a fresh allocation's first seek, a fault plan)
    // run per-chunk below and the steady state re-arms after them.
    if (plan_coalescible && take == chunk) {
      std::uint64_t want = (plan.total - offset) / chunk;
      if (want >= 2) {
        std::uint64_t did = CoalesceChunks(plan, source, sink, deps, offset, chunk, want, result);
        if (did > 0) {
          issued_blocks += did * chunk;
          sunk_blocks += did * chunk;
          offset += (did - 1) * chunk;
          continue;
        }
      }
    }
    // Streaming: chunk i+1's read follows read i. Lock-step: it waits for
    // write i (the paper's sequential single-process structure).
    read_deps.back() = plan.streaming ? result.last_read : result.last_write;
    int attempts = 0;
    for (;;) {
      std::vector<BlockPayload> payloads;
      std::vector<BlockPayload>* moved = plan.move_payloads ? &payloads : nullptr;
      issued_blocks += take;
      Result<StageId> read =
          Stage(plan.read_phase, source.device(), std::span<const StageId>(read_deps), take, 0,
                [&](SimSeconds ready) { return source.Read(offset, take, ready, moved); });
      Result<StageId> write = Status::Internal("unreached");
      if (read.ok()) {
        write = Stage(plan.write_phase, sink.device(), {*read}, take, 0,
                      [&](SimSeconds ready) { return sink.Write(offset, take, ready, moved); });
      }
      if (read.ok() && write.ok()) {
        sunk_blocks += take;
        result.last_read = *read;
        result.last_write = *write;
        result.source_done = end(*read);
        result.done = std::max(result.done, std::max(end(*read), end(*write)));
        break;
      }
      // The device model has already charged the failed attempt's time.
      // A kDeviceError is retryable at chunk granularity: re-issue this
      // chunk's read and write (a failed-mid-chunk read delivered nothing,
      // so the re-read produces the full chunk). Anything else propagates.
      const Status failure = read.ok() ? write.status() : read.status();
      if (failure.code() != StatusCode::kDeviceError || attempts >= plan.chunk_retry_limit) {
        return failure;
      }
      ++attempts;
      ++chunk_retries_;
      dropped_blocks += take;
      // Surface the recovery in the span trace (a marker, not a stage: the
      // failed attempt's device time is inside the device's own timeline).
      if (trace_ != nullptr) {
        trace_->Record("recovery:chunk-retry", source.device(), take, 0,
                       Interval::At(ReadyAfter(std::span<const StageId>(read_deps))));
      }
    }
  }
  // Conservation is audited only for transfers that ran to completion; an
  // aborted transfer returns above.
  if (auditor_ != nullptr) {
    auditor_->OnTransferEnd(plan.read_phase, plan.total, sunk_blocks, issued_blocks,
                            dropped_blocks);
  }
  return result;
}

Result<Interval> CollectSink::Write(BlockCount offset, BlockCount count, SimSeconds ready,
                                    std::vector<BlockPayload>* payloads) {
  (void)offset;
  (void)count;
  if (out_ != nullptr && payloads != nullptr) {
    out_->insert(out_->end(), payloads->begin(), payloads->end());
  }
  return Interval::At(ready);
}

}  // namespace tertio::sim
