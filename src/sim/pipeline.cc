#include "sim/pipeline.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "sim/auditor.h"
#include "sim/closed_form.h"
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

ChunkCostProfile ChunkCostProfile::Free(std::uint64_t max_chunks) {
  ChunkCostProfile profile;
  profile.chunks = max_chunks;
  profile.cycle = 1;
  profile.ops_per_chunk = {0};
  return profile;
}

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
                                ByteCount bytes, const StageOp& op) {
  SimSeconds ready = ReadyAfter(deps);
  TERTIO_ASSIGN_OR_RETURN(Interval interval, op(ready));
  return Commit(phase, device, blocks, bytes, ready, interval);
}

Result<StageId> Pipeline::StageWithRetry(std::string_view phase, std::string_view device,
                                         std::span<const StageId> deps, BlockCount blocks,
                                         ByteCount bytes, const StageOp& op, int retry_limit) {
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

/// One endpoint as the recurrence replays it: its profile, where each cycle
/// chunk's ops begin in `ops`, and the timeline slot every op runs on.
struct ReplaySide {
  const ChunkCostProfile* profile = nullptr;
  std::vector<std::size_t> prefix;
  std::vector<int> op_slot;

  explicit ReplaySide(const ChunkCostProfile& p)
      : profile(&p), prefix(p.ops_per_chunk.size() + 1, 0), op_slot(p.ops.size(), -1) {
    for (std::size_t i = 0; i < p.ops_per_chunk.size(); ++i) {
      prefix[i + 1] = prefix[i] + p.ops_per_chunk[i];
    }
  }
};

/// Headroom guard of the closed-form jump (DESIGN.md §5.1). It observes
/// every operation end of the watched period; a jump of J periods moves each
/// such value r by J * delta (positive, finite), which must leave r inside
/// its binade.
struct JumpWatch {
  SimSeconds delta = 0.0;
  bool ok = true;
  std::uint64_t max_jump = std::uint64_t{1} << 62;

  explicit JumpWatch(SimSeconds d) : delta(d) {}

  void Observe(SimSeconds r) {
    if (!ok) return;
    if (!(r >= 0x1p-1021) || std::ilogb(r.value()) >= 1023) {  // no normal binade
      ok = false;
      return;
    }
    // r + J * delta must stay below 2^(e+1); a margin of two strides absorbs
    // the division's rounding.
    const double strides = (std::ldexp(1.0, std::ilogb(r.value()) + 1) - r) / delta;
    std::uint64_t room = strides >= 0x1p62 ? std::uint64_t{1} << 62
                                           : static_cast<std::uint64_t>(strides);
    room = room > 2 ? room - 2 : 0;
    if (room < max_jump) max_jump = room;
  }
};

/// The steady-state recurrence of one coalesced window, in plain scalars:
/// exactly the float operations the per-chunk loop would issue. Chunk k's
/// read becomes ready at the chain end (read k-1 streaming, write k-1
/// lock-step) floored at the transfer's base ready; each device op starts at
/// max(ready, device available) and occupies its constant duration; a
/// chunk's interval is the hull of its ops (or a zero-length interval at
/// ready for a free endpoint). Copyable, so SimSan can replay a window
/// twice from the same starting state.
struct Recurrence {
  struct Slot {
    Resource* resource = nullptr;
    SimSeconds available = 0.0;
    SimSeconds first_start = 0.0;
    bool read_side = false;
    bool any = false;
  };

  std::vector<Slot> slots;
  SimSeconds base_ready = 0.0;
  bool streaming = false;
  bool have_read = false;
  bool have_write = false;
  SimSeconds read_chain = 0.0;
  SimSeconds write_chain = 0.0;
  Interval read_hull;
  Interval write_hull;
  SimSeconds first_read_ready = 0.0;
  SimSeconds first_write_ready = 0.0;
  /// Chunks replayed or jumped so far.
  std::uint64_t k = 0;
  DurationRunList read_durations;
  DurationRunList write_durations;
  /// When set, each chunk's read and write durations are also appended here.
  std::vector<SimSeconds>* capture_read = nullptr;
  std::vector<SimSeconds>* capture_write = nullptr;
  /// When set, observes every operation end.
  JumpWatch* watch = nullptr;

  Interval RunOps(const ReplaySide& side, SimSeconds ready) {
    const ChunkCostProfile& p = *side.profile;
    const auto cyc = static_cast<std::size_t>(k % p.cycle);
    const std::size_t first = side.prefix[cyc];
    const std::size_t last = side.prefix[cyc + 1];
    if (first == last) return Interval::At(ready);
    Interval hull;
    for (std::size_t i = first; i < last; ++i) {
      Slot& slot = slots[static_cast<std::size_t>(side.op_slot[i])];
      SimSeconds start = ready > slot.available ? ready : slot.available;
      Interval interval{start, start + p.ops[i].seconds};
      slot.available = interval.end;
      if (!slot.any) {
        slot.first_start = start;
        slot.any = true;
      }
      if (watch != nullptr) watch->Observe(interval.end);
      hull = i == first ? interval : Interval::Hull(hull, interval);
    }
    return hull;
  }

  void Chunk(const ReplaySide& src, const ReplaySide& snk) {
    SimSeconds ready = base_ready;
    if (streaming) {
      if (have_read && read_chain > ready) ready = read_chain;
    } else {
      if (have_write && write_chain > ready) ready = write_chain;
    }
    Interval read_iv = RunOps(src, ready);
    read_durations.Append(read_iv.duration());
    if (capture_read != nullptr) capture_read->push_back(read_iv.duration());
    read_hull = k == 0 ? read_iv : Interval::Hull(read_hull, read_iv);
    have_read = true;
    read_chain = read_iv.end;
    // The write's ready is its read's end (ReadyAfter({read}), which the
    // chain structure guarantees is at or after the pipeline origin).
    Interval write_iv = RunOps(snk, read_iv.end);
    write_durations.Append(write_iv.duration());
    if (capture_write != nullptr) capture_write->push_back(write_iv.duration());
    write_hull = k == 0 ? write_iv : Interval::Hull(write_hull, write_iv);
    have_write = true;
    write_chain = write_iv.end;
    if (k == 0) {
      first_read_ready = ready;
      first_write_ready = read_iv.end;
    }
    ++k;
  }

  /// The state one period translates: every slot's availability, then the
  /// read and write chain ends.
  void Snapshot(std::vector<SimSeconds>& out) const {
    out.clear();
    for (const Slot& slot : slots) out.push_back(slot.available);
    out.push_back(read_chain);
    out.push_back(write_chain);
  }
};

/// Exact uniform translation: b[i] == a[i] + delta with a TwoSum error of
/// zero (the addition is exact, not merely round-tripping).
bool Translated(const std::vector<SimSeconds>& a, const std::vector<SimSeconds>& b,
                SimSeconds delta) {
  for (std::size_t i = 0; i < a.size(); ++i) {
    const SimSeconds sum = a[i] + delta;
    if (sum != b[i]) return false;
    const SimSeconds db = sum - a[i];
    const SimSeconds err = (delta - db) + (a[i] - (sum - db));
    if (err != 0.0) return false;
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

}  // namespace

std::uint64_t Pipeline::CoalesceChunks(const TransferPlan& plan, BlockSource& source,
                                       BlockSink& sink, std::span<const StageId> deps,
                                       BlockCount offset, BlockCount chunk, std::uint64_t want,
                                       TransferResult& result) {
  ChunkCostProfile src = source.CostProfile(offset, chunk, want);
  if (!ProfileShapeOk(src)) return 0;
  ChunkCostProfile snk = sink.CostProfile(offset, chunk, want);
  if (!ProfileShapeOk(snk)) return 0;
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
  // SimSan re-derives every closed-form window with the O(chunks) replay
  // from a copy of its starting state.
  const bool cross_check = auditor_ != nullptr && plan.commit == CommitMode::kClosedForm;
  const Recurrence start_state = cross_check ? rec : Recurrence{};

  auto replay_periods = [&](std::uint64_t count) {
    for (std::uint64_t c = 0; c < count * period; ++c) rec.Chunk(src_side, snk_side);
  };

  if (plan.commit == CommitMode::kReplay) {
    // The O(chunks) reference: replay every chunk of the window scalar.
    replay_periods(n / period);
  } else {
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
  }
  if (cross_check) {
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
    const char* tag = "";
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
        batch.tag = p.ops[i].tag;
      }
    }
  }
  const std::uint64_t cycles = n / period;
  for (std::size_t i = 0; i < rec.slots.size(); ++i) {
    const Recurrence::Slot& slot = rec.slots[i];
    if (!slot.any) continue;
    slot.resource->ScheduleBatch(cycles, batches[i].durations, batches[i].bytes,
                                 Interval{slot.first_start, slot.available}, batches[i].tag);
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
  const bool plan_coalescible = plan.commit != CommitMode::kPerChunk && !plan.move_payloads &&
                                plan.read_phase != plan.write_phase &&
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
