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

void SpanTrace::Clear() {
  spans_.clear();
  phases_.clear();
  by_phase_.clear();
  window_ = Interval{};
  has_window_ = false;
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
  struct Slot {
    Resource* resource = nullptr;
    SimSeconds available = 0.0;
    SimSeconds first_start = 0.0;
    bool read_side = false;
    bool any = false;
  };
  std::vector<Slot> slots;
  auto slot_for = [&slots](Resource* resource, bool read_side) -> int {
    for (std::size_t i = 0; i < slots.size(); ++i) {
      if (slots[i].resource == resource) {
        return slots[i].read_side == read_side ? static_cast<int>(i) : -1;
      }
    }
    // A per-op trace cannot be reconstructed from a batch.
    if (resource->trace_enabled()) return -1;
    slots.push_back(Slot{resource, resource->available_at(), 0.0, read_side, false});
    return static_cast<int>(slots.size() - 1);
  };
  std::vector<int> src_slot(src.ops.size());
  std::vector<int> snk_slot(snk.ops.size());
  for (std::size_t i = 0; i < src.ops.size(); ++i) {
    if ((src_slot[i] = slot_for(src.ops[i].resource, true)) < 0) return 0;
  }
  for (std::size_t i = 0; i < snk.ops.size(); ++i) {
    if ((snk_slot[i] = slot_for(snk.ops[i].resource, false)) < 0) return 0;
  }

  auto prefix_of = [](const ChunkCostProfile& p) {
    std::vector<std::size_t> prefix(p.ops_per_chunk.size() + 1, 0);
    for (std::size_t i = 0; i < p.ops_per_chunk.size(); ++i) {
      prefix[i + 1] = prefix[i] + p.ops_per_chunk[i];
    }
    return prefix;
  };
  const std::vector<std::size_t> src_prefix = prefix_of(src);
  const std::vector<std::size_t> snk_prefix = prefix_of(snk);

  // --- The steady-state recurrence -----------------------------------------
  // Replay, in plain scalar arithmetic, exactly the float operations the
  // per-chunk loop would have issued: chunk k's read becomes ready at the
  // chain end (read k-1 streaming, write k-1 lock-step) floored at the
  // transfer's base ready; each device op starts at max(ready, device
  // available) and occupies its constant duration; a chunk's interval is the
  // hull of its ops (or a zero-length interval at ready for a free
  // endpoint). Nothing is committed until the whole run is replayed.
  const SimSeconds base_ready = ReadyAfter(deps);
  bool have_read = result.last_read != kNoStage;
  bool have_write = result.last_write != kNoStage;
  SimSeconds read_chain = have_read ? end(result.last_read) : 0.0;
  SimSeconds write_chain = have_write ? end(result.last_write) : 0.0;

  DurationRunList read_durations;
  DurationRunList write_durations;

  // Guard state of the closed-form jump (see DESIGN.md §5.1). While a
  // verification period replays, every computed operation end is observed:
  // the jump translates the whole recurrence state by 2^t * delta, which is
  // exact and rounding-equivalent only if, for every observed value r, the
  // shift is an even multiple of r's ulp (round-half-even decisions at exact
  // ties survive even grid translations) and r stays inside its binade.
  struct JumpWatch {
    SimSeconds delta = 0.0;
    int lsb = 0;  // delta = odd * 2^lsb
    bool ok = false;
    int t_min = 0;                     // jump size 2^t needs t >= t_min
    std::uint64_t max_jump = ~0ull >> 1;  // headroom bound on 2^t
    bool active = false;

    void Arm(SimSeconds d) {
      active = true;
      t_min = 0;
      max_jump = ~0ull >> 1;
      delta = d;
      ok = d > 0.0 && d >= 0x1p-1021 && std::isfinite(d.value()) && std::ilogb(d.value()) < 1023;
      if (!ok) return;
      const int e = std::ilogb(d.value());
      const auto mantissa = static_cast<std::uint64_t>(std::ldexp(d.value(), 52 - e));
      lsb = e - 52 + std::countr_zero(mantissa);
    }
    void Observe(SimSeconds r) {
      if (!active || !ok) return;
      if (!(r >= 0x1p-1021)) {  // degenerate near-zero time: no grid to argue on
        ok = false;
        return;
      }
      const int e = std::ilogb(r.value());
      if (e >= 1023) {
        ok = false;
        return;
      }
      // Parity: 2^t * delta must be a multiple of 2 * ulp(r) = 2^{e-51}.
      const int need = (e - 51) - lsb;
      if (need > t_min) t_min = need;
      // Headroom: r + 2^t * delta must stay below 2^{e+1} (margin 2 strides;
      // the division's rounding can overstate the quotient by at most one).
      const SimSeconds top = std::ldexp(1.0, e + 1);
      std::uint64_t room = static_cast<std::uint64_t>((top - r) / delta);
      room = room > 2 ? room - 2 : 0;
      if (room < max_jump) max_jump = room;
    }
  };
  JumpWatch watch;

  auto run_chunk_ops = [&slots, &watch](const ChunkCostProfile& p,
                                        const std::vector<std::size_t>& prefix,
                                        const std::vector<int>& op_slot, std::uint64_t k,
                                        SimSeconds ready) {
    const std::size_t cyc = static_cast<std::size_t>(k % p.cycle);
    const std::size_t first = prefix[cyc];
    const std::size_t last = prefix[cyc + 1];
    if (first == last) return Interval::At(ready);
    Interval hull;
    for (std::size_t i = first; i < last; ++i) {
      Slot& slot = slots[static_cast<std::size_t>(op_slot[i])];
      SimSeconds start = ready > slot.available ? ready : slot.available;
      Interval interval{start, start + p.ops[i].seconds};
      slot.available = interval.end;
      if (!slot.any) {
        slot.first_start = start;
        slot.any = true;
      }
      if (watch.active) watch.Observe(interval.end);
      hull = i == first ? interval : Interval::Hull(hull, interval);
    }
    return hull;
  };

  Interval read_hull;
  Interval write_hull;
  SimSeconds first_read_ready = 0.0;
  SimSeconds first_write_ready = 0.0;
  std::uint64_t k = 0;
  // Duration patterns of the current verification period (one term per
  // chunk); `capture` routes replay_chunk's outputs into them.
  std::vector<SimSeconds> pattern_read;
  std::vector<SimSeconds> pattern_write;
  bool capture_pattern = false;

  auto replay_chunk = [&]() {
    SimSeconds ready = base_ready;
    if (plan.streaming) {
      if (have_read && read_chain > ready) ready = read_chain;
    } else {
      if (have_write && write_chain > ready) ready = write_chain;
    }
    Interval read_iv = run_chunk_ops(src, src_prefix, src_slot, k, ready);
    read_durations.Append(read_iv.duration());
    if (capture_pattern) pattern_read.push_back(read_iv.duration());
    read_hull = k == 0 ? read_iv : Interval::Hull(read_hull, read_iv);
    have_read = true;
    read_chain = read_iv.end;
    // The write's ready is its read's end (ReadyAfter({read}), which the
    // chain structure guarantees is at or after the pipeline origin).
    Interval write_iv = run_chunk_ops(snk, snk_prefix, snk_slot, k, read_iv.end);
    write_durations.Append(write_iv.duration());
    if (capture_pattern) pattern_write.push_back(write_iv.duration());
    write_hull = k == 0 ? write_iv : Interval::Hull(write_hull, write_iv);
    have_write = true;
    write_chain = write_iv.end;
    if (k == 0) {
      first_read_ready = ready;
      first_write_ready = read_iv.end;
    }
    ++k;
  };
  auto replay_periods = [&](std::uint64_t count) {
    for (std::uint64_t c = 0; c < count * period; ++c) replay_chunk();
  };

  if (plan.commit == CommitMode::kReplay) {
    // The O(chunks) reference: replay every chunk of the window scalar.
    replay_periods(n / period);
  } else {
    // Closed-form commit: replay scalar until two consecutive periods are
    // related by one exact uniform translation delta (every recurrence-state
    // component advanced by delta, each addition exact), then jump 2^t
    // periods by translating the state — valid by induction because every
    // value the jumped periods would compute is an even-grid translation of
    // a value observed in the verified period (JumpWatch above). Any failed
    // check falls back to scalar replay with exponential backoff, which is
    // always correct.
    std::vector<SimSeconds> state_a;
    std::vector<SimSeconds> state_b;
    auto snapshot = [&](std::vector<SimSeconds>& out) {
      out.clear();
      for (const Slot& slot : slots) out.push_back(slot.available);
      out.push_back(read_chain);
      out.push_back(write_chain);
    };
    // Exact uniform translation: b[i] == a[i] + delta with a TwoSum error of
    // zero (the addition is exact, not merely round-tripping).
    auto translated = [](const std::vector<SimSeconds>& a, const std::vector<SimSeconds>& b,
                         SimSeconds delta) {
      for (std::size_t i = 0; i < a.size(); ++i) {
        const SimSeconds sum = a[i] + delta;
        if (sum != b[i]) return false;
        const SimSeconds db = sum - a[i];
        const SimSeconds err = (delta - db) + (a[i] - (sum - db));
        if (err != 0.0) return false;
      }
      return true;
    };
    std::uint64_t backoff = 1;
    while (k < n) {
      std::uint64_t remaining = (n - k) / period;
      if (remaining < 4) {
        replay_periods(remaining);
        break;
      }
      snapshot(state_a);
      replay_periods(1);
      snapshot(state_b);
      remaining -= 1;
      const SimSeconds delta = state_b.back() - state_a.back();
      if (!(delta >= 0.0) || !std::isfinite(delta.value()) || !translated(state_a, state_b, delta)) {
        const std::uint64_t step = std::min<std::uint64_t>(backoff, remaining);
        replay_periods(step);
        if (backoff < 64) backoff *= 2;
        continue;
      }
      if (delta == 0.0) {
        // Frozen steady state: every further period replays the recurrence
        // from an identical state, so the remaining periods repeat the last
        // period's durations with no state change at all.
        capture_pattern = true;
        pattern_read.clear();
        pattern_write.clear();
        replay_periods(1);
        capture_pattern = false;
        remaining -= 1;
        snapshot(state_a);
        if (!translated(state_b, state_a, 0.0)) continue;  // not frozen after all
        read_durations.AppendRun(pattern_read, remaining);
        write_durations.AppendRun(pattern_write, remaining);
        k += remaining * period;
        break;
      }
      // Watched verification period: guards accumulate over every computed
      // value, and the period's durations become the jump's repeat pattern.
      watch.Arm(delta);
      capture_pattern = true;
      pattern_read.clear();
      pattern_write.clear();
      replay_periods(1);
      capture_pattern = false;
      watch.active = false;
      remaining -= 1;
      snapshot(state_a);
      if (!watch.ok || !translated(state_b, state_a, delta)) {
        const std::uint64_t step = std::min<std::uint64_t>(backoff, remaining);
        replay_periods(step);
        if (backoff < 64) backoff *= 2;
        continue;
      }
      const std::uint64_t cap = std::min<std::uint64_t>(watch.max_jump, remaining);
      int t = watch.t_min;
      if (t > 62 || cap == 0 || (std::uint64_t{1} << t) > cap) {
        const std::uint64_t step = std::min<std::uint64_t>(backoff, remaining);
        replay_periods(step);
        if (backoff < 64) backoff *= 2;
        continue;
      }
      while (t < 62 && (std::uint64_t{2} << t) <= cap) ++t;
      const std::uint64_t jump = std::uint64_t{1} << t;
      const SimSeconds shift = std::ldexp(delta.value(), t);  // exact power-of-two scale
      for (Slot& slot : slots) slot.available += shift;
      read_chain += shift;
      write_chain += shift;
      // Chunk interval ends are monotone along the window, so the hull ends
      // are exactly the (translated) chain ends.
      read_hull.end = read_chain;
      write_hull.end = write_chain;
      read_durations.AppendRun(pattern_read, jump);
      write_durations.AppendRun(pattern_write, jump);
      k += jump * period;
      backoff = 1;
    }
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
  std::vector<SlotBatch> batches(slots.size());
  for (std::uint64_t k = 0; k < period; ++k) {
    auto fold = [&batches, k](const ChunkCostProfile& p,
                              const std::vector<std::size_t>& prefix,
                              const std::vector<int>& op_slot) {
      const std::size_t cyc = static_cast<std::size_t>(k % p.cycle);
      for (std::size_t i = prefix[cyc]; i < prefix[cyc + 1]; ++i) {
        SlotBatch& batch = batches[static_cast<std::size_t>(op_slot[i])];
        batch.durations.push_back(p.ops[i].seconds);
        batch.bytes.push_back(p.ops[i].bytes);
        batch.tag = p.ops[i].tag;
      }
    };
    fold(src, src_prefix, src_slot);
    fold(snk, snk_prefix, snk_slot);
  }
  const std::uint64_t cycles = n / period;
  for (std::size_t i = 0; i < slots.size(); ++i) {
    if (!slots[i].any) continue;
    slots[i].resource->ScheduleBatch(cycles, batches[i].durations, batches[i].bytes,
                                     Interval{slots[i].first_start, slots[i].available},
                                     batches[i].tag);
  }
  if (src.commit) src.commit(n);
  if (snk.commit) snk.commit(n);

  // Two batched stages, in the order the per-chunk loop first records the
  // phases (read before write).
  StageId read_stage = CommitBatch(plan.read_phase, source.device(), n * chunk, 0,
                                   first_read_ready, read_hull, n, read_durations);
  StageId write_stage = CommitBatch(plan.write_phase, sink.device(), n * chunk, 0,
                                    first_write_ready, write_hull, n, write_durations);
  if (result.first_read == kNoStage) result.first_read = read_stage;
  result.last_read = read_stage;
  result.last_write = write_stage;
  result.source_done = end(read_stage);
  result.done = std::max(result.done, std::max(read_hull.end, write_hull.end));
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
  // A resumed transfer (checkpoint from an earlier failed attempt) skips
  // chunks that already completed both their read and their write.
  const BlockCount resume_at = plan.checkpoint != nullptr ? plan.checkpoint->completed_blocks : 0;
  // SimSan conservation ledger: every block handed to the source is either
  // sunk (read and write both committed) or dropped to a chunk retry.
  BlockCount issued_blocks = 0;
  BlockCount sunk_blocks = 0;
  BlockCount dropped_blocks = 0;
  // The coalesced fast path needs a plan with no per-chunk obligations:
  // payload movement and checkpoints demand per-chunk work, retained spans
  // demand per-chunk records, and distinct phases keep the batched
  // busy-seconds accumulation order identical to the interleaved per-chunk
  // one (reads and writes land in different phase summaries).
  const bool plan_coalescible = plan.commit != CommitMode::kPerChunk &&
                                plan.checkpoint == nullptr && !plan.move_payloads &&
                                plan.read_phase != plan.write_phase &&
                                (trace_ == nullptr || !trace_->retain());
  for (BlockCount offset = resume_at; offset < plan.total; offset += chunk) {
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
          if (plan.checkpoint != nullptr) plan.checkpoint->completed_blocks = offset + did * chunk;
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
        if (result.first_read == kNoStage) result.first_read = *read;
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
      if (plan.checkpoint != nullptr) ++plan.checkpoint->chunk_retries;
      // Surface the recovery in the span trace (a marker, not a stage: the
      // failed attempt's device time is inside the device's own timeline).
      if (trace_ != nullptr) {
        trace_->Record("recovery:chunk-retry", source.device(), take, 0,
                       Interval::At(ReadyAfter(std::span<const StageId>(read_deps))));
      }
    }
    if (plan.checkpoint != nullptr) plan.checkpoint->completed_blocks = offset + take;
  }
  // Conservation is audited only for transfers that ran to completion; an
  // aborted transfer returns above with its checkpoint mid-stream.
  if (auditor_ != nullptr) {
    BlockCount expected = plan.total > resume_at ? plan.total - resume_at : 0;
    auditor_->OnTransferEnd(plan.read_phase, expected, sunk_blocks, issued_blocks,
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
