#pragma once

/// \file recurrence.h
/// The replay state of one coalesced window (Pipeline::Transfer's fast
/// path) and the replays a Pipeline keeps for reuse. Private to
/// sim/pipeline.cc and its tests; callers use sim/pipeline.h.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "sim/interval.h"
#include "sim/pipeline.h"
#include "util/units.h"

namespace tertio::sim {

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

/// Top of the normal binade holding `v`: 2^(e+1) for v in [2^e, 2^(e+1)).
/// +infinity when `v` lies in no normal binade the jump or a reuse can use.
SimSeconds BinadeTop(SimSeconds v);

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
    const SimSeconds top = BinadeTop(r);
    if (top == std::numeric_limits<double>::infinity()) {
      ok = false;
      return;
    }
    // r + J * delta must stay below 2^(e+1); a margin of two strides absorbs
    // the division's rounding.
    const double strides = (top - r) / delta;
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
/// twice from the same starting state and a Pipeline can keep a replay.
struct Recurrence {
  struct Slot {
    Resource* resource = nullptr;
    SimSeconds available = 0.0;
    SimSeconds first_start = 0.0;
    bool read_side = false;
    bool any = false;
    /// Top of the binade of the slot's latest op end (0 before the first),
    /// kept while `track_headroom` is set.
    SimSeconds binade_top = 0.0;
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
  /// When set, `headroom` bounds every operation end r and every jumped-to
  /// state value: r + headroom is at or above the top of r's binade, and
  /// nothing below it is (CloseHeadroom() folds in the open binades).
  bool track_headroom = false;
  SimSeconds headroom = std::numeric_limits<double>::infinity();

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
      if (track_headroom) ObserveEnd(slot, interval.end);
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

  /// Folds an op end into `headroom` before it becomes the slot's
  /// availability. Ends on one slot never decrease, so the binding value of
  /// each binade a slot passes through is the last one in it.
  void ObserveEnd(Slot& slot, SimSeconds end) {
    if (end < slot.binade_top) return;
    if (slot.binade_top > 0.0) headroom = std::min(headroom, slot.binade_top - slot.available);
    slot.binade_top = BinadeTop(end);
    if (slot.binade_top == std::numeric_limits<double>::infinity()) headroom = 0.0;
  }

  /// Ends the headroom bound at the final state: each slot's open binade,
  /// the chain ends and the hull ends.
  void CloseHeadroom() {
    for (const Slot& slot : slots) {
      if (slot.binade_top > 0.0) headroom = std::min(headroom, slot.binade_top - slot.available);
    }
    for (SimSeconds v : {read_chain, write_chain, read_hull.end, write_hull.end}) {
      const SimSeconds top = BinadeTop(v);
      headroom = top == std::numeric_limits<double>::infinity() ? 0.0
                                                                : std::min(headroom, top - v);
    }
  }
};

/// A coalesced window's replay, kept so a later window with the same
/// dynamics can reuse it at a translated start (DESIGN.md §5.1). The key is
/// both profiles op by op (their commits left empty), the period, the chunk
/// count, and the start's shape: the streaming and chain flags, the slots'
/// resources and sides in order, and which slots are idle (available at or
/// before the base ready time).
struct KeptWindow {
  struct Replay {
    /// The state the replay started from.
    Recurrence start;
    /// The state it left, with its `headroom` closed.
    Recurrence end;
    /// Largest binade exponent among the end state's values.
    int top_exponent = 0;
  };

  ChunkCostProfile source;
  ChunkCostProfile sink;
  std::uint64_t period = 0;
  std::uint64_t n = 0;
  /// The key's last two replays, oldest first. A reuse translates by an
  /// even multiple of the top binade's ulp; the translation from one replay
  /// may be odd where the one from the replay before it is even.
  std::vector<Replay> replays;
};

}  // namespace tertio::sim
