#pragma once

/// \file double_buffer.h
/// Timing primitives for the two double-buffering schemes of Section 4.
///
/// *Split* double-buffering divides buffer space into two halves: the
/// producer fills one while the consumer drains the other. Each chunk is
/// half the size, doubling the number of iterations — the scheme the paper
/// rejects for disk buffers. CDT-NB/MB still uses it for its memory buffers,
/// where interleaving is impossible because the consumer needs its chunk
/// resident for the whole iteration (join/nb_methods.cc tracks the two
/// halves as the join stages that last drained them).
///
/// *Interleaved* double-buffering (InterleavedBuffer) shares one physical
/// buffer between two logical buffers: space released by the consumer of
/// iteration i is immediately refilled by the producer of iteration i+1, so
/// chunks stay full-size and utilization stays near 100% (Figure 4). The
/// class tracks, in virtual time, when each slot of the shared buffer becomes
/// free; executors ask for the time at which a production of k slots may
/// begin and report when consumptions release slots.
///
/// These primitives account *space over virtual time*; the data itself moves
/// through the tape/disk modules.

#include <deque>

#include "util/status.h"
#include "util/units.h"

namespace tertio::mem {

/// FIFO slot accounting for one shared physical buffer.
class InterleavedBuffer {
 public:
  explicit InterleavedBuffer(BlockCount capacity_blocks) : capacity_(capacity_blocks) {
    free_segments_.push_back(Segment{0.0, capacity_blocks});
  }

  BlockCount capacity_blocks() const { return capacity_; }

  /// Claims `count` slots for the producer. \returns the virtual time at
  /// which the last of the `count` slots is free (the production may not
  /// finish before then). Slots are claimed in the order they were freed.
  Result<SimSeconds> AcquireFree(BlockCount count);

  /// Reports that the consumer frees `count` slots at time `when`. Slots
  /// must be released in FIFO order with non-decreasing times.
  Status Release(BlockCount count, SimSeconds when);

  /// Slots currently claimed and not yet released.
  BlockCount occupied_blocks() const { return occupied_; }

 private:
  struct Segment {
    SimSeconds free_at;
    BlockCount count;
  };

  BlockCount capacity_;
  BlockCount occupied_ = 0;
  SimSeconds last_release_ = 0.0;
  std::deque<Segment> free_segments_;
};

}  // namespace tertio::mem
