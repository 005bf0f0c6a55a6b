#pragma once

/// \file pipeline_buffers.h
/// Pipeline adapters for the memory layer: buffer-space availability enters
/// the stage graph as events instead of raw SimSeconds handed back to
/// executors.
///
/// The double-buffering primitives of double_buffer.h account space over
/// virtual time; these adapters let a Pipeline-based executor declare "this
/// production may not begin before k slots are free" (InterleavedBuffer) or
/// "this refill may not begin before half-buffer i is drained"
/// (SplitBufferStages) as dependencies, keeping the whole schedule inside
/// the stage graph.

#include "mem/double_buffer.h"
#include "sim/pipeline.h"
#include "util/status.h"

namespace tertio::mem {

/// Claims `count` slots of `buffer` for a producer and emits the
/// availability of the last slot as a pipeline event usable as a
/// dependency.
Result<sim::StageId> AcquireFreeStage(InterleavedBuffer& buffer, sim::Pipeline& pipe,
                                      std::string_view phase, BlockCount count);

/// Split double-buffering (two fixed half-buffers used alternately)
/// tracked with stages: FreeStage(i) is the stage that last drained
/// half-buffer i%2 (kNoStage while untouched); executors set it to the
/// consumer's final stage each iteration.
class SplitBufferStages {
 public:
  sim::StageId FreeStage(std::uint64_t iteration) const { return free_[iteration % 2]; }
  void SetBusyUntil(std::uint64_t iteration, sim::StageId stage) {
    free_[iteration % 2] = stage;
  }

 private:
  sim::StageId free_[2] = {sim::kNoStage, sim::kNoStage};
};

}  // namespace tertio::mem
