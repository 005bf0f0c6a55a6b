#pragma once

/// \file disk_volume.h
/// One random-access disk: block store plus a costed request interface.

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "disk/disk_model.h"
#include "sim/fault.h"
#include "sim/resource.h"
#include "util/block_payload.h"
#include "util/status.h"
#include "util/units.h"

namespace tertio::disk {

/// Cumulative per-disk activity counters.
struct DiskStats {
  BlockCount blocks_read = 0;
  BlockCount blocks_written = 0;
  std::uint64_t requests = 0;
  std::uint64_t positioned_requests = 0;  // requests that paid a seek
};

/// One write request of a batched commit (StripedDiskGroup::CommitWrites):
/// `count` blocks at `start` on disk `disk`, eligible at `ready`.
struct WritePiece {
  int disk = 0;
  BlockIndex start = 0;
  BlockCount count = 0;
  SimSeconds ready = 0.0;
  /// `count` payloads to store, or null for phantoms.
  const BlockPayload* payloads = nullptr;
  /// Set by the commit: the interval the request occupies.
  sim::Interval interval;
};

/// One disk drive bound to a sim::Resource. Requests are block-extent
/// granular; a request sequentially continuing the previous one (same start
/// as the previous end) pays no positioning time. Blocks never written with
/// a real payload read back as null (phantom) payloads.
class DiskVolume {
 public:
  DiskVolume(std::string name, DiskModel model, sim::Resource* resource,
             BlockCount capacity_blocks, ByteCount block_bytes)
      : name_(std::move(name)),
        model_(model),
        resource_(resource),
        block_bytes_(block_bytes),
        capacity_(capacity_blocks) {
    TERTIO_CHECK(resource != nullptr, "disk requires a resource");
    TERTIO_CHECK(block_bytes > 0, "block size must be positive");
  }

  const std::string& name() const { return name_; }
  const DiskModel& model() const { return model_; }
  sim::Resource* resource() { return resource_; }
  const DiskStats& stats() const { return stats_; }
  BlockCount capacity_blocks() const { return capacity_; }
  ByteCount block_bytes() const { return block_bytes_; }

  /// Attaches a fault source (not owned; may be null). Reads then draw
  /// transient errors and latent bad blocks from it; with no injector (or a
  /// disabled one) the costing path is untouched.
  void set_fault_injector(sim::FaultInjector* faults) { faults_ = faults; }
  sim::FaultInjector* fault_injector() const { return faults_; }

  /// Reads `count` blocks at `start` as one request. Payloads are appended to
  /// `out` when non-null and the request succeeded; a failed read delivers
  /// nothing.
  Result<sim::Interval> Read(BlockIndex start, BlockCount count, SimSeconds ready,
                             std::vector<BlockPayload>* out = nullptr);

  /// Writes the pieces of `pieces` that name disk `disk`, in order, each as
  /// one request: costed by DiskModel::RequestSeconds, started at
  /// max(ready, device available), its payloads stored (null payloads write
  /// phantoms). The counters, the cursor and the resource are updated once.
  /// Every such piece must lie within capacity (CheckRange). Sets each such
  /// piece's `interval`.
  void CommitWrites(std::span<WritePiece> pieces, int disk);

  /// OK when [start, start+count) lies within capacity.
  Status CheckRange(BlockIndex start, BlockCount count) const;

  /// True when a request starting at `start` would continue the previous one
  /// sequentially and therefore pay no positioning time. Used by coalesced
  /// transfers (sim/pipeline.h) to cost the replayed requests.
  bool IsSequential(BlockIndex start) const {
    return any_request_ && start == next_sequential_;
  }

  /// Applies the counters and cursor a coalesced batch of requests would
  /// have left behind: `requests` requests, `positioned` of which paid
  /// positioning time, moving `blocks` blocks in all, the last of them
  /// ending at `next`. The caller (StripedDiskGroup) has already charged the
  /// device time through Resource::ScheduleBatch, costing each request by
  /// DiskModel::RequestSeconds, and stores phantom writes through
  /// WritePhantom.
  void CommitCoalesced(bool write, BlockCount blocks, std::uint64_t requests,
                       std::uint64_t positioned, BlockIndex next);

  /// Stores phantom payloads over [start, start+count), as a phantom Write
  /// does, without costing a request.
  void WritePhantom(BlockIndex start, BlockCount count);

 private:
  SimSeconds RequestCost(BlockIndex start, BlockCount count);

  std::string name_;
  DiskModel model_;
  sim::Resource* resource_;
  ByteCount block_bytes_;
  BlockCount capacity_;
  /// One payload slot per block, allocated at the first real-payload write:
  /// a volume that only ever sees phantoms holds no per-block state.
  std::vector<BlockPayload> store_;
  BlockIndex next_sequential_ = 0;
  bool any_request_ = false;
  DiskStats stats_;
  sim::FaultInjector* faults_ = nullptr;
  /// CommitWrites' operations, reused across calls.
  std::vector<sim::QueuedOp> ops_;
};

}  // namespace tertio::disk
