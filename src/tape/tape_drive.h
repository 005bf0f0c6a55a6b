#pragma once

/// \file tape_drive.h
/// A simulated tape drive: head position, streaming state, and costed I/O.
///
/// The drive binds a TapeDriveModel to a sim::Resource (its device timeline).
/// All operations take the virtual time at which the request becomes ready
/// and return the interval the drive was occupied, so executors can overlap
/// tape I/O with disk I/O on other resources — the parallel I/O at the heart
/// of the paper's concurrent join methods.
///
/// Streaming semantics: a read or append that continues exactly where the
/// head stopped streams at the sustained rate; any discontiguous access pays
/// a locate (distance-dependent) plus a repositioning penalty. The drive's
/// internal buffer is assumed large enough to hide producer/consumer stalls
/// during contiguous access (Section 3.2 of the paper).

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "sim/fault.h"
#include "sim/pipeline.h"
#include "sim/resource.h"
#include "tape/tape_model.h"
#include "tape/tape_volume.h"
#include "util/status.h"

namespace tertio::tape {

/// Cumulative drive activity counters.
struct TapeDriveStats {
  BlockCount blocks_read = 0;
  BlockCount blocks_written = 0;
  /// Blocks delivered out of a multicast window (another query's in-flight
  /// sequential pass) without occupying the drive.
  BlockCount blocks_shared = 0;
  /// Blocks delivered out of an extent-cache window (the HSM extent cache,
  /// disk/extent_cache.h) instead of the tape — the drive stays idle and the
  /// disk charges the read.
  BlockCount blocks_cached = 0;
  std::uint64_t locate_count = 0;
  std::uint64_t reposition_count = 0;
  std::uint64_t rewind_count = 0;
  std::uint64_t load_count = 0;
};

/// One simulated drive. Mount volumes either directly via Load() (the
/// paper's setup: "tapes have been inserted and loaded before the join
/// begins") or through a TapeLibrary robot.
class TapeDrive {
 public:
  TapeDrive(std::string name, TapeDriveModel model, sim::Resource* resource)
      : name_(std::move(name)), model_(model), resource_(resource) {
    TERTIO_CHECK(resource != nullptr, "tape drive requires a resource");
  }

  const std::string& name() const { return name_; }
  const TapeDriveModel& model() const { return model_; }
  sim::Resource* resource() { return resource_; }
  const TapeDriveStats& stats() const { return stats_; }

  bool loaded() const { return volume_ != nullptr; }
  TapeVolume* volume() { return volume_; }
  BlockIndex head_position() const { return head_; }

  /// Attaches a fault source (not owned; may be null). Reads then draw
  /// transient errors and latent bad blocks from it; with no injector (or a
  /// disabled one) the costing path is untouched.
  void set_fault_injector(sim::FaultInjector* faults) { faults_ = faults; }
  sim::FaultInjector* fault_injector() const { return faults_; }

  /// Inserts and loads `volume`; the head is left at block 0.
  Result<sim::Interval> Load(TapeVolume* volume, SimSeconds ready);

  /// Ejects the current volume (costed as a load).
  Result<sim::Interval> Unload(SimSeconds ready);

  /// Reads `count` blocks starting at `start`, served by the window (a
  /// multicast pass or the extent cache, see SetWindow) or by the tape. A
  /// `backwards` read (SCSI READ REVERSE) covers the same range with the head
  /// moving from `start + count` down to `start`; it fails with
  /// kUnimplemented unless the model supports it. If `out` is non-null the
  /// payloads are appended in the order the blocks pass the head (phantom
  /// blocks append nullptr) — but only once the serving device succeeded: a
  /// failed read appends nothing and counts no block as shared or cached.
  Result<sim::Interval> Read(BlockIndex start, BlockCount count, SimSeconds ready,
                             std::vector<BlockPayload>* out = nullptr, bool backwards = false);

  /// Appends real blocks at end-of-data.
  Result<sim::Interval> Append(const std::vector<BlockPayload>& payloads, double compressibility,
                               SimSeconds ready);

  /// Appends `count` phantom blocks at end-of-data.
  Result<sim::Interval> AppendPhantom(BlockCount count, double compressibility, SimSeconds ready);

  /// Rewinds to block 0 (serpentine: cheap and size-independent).
  Result<sim::Interval> Rewind(SimSeconds ready);

  /// Used by TapeLibrary: swap cartridges without charging drive time (the
  /// robot charges its own exchange time).
  void ForceMount(TapeVolume* volume) {
    volume_ = volume;
    head_ = 0;
    ClearWindow();
  }

  /// True when [start, start+count) lies inside [outer_start,
  /// outer_start+outer_count). Written subtraction-side so huge start/count
  /// values cannot overflow the comparison into a false positive.
  static bool RangeContains(BlockIndex outer_start, BlockCount outer_count, BlockIndex start,
                            BlockCount count) {
    return start >= outer_start && count <= outer_count &&
           start - outer_start <= outer_count - count;
  }

  /// Charges the device time of a cache-window read of [start, start+count)
  /// ready at `ready` — the disk-side cost of serving the blocks from the
  /// HSM extent cache. Payload delivery stays with the drive.
  using CachedReadFn =
      std::function<Result<sim::Interval>(BlockIndex start, BlockCount count, SimSeconds ready)>;

  /// Declares [start, start+count) of the mounted volume served elsewhere.
  /// While the window is set, a Read fully inside it never moves the head,
  /// occupies the drive or draws from the fault plan:
  ///  - with no `reader`, the range is covered by an in-flight sequential
  ///    pass other queries piggyback on (the service layer's scan sharing,
  ///    exec/query_scheduler.h): payloads are multicast at zero cost and
  ///    count in stats().blocks_shared;
  ///  - with a `reader`, the range is resident in the cross-query extent
  ///    cache (disk/extent_cache.h): `reader` charges the disk copy and the
  ///    blocks count in stats().blocks_cached.
  /// The window dies with the mount (Load, ForceMount and Unload clear it).
  void SetWindow(BlockIndex start, BlockCount count, CachedReadFn reader = nullptr) {
    window_volume_ = volume_;
    window_start_ = start;
    window_count_ = count;
    window_reader_ = std::move(reader);
  }
  void ClearWindow() {
    window_volume_ = nullptr;
    window_count_ = 0;
    window_reader_ = nullptr;
  }
  bool window_active() const { return window_volume_ != nullptr && window_volume_ == volume_; }

  /// Steady-state cost profile for up to `max_chunks` sequential reads of
  /// `chunk` blocks starting at `start` (sim/pipeline.h coalescing). Empty —
  /// per-chunk fallback — unless the head already sits at `start` (so no
  /// locate is charged), no fault plan is active, and the stored
  /// compressibility is uniform over the prefix (so every chunk's mean, and
  /// therefore its transfer time, is bit-identical).
  sim::ChunkCostProfile ReadCostProfile(BlockIndex start, BlockCount chunk,
                                        std::uint64_t max_chunks);

  /// Emits a Read of [start, start+count) as one pipeline stage ready after
  /// `deps`, re-attempted in place up to `retry_limit` times on kDeviceError
  /// (a failed read delivers nothing and its re-read seeks back first, so a
  /// re-read is clean). \returns the stage.
  Result<sim::StageId> IssueRead(sim::Pipeline& pipe, std::string_view phase,
                                 std::span<const sim::StageId> deps, BlockIndex start,
                                 BlockCount count, std::vector<BlockPayload>* out = nullptr,
                                 int retry_limit = 0, bool backwards = false);
  Result<sim::StageId> IssueRead(sim::Pipeline& pipe, std::string_view phase,
                                 std::initializer_list<sim::StageId> deps, BlockIndex start,
                                 BlockCount count, std::vector<BlockPayload>* out = nullptr,
                                 int retry_limit = 0, bool backwards = false) {
    return IssueRead(pipe, phase, std::span<const sim::StageId>(deps.begin(), deps.size()),
                     start, count, out, retry_limit, backwards);
  }

 private:
  Status CheckLoaded() const;

  /// Seconds to move the head to `target` (0 if already there), charging a
  /// locate + reposition when the access is discontiguous.
  SimSeconds SeekCost(BlockIndex target);

  /// The physical half of Read(): seek, transfer and fault draw on the
  /// drive's own timeline, in the given direction. Delivers nothing; fails
  /// with kDeviceError once the fault plan gives up, leaving the head at the
  /// failed block.
  Result<sim::Interval> ReadFromTape(BlockIndex start, BlockCount count, double mean_c,
                                     SimSeconds ready, bool backwards);

  /// True when [start, start+count) lies inside the active window.
  bool InWindow(BlockIndex start, BlockCount count) const {
    return window_active() && RangeContains(window_start_, window_count_, start, count);
  }

  std::string name_;
  TapeDriveModel model_;
  sim::Resource* resource_;
  TapeVolume* volume_ = nullptr;
  BlockIndex head_ = 0;
  TapeDriveStats stats_;
  sim::FaultInjector* faults_ = nullptr;
  /// Window state; valid only while the declaring volume stays mounted. A
  /// null reader means multicast, a reader the extent cache.
  TapeVolume* window_volume_ = nullptr;
  BlockIndex window_start_ = 0;
  BlockCount window_count_ = 0;
  CachedReadFn window_reader_;
};

/// Pipeline source streaming a tape-resident relation: block offset k of a
/// Transfer maps to tape block base + k on `drive`.
class TapeReadSource final : public sim::BlockSource {
 public:
  TapeReadSource(TapeDrive* drive, BlockIndex base) : drive_(drive), base_(base) {}

  Result<sim::Interval> Read(BlockCount offset, BlockCount count, SimSeconds ready,
                             std::vector<BlockPayload>* out) override {
    return drive_->Read(base_ + offset, count, ready, out);
  }
  sim::ChunkCostProfile CostProfile(BlockCount offset, BlockCount chunk,
                                    std::uint64_t max_chunks) override {
    return drive_->ReadCostProfile(base_ + offset, chunk, max_chunks);
  }
  std::string_view device() const override { return drive_->name(); }

 private:
  TapeDrive* drive_;
  BlockIndex base_;
};

}  // namespace tertio::tape
