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
  /// Blocks delivered out of a shared-pass window (multicast from another
  /// query's in-flight sequential pass) without occupying the drive.
  BlockCount blocks_shared = 0;
  /// Blocks delivered out of a disk-resident cache window (the HSM extent
  /// cache, disk/extent_cache.h) instead of the tape — the drive stays idle
  /// and the disk charges the read.
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

  /// Reads `count` blocks starting at `start`, served by the shared-pass
  /// window, the cache window or the tape, in that order of preference. If
  /// `out` is non-null the payloads are appended to it (phantom blocks append
  /// nullptr) — but only once the serving device succeeded: a failed read
  /// appends nothing and counts no block as shared or cached.
  Result<sim::Interval> Read(BlockIndex start, BlockCount count, SimSeconds ready,
                             std::vector<BlockPayload>* out = nullptr);

  /// Appends real blocks at end-of-data.
  Result<sim::Interval> Append(const std::vector<BlockPayload>& payloads, double compressibility,
                               SimSeconds ready);

  /// Appends `count` phantom blocks at end-of-data.
  Result<sim::Interval> AppendPhantom(BlockCount count, double compressibility, SimSeconds ready);

  /// Rewinds to block 0 (serpentine: cheap and size-independent).
  Result<sim::Interval> Rewind(SimSeconds ready);

  /// Positions the head at `target` without transferring data (SCSI
  /// LOCATE). No-op if already there.
  Result<sim::Interval> Locate(BlockIndex target, SimSeconds ready);

  /// Reads `count` blocks *backwards*, ending at the current head position
  /// (SCSI READ REVERSE). Errors with kUnimplemented if the model lacks it.
  /// Draws from the fault plan as a forward read does; a failed read charges
  /// its time, leaves the head at the failed block and delivers nothing.
  Result<sim::Interval> ReadReverse(BlockCount count, SimSeconds ready,
                                    std::vector<BlockPayload>* out = nullptr);

  /// Used by TapeLibrary: swap cartridges without charging drive time (the
  /// robot charges its own exchange time).
  void ForceMount(TapeVolume* volume) {
    volume_ = volume;
    head_ = 0;
    ClearSharedPassWindow();
    ClearCacheWindow();
  }

  /// True when [start, start+count) lies inside [outer_start,
  /// outer_start+outer_count). Written subtraction-side so huge start/count
  /// values cannot overflow the comparison into a false positive.
  static bool RangeContains(BlockIndex outer_start, BlockCount outer_count, BlockIndex start,
                            BlockCount count) {
    return start >= outer_start && count <= outer_count &&
           start - outer_start <= outer_count - count;
  }

  /// Declares [start, start+count) of the mounted volume covered by an
  /// in-flight sequential pass that other queries may piggyback on (the
  /// service layer's scan sharing, exec/query_scheduler.h). While the window
  /// is set, a Read fully inside it delivers payloads at zero drive cost —
  /// the data is multicast from the one physical pass — counted in
  /// stats().blocks_shared instead of blocks_read, without moving the head.
  void SetSharedPassWindow(BlockIndex start, BlockCount count) {
    shared_window_volume_ = volume_;
    shared_window_start_ = start;
    shared_window_count_ = count;
  }
  void ClearSharedPassWindow() {
    shared_window_volume_ = nullptr;
    shared_window_count_ = 0;
  }
  bool shared_pass_active() const {
    return shared_window_volume_ != nullptr && shared_window_volume_ == volume_;
  }

  /// Charges the device time of a cache-window read of [start, start+count)
  /// ready at `ready` — the disk-side cost of serving the blocks from the
  /// HSM extent cache. Payload delivery stays with the drive.
  using CachedReadFn =
      std::function<Result<sim::Interval>(BlockIndex start, BlockCount count, SimSeconds ready)>;

  /// Declares [start, start+count) of the mounted volume resident in the
  /// cross-query extent cache (disk/extent_cache.h). While the window is
  /// set, a Read fully inside it is served by `reader` — the blocks arrive
  /// from the disk copy at disk cost, the drive never moves, and the blocks
  /// count in stats().blocks_cached instead of blocks_read. An active
  /// shared-pass window wins over the cache window (multicast is free).
  void SetCacheWindow(BlockIndex start, BlockCount count, CachedReadFn reader) {
    cache_window_volume_ = volume_;
    cache_window_start_ = start;
    cache_window_count_ = count;
    cache_reader_ = std::move(reader);
  }
  void ClearCacheWindow() {
    cache_window_volume_ = nullptr;
    cache_window_count_ = 0;
    cache_reader_ = nullptr;
  }
  bool cache_window_active() const {
    return cache_window_volume_ != nullptr && cache_window_volume_ == volume_ &&
           cache_reader_ != nullptr;
  }

  /// Steady-state cost profile for up to `max_chunks` sequential reads of
  /// `chunk` blocks starting at `start` (sim/pipeline.h coalescing). Empty —
  /// per-chunk fallback — unless the head already sits at `start` (so no
  /// locate is charged), no fault plan is active, and the stored
  /// compressibility is uniform over the prefix (so every chunk's mean, and
  /// therefore its transfer time, is bit-identical).
  sim::ChunkCostProfile ReadCostProfile(BlockIndex start, BlockCount chunk,
                                        std::uint64_t max_chunks);

  /// Steady-state cost profile for up to `max_chunks` phantom appends of
  /// `chunk` blocks at end-of-data. Empty unless the head is parked at
  /// end-of-data, no fault plan is active, and the remaining capacity admits
  /// at least one chunk.
  sim::ChunkCostProfile AppendCostProfile(double compressibility, BlockCount chunk,
                                          std::uint64_t max_chunks);

  /// Emits a read of [start, start+count) as one pipeline stage ready after
  /// `deps`, re-attempted in place up to `retry_limit` times on kDeviceError
  /// (a failed read delivers nothing, so a re-read is clean). \returns the
  /// stage.
  Result<sim::StageId> IssueRead(sim::Pipeline& pipe, std::string_view phase,
                                 std::span<const sim::StageId> deps, BlockIndex start,
                                 BlockCount count, std::vector<BlockPayload>* out = nullptr,
                                 int retry_limit = 0);
  Result<sim::StageId> IssueRead(sim::Pipeline& pipe, std::string_view phase,
                                 std::initializer_list<sim::StageId> deps, BlockIndex start,
                                 BlockCount count, std::vector<BlockPayload>* out = nullptr,
                                 int retry_limit = 0) {
    return IssueRead(pipe, phase, std::span<const sim::StageId>(deps.begin(), deps.size()),
                     start, count, out, retry_limit);
  }

 private:
  Status CheckLoaded() const;

  /// Seconds to move the head to `target` (0 if already there), charging a
  /// locate + reposition when the access is discontiguous.
  SimSeconds SeekCost(BlockIndex target);

  /// The physical half of Read(): seek, transfer and fault draw on the
  /// drive's own timeline. Delivers nothing; fails with kDeviceError once the
  /// fault plan gives up, leaving the head at the failed block.
  Result<sim::Interval> ReadFromTape(BlockIndex start, BlockCount count, double mean_c,
                                     SimSeconds ready);

  /// True when [start, start+count) lies inside the active shared window.
  bool InSharedPassWindow(BlockIndex start, BlockCount count) const {
    return shared_pass_active() &&
           RangeContains(shared_window_start_, shared_window_count_, start, count);
  }

  /// True when [start, start+count) lies inside the active cache window.
  bool InCacheWindow(BlockIndex start, BlockCount count) const {
    return cache_window_active() &&
           RangeContains(cache_window_start_, cache_window_count_, start, count);
  }

  std::string name_;
  TapeDriveModel model_;
  sim::Resource* resource_;
  TapeVolume* volume_ = nullptr;
  BlockIndex head_ = 0;
  TapeDriveStats stats_;
  sim::FaultInjector* faults_ = nullptr;
  /// Shared-pass window state; valid only while the declaring volume stays
  /// mounted (a Load/ForceMount/Unload invalidates it).
  TapeVolume* shared_window_volume_ = nullptr;
  BlockIndex shared_window_start_ = 0;
  BlockCount shared_window_count_ = 0;
  /// Cache window state; same mount-lifetime rules as the shared window.
  TapeVolume* cache_window_volume_ = nullptr;
  BlockIndex cache_window_start_ = 0;
  BlockCount cache_window_count_ = 0;
  CachedReadFn cache_reader_;
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

/// Pipeline sink appending a Transfer's chunks at end-of-data on `drive`.
class TapeAppendSink final : public sim::BlockSink {
 public:
  TapeAppendSink(TapeDrive* drive, double compressibility)
      : drive_(drive), compressibility_(compressibility) {}

  Result<sim::Interval> Write(BlockCount offset, BlockCount count, SimSeconds ready,
                              std::vector<BlockPayload>* payloads) override {
    (void)offset;
    if (payloads == nullptr) return drive_->AppendPhantom(count, compressibility_, ready);
    return drive_->Append(*payloads, compressibility_, ready);
  }
  sim::ChunkCostProfile CostProfile(BlockCount offset, BlockCount chunk,
                                    std::uint64_t max_chunks) override {
    (void)offset;
    return drive_->AppendCostProfile(compressibility_, chunk, max_chunks);
  }
  std::string_view device() const override { return drive_->name(); }

 private:
  TapeDrive* drive_;
  double compressibility_;
};

}  // namespace tertio::tape
