#include "tape/tape_drive.h"

#include <cstdlib>

#include "util/string_util.h"

namespace tertio::tape {

Status TapeDrive::CheckLoaded() const {
  if (volume_ == nullptr) {
    return Status::FailedPrecondition(StrFormat("drive %s has no tape loaded", name_.c_str()));
  }
  return Status::OK();
}

SimSeconds TapeDrive::SeekCost(BlockIndex target) {
  if (target == head_) return 0.0;
  ByteCount distance_bytes =
      (target > head_ ? target - head_ : head_ - target) * volume_->block_bytes();
  stats_.locate_count += 1;
  stats_.reposition_count += 1;
  return model_.locate_base_seconds +
         model_.locate_seconds_per_byte * static_cast<double>(distance_bytes.value()) +
         model_.reposition_seconds;
}

Result<sim::Interval> TapeDrive::Load(TapeVolume* volume, SimSeconds ready) {
  if (volume == nullptr) return Status::InvalidArgument("cannot load a null volume");
  volume_ = volume;
  head_ = 0;
  ClearWindow();
  stats_.load_count += 1;
  return resource_->Schedule(ready, model_.load_seconds, 0, "tape.load");
}

Result<sim::Interval> TapeDrive::Unload(SimSeconds ready) {
  TERTIO_RETURN_IF_ERROR(CheckLoaded());
  // The window describes a range of the departing volume; leaving it set
  // would let a later Load of the same cartridge serve stale free/cached
  // reads from a window nobody re-declared.
  ClearWindow();
  volume_ = nullptr;
  head_ = 0;
  return resource_->Schedule(ready, model_.load_seconds, 0, "tape.unload");
}

Result<sim::Interval> TapeDrive::Read(BlockIndex start, BlockCount count, SimSeconds ready,
                                      std::vector<BlockPayload>* out, bool backwards) {
  TERTIO_RETURN_IF_ERROR(CheckLoaded());
  if (backwards && !model_.supports_read_reverse) {
    return Status::Unimplemented(
        StrFormat("drive %s does not implement READ REVERSE", name_.c_str()));
  }
  TERTIO_ASSIGN_OR_RETURN(double mean_c, volume_->MeanCompressibility(start, count));
  // Decide who serves the range and charge it first; payloads are delivered
  // only once that charge succeeded, so a failed read delivers nothing and a
  // chunk-level retry re-reads cleanly.
  sim::Interval served;
  BlockCount* counter = nullptr;
  if (InWindow(start, count) && window_reader_ == nullptr) {
    // Another query's in-flight sequential pass covers the range: multicast
    // its data. No head motion, no drive occupancy, no fault draw — the
    // physical pass already paid (and drew) for these blocks.
    served = sim::Interval::At(ready);
    counter = &stats_.blocks_shared;
  } else if (InWindow(start, count)) {
    // The range is resident in the cross-query extent cache: the disk copy
    // serves it at disk cost (and may fail there) while the drive stays
    // parked. Payloads still come from the volume's block store, so data
    // delivered through the cache is bit-identical to a physical read.
    TERTIO_ASSIGN_OR_RETURN(served, window_reader_(start, count, ready));
    counter = &stats_.blocks_cached;
  } else {
    TERTIO_ASSIGN_OR_RETURN(served, ReadFromTape(start, count, mean_c, ready, backwards));
    counter = &stats_.blocks_read;
  }
  if (out != nullptr) {
    out->reserve(out->size() + count.value());
    for (BlockCount i = 0; i < count; ++i) {
      TERTIO_ASSIGN_OR_RETURN(BlockPayload payload,
                              volume_->ReadBlock(backwards ? start + (count - 1 - i) : start + i));
      out->push_back(std::move(payload));
    }
  }
  *counter += count;
  return served;
}

Result<sim::Interval> TapeDrive::ReadFromTape(BlockIndex start, BlockCount count, double mean_c,
                                              SimSeconds ready, bool backwards) {
  // The fault plan draws over the blocks in the order they pass the head.
  sim::FaultInjector::ReadOutcome outcome;
  outcome.clean_blocks = count;
  if (faults_ != nullptr && faults_->enabled()) {
    outcome =
        faults_->SimulateRead(start, count, model_.TransferSeconds(volume_->block_bytes(), mean_c),
                              model_.reposition_seconds, backwards);
  }
  ByteCount bytes = outcome.clean_blocks * volume_->block_bytes();
  // A backward read starts where a forward read of the range would end.
  SimSeconds seek = SeekCost(backwards ? start + count : start);
  SimSeconds transfer = model_.TransferSeconds(bytes, mean_c);
  if (!outcome.completed) {
    // Unrecoverable media error: charge the seek, the blocks streamed
    // before the fault, and the recovery time burned retrying, and leave the
    // head at the failed position. A chunk-level retry (pipeline) will
    // reposition and re-read the range.
    head_ = outcome.failed_block;
    stats_.blocks_read += outcome.clean_blocks;
    resource_->Schedule(ready, seek + transfer + outcome.recovery_seconds, bytes,
                        backwards ? "tape.read-reverse-failed" : "tape.read-failed");
    return Status::DeviceError(StrFormat(
        "drive %s: unrecoverable %s error at block %llu", name_.c_str(),
        backwards ? "read-reverse" : "read",
        static_cast<unsigned long long>(outcome.failed_block.value())));
  }
  head_ = backwards ? start : start + count;
  // Recovery joins the transfer before the seek, the rounding order the
  // recorded fault runs were computed in; with no fault plan it is +0.0,
  // which leaves seek + transfer exact.
  return resource_->Schedule(ready, seek + (transfer + outcome.recovery_seconds), bytes,
                             backwards ? "tape.read-reverse" : "tape.read");
}

Result<sim::Interval> TapeDrive::Append(const std::vector<BlockPayload>& payloads,
                                        double compressibility, SimSeconds ready) {
  TERTIO_RETURN_IF_ERROR(CheckLoaded());
  BlockIndex end = ToIndex(volume_->size_blocks());
  SimSeconds duration = SeekCost(end);
  for (const BlockPayload& payload : payloads) {
    TERTIO_RETURN_IF_ERROR(volume_->Append(payload, compressibility));
  }
  ByteCount bytes = payloads.size() * volume_->block_bytes();
  duration += model_.TransferSeconds(bytes, compressibility);
  head_ = ToIndex(volume_->size_blocks());
  stats_.blocks_written += payloads.size();
  return resource_->Schedule(ready, duration, bytes, "tape.write");
}

Result<sim::Interval> TapeDrive::AppendPhantom(BlockCount count, double compressibility,
                                               SimSeconds ready) {
  TERTIO_RETURN_IF_ERROR(CheckLoaded());
  BlockIndex end = ToIndex(volume_->size_blocks());
  SimSeconds duration = SeekCost(end);
  TERTIO_RETURN_IF_ERROR(volume_->AppendPhantom(count, compressibility));
  ByteCount bytes = count * volume_->block_bytes();
  duration += model_.TransferSeconds(bytes, compressibility);
  head_ = ToIndex(volume_->size_blocks());
  stats_.blocks_written += count;
  return resource_->Schedule(ready, duration, bytes, "tape.write");
}

Result<sim::Interval> TapeDrive::Rewind(SimSeconds ready) {
  TERTIO_RETURN_IF_ERROR(CheckLoaded());
  head_ = 0;
  stats_.rewind_count += 1;
  return resource_->Schedule(ready, model_.rewind_seconds, 0, "tape.rewind");
}

sim::ChunkCostProfile TapeDrive::ReadCostProfile(BlockIndex start, BlockCount chunk,
                                                 std::uint64_t max_chunks) {
  if (volume_ == nullptr || chunk == 0 || max_chunks == 0) return {};
  // Any active fault plan must flow through the per-chunk path: it draws
  // from a seeded RNG stream whose consumption order is part of the
  // simulation's reproducibility contract.
  if (faults_ != nullptr && faults_->enabled()) return {};
  // A window forces the per-chunk path too: whether a chunk is multicast,
  // disk-served or physically read is decided per Read().
  if (window_active()) return {};
  // The steady state replayed here begins with SeekCost(start) == 0; a cold
  // head runs one per-chunk read first and the caller re-attempts after it.
  if (head_ != start) return {};
  std::uint64_t n = volume_->UniformPrefixChunks(start, chunk, max_chunks);
  if (n == 0) return {};
  Result<double> mean_c = volume_->MeanCompressibility(start, chunk);
  if (!mean_c.ok()) return {};
  ByteCount bytes = chunk * volume_->block_bytes();
  sim::ChunkCostProfile profile;
  profile.chunks = n;
  profile.cycle = 1;
  profile.ops_per_chunk = {1};
  profile.ops = {{resource_, model_.TransferSeconds(bytes, *mean_c), bytes}};
  profile.commit = [this, start, chunk](std::uint64_t committed) {
    head_ = start + committed * chunk;
    stats_.blocks_read += committed * chunk;
  };
  return profile;
}

Result<sim::StageId> TapeDrive::IssueRead(sim::Pipeline& pipe, std::string_view phase,
                                          std::span<const sim::StageId> deps, BlockIndex start,
                                          BlockCount count, std::vector<BlockPayload>* out,
                                          int retry_limit, bool backwards) {
  ByteCount bytes = volume_ != nullptr ? count * volume_->block_bytes() : 0;
  return pipe.StageWithRetry(
      phase, name_, deps, count, bytes,
      [&](SimSeconds ready) { return Read(start, count, ready, out, backwards); }, retry_limit);
}

}  // namespace tertio::tape
