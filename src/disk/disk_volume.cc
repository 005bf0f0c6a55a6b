#include "disk/disk_volume.h"

#include <algorithm>

#include "util/string_util.h"

namespace tertio::disk {

Status DiskVolume::CheckRange(BlockIndex start, BlockCount count) const {
  if (start + count > capacity_) {
    return Status::InvalidArgument(
        StrFormat("request [%llu, %llu) exceeds capacity of disk %s (%llu blocks)",
                  static_cast<unsigned long long>(start.value()),
                  static_cast<unsigned long long>((start + count).value()), name_.c_str(),
                  static_cast<unsigned long long>(capacity_.value())));
  }
  return Status::OK();
}

SimSeconds DiskVolume::RequestCost(BlockIndex start, BlockCount count) {
  const bool positioned = !any_request_ || start != next_sequential_;
  stats_.requests += 1;
  if (positioned) stats_.positioned_requests += 1;
  any_request_ = true;
  next_sequential_ = start + count;
  return model_.RequestSeconds(count * block_bytes_, positioned);
}

Result<sim::Interval> DiskVolume::Read(BlockIndex start, BlockCount count, SimSeconds ready,
                                       std::vector<BlockPayload>* out) {
  TERTIO_RETURN_IF_ERROR(CheckRange(start, count));
  sim::FaultInjector::ReadOutcome outcome;
  outcome.clean_blocks = count;
  if (faults_ != nullptr && faults_->enabled()) {
    outcome = faults_->SimulateRead(start, count, model_.TransferSeconds(block_bytes_),
                                    model_.positioning_seconds);
  }
  // A request that dies mid-flight is charged for the blocks transferred
  // before the fault plus the recovery time the drive burned, and leaves the
  // head at the failed position so a retry repositions.
  SimSeconds duration = RequestCost(start, outcome.clean_blocks) + outcome.recovery_seconds;
  stats_.blocks_read += outcome.clean_blocks;
  ByteCount bytes = outcome.clean_blocks * block_bytes_;
  if (!outcome.completed) {
    resource_->Schedule(ready, duration, bytes, "disk.read-failed");
    return Status::DeviceError(
        StrFormat("disk %s: unrecoverable read error at block %llu", name_.c_str(),
                  static_cast<unsigned long long>(outcome.failed_block.value())));
  }
  if (out != nullptr) {
    if (store_.empty()) {
      out->resize(out->size() + count.value());
    } else {
      out->insert(out->end(), store_.begin() + static_cast<long>(start.value()),
                  store_.begin() + static_cast<long>((start + count).value()));
    }
  }
  return resource_->Schedule(ready, duration, bytes, "disk.read");
}

void DiskVolume::CommitCoalesced(bool write, BlockCount blocks, std::uint64_t requests,
                                 std::uint64_t positioned, BlockIndex next) {
  TERTIO_CHECK(next <= capacity_, "coalesced disk commit exceeds capacity");
  stats_.requests += requests;
  stats_.positioned_requests += positioned;
  any_request_ = true;
  next_sequential_ = next;
  if (write) {
    stats_.blocks_written += blocks;
  } else {
    stats_.blocks_read += blocks;
  }
}

void DiskVolume::WritePhantom(BlockIndex start, BlockCount count) {
  TERTIO_CHECK(start + count <= capacity_, "phantom disk write exceeds capacity");
  if (store_.empty()) return;  // every block already reads back null
  std::fill_n(store_.begin() + static_cast<long>(start.value()), count.value(), nullptr);
}

void DiskVolume::CommitWrites(std::span<WritePiece> pieces, int disk) {
  ops_.clear();
  BlockCount blocks = 0;
  std::uint64_t positioned = 0;
  bool any = any_request_;
  BlockIndex next = next_sequential_;
  for (const WritePiece& piece : pieces) {
    if (piece.disk != disk) continue;
    TERTIO_CHECK(piece.start + piece.count <= capacity_, "disk write exceeds capacity");
    const bool seek = !any || piece.start != next;
    if (seek) ++positioned;
    const ByteCount bytes = piece.count * block_bytes_;
    any = true;
    next = piece.start + piece.count;
    blocks += piece.count;
    if (piece.payloads == nullptr) {
      WritePhantom(piece.start, piece.count);
    } else {
      if (store_.empty()) store_.resize(capacity_.value());
      std::copy_n(piece.payloads, piece.count.value(),
                  store_.begin() + static_cast<long>(piece.start.value()));
    }
    ops_.push_back(sim::QueuedOp{piece.ready, model_.RequestSeconds(bytes, seek), bytes, {}});
  }
  if (ops_.empty()) return;
  CommitCoalesced(/*write=*/true, blocks, ops_.size(), positioned, next);
  resource_->ScheduleEach(ops_, "disk.write");
  auto op = ops_.begin();
  for (WritePiece& piece : pieces) {
    if (piece.disk == disk) piece.interval = (op++)->interval;
  }
}

}  // namespace tertio::disk
