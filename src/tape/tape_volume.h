#pragma once

/// \file tape_volume.h
/// The recorded content of one tape cartridge.
///
/// A TapeVolume is an append-only sequence of fixed-size blocks. Each block
/// carries an optional real payload (full-data runs) and the compressibility
/// of its data, which determines the effective transfer rate when the block
/// moves through a compressing drive. Volumes can be truncated back to a
/// logical end-of-data marker, which is how scratch space on the R and S
/// tapes (the paper's T_R and T_S) is reclaimed between experiments.
///
/// State is kept per run, not per block: compressibility as maximal runs of
/// equal values, payloads only for blocks appended with one. A phantom
/// (timing-only) volume of any size therefore holds O(runs) memory.

#include <cstdint>
#include <string>
#include <vector>

#include "util/block_payload.h"
#include "util/status.h"
#include "util/units.h"

namespace tertio::sim {
class Auditor;
}

namespace tertio::tape {

/// Content of one cartridge. Thread-compatible, not thread-safe.
class TapeVolume {
 public:
  /// \param name label for diagnostics, e.g. "tape-R".
  /// \param block_bytes size of every block on this volume.
  /// \param capacity_blocks maximum number of blocks (0 = unlimited).
  TapeVolume(std::string name, ByteCount block_bytes, BlockCount capacity_blocks = 0)
      : name_(std::move(name)), block_bytes_(block_bytes), capacity_blocks_(capacity_blocks) {
    TERTIO_CHECK(block_bytes > 0, "block size must be positive");
  }

  const std::string& name() const { return name_; }
  ByteCount block_bytes() const { return block_bytes_; }
  BlockCount capacity_blocks() const { return capacity_blocks_; }
  BlockCount size_blocks() const { return size_; }
  ByteCount size_bytes() const { return size_blocks() * block_bytes_; }

  /// Appends one block with a real payload.
  Status Append(BlockPayload payload, double compressibility);

  /// Appends `count` phantom blocks (timing-only data).
  Status AppendPhantom(BlockCount count, double compressibility);

  /// Payload of block `index` (nullptr for phantom blocks).
  Result<BlockPayload> ReadBlock(BlockIndex index) const;

  /// Mean compressibility over [start, start+count) — used by the drive to
  /// cost a multi-block transfer. Bit-identical to summing the blocks one at
  /// a time in order and dividing by `count`; the sum proceeds run by run
  /// through the closed form (sim/closed_form.h). Non-const: a range inside
  /// one run reuses the last such result (its mean depends only on the
  /// run's value and `count`).
  Result<double> MeanCompressibility(BlockIndex start, BlockCount count);

  /// Number of leading whole `chunk`-block chunks from `start` (at most
  /// `max_chunks`, clamped to the recorded range) whose blocks all carry the
  /// same stored compressibility as block `start`. Within such a prefix every
  /// chunk's MeanCompressibility is bit-identical, so a coalesced transfer
  /// can replay one chunk's cost for all of them. O(log runs): appends keep
  /// a run-length index of equal-compressibility runs.
  std::uint64_t UniformPrefixChunks(BlockIndex start, BlockCount chunk, std::uint64_t max_chunks) const;

  /// Discards all blocks at and after `new_size` (rewriting scratch space).
  Status Truncate(BlockCount new_size);

  /// Registers a SimSan auditor (sim/auditor.h): every append is checked
  /// against the volume capacity — the paper's T_R / T_S scratch bounds for
  /// the R/S tapes. Null detaches.
  void BindAuditor(sim::Auditor* auditor) { auditor_ = auditor; }

 private:
  /// One maximal run of equal-compressibility blocks starting at `begin`;
  /// it extends to the next run's begin (or end-of-data). Adjacent runs
  /// always differ in value: appends merge into the last run when they can.
  struct Run {
    BlockIndex begin;
    float compressibility;
  };
  /// Blocks [begin, begin + count) were appended with real payloads, held
  /// in payloads_[offset, offset + count). Every other block is phantom.
  struct PayloadRun {
    BlockIndex begin;
    BlockCount count;
    std::size_t offset;
  };
  /// The last single-run MeanCompressibility result.
  struct MeanMemo {
    float compressibility = 0.0f;
    BlockCount count = 0;
    double mean = 0.0;
  };

  Status CheckRange(BlockIndex start, BlockCount count) const;
  /// Extends the run index for blocks about to be appended at end-of-data.
  void NoteAppendRun(float compressibility);
  /// The run holding block `index` (< size_).
  std::vector<Run>::const_iterator RunAt(BlockIndex index) const;

  std::string name_;
  ByteCount block_bytes_;
  BlockCount capacity_blocks_;
  sim::Auditor* auditor_ = nullptr;
  BlockCount size_ = 0;
  std::vector<Run> runs_;
  std::vector<PayloadRun> payload_runs_;
  std::vector<BlockPayload> payloads_;
  MeanMemo memo_;
};

}  // namespace tertio::tape
