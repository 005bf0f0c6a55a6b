#pragma once

/// \file disk_partitioner.h
/// Streaming hash partitioning of a relation into disk-resident buckets.
///
/// This is the Step-I/Step-II workhorse of every Grace-style method in the
/// paper: input blocks arrive (from a tape read that completed at some
/// virtual time), each tuple is hashed to a bucket, and per-bucket memory
/// write buffers of w blocks batch the appends so each disk request is w
/// blocks long (Section 6: "the buffer allows for larger disk writes which
/// help reduce the seek penalty, as appending data to hash buckets on disk
/// involves random I/O").
///
/// Features used by specific methods:
///  * bucket-range filtering — CTT-GH/TT-GH Step I materializes only B/scans
///    buckets per scan of R, dropping the rest (Section 5.2.1);
///  * optional InterleavedBuffer gating — in the concurrent methods the
///    bucket space on disk is the shared double buffer of Section 4, so a
///    write may not begin before the consumer of the previous iteration has
///    freed the blocks being overwritten;
///  * phantom input — timing-only runs distribute blocks uniformly across
///    buckets (the paper's uniform-hashing assumption).

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "disk/striped_group.h"
#include "mem/double_buffer.h"
#include "relation/block.h"
#include "relation/schema.h"
#include "sim/pipeline.h"
#include "util/block_payload.h"
#include "util/status.h"
#include "util/units.h"

namespace tertio::hash {

/// One materialized bucket on disk.
struct DiskBucket {
  disk::ExtentList extents;
  BlockCount blocks = 0;
  /// Virtual time at which the bucket's last block hit the disk.
  SimSeconds ready = 0.0;
};

/// Streaming partitioner writing buckets to a striped disk group.
class DiskPartitioner {
 public:
  struct Options {
    /// Schema of the input tuples; may be null for phantom-only input.
    const rel::Schema* schema = nullptr;
    /// Column index of the join key.
    std::size_t key_column = 0;
    /// Total bucket count B (the hash function's modulus).
    std::uint32_t bucket_count = 1;
    /// Per-bucket write-buffer size w, in blocks.
    BlockCount write_buffer_blocks = 1;
    /// Only buckets in [first_bucket, first_bucket + bucket_span) are
    /// materialized; tuples hashing elsewhere are dropped.
    std::uint32_t first_bucket = 0;
    std::uint32_t bucket_span = 0;  // 0 = all buckets
    /// Allocator tag for the buckets' disk space.
    std::string alloc_tag = "buckets";
    /// When set, flushes additionally wait for this shared buffer space
    /// (interleaved double-buffering of Section 4) and claim blocks from it.
    mem::InterleavedBuffer* space = nullptr;
  };

  DiskPartitioner(disk::StripedDiskGroup* disks, Options options);
  /// Returns the space the buckets still hold, stamped at the last flush,
  /// so a join that stops early leaves no disk allocated. A caller that
  /// frees a bucket itself clears its extents.
  ~DiskPartitioner();
  DiskPartitioner(const DiskPartitioner&) = delete;
  DiskPartitioner& operator=(const DiskPartitioner&) = delete;

  /// Hashes every tuple of `blocks` (which became available at `ready`).
  Status AddBlocks(std::span<const BlockPayload> blocks, SimSeconds ready);

  /// Accounts `count` phantom blocks, spread uniformly over all B buckets
  /// (available at `ready`). The call's flushes are computed from the
  /// round-robin, not found block by block, and share one allocation run:
  /// its cost grows with the flushes it issues, not with `count`. After a
  /// failed flush the partitioner takes no more phantom blocks.
  Status AddPhantomBlocks(BlockCount count, SimSeconds ready);

  /// Flushes all partial write buffers. Must be called before buckets().
  Status Flush();

  /// Materialized buckets, indexed 0..bucket_span-1 (bucket `first_bucket+i`).
  const std::vector<DiskBucket>& buckets() const { return buckets_; }
  std::vector<DiskBucket>& buckets() { return buckets_; }

  /// Completion time of the last flushed write.
  SimSeconds last_write_end() const { return last_write_end_; }

 private:
  struct PendingBucket {
    std::vector<BlockPayload> full_blocks;  // encoded, not yet flushed
    std::unique_ptr<rel::BlockBuilder> builder;
    BlockCount phantom_pending = 0;
    SimSeconds data_ready = 0.0;
  };

  /// A bucket's first fill within one AddPhantomBlocks call: the call's
  /// block index that brings its write buffer to w blocks.
  struct Fill {
    std::uint64_t block;
    std::uint32_t local;
  };

  /// Where a queued piece came from: its bucket, and where its payloads
  /// start in `flushed_payloads_` (kPhantom for phantom blocks).
  struct PieceSource {
    std::uint32_t local;
    std::size_t payload;
  };
  static constexpr std::size_t kPhantom = static_cast<std::size_t>(-1);

  bool Materialized(std::uint32_t bucket) const;
  /// Flushes `chunk` blocks (or whatever is pending if fewer and `final`).
  Status MaybeFlush(disk::DiskSpaceAllocator::Run& run, std::uint32_t local, bool final);
  /// Queues one `chunk`-block flush of bucket `local` whose data is ready at
  /// `ready`: waits for shared buffer space, allocates through `run` and
  /// queues the allocation's pieces with `payloads` (`chunk` of them; null:
  /// phantoms).
  Status QueueFlush(disk::DiskSpaceAllocator::Run& run, std::uint32_t local, BlockCount chunk,
                    SimSeconds ready, const BlockPayload* payloads);
  /// Writes the queued pieces, one pass per disk, and stamps their buckets.
  void CommitFlushes();

  /// Commits a call's queued flushes when the call returns, after a failed
  /// flush too. Declared before the call's allocation run, so the run ends
  /// first.
  class QueuedFlushes {
   public:
    explicit QueuedFlushes(DiskPartitioner* partitioner) : partitioner_(partitioner) {}
    ~QueuedFlushes() { partitioner_->CommitFlushes(); }
    QueuedFlushes(const QueuedFlushes&) = delete;
    QueuedFlushes& operator=(const QueuedFlushes&) = delete;

   private:
    DiskPartitioner* partitioner_;
  };

  disk::StripedDiskGroup* disks_;
  Options options_;
  std::uint32_t span_;
  std::vector<PendingBucket> pending_;
  std::vector<DiskBucket> buckets_;
  SimSeconds last_write_end_ = 0.0;
  // Remainder accounting for spreading phantom blocks over buckets.
  std::uint64_t phantom_block_carry_ = 0;
  std::uint32_t phantom_cursor_ = 0;
  /// Scratch reused by every call: its fills and its queued flushes.
  std::vector<Fill> fills_;
  std::vector<disk::WritePiece> pieces_;
  std::vector<PieceSource> piece_sources_;
  std::vector<BlockPayload> flushed_payloads_;
};

/// Pipeline sink hashing a Transfer's chunks into disk buckets. Real chunks
/// feed AddBlocks; phantom chunks (null payloads) feed AddPhantomBlocks.
/// The sink's write interval ends at
/// the partitioner's trailing flush, so a lock-step Transfer reproduces the
/// sequential methods' "tape waits for the hash writes" structure while a
/// streaming Transfer lets the writes trail (the concurrent methods).
class PartitionerSink final : public sim::BlockSink {
 public:
  explicit PartitionerSink(DiskPartitioner* partitioner) : partitioner_(partitioner) {}

  Result<sim::Interval> Write(BlockCount offset, BlockCount count, SimSeconds ready,
                              std::vector<BlockPayload>* payloads) override;
  std::string_view device() const override { return "disks"; }

  /// Flushes trailing write buffers as a pipeline stage; its interval ends
  /// when the last buffered bucket write hits the disk.
  Result<sim::StageId> IssueFlush(sim::Pipeline& pipe, std::string_view phase,
                                  std::initializer_list<sim::StageId> deps);

 private:
  DiskPartitioner* partitioner_;
};

}  // namespace tertio::hash
