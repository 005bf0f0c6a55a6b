#include "hash/disk_partitioner.h"

#include <algorithm>

#include "hash/hasher.h"
#include "relation/relation.h"
#include "relation/tuple.h"
#include "util/string_util.h"

namespace tertio::hash {

DiskPartitioner::DiskPartitioner(disk::StripedDiskGroup* disks, Options options)
    : disks_(disks), options_(std::move(options)) {
  TERTIO_CHECK(disks_ != nullptr, "partitioner requires a disk group");
  TERTIO_CHECK(options_.bucket_count > 0, "bucket count must be positive");
  TERTIO_CHECK(options_.write_buffer_blocks > 0, "write buffer must be positive");
  span_ = options_.bucket_span == 0 ? options_.bucket_count : options_.bucket_span;
  TERTIO_CHECK(options_.first_bucket + span_ <= options_.bucket_count,
               "bucket range exceeds bucket count");
  pending_.resize(span_);
  buckets_.resize(span_);
  if (options_.schema != nullptr) {
    for (auto& p : pending_) {
      p.builder =
          std::make_unique<rel::BlockBuilder>(options_.schema, disks_->block_bytes());
    }
  }
}

DiskPartitioner::~DiskPartitioner() {
  for (DiskBucket& bucket : buckets_) {
    if (bucket.extents.empty()) continue;
    Status freed = disks_->allocator().Free(bucket.extents, last_write_end_, options_.alloc_tag);
    TERTIO_CHECK(freed.ok(), "partitioner failed to return its bucket space");
  }
}

bool DiskPartitioner::Materialized(std::uint32_t bucket) const {
  return bucket >= options_.first_bucket && bucket < options_.first_bucket + span_;
}

Status DiskPartitioner::AddBlocks(std::span<const BlockPayload> blocks, SimSeconds ready) {
  if (options_.schema == nullptr) {
    return Status::FailedPrecondition("partitioner was configured without a schema");
  }
  QueuedFlushes commit(this);
  disk::DiskSpaceAllocator::Run run(&disks_->allocator());
  for (const BlockPayload& payload : blocks) {
    TERTIO_ASSIGN_OR_RETURN(rel::BlockReader reader,
                            rel::BlockReader::Open(payload, options_.schema));
    for (std::uint64_t i = 0; i < reader.record_count(); ++i) {
      rel::Tuple tuple(reader.record(i), options_.schema);
      std::int64_t key = tuple.GetInt64(options_.key_column);
      std::uint32_t bucket = BucketOf(key, options_.bucket_count);
      if (!Materialized(bucket)) continue;
      std::uint32_t local = bucket - options_.first_bucket;
      PendingBucket& p = pending_[local];
      TERTIO_RETURN_IF_ERROR(p.builder->Append(tuple.bytes()));
      if (p.data_ready < ready) p.data_ready = ready;
      if (p.builder->full()) {
        p.full_blocks.push_back(p.builder->Finish());
        TERTIO_RETURN_IF_ERROR(MaybeFlush(run, local, /*final=*/false));
      }
    }
  }
  return Status::OK();
}

Status DiskPartitioner::AddPhantomBlocks(BlockCount count, SimSeconds ready) {
  // Spread `count` blocks uniformly over all B buckets; only the local span
  // materializes. Remainders carry across calls so long runs stay exact.
  const std::uint64_t gross_blocks = count.value() * span_ + phantom_block_carry_;
  const std::uint64_t n = gross_blocks / options_.bucket_count;
  const std::uint64_t span = span_;
  const std::uint64_t w = options_.write_buffer_blocks.value();

  // The materialized blocks go round-robin over the span: block i of the
  // call to the bucket at offset i % span from the cursor. The bucket at
  // offset o, holding p pending blocks, fills at block o + (w - p - 1) span
  // and again every w span blocks after that.
  fills_.clear();
  for (std::uint64_t o = 0; o < std::min(n, span); ++o) {
    const auto local = static_cast<std::uint32_t>((phantom_cursor_ + o) % span);
    const std::uint64_t pending = pending_[local].phantom_pending.value();
    if (pending >= w) {
      return Status::FailedPrecondition("partitioner fed phantom blocks after a failed flush");
    }
    const std::uint64_t first = o + (w - pending - 1) * span;
    if (first < n) fills_.push_back(Fill{first, local});
  }
  phantom_block_carry_ = gross_blocks % options_.bucket_count;
  std::sort(fills_.begin(), fills_.end(),
            [](const Fill& a, const Fill& b) { return a.block < b.block; });

  // Flush in ascending block index, the order a block-by-block pass meets
  // the fills: each period of w span blocks fills every scheduled bucket
  // once, in its first fill's order.
  std::uint64_t delivered = n;  // blocks that reached their buckets
  std::uint32_t failed = span_;
  Status status;
  {
    QueuedFlushes commit(this);
    disk::DiskSpaceAllocator::Run run(&disks_->allocator());
    for (std::uint64_t base = 0; base < n && status.ok(); base += w * span) {
      for (const Fill& fill : fills_) {
        if (base + fill.block >= n) break;
        const PendingBucket& p = pending_[fill.local];
        status = QueueFlush(run, fill.local, w, std::max(p.data_ready, ready), nullptr);
        if (!status.ok()) {
          delivered = base + fill.block + 1;
          failed = fill.local;
          break;
        }
      }
    }
  }

  // Settle the blocks delivered: a bucket keeps what its flushes left of
  // them, and the one whose flush failed keeps its full write buffer.
  for (std::uint64_t o = 0; o < std::min(delivered, span); ++o) {
    const auto local = static_cast<std::uint32_t>((phantom_cursor_ + o) % span);
    PendingBucket& p = pending_[local];
    const std::uint64_t received = (delivered - o + span - 1) / span;
    p.phantom_pending = (p.phantom_pending.value() + received) % w + (local == failed ? w : 0);
    if (p.data_ready < ready) p.data_ready = ready;
  }
  phantom_cursor_ = static_cast<std::uint32_t>((phantom_cursor_ + delivered) % span);
  return status;
}

Status DiskPartitioner::QueueFlush(disk::DiskSpaceAllocator::Run& run, std::uint32_t local,
                                   BlockCount chunk, SimSeconds ready,
                                   const BlockPayload* payloads) {
  if (options_.space != nullptr) {
    TERTIO_ASSIGN_OR_RETURN(SimSeconds space_ready, options_.space->AcquireFree(chunk));
    if (space_ready > ready) ready = space_ready;
  }
  // The bucket owns the space from here on, so a failed call cannot leak it.
  DiskBucket& bucket = buckets_[local];
  const std::size_t first = bucket.extents.size();
  TERTIO_RETURN_IF_ERROR(run.Allocate(chunk, ready, options_.alloc_tag, &bucket.extents));
  std::size_t payload = kPhantom;
  if (payloads != nullptr) {
    payload = flushed_payloads_.size();
    flushed_payloads_.insert(flushed_payloads_.end(), payloads, payloads + chunk.value());
  }
  for (std::size_t i = first; i < bucket.extents.size(); ++i) {
    const disk::Extent& extent = bucket.extents[i];
    pieces_.push_back(disk::WritePiece{extent.disk, extent.start, extent.count, ready, nullptr, {}});
    piece_sources_.push_back(PieceSource{local, payload});
    if (payload != kPhantom) payload += extent.count.value();
  }
  return Status::OK();
}

void DiskPartitioner::CommitFlushes() {
  // Payload addresses are taken only now: the store grew while flushes
  // were queued.
  for (std::size_t i = 0; i < pieces_.size() && !flushed_payloads_.empty(); ++i) {
    if (piece_sources_[i].payload != kPhantom) {
      pieces_[i].payloads = flushed_payloads_.data() + piece_sources_[i].payload;
    }
  }
  disks_->CommitWrites(pieces_);
  for (std::size_t i = 0; i < pieces_.size(); ++i) {
    DiskBucket& bucket = buckets_[piece_sources_[i].local];
    const SimSeconds end = pieces_[i].interval.end;
    bucket.blocks += pieces_[i].count;
    if (end > bucket.ready) bucket.ready = end;
    if (end > last_write_end_) last_write_end_ = end;
  }
  pieces_.clear();
  piece_sources_.clear();
  flushed_payloads_.clear();
}

Status DiskPartitioner::MaybeFlush(disk::DiskSpaceAllocator::Run& run, std::uint32_t local,
                                   bool final) {
  PendingBucket& p = pending_[local];
  while (true) {
    BlockCount encoded = p.full_blocks.size() + p.phantom_pending;
    if (encoded == 0) break;
    if (encoded < options_.write_buffer_blocks && !final) break;
    BlockCount chunk =
        encoded < options_.write_buffer_blocks ? encoded : options_.write_buffer_blocks;
    if (!p.full_blocks.empty()) {
      // A mixed real/phantom flush cannot happen: a partitioner sees either
      // real or phantom input exclusively.
      TERTIO_CHECK(p.full_blocks.size() >= chunk, "mixed real/phantom bucket flush");
      TERTIO_RETURN_IF_ERROR(QueueFlush(run, local, chunk, p.data_ready, p.full_blocks.data()));
      p.full_blocks.erase(p.full_blocks.begin(),
                          p.full_blocks.begin() + static_cast<long>(chunk.value()));
    } else {
      TERTIO_RETURN_IF_ERROR(QueueFlush(run, local, chunk, p.data_ready, nullptr));
      p.phantom_pending -= chunk;
    }
    if (!final) break;  // non-final flush drains exactly one chunk at a time
  }
  return Status::OK();
}

Status DiskPartitioner::Flush() {
  QueuedFlushes commit(this);
  disk::DiskSpaceAllocator::Run run(&disks_->allocator());
  for (std::uint32_t local = 0; local < span_; ++local) {
    PendingBucket& p = pending_[local];
    if (p.builder != nullptr && !p.builder->empty()) {
      p.full_blocks.push_back(p.builder->Finish());
    }
    TERTIO_RETURN_IF_ERROR(MaybeFlush(run, local, /*final=*/true));
  }
  return Status::OK();
}

Result<sim::Interval> PartitionerSink::Write(BlockCount offset, BlockCount count,
                                             SimSeconds ready,
                                             std::vector<BlockPayload>* payloads) {
  (void)offset;
  if (payloads == nullptr) {
    TERTIO_RETURN_IF_ERROR(partitioner_->AddPhantomBlocks(count, ready));
  } else {
    TERTIO_RETURN_IF_ERROR(partitioner_->AddBlocks(*payloads, ready));
  }
  return sim::Interval{ready, std::max(ready, partitioner_->last_write_end())};
}

Result<sim::StageId> PartitionerSink::IssueFlush(sim::Pipeline& pipe, std::string_view phase,
                                                 std::initializer_list<sim::StageId> deps) {
  return pipe.Stage(phase, "disks", deps, 0, 0, [&](SimSeconds ready) -> Result<sim::Interval> {
    TERTIO_RETURN_IF_ERROR(partitioner_->Flush());
    return sim::Interval{ready, std::max(ready, partitioner_->last_write_end())};
  });
}

}  // namespace tertio::hash
