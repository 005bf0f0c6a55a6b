#include "hash/disk_partitioner.h"

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
        TERTIO_RETURN_IF_ERROR(MaybeFlush(local, /*final=*/false));
      }
    }
  }
  return Status::OK();
}

Status DiskPartitioner::AddPhantomBlocks(BlockCount count, SimSeconds ready) {
  // Spread `count` blocks uniformly over all B buckets; only the local span
  // materializes. Remainders carry across calls so long runs stay exact.
  std::uint64_t gross_blocks = count.value() * span_ + phantom_block_carry_;
  BlockCount local_blocks = gross_blocks / options_.bucket_count;
  phantom_block_carry_ = gross_blocks % options_.bucket_count;

  // Round-robin the materialized blocks across the span.
  for (BlockCount i = 0; i < local_blocks; ++i) {
    std::uint32_t local = phantom_cursor_;
    phantom_cursor_ = (phantom_cursor_ + 1) % span_;
    PendingBucket& p = pending_[local];
    p.phantom_pending += 1;
    if (p.data_ready < ready) p.data_ready = ready;
    TERTIO_RETURN_IF_ERROR(MaybeFlush(local, /*final=*/false));
  }
  return Status::OK();
}

Status DiskPartitioner::MaybeFlush(std::uint32_t local, bool final) {
  PendingBucket& p = pending_[local];
  while (true) {
    BlockCount encoded = p.full_blocks.size() + p.phantom_pending;
    if (encoded == 0) break;
    if (encoded < options_.write_buffer_blocks && !final) break;
    BlockCount chunk =
        encoded < options_.write_buffer_blocks ? encoded : options_.write_buffer_blocks;

    SimSeconds ready = p.data_ready;
    if (options_.space != nullptr) {
      TERTIO_ASSIGN_OR_RETURN(SimSeconds space_ready, options_.space->AcquireFree(chunk));
      if (space_ready > ready) ready = space_ready;
    }
    TERTIO_ASSIGN_OR_RETURN(disk::ExtentList extents,
                            disks_->allocator().Allocate(chunk, ready, options_.alloc_tag));
    // The bucket owns the space from here on, so a failed write cannot leak it.
    DiskBucket& bucket = buckets_[local];
    for (const disk::Extent& e : extents) bucket.extents.push_back(e);
    sim::Interval interval;
    if (!p.full_blocks.empty()) {
      BlockCount real = p.full_blocks.size() < chunk ? p.full_blocks.size() : chunk;
      std::vector<BlockPayload> batch(p.full_blocks.begin(),
                                      p.full_blocks.begin() + static_cast<long>(real.value()));
      // A mixed real/phantom flush cannot happen: a partitioner sees either
      // real or phantom input exclusively.
      TERTIO_CHECK(real == chunk, "mixed real/phantom bucket flush");
      TERTIO_ASSIGN_OR_RETURN(interval, disks_->WriteExtents(extents, ready, &batch));
      p.full_blocks.erase(p.full_blocks.begin(), p.full_blocks.begin() + static_cast<long>(real.value()));
    } else {
      TERTIO_ASSIGN_OR_RETURN(interval, disks_->WriteExtents(extents, ready, nullptr));
      p.phantom_pending -= chunk;
    }

    bucket.blocks += chunk;
    if (interval.end > bucket.ready) bucket.ready = interval.end;
    if (interval.end > last_write_end_) last_write_end_ = interval.end;
    if (!final) break;  // non-final flush drains exactly one chunk at a time
  }
  return Status::OK();
}

Status DiskPartitioner::Flush() {
  for (std::uint32_t local = 0; local < span_; ++local) {
    PendingBucket& p = pending_[local];
    if (p.builder != nullptr && !p.builder->empty()) {
      p.full_blocks.push_back(p.builder->Finish());
    }
    TERTIO_RETURN_IF_ERROR(MaybeFlush(local, /*final=*/true));
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
