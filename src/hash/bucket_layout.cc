#include "hash/bucket_layout.h"

#include "util/math_util.h"
#include "util/string_util.h"

namespace tertio::hash {

namespace {
constexpr BlockCount kDefaultPreferredWriteBuffer = 8;
}  // namespace

Result<BucketLayout> BucketLayout::Plan(BlockCount r_blocks, BlockCount memory_blocks,
                                        BlockCount preferred_write_buffer,
                                        std::uint32_t min_bucket_count) {
  if (r_blocks == 0) return Status::InvalidArgument("cannot partition an empty relation");
  if (memory_blocks == 0) return Status::InvalidArgument("memory budget is zero");
  if (min_bucket_count == 0) min_bucket_count = 1;
  BlockCount w_cap =
      preferred_write_buffer == 0 ? kDefaultPreferredWriteBuffer : preferred_write_buffer;

  // If R fits in memory outright, one bucket suffices (degenerates to an
  // in-memory hash join).
  if (min_bucket_count == 1 && r_blocks + 1 <= memory_blocks) {
    BlockCount w = Clamp<BlockCount>(memory_blocks - r_blocks, 1, w_cap);
    return BucketLayout{1, r_blocks, w, r_blocks + w};
  }

  // Choose the smallest B with ceil(|R|/B) + B*w <= M, preferring the
  // largest w that still fits. Smaller B means bigger buckets (fewer, larger
  // bucket transfers), so we scan B upward and take the first feasible plan.
  for (BlockCount w = w_cap; w >= 1; --w) {
    // For fixed w, feasibility of B requires r/B + B*w <= M. Scan B from the
    // memory lower bound upward; the left term falls, the right term grows,
    // so feasibility is a window — stop once B*w alone exceeds M.
    std::uint64_t b0 = CeilDiv<std::uint64_t>(r_blocks.value(), memory_blocks.value());
    if (b0 < min_bucket_count) b0 = min_bucket_count;
    for (std::uint64_t b = b0; b * w <= memory_blocks; ++b) {
      BlockCount bucket_blocks = CeilDiv<std::uint64_t>(r_blocks.value(), b);
      BlockCount footprint = bucket_blocks + b * w;
      if (footprint <= memory_blocks) {
        return BucketLayout{static_cast<std::uint32_t>(b), bucket_blocks, w, footprint};
      }
    }
  }
  if (min_bucket_count > 1 && MinimumMemory(r_blocks) <= memory_blocks) {
    // M would partition the relation with fewer buckets; the minimum binds.
    BlockCount bucket_blocks = CeilDiv<std::uint64_t>(r_blocks.value(), min_bucket_count);
    return Status::ResourceExhausted(StrFormat(
        "memory of %llu blocks cannot hold the minimum bucket count: %u buckets need %u "
        "write-buffer blocks plus %llu for one bucket of a %llu-block relation",
        static_cast<unsigned long long>(memory_blocks.value()), min_bucket_count,
        min_bucket_count, static_cast<unsigned long long>(bucket_blocks.value()),
        static_cast<unsigned long long>(r_blocks.value())));
  }
  return Status::ResourceExhausted(StrFormat(
      "memory of %llu blocks cannot partition a relation of %llu blocks "
      "(hash join requires roughly M >= 2*sqrt(|R|) = %llu blocks)",
      static_cast<unsigned long long>(memory_blocks.value()),
      static_cast<unsigned long long>(r_blocks.value()),
      static_cast<unsigned long long>(MinimumMemory(r_blocks).value())));
}

BlockCount BucketLayout::MinimumMemory(BlockCount r_blocks) {
  // With w = 1 the footprint ceil(r/B) + B is minimized near B = sqrt(r).
  BlockCount root = CeilSqrt(r_blocks.value());
  BlockCount best = ~std::uint64_t{0};
  for (BlockCount b = root > 2 ? root - 2 : 1; b <= root + 2; ++b) {
    if (b == 0) continue;
    BlockCount footprint = CeilDiv<std::uint64_t>(r_blocks.value(), b.value()) + b;
    if (footprint < best) best = footprint;
  }
  return best;
}

}  // namespace tertio::hash
