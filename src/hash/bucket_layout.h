#pragma once

/// \file bucket_layout.h
/// Planning the hash-bucket geometry of the Grace-style join methods.
///
/// Section 5.1.2 of the paper: the number of hash buckets is B = |R| / M
/// with the requirement M >= sqrt(|R|), which guarantees each R bucket fits
/// in memory when read back. Section 6 adds that the per-bucket main-memory
/// write buffers (which batch bucket appends into larger disk requests and
/// so tame the random-I/O penalty) are charged against M.
///
/// BucketLayout::Plan makes both constraints explicit: it chooses the
/// smallest bucket count B such that one full R bucket *plus* B write
/// buffers of w blocks fit in M, shrinking w toward 1 as memory tightens.
/// When even w = 1 cannot fit, the join is declared infeasible (the paper's
/// M >= sqrt(|R|) boundary, up to the constant from explicit write buffers).

#include <cstdint>

#include "util/status.h"
#include "util/units.h"

namespace tertio::hash {

/// Chosen bucket geometry.
struct BucketLayout {
  /// Number of hash buckets (the paper's B).
  std::uint32_t bucket_count = 0;
  /// Expected blocks per R bucket under uniform hashing: ceil(|R| / B).
  BlockCount r_bucket_blocks = 0;
  /// Per-bucket write-buffer size in blocks (w); flushes are w-block disk
  /// requests.
  BlockCount write_buffer_blocks = 0;
  /// Total memory footprint: r_bucket_blocks + bucket_count * w.
  BlockCount memory_blocks = 0;

  /// Plans a layout for partitioning a relation of `r_blocks` with
  /// `memory_blocks` of main memory. `preferred_write_buffer` caps w (larger
  /// w means bigger sequential flushes; 0 picks the library default).
  /// `min_bucket_count` forces at least that many buckets — the tape–tape
  /// methods need buckets no larger than the disk assembly area, i.e.
  /// B >= ceil(|R| / D). When M would partition the relation but not into
  /// that many buckets, the error names the minimum and the write-buffer
  /// blocks it needs rather than the M >= 2*sqrt(|R|) bound.
  static Result<BucketLayout> Plan(BlockCount r_blocks, BlockCount memory_blocks,
                                   BlockCount preferred_write_buffer = 0,
                                   std::uint32_t min_bucket_count = 1);

  /// Smallest memory (blocks) for which Plan succeeds — the library's
  /// concrete version of the paper's M >= sqrt(|R|) requirement.
  static BlockCount MinimumMemory(BlockCount r_blocks);
};

}  // namespace tertio::hash
