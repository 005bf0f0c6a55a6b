#pragma once

/// \file extent.h
/// A contiguous run of blocks on one disk of a striped group.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/status.h"
#include "util/units.h"

namespace tertio::disk {

/// Contiguous blocks [start, start+count) on disk `disk`.
struct Extent {
  int disk = 0;
  BlockIndex start = 0;
  BlockCount count = 0;

  bool operator==(const Extent&) const = default;
};

/// An allocation: ordered list of extents, possibly spanning several disks.
using ExtentList = std::vector<Extent>;

/// Total blocks covered by `extents`.
inline BlockCount TotalBlocks(const ExtentList& extents) {
  BlockCount total = 0;
  for (const Extent& e : extents) total += e.count;
  return total;
}

/// Forward cursor over the logical block sequence an ExtentList describes.
/// It remembers the extent its last slice ended in, so a run of ascending
/// slices (a transfer's chunks) costs time proportional to the extents it
/// returns rather than to the offset; a slice starting before that extent
/// restarts from the head. The list must outlive the cursor and may only
/// grow at the back (a partitioner appending flushes to a bucket) while the
/// cursor is bound to it.
class ExtentCursor {
 public:
  explicit ExtentCursor(const ExtentList* extents = nullptr) : extents_(extents) {}

  /// Binds the cursor to `extents` and rewinds it to logical block 0.
  void Reset(const ExtentList* extents) {
    extents_ = extents;
    index_ = 0;
    base_ = 0;
  }
  const ExtentList* extents() const { return extents_; }

  /// Moves to the extent holding logical block `offset` (rewinding first
  /// when `offset` lies before the current extent). \returns its index, or
  /// the list size when `offset` is at or past the end; base() is then the
  /// logical block at which that extent starts.
  std::size_t Seek(BlockCount offset);
  BlockCount base() const { return base_; }

  /// Writes the sub-range of the list covering blocks [offset,
  /// offset + count) into `out` (cleared first; its capacity is reused).
  /// \returns InvalidArgument when the range extends past the sequence;
  /// a zero-count slice is empty at any offset.
  Status Slice(BlockCount offset, BlockCount count, ExtentList* out);

 private:
  const ExtentList* extents_;
  /// Extent the cursor rests on, and the logical block at which it starts.
  std::size_t index_ = 0;
  BlockCount base_ = 0;
};

}  // namespace tertio::disk
