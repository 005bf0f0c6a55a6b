#include "disk/extent.h"

#include <algorithm>
#include <string>

#include "util/status.h"

namespace tertio::disk {

std::size_t ExtentCursor::Seek(BlockCount offset) {
  const ExtentList& list = *extents_;
  if (offset < base_) {
    index_ = 0;
    base_ = 0;
  }
  while (index_ < list.size() && base_ + list[index_].count <= offset) {
    base_ += list[index_].count;
    ++index_;
  }
  return index_;
}

Status ExtentCursor::Slice(BlockCount offset, BlockCount count, ExtentList* out) {
  out->clear();
  if (count == 0) return Status::OK();
  const ExtentList& list = *extents_;
  std::size_t i = Seek(offset);
  BlockCount pos = base_;
  for (; i < list.size(); ++i) {
    const Extent& e = list[i];
    // Seek leaves pos <= offset; only zero-count extents end at or before it.
    if (pos + e.count <= offset) continue;
    BlockCount skip = offset - pos;
    BlockCount take = std::min<BlockCount>(e.count - skip, count);
    out->push_back(Extent{e.disk, e.start + skip, take});
    count -= take;
    offset += take;
    if (count == 0) {
      // Rest on the extent the slice ended in: the next ascending slice
      // starts there or later.
      index_ = i;
      base_ = pos;
      return Status::OK();
    }
    pos += e.count;
  }
  return Status::InvalidArgument("extent slice out of range: " + std::to_string(count.value()) +
                                 " blocks past the end of a " +
                                 std::to_string(TotalBlocks(list).value()) + "-block sequence");
}

}  // namespace tertio::disk
