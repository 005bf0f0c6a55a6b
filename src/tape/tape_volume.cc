#include "tape/tape_volume.h"

#include <algorithm>
#include <bit>

#include "sim/auditor.h"
#include "sim/closed_form.h"
#include "util/string_util.h"

namespace tertio::tape {

namespace {

/// Below this many terms a run's share of a mean is added term by term: the
/// closed form's per-binade warm-up costs more than the additions it saves.
constexpr std::uint64_t kClosedFormTerms = 64;

/// `acc` after `count` additions of `compressibility` — exactly the block
/// loop's additions over one run.
double AddRun(double acc, float compressibility, BlockCount count) {
  const double term = compressibility;
  if (count < kClosedFormTerms) {
    for (BlockCount i = 0; i < count; ++i) acc += term;
    return acc;
  }
  return sim::IteratedSum(acc, term, count.value());
}

}  // namespace

Status TapeVolume::Append(BlockPayload payload, double compressibility) {
  if (compressibility < 0.0 || compressibility >= 1.0) {
    return Status::InvalidArgument("compressibility must be in [0, 1)");
  }
  if (capacity_blocks_ != 0 && size_ >= capacity_blocks_) {
    return Status::ResourceExhausted(
        StrFormat("tape %s is full (%llu blocks)", name_.c_str(),
                  static_cast<unsigned long long>(capacity_blocks_.value())));
  }
  NoteAppendRun(static_cast<float>(compressibility));
  if (payload_runs_.empty() || payload_runs_.back().begin + payload_runs_.back().count != size_) {
    payload_runs_.push_back(PayloadRun{ToIndex(size_), 0, payloads_.size()});
  }
  payload_runs_.back().count += 1;
  payloads_.push_back(std::move(payload));
  size_ += 1;
  if (auditor_ != nullptr) auditor_->OnTapeOccupancy(name_, size_, capacity_blocks_);
  return Status::OK();
}

Status TapeVolume::AppendPhantom(BlockCount count, double compressibility) {
  if (compressibility < 0.0 || compressibility >= 1.0) {
    return Status::InvalidArgument("compressibility must be in [0, 1)");
  }
  if (capacity_blocks_ != 0 && size_ + count > capacity_blocks_) {
    return Status::ResourceExhausted(
        StrFormat("tape %s cannot hold %llu more blocks", name_.c_str(),
                  static_cast<unsigned long long>(count.value())));
  }
  if (count > 0) NoteAppendRun(static_cast<float>(compressibility));
  size_ += count;
  if (auditor_ != nullptr) auditor_->OnTapeOccupancy(name_, size_, capacity_blocks_);
  return Status::OK();
}

void TapeVolume::NoteAppendRun(float compressibility) {
  if (runs_.empty() || runs_.back().compressibility != compressibility) {
    runs_.push_back(Run{ToIndex(size_), compressibility});
  }
}

std::vector<TapeVolume::Run>::const_iterator TapeVolume::RunAt(BlockIndex index) const {
  auto next = std::upper_bound(
      runs_.begin(), runs_.end(), index,
      [](BlockIndex i, const Run& run) { return i < run.begin; });
  return std::prev(next);
}

Result<BlockPayload> TapeVolume::ReadBlock(BlockIndex index) const {
  TERTIO_RETURN_IF_ERROR(CheckRange(index, 1));
  auto next = std::upper_bound(
      payload_runs_.begin(), payload_runs_.end(), index,
      [](BlockIndex i, const PayloadRun& run) { return i < run.begin; });
  if (next == payload_runs_.begin()) return BlockPayload{};
  const PayloadRun& run = *std::prev(next);
  if (index >= run.begin + run.count) return BlockPayload{};
  return payloads_[run.offset + (index - run.begin).value()];
}

Result<double> TapeVolume::MeanCompressibility(BlockIndex start, BlockCount count) {
  TERTIO_RETURN_IF_ERROR(CheckRange(start, count));
  if (count == 0) return 0.0;
  // The reference is the block loop `sum += compressibility` in index
  // order. Every block of a run adds the same term, so the loop's additions
  // over one run are an iterated add.
  const BlockIndex end = start + count;
  auto run = RunAt(start);
  auto run_end = [this](std::vector<Run>::const_iterator r) {
    auto next = std::next(r);
    return next == runs_.end() ? ToIndex(size_) : next->begin;
  };
  if (end <= run_end(run)) {
    if (memo_.count != count || std::bit_cast<std::uint32_t>(memo_.compressibility) !=
                                    std::bit_cast<std::uint32_t>(run->compressibility)) {
      memo_ = MeanMemo{run->compressibility, count,
                       AddRun(0.0, run->compressibility, count) /
                           static_cast<double>(count.value())};
    }
    return memo_.mean;
  }
  double sum = 0.0;
  for (BlockIndex i = start; i < end; ++run) {
    const BlockIndex stop = std::min(end, run_end(run));
    sum = AddRun(sum, run->compressibility, stop - i);
    i = stop;
  }
  return sum / static_cast<double>(count.value());
}

std::uint64_t TapeVolume::UniformPrefixChunks(BlockIndex start, BlockCount chunk,
                                              std::uint64_t max_chunks) const {
  if (chunk == 0 || start >= size_) return 0;
  std::uint64_t whole = (ToIndex(size_) - start) / chunk;
  if (max_chunks < whole) whole = max_chunks;
  if (whole == 0) return 0;
  // Adjacent runs always differ in value, so the uniform extent from `start`
  // is exactly the remainder of the run containing it.
  auto next = std::next(RunAt(start));
  const BlockIndex run_end = next == runs_.end() ? ToIndex(size_) : next->begin;
  const std::uint64_t uniform = (run_end - start) / chunk;
  return uniform < whole ? uniform : whole;
}

Status TapeVolume::Truncate(BlockCount new_size) {
  if (new_size > size_) {
    return Status::InvalidArgument(
        StrFormat("cannot truncate tape %s to %llu blocks: only %llu recorded", name_.c_str(),
                  static_cast<unsigned long long>(new_size.value()),
                  static_cast<unsigned long long>(size_.value())));
  }
  size_ = new_size;
  while (!runs_.empty() && runs_.back().begin >= new_size) runs_.pop_back();
  while (!payload_runs_.empty() && payload_runs_.back().begin >= new_size) {
    payload_runs_.pop_back();
  }
  if (payload_runs_.empty()) {
    payloads_.clear();
  } else {
    PayloadRun& last = payload_runs_.back();
    last.count = std::min(last.count, ToIndex(new_size) - last.begin);
    payloads_.resize(last.offset + last.count.value());
  }
  return Status::OK();
}

Status TapeVolume::CheckRange(BlockIndex start, BlockCount count) const {
  if (start + count > size_) {
    return Status::InvalidArgument(
        StrFormat("range [%llu, %llu) out of bounds on tape %s (%llu blocks)",
                  static_cast<unsigned long long>(start.value()),
                  static_cast<unsigned long long>((start + count).value()), name_.c_str(),
                  static_cast<unsigned long long>(size_.value())));
  }
  return Status::OK();
}

}  // namespace tertio::tape
