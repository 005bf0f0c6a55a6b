#include "disk/striped_group.h"

#include <algorithm>
#include <bit>
#include <utility>

#include "util/string_util.h"

namespace tertio::disk {

DiskGroupConfig DiskGroupConfig::Uniform(int n, DiskModel model, BlockCount total_capacity_blocks,
                                         ByteCount block_bytes, BlockCount stripe_unit) {
  DiskGroupConfig config;
  TERTIO_CHECK(n > 0, "disk group requires at least one disk");
  BlockCount per_disk = (total_capacity_blocks + static_cast<BlockCount>(n) - 1) /
                        static_cast<BlockCount>(n);
  for (int i = 0; i < n; ++i) {
    config.disks.push_back(model);
    config.per_disk_capacity.push_back(per_disk);
  }
  config.block_bytes = block_bytes;
  config.stripe_unit = stripe_unit;
  return config;
}

StripedDiskGroup::StripedDiskGroup(const DiskGroupConfig& config, sim::Simulation* sim)
    : allocator_(config.per_disk_capacity, config.stripe_unit),
      block_bytes_(config.block_bytes) {
  TERTIO_CHECK(sim != nullptr, "disk group requires a simulation");
  TERTIO_CHECK(config.disks.size() == config.per_disk_capacity.size(),
               "disk models and capacities must align");
  for (size_t i = 0; i < config.disks.size(); ++i) {
    // Allocator sizing: each spindle's capacity must be expressible in
    // bytes.
    Result<ByteCount> sized =
        CheckedBlocksToBytes(config.per_disk_capacity[i], config.block_bytes);
    TERTIO_CHECK(sized.ok(), sized.status().ToString());
    std::string name = StrFormat("disk%zu", i);
    sim::Resource* resource = sim->CreateResource(name);
    owned_.push_back(std::make_unique<DiskVolume>(name, config.disks[i], resource,
                                                  config.per_disk_capacity[i],
                                                  config.block_bytes));
    disks_.push_back(owned_.back().get());
  }
}

StripedDiskGroup::StripedDiskGroup(std::vector<DiskVolume*> spindles, const ExtentList& region,
                                   BlockCount stripe_unit, ByteCount block_bytes)
    : disks_(std::move(spindles)),
      allocator_(static_cast<int>(disks_.size()), region, stripe_unit),
      block_bytes_(block_bytes) {
  for (const auto* d : disks_) TERTIO_CHECK(d != nullptr, "session view requires live spindles");
}

BytesPerSecond StripedDiskGroup::aggregate_rate_bps() const {
  BytesPerSecond total = 0.0;
  for (const auto& d : disks_) total += d->model().transfer_rate_bps;
  return total;
}

Result<sim::Interval> StripedDiskGroup::ReadExtents(const ExtentList& extents, SimSeconds ready,
                                                    std::vector<BlockPayload>* out) {
  // A failed extent fails the whole list: the earlier extents' payloads are
  // dropped again, so a failed read delivers nothing.
  const std::size_t delivered = out != nullptr ? out->size() : 0;
  auto fail = [&](Status status) -> Result<sim::Interval> {
    if (out != nullptr) out->resize(delivered);
    return status;
  };
  sim::Interval hull = sim::Interval::At(ready);
  bool first = true;
  for (const Extent& extent : extents) {
    if (extent.disk < 0 || extent.disk >= disk_count()) {
      return fail(Status::InvalidArgument(StrFormat("extent names unknown disk %d", extent.disk)));
    }
    Result<sim::Interval> interval =
        disks_[static_cast<size_t>(extent.disk)]->Read(extent.start, extent.count, ready, out);
    if (!interval.ok()) return fail(interval.status());
    hull = first ? *interval : sim::Interval::Hull(hull, *interval);
    first = false;
  }
  return hull;
}

Result<sim::Interval> StripedDiskGroup::WriteExtents(const ExtentList& extents, SimSeconds ready,
                                                     const std::vector<BlockPayload>* payloads) {
  if (payloads != nullptr && payloads->size() != TotalBlocks(extents)) {
    return Status::InvalidArgument(
        StrFormat("payload count %zu does not match extent blocks %llu", payloads->size(),
                  static_cast<unsigned long long>(TotalBlocks(extents).value())));
  }
  write_pieces_.clear();
  Status status;
  std::size_t offset = 0;
  for (const Extent& extent : extents) {
    if (extent.disk < 0 || extent.disk >= disk_count()) {
      status = Status::InvalidArgument(StrFormat("extent names unknown disk %d", extent.disk));
      break;
    }
    status = disks_[static_cast<size_t>(extent.disk)]->CheckRange(extent.start, extent.count);
    if (!status.ok()) break;
    const BlockPayload* slice = payloads != nullptr ? payloads->data() + offset : nullptr;
    write_pieces_.push_back(WritePiece{extent.disk, extent.start, extent.count, ready, slice, {}});
    offset += extent.count.value();
  }
  CommitWrites(write_pieces_);
  if (!status.ok()) return status;
  sim::Interval hull = sim::Interval::At(ready);
  for (std::size_t i = 0; i < write_pieces_.size(); ++i) {
    hull = i == 0 ? write_pieces_[i].interval : sim::Interval::Hull(hull, write_pieces_[i].interval);
  }
  return hull;
}

void StripedDiskGroup::CommitWrites(std::span<WritePiece> pieces) {
  for (const WritePiece& piece : pieces) {
    TERTIO_CHECK(piece.disk >= 0 && piece.disk < disk_count(),
                 "a write piece names no disk of the group");
  }
  for (int d = 0; d < disk_count(); ++d) disks_[static_cast<size_t>(d)]->CommitWrites(pieces, d);
}

Result<sim::StageId> StripedDiskGroup::IssueRead(sim::Pipeline& pipe, std::string_view phase,
                                                 std::span<const sim::StageId> deps,
                                                 const ExtentList& extents,
                                                 std::vector<BlockPayload>* out,
                                                 int retry_limit) {
  BlockCount blocks = TotalBlocks(extents);
  return pipe.StageWithRetry(
      phase, "disks", deps, blocks, blocks * block_bytes_,
      [&](SimSeconds ready) { return ReadExtents(extents, ready, out); }, retry_limit);
}

Result<sim::StageId> StripedDiskGroup::IssueWrite(sim::Pipeline& pipe, std::string_view phase,
                                                  std::span<const sim::StageId> deps,
                                                  const ExtentList& extents,
                                                  const std::vector<BlockPayload>* payloads) {
  BlockCount blocks = TotalBlocks(extents);
  return pipe.Stage(phase, "disks", deps, blocks, blocks * block_bytes_,
                    [&](SimSeconds ready) { return WriteExtents(extents, ready, payloads); });
}

Result<sim::Interval> ExtentReadSource::Read(BlockCount offset, BlockCount count,
                                             SimSeconds ready,
                                             std::vector<BlockPayload>* out) {
  TERTIO_RETURN_IF_ERROR(walk_.cursor.Slice(offset, count, &walk_.slice));
  return group_->ReadExtents(walk_.slice, ready, out);
}

Result<sim::Interval> ExtentWriteSink::Write(BlockCount offset, BlockCount count,
                                             SimSeconds ready,
                                             std::vector<BlockPayload>* payloads) {
  TERTIO_RETURN_IF_ERROR(walk_.cursor.Slice(offset, count, &walk_.slice));
  return group_->WriteExtents(walk_.slice, ready, payloads);
}

namespace {

/// The first field in which two answers to one question differ; null when
/// they agree in every bit.
const char* AnswerDifference(const ExtentWalk::Answer& a, const ExtentWalk::Answer& b) {
  if (a.touches != b.touches) return "first-touch answers";
  if (a.chunks != b.chunks) return "chunk count";
  if (a.cycle != b.cycle) return "cycle";
  if (a.ops_per_chunk != b.ops_per_chunk) return "ops per chunk";
  if (a.ops.size() != b.ops.size()) return "op count";
  for (std::size_t i = 0; i < a.ops.size(); ++i) {
    const sim::ChunkCostProfile::Op& x = a.ops[i];
    const sim::ChunkCostProfile::Op& y = b.ops[i];
    if (x.resource != y.resource || x.bytes != y.bytes ||
        std::bit_cast<std::uint64_t>(x.seconds.value()) !=
            std::bit_cast<std::uint64_t>(y.seconds.value())) {
      return "op";
    }
  }
  if (a.shares != b.shares) return "disk shares";
  return nullptr;
}

}  // namespace

sim::ChunkCostProfile StripedDiskGroup::ExtentChunkProfile(ExtentWalk& walk, BlockCount offset,
                                                           BlockCount chunk,
                                                           std::uint64_t max_chunks, bool write) {
  if (chunk == 0 || max_chunks == 0) return {};
  // Any active fault plan must flow through the per-chunk path: it draws
  // from a seeded RNG stream whose consumption order is part of the
  // simulation's reproducibility contract.
  for (const auto& d : disks_) {
    if (d->fault_injector() != nullptr && d->fault_injector()->enabled()) return {};
  }
  const ExtentWalk::Question question{offset, chunk, max_chunks, write,
                                      walk.cursor.extents()->size()};
  if (offset < walk.next_offset) walk.rescanned = true;
  walk.next_offset = offset + 1;
  if (!walk.rescanned) return ProfileOf(walk, WalkChunks(walk, question));

  // The answer is a function of the question, the list (fixed by its size:
  // it only grows at the back) and the disks' first-touch answers.
  auto it = std::lower_bound(
      walk.memo.begin(), walk.memo.end(), question,
      [](const ExtentWalk::Answer& a, const ExtentWalk::Question& q) { return a.question < q; });
  const bool asked = it != walk.memo.end() && it->question == question;
  if (asked && std::all_of(it->touches.begin(), it->touches.end(),
                           [&](const ExtentWalk::FirstTouch& t) {
                             return disks_[static_cast<size_t>(t.disk)]->IsSequential(t.start) ==
                                    t.sequential;
                           })) {
    if (auditor_ != nullptr) {
      ExtentWalk::Answer fresh = WalkChunks(walk, question);
      fresh.touches = walk.touches;
      auditor_->OnProfileMemoCheck(write ? "disk.write" : "disk.read", offset,
                                   AnswerDifference(*it, fresh));
    }
    return ProfileOf(walk, *it);
  }
  ExtentWalk::Answer answer = WalkChunks(walk, question);
  answer.touches = walk.touches;
  if (asked) {
    *it = answer;
  } else {
    walk.memo.insert(it, answer);
  }
  return ProfileOf(walk, std::move(answer));
}

ExtentWalk::Answer StripedDiskGroup::WalkChunks(ExtentWalk& walk,
                                                const ExtentWalk::Question& question) {
  const BlockCount offset = question.offset;
  const BlockCount chunk = question.chunk;
  const std::uint64_t max_chunks = question.max_chunks;
  ExtentWalk::Answer answer;
  answer.question = question;
  // A chunk dissolves into a sequence of per-disk pieces, each one disk
  // request. A piece that does not continue its disk's previous request
  // (the disk's live cursor on first touch) is *positioned*: it pays
  // positioning time (DiskModel::RequestSeconds). The
  // (disk, count, positioned) sequence — the chunk's *pattern* — rotates
  // across chunks: with the stripe ring for a fresh list, with the
  // partitioner's interleaved flushes for a bucket. Walk the pieces forward
  // from `offset`, chunk by chunk, verifying that every piece lies on a
  // disk of the group within its capacity and that the patterns are
  // periodic, so one period's operations describe them all. The lead chunks
  // (those before the first repeat of chunk 0's pattern) are kept; later
  // chunks are only compared against them. The walk stops at the first
  // piece that breaks either property, or where the list ends mid-chunk.
  // With 2 disks and a 32-block stripe unit the period is 64 / gcd(chunk, 64)
  // chunks at worst; accept up to that rather than guess beyond it.
  constexpr std::uint64_t kMaxCycle = 64;
  const ExtentList& extents = *walk.cursor.extents();
  walk.lead.clear();
  walk.lead_positioned.clear();
  walk.lead_ends.clear();
  walk.disk_next.assign(disks_.size(), ExtentWalk::DiskNext{});
  walk.touches.clear();
  std::size_t i = walk.cursor.Seek(offset);
  BlockCount used = i < extents.size() ? offset - walk.cursor.base() : 0;  // of extents[i]
  std::uint64_t cycle = 0;
  std::uint64_t verified = 0;
  bool lead_seeks = false;
  for (std::uint64_t c = 0; c < max_chunks; ++c) {
    // The lead chunk this one must equal: its cycle position once the cycle
    // is known, chunk 0 (the repeat test) before that.
    const std::size_t r = cycle > 0 ? c % cycle : 0;
    std::size_t k = r == 0 ? 0 : walk.lead_ends[r - 1];
    const std::size_t lead_end = c > 0 ? walk.lead_ends[r] : 0;
    const bool record = cycle == 0 && c < kMaxCycle;
    const std::size_t recorded = walk.lead.size();
    bool same = c > 0;
    bool seeks = false;
    bool ok = true;
    for (BlockCount need = chunk; need > 0;) {
      if (i == extents.size()) {
        ok = false;
        break;
      }
      const Extent& e = extents[i];
      if (used == e.count) {
        ++i;
        used = 0;
        continue;
      }
      BlockCount take = std::min<BlockCount>(e.count - used, need);
      Extent piece{e.disk, e.start + used, take};
      used += take;
      need -= take;
      // A piece the disk cannot serve must reach the per-chunk path, which
      // reports the error.
      if (piece.disk < 0 || piece.disk >= disk_count() ||
          piece.start + piece.count > disks_[static_cast<size_t>(piece.disk)]->capacity_blocks()) {
        ok = false;
        break;
      }
      auto d = static_cast<size_t>(piece.disk);
      ExtentWalk::DiskNext& next = walk.disk_next[d];
      bool positioned = piece.start != next.start;
      if (!next.touched) {
        positioned = !disks_[d]->IsSequential(piece.start);
        walk.touches.push_back(ExtentWalk::FirstTouch{piece.disk, piece.start, !positioned});
      }
      next.touched = true;
      next.start = piece.start + piece.count;
      seeks = seeks || positioned;
      // Both chunks hold `chunk` blocks in positive pieces, so matching
      // piece by piece through this chunk also matches the lead's length.
      same = same && k < lead_end && walk.lead[k].disk == piece.disk &&
             walk.lead[k].count == piece.count && walk.lead_positioned[k] == positioned;
      ++k;
      if (record) {
        walk.lead.push_back(piece);
        walk.lead_positioned.push_back(positioned);
      }
    }
    if (!ok) {
      walk.lead.resize(recorded);
      walk.lead_positioned.resize(recorded);
      break;
    }
    if (cycle == 0) {
      if (same) {
        cycle = c;
        walk.lead.resize(recorded);
        walk.lead_positioned.resize(recorded);
      } else if (c >= kMaxCycle) {
        break;
      } else {
        walk.lead_ends.push_back(static_cast<std::uint32_t>(walk.lead.size()));
        verified = c + 1;
        lead_seeks = lead_seeks || seeks;
        // A seeking pattern must repeat twice within `max_chunks` (below),
        // and its cycle is at least this lead long.
        if (lead_seeks && max_chunks / 2 < verified) return answer;
        continue;
      }
    }
    if (!same) break;
    verified = c + 1;
  }
  // A prefix that never repeated is itself the cycle (it was verified whole).
  if (cycle == 0) cycle = verified;
  if (cycle == 0) return answer;
  std::uint64_t chunks = (verified / cycle) * cycle;
  if (chunks < 2) return answer;
  // A pattern with positioned pieces is accepted only once it has repeated
  // at least twice. A scan whose first chunk seeks and whose later chunks
  // stream would otherwise pass as one long non-repeating cycle; it keeps
  // the per-chunk path for that chunk, as an all-sequential window does.
  if (lead_seeks && chunks < 2 * cycle) return answer;

  answer.chunks = chunks;
  answer.cycle = cycle;
  answer.ops_per_chunk.reserve(cycle);
  answer.ops.reserve(walk.lead.size());
  std::uint32_t begin = 0;
  for (std::uint32_t end : walk.lead_ends) {
    answer.ops_per_chunk.push_back(end - begin);
    begin = end;
  }
  for (std::size_t j = 0; j < walk.lead.size(); ++j) {
    const Extent& piece = walk.lead[j];
    const bool positioned = walk.lead_positioned[j];
    DiskVolume* disk = disks_[static_cast<size_t>(piece.disk)];
    const ByteCount bytes = piece.count * disk->block_bytes();
    answer.ops.push_back(
        {disk->resource(), disk->model().RequestSeconds(bytes, positioned), bytes});
    auto it = std::find_if(answer.shares.begin(), answer.shares.end(),
                           [&](const ExtentWalk::DiskShare& s) { return s.disk == piece.disk; });
    if (it == answer.shares.end()) {
      answer.shares.push_back(
          ExtentWalk::DiskShare{piece.disk, piece.count, 1, positioned ? 1u : 0u});
    } else {
      it->blocks += piece.count;
      it->requests += 1;
      it->positioned += positioned ? 1 : 0;
    }
  }
  return answer;
}

sim::ChunkCostProfile StripedDiskGroup::ProfileOf(ExtentWalk& walk, ExtentWalk::Answer answer) {
  if (answer.chunks == 0) return {};
  sim::ChunkCostProfile profile;
  profile.chunks = answer.chunks;
  profile.cycle = answer.cycle;
  profile.ops_per_chunk = std::move(answer.ops_per_chunk);
  profile.ops = std::move(answer.ops);
  // Counters scale with whole periods. A disk's cursor ends where its last
  // committed piece ends, which lies in the last period (every period
  // touches every disk of the pattern); phantom writes cover every piece.
  // The walk belongs to the endpoint, which outlives the commit.
  profile.commit = [this, &walk, offset = answer.question.offset, chunk = answer.question.chunk,
                    cycle = answer.cycle, write = answer.question.write,
                    shares = std::move(answer.shares)](std::uint64_t committed) {
    const BlockCount end = offset + committed * chunk;
    const BlockCount from = write ? offset : end - cycle * chunk;
    const ExtentList& list = *walk.cursor.extents();
    std::size_t e = walk.cursor.Seek(from);
    BlockCount used = from - walk.cursor.base();
    for (BlockCount need = end - from; need > 0;) {
      if (used == list[e].count) {
        ++e;
        used = 0;
        continue;
      }
      const BlockCount take = std::min<BlockCount>(list[e].count - used, need);
      const BlockIndex start = list[e].start + used;
      const auto d = static_cast<size_t>(list[e].disk);
      if (write) disks_[d]->WritePhantom(start, take);
      walk.disk_next[d].start = start + take;
      used += take;
      need -= take;
    }
    const std::uint64_t periods = committed / cycle;
    for (const ExtentWalk::DiskShare& share : shares) {
      const auto d = static_cast<size_t>(share.disk);
      disks_[d]->CommitCoalesced(write, periods * share.blocks, periods * share.requests,
                                 periods * share.positioned, walk.disk_next[d].start);
    }
  };
  return profile;
}

DiskStats StripedDiskGroup::TotalStats() const {
  DiskStats total;
  for (const auto& d : disks_) {
    total.blocks_read += d->stats().blocks_read;
    total.blocks_written += d->stats().blocks_written;
    total.requests += d->stats().requests;
    total.positioned_requests += d->stats().positioned_requests;
  }
  return total;
}

sim::FaultStats StripedDiskGroup::TotalFaultStats() const {
  sim::FaultStats total;
  for (const auto& d : disks_) {
    if (d->fault_injector() != nullptr) total.Add(d->fault_injector()->stats());
  }
  return total;
}

}  // namespace tertio::disk
