#include "join/flat_table.h"

#include <algorithm>
#include <bit>
#include <cstddef>
#include <limits>

#include "join/simd.h"
#include "relation/block.h"
#include "relation/tuple.h"

namespace tertio::join {
namespace {

/// Slots ahead of the current record whose cache lines are prefetched
/// (the scalar kernels' lookahead ring, and the batched probe's second
/// pipeline stage: filter test + conditional slot prefetch).
constexpr std::size_t kPrefetchDistance = 8;

/// First pipeline stage of the batched probe: records are digested this far
/// ahead and their Bloom filter word is prefetched. The filter is a few
/// percent of the table and mostly cache-resident, so a short extra lead
/// over kPrefetchDistance is enough to have the word loaded by test time.
constexpr std::size_t kFilterDistance = 16;
static_assert(kFilterDistance >= kPrefetchDistance,
              "the filter stage must run ahead of the filter test");

inline void PrefetchRead(const void* p) {
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(p, /*rw=*/0, /*locality=*/1);
#else
  (void)p;
#endif
}

inline void PrefetchWrite(const void* p) {
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(p, /*rw=*/1, /*locality=*/1);
#else
  (void)p;
#endif
}

}  // namespace

void FlatJoinTable::Rehash(std::size_t new_capacity) {
  std::vector<Slot, util::HugePageAllocator<Slot>> old = std::move(slots_);
  slots_.assign(new_capacity, Slot{});
  mask_ = new_capacity - 1;
  bloom_.assign(new_capacity / 8, 0);
  bloom_mask_ = new_capacity / 8 - 1;
  for (const Slot& slot : old) {
    if (slot.digest == 0) continue;
    std::size_t idx = static_cast<std::size_t>(slot.digest) & mask_;
    while (slots_[idx].digest != 0) idx = (idx + 1) & mask_;
    slots_[idx] = slot;
    BloomAdd(slot.digest);
  }
}

Status FlatJoinTable::ReserveFor(std::span<const BlockPayload> blocks) {
  // Block headers are cheap to parse twice, and one reservation per batch
  // grows the slot array once instead of once per doubling.
  std::uint64_t incoming = 0;
  for (const BlockPayload& payload : blocks) {
    TERTIO_ASSIGN_OR_RETURN(rel::BlockReader reader,
                            rel::BlockReader::Open(payload, build_schema_));
    incoming += reader.record_count();
  }
  if (incoming == 0) return Status::OK();
  if (records_.size() + incoming > std::numeric_limits<std::uint32_t>::max()) {
    return Status::ResourceExhausted("flat table exceeds 2^32 - 1 build records");
  }
  // Max load factor 0.7 over distinct keys, counting every incoming record
  // as a possible new key: capacity is the next power of two above
  // keys / 0.7, never below 16.
  const std::uint64_t keys = distinct_keys_ + incoming;
  std::size_t capacity = slots_.empty() ? 16 : slots_.size();
  while (static_cast<double>(keys) > 0.7 * static_cast<double>(capacity)) capacity *= 2;
  if (capacity != slots_.size()) Rehash(capacity);
  return Status::OK();
}

void FlatJoinTable::Append(std::size_t idx, std::uint64_t digest, std::int64_t key,
                           std::span<const std::uint8_t> bytes) {
  const auto index = static_cast<std::uint32_t>(records_.size());
  const std::uint64_t record_digest = HashBytes(bytes);
  records_.push_back({record_digest, 0});
  if (capture_records_) arena_.insert(arena_.end(), bytes.begin(), bytes.end());
  Slot& slot = slots_[idx];
  if (slot.digest == 0) {
    slot = Slot{digest, key, record_digest, index, index};
    BloomAdd(digest);
    ++distinct_keys_;
  } else {
    records_[slot.last].next = index;
    slot.last = index;
  }
}

Status FlatJoinTable::EmitChain(const Slot& slot, const rel::Tuple& probe, bool pipeline,
                                JoinOutput* out) const {
  // The probe record's digest enters the pair checksum; it is computed here,
  // on the match, so unmatched probes never hash their record bytes.
  const std::uint64_t probe_digest = HashBytes(probe.bytes());
  const std::size_t record_bytes = build_schema_->record_bytes().value();
  std::uint32_t i = slot.first;
  std::uint64_t build_digest = slot.first_digest;
  for (;;) {
    const std::uint64_t r_digest = build_is_r_ ? build_digest : probe_digest;
    const std::uint64_t s_digest = build_is_r_ ? probe_digest : build_digest;
    if (pipeline) {
      rel::Tuple build(std::span<const std::uint8_t>(arena_.data() + i * record_bytes,
                                                     record_bytes),
                       build_schema_);
      TERTIO_RETURN_IF_ERROR(out->AddMatchWithRows(slot.key, build_is_r_ ? build : probe,
                                                   r_digest, build_is_r_ ? probe : build,
                                                   s_digest));
    } else {
      out->AddMatch(slot.key, r_digest, s_digest);
    }
    if (i == slot.last) return Status::OK();
    i = records_[i].next;
    build_digest = records_[i].digest;
  }
}

std::size_t FlatJoinTable::FindScalar(std::uint64_t digest, std::int64_t key) const {
  std::size_t idx = static_cast<std::size_t>(digest) & mask_;
  // Digest first, key bytes only on digest equality: an (injected) digest
  // collision between unequal keys falls through to the key compare and is
  // rejected there.
  while (slots_[idx].digest != 0 && (slots_[idx].digest != digest || slots_[idx].key != key)) {
    idx = (idx + 1) & mask_;
  }
  return idx;
}

std::size_t FlatJoinTable::FindBatched(simd::Level level, std::uint64_t digest,
                                       std::int64_t key) const {
  static_assert(sizeof(Slot) == 4 * sizeof(std::uint64_t), "group compares assume 32-byte slots");
  static_assert(offsetof(Slot, digest) == 0, "group compares read word 0 as the digest");
  constexpr std::size_t kStride = sizeof(Slot) / sizeof(std::uint64_t);
  // The home slot settles most lookups below the 0.7 load ceiling, so test
  // it with one scalar load (its line is the one prefetched) and fall back
  // to group-of-four scans only when a cluster has to be crossed.
  std::size_t idx = static_cast<std::size_t>(digest) & mask_;
  const Slot& home = slots_[idx];
  if (home.digest == 0 || (home.digest == digest && home.key == key)) return idx;
  const std::uint64_t* slot_words = reinterpret_cast<const std::uint64_t*>(slots_.data());
  const std::size_t capacity = slots_.size();
  idx = (idx + 1) & mask_;
  for (;;) {
    if (idx + 4 > capacity) {
      // Group would run past the array end: scalar-step across the wrap.
      const Slot& slot = slots_[idx];
      if (slot.digest == 0 || (slot.digest == digest && slot.key == key)) return idx;
      idx = (idx + 1) & mask_;
      continue;
    }
    const simd::Group4 g = simd::CompareDigests4(level, slot_words + idx * kStride, kStride, digest);
    std::uint32_t matches = g.match_mask;
    // A key's slot precedes the first empty slot of its probe sequence;
    // digests equal to the probe's beyond it belong to other keys.
    if (g.empty_mask != 0) matches &= (1u << std::countr_zero(g.empty_mask)) - 1u;
    while (matches != 0) {
      const std::size_t j = idx + static_cast<std::size_t>(std::countr_zero(matches));
      // Digest first, key bytes only on digest equality, as in FindScalar.
      if (slots_[j].key == key) return j;
      matches &= matches - 1;
    }
    if (g.empty_mask != 0) return idx + static_cast<std::size_t>(std::countr_zero(g.empty_mask));
    idx += 4;
    if (idx == capacity) idx = 0;
  }
}

void FlatJoinTable::Clear() {
  std::fill(slots_.begin(), slots_.end(), Slot{});
  std::fill(bloom_.begin(), bloom_.end(), 0);
  distinct_keys_ = 0;
  records_.clear();
  arena_.clear();
}

Status FlatJoinTable::AddBlocks(std::span<const BlockPayload> blocks) {
  if (simd::ActiveLevel() == simd::Level::kScalar) return AddBlocksScalar(blocks);
  return AddBlocksBatched(blocks);
}

Status FlatJoinTable::Probe(std::span<const BlockPayload> blocks,
                            const rel::Schema* probe_schema, std::size_t probe_key_column,
                            JoinOutput* out) const {
  if (simd::ActiveLevel() == simd::Level::kScalar) {
    return ProbeScalar(blocks, probe_schema, probe_key_column, out);
  }
  return ProbeBatched(blocks, probe_schema, probe_key_column, out);
}

Status FlatJoinTable::AddBlocksScalar(std::span<const BlockPayload> blocks) {
  TERTIO_RETURN_IF_ERROR(ReserveFor(blocks));
  for (const BlockPayload& payload : blocks) {
    TERTIO_ASSIGN_OR_RETURN(rel::BlockReader reader,
                            rel::BlockReader::Open(payload, build_schema_));
    const std::uint64_t n = reader.record_count();
    if (n == 0) continue;

    // Software-prefetch pipeline: digests run kPrefetchDistance records
    // ahead of the inserts, so the slot line of record i is (usually) in
    // cache by the time its slot walk starts.
    std::uint64_t digests[kPrefetchDistance];
    const std::uint64_t lead = std::min<std::uint64_t>(n, kPrefetchDistance);
    for (std::uint64_t i = 0; i < lead; ++i) {
      rel::Tuple tuple(reader.record(i), build_schema_);
      std::uint64_t digest = DigestOf(tuple.GetInt64(build_key_));
      digests[i % kPrefetchDistance] = digest;
      PrefetchWrite(&slots_[static_cast<std::size_t>(digest) & mask_]);
    }
    for (std::uint64_t i = 0; i < n; ++i) {
      // Read the current record's digest out of the ring before the
      // lookahead below reuses the same ring position (i + D ≡ i mod D).
      const std::uint64_t digest = digests[i % kPrefetchDistance];
      if (i + kPrefetchDistance < n) {
        rel::Tuple ahead(reader.record(i + kPrefetchDistance), build_schema_);
        std::uint64_t ahead_digest = DigestOf(ahead.GetInt64(build_key_));
        digests[i % kPrefetchDistance] = ahead_digest;
        PrefetchWrite(&slots_[static_cast<std::size_t>(ahead_digest) & mask_]);
      }
      rel::Tuple tuple(reader.record(i), build_schema_);
      const std::int64_t key = tuple.GetInt64(build_key_);
      Append(FindScalar(digest, key), digest, key, tuple.bytes());
    }
  }
  return Status::OK();
}

Status FlatJoinTable::ProbeScalar(std::span<const BlockPayload> blocks,
                                  const rel::Schema* probe_schema,
                                  std::size_t probe_key_column, JoinOutput* out) const {
  if (records_.empty()) return Status::OK();
  const bool pipeline = capture_records_ && out->has_sink();
  for (const BlockPayload& payload : blocks) {
    TERTIO_ASSIGN_OR_RETURN(rel::BlockReader reader,
                            rel::BlockReader::Open(payload, probe_schema));
    const std::uint64_t n = reader.record_count();
    std::uint64_t digests[kPrefetchDistance];
    const std::uint64_t lead = std::min<std::uint64_t>(n, kPrefetchDistance);
    for (std::uint64_t i = 0; i < lead; ++i) {
      rel::Tuple tuple(reader.record(i), probe_schema);
      std::uint64_t digest = DigestOf(tuple.GetInt64(probe_key_column));
      digests[i % kPrefetchDistance] = digest;
      PrefetchRead(&slots_[static_cast<std::size_t>(digest) & mask_]);
    }
    for (std::uint64_t i = 0; i < n; ++i) {
      // Read before the lookahead reuses this ring position (i + D ≡ i).
      const std::uint64_t digest = digests[i % kPrefetchDistance];
      if (i + kPrefetchDistance < n) {
        rel::Tuple ahead(reader.record(i + kPrefetchDistance), probe_schema);
        std::uint64_t ahead_digest = DigestOf(ahead.GetInt64(probe_key_column));
        digests[i % kPrefetchDistance] = ahead_digest;
        PrefetchRead(&slots_[static_cast<std::size_t>(ahead_digest) & mask_]);
      }
      rel::Tuple tuple(reader.record(i), probe_schema);
      const Slot& slot = slots_[FindScalar(digest, tuple.GetInt64(probe_key_column))];
      if (slot.digest != 0) TERTIO_RETURN_IF_ERROR(EmitChain(slot, tuple, pipeline, out));
    }
  }
  return Status::OK();
}

Status FlatJoinTable::AddBlocksBatched(std::span<const BlockPayload> blocks) {
  TERTIO_RETURN_IF_ERROR(ReserveFor(blocks));
  const simd::Level level = simd::ActiveLevel();
  for (const BlockPayload& payload : blocks) {
    TERTIO_ASSIGN_OR_RETURN(rel::BlockReader reader,
                            rel::BlockReader::Open(payload, build_schema_));
    const std::uint64_t n = reader.record_count();
    if (n == 0) continue;
    // Same paced prefetch ring as the scalar path (one prefetch issued per
    // record keeps the miss queue from overflowing, which a burst of a whole
    // batch's prefetches does not); the slot search itself runs the SIMD
    // group-of-four compares.
    std::uint64_t digests[kPrefetchDistance];
    std::int64_t keys[kPrefetchDistance];
    auto stage = [&](BlockCount j) {
      rel::Tuple tuple(reader.record(j.value()), build_schema_);
      const std::int64_t key = tuple.GetInt64(build_key_);
      const std::uint64_t digest = DigestOf(key);
      keys[(j % kPrefetchDistance).value()] = key;
      digests[(j % kPrefetchDistance).value()] = digest;
      PrefetchWrite(&slots_[static_cast<std::size_t>(digest) & mask_]);
    };
    const std::uint64_t lead = std::min<std::uint64_t>(n, kPrefetchDistance);
    for (BlockCount j = 0; j < lead; ++j) stage(j);
    for (std::uint64_t i = 0; i < n; ++i) {
      // Read the current record's ring entries before the lookahead below
      // reuses the same ring position (i + D ≡ i mod D).
      const std::uint64_t digest = digests[i % kPrefetchDistance];
      const std::int64_t key = keys[i % kPrefetchDistance];
      if (i + kPrefetchDistance < n) stage(i + kPrefetchDistance);
      Append(FindBatched(level, digest, key), digest, key, reader.record(i));
    }
  }
  return Status::OK();
}

Status FlatJoinTable::ProbeBatched(std::span<const BlockPayload> blocks,
                                   const rel::Schema* probe_schema,
                                   std::size_t probe_key_column, JoinOutput* out) const {
  if (records_.empty()) return Status::OK();
  const simd::Level level = simd::ActiveLevel();
  const bool pipeline = capture_records_ && out->has_sink();
  for (const BlockPayload& payload : blocks) {
    TERTIO_ASSIGN_OR_RETURN(rel::BlockReader reader,
                            rel::BlockReader::Open(payload, probe_schema));
    const std::uint64_t n = reader.record_count();
    if (n == 0) continue;
    // Two-stage software pipeline. Stage one (kFilterDistance ahead):
    // digest the record and prefetch its Bloom filter word. Stage two
    // (kPrefetchDistance ahead): test the filter — the word has had half a
    // ring of lead time to arrive — and prefetch the slot line only for
    // digests that may be present. By the time a surviving record is
    // processed its slot line has been in flight for kPrefetchDistance
    // records; rejected records skip the slot array entirely.
    std::uint64_t digests[kFilterDistance];
    std::int64_t keys[kFilterDistance];
    bool may_match[kPrefetchDistance];
    auto stage_digest = [&](BlockCount j) {
      rel::Tuple tuple(reader.record(j.value()), probe_schema);
      const std::int64_t key = tuple.GetInt64(probe_key_column);
      const std::uint64_t digest = DigestOf(key);
      keys[(j % kFilterDistance).value()] = key;
      digests[(j % kFilterDistance).value()] = digest;
      PrefetchRead(&bloom_[BloomWordOf(digest)]);
    };
    auto stage_filter = [&](BlockCount j) {
      const std::uint64_t digest = digests[(j % kFilterDistance).value()];
      const bool may = BloomMayContain(digest);
      may_match[(j % kPrefetchDistance).value()] = may;
      if (may) PrefetchRead(&slots_[static_cast<std::size_t>(digest) & mask_]);
    };
    const std::uint64_t lead_digest = std::min<std::uint64_t>(n, kFilterDistance);
    for (BlockCount j = 0; j < lead_digest; ++j) stage_digest(j);
    const std::uint64_t lead_filter = std::min<std::uint64_t>(n, kPrefetchDistance);
    for (BlockCount j = 0; j < lead_filter; ++j) stage_filter(j);
    for (std::uint64_t i = 0; i < n; ++i) {
      // Read the current record's ring entries before the stage calls below
      // reuse the same ring positions (i + D ≡ i mod D).
      const std::uint64_t digest = digests[i % kFilterDistance];
      const std::int64_t key = keys[i % kFilterDistance];
      const bool walk = may_match[i % kPrefetchDistance];
      if (i + kFilterDistance < n) stage_digest(i + kFilterDistance);
      if (i + kPrefetchDistance < n) stage_filter(i + kPrefetchDistance);
      if (!walk) continue;
      const Slot& slot = slots_[FindBatched(level, digest, key)];
      if (slot.digest == 0) continue;
      TERTIO_RETURN_IF_ERROR(EmitChain(slot, rel::Tuple(reader.record(i), probe_schema),
                                       pipeline, out));
    }
  }
  return Status::OK();
}

}  // namespace tertio::join
