#include "join/flat_table.h"

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstring>
#include <limits>

#include "join/simd.h"
#include "relation/block.h"
#include "relation/tuple.h"

namespace tertio::join {
namespace {

/// Slots ahead of the current record whose cache lines are prefetched: the
/// build kernels' lookahead ring, the scalar probe's, and the batched
/// probe's walk over its selection vector.
constexpr std::size_t kPrefetchDistance = 8;

/// Records per batch of the batched probe: each of its decode, select and
/// walk passes runs over this many records of one block (fewer at the
/// block's end). The batch's columns and selection vector, 5 KiB, stay in
/// L1.
constexpr std::size_t kProbeBatch = 256;

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

Status FlatJoinTable::EmitChain(const Slot& slot, const rel::Tuple& probe,
                                std::uint64_t probe_digest, bool pipeline,
                                JoinOutput* out) const {
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
                            JoinOutput* out, DecodedColumnStore* store,
                            std::size_t first_index) const {
  if (simd::ActiveLevel() == simd::Level::kScalar) {
    return ProbeScalar(blocks, probe_schema, probe_key_column, out);
  }
  return ProbeBatched(blocks, probe_schema, probe_key_column, out, store, first_index);
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
      // The probe record's digest enters the pair checksum; it is computed
      // on the match, so unmatched probes never hash their record bytes.
      if (slot.digest == 0) continue;
      TERTIO_RETURN_IF_ERROR(EmitChain(slot, tuple, HashBytes(tuple.bytes()), pipeline, out));
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

const DecodedColumnStore::Entry& FlatJoinTable::StoredColumns(
    DecodedColumnStore* store, std::size_t index, const BlockPayload& payload,
    std::size_t record_count) const {
  DecodedColumnStore::Entry& entry = store->entries_[index];
  if (entry.payload == payload) return entry;
  const std::uint8_t* base = payload->data() + rel::kBlockHeaderBytes.value();
  const std::size_t record_bytes = store->schema_->record_bytes().value();
  const std::size_t key_offset = store->schema_->offset(store->key_column_);
  entry.payload = payload;
  entry.keys.resize(record_count);
  entry.key_digests.resize(record_count);
  entry.record_digests.resize(record_count);
  for (std::size_t i = 0; i < record_count; ++i) {
    const std::uint8_t* record = base + i * record_bytes;
    std::int64_t key = 0;
    std::memcpy(&key, record + key_offset, sizeof(key));
    entry.keys[i] = key;
    entry.key_digests[i] = DigestOf(key);
    entry.record_digests[i] = HashBytes(std::span<const std::uint8_t>(record, record_bytes));
  }
  return entry;
}

Status FlatJoinTable::ProbeBatched(std::span<const BlockPayload> blocks,
                                   const rel::Schema* probe_schema,
                                   std::size_t probe_key_column, JoinOutput* out,
                                   DecodedColumnStore* store, std::size_t first_index) const {
  if (records_.empty()) return Status::OK();
  const simd::Level level = simd::ActiveLevel();
  const bool pipeline = capture_records_ && out->has_sink();
  const std::size_t record_bytes = probe_schema->record_bytes().value();
  const std::size_t key_offset = probe_schema->offset(probe_key_column);
  if (store != nullptr) {
    if (store->schema_ != probe_schema || store->key_column_ != probe_key_column ||
        store->key_hash_ != key_hash_) {
      // Columns decoded for another relation, key or hash: start over.
      store->entries_.clear();
      store->schema_ = probe_schema;
      store->key_column_ = probe_key_column;
      store->key_hash_ = key_hash_;
    }
    if (store->entries_.size() < first_index + blocks.size()) {
      store->entries_.resize(first_index + blocks.size());
    }
  }
  std::int64_t batch_keys[kProbeBatch];
  std::uint64_t batch_digests[kProbeBatch];
  std::uint32_t selected[kProbeBatch];
  for (std::size_t b = 0; b < blocks.size(); ++b) {
    // Open checks the header: the record count fits the payload, which is
    // what bounds every record address below.
    TERTIO_ASSIGN_OR_RETURN(rel::BlockReader reader,
                            rel::BlockReader::Open(blocks[b], probe_schema));
    const std::size_t n = reader.record_count();
    if (n == 0) continue;
    const std::uint8_t* base = blocks[b]->data() + rel::kBlockHeaderBytes.value();
    const DecodedColumnStore::Entry* stored =
        store != nullptr ? &StoredColumns(store, first_index + b, blocks[b], n) : nullptr;
    for (std::size_t start = 0; start < n; start += kProbeBatch) {
      const std::size_t m = std::min(kProbeBatch, n - start);
      // Decode: every record's key and key digest (taken from the store
      // when it holds the block), prefetching the key's filter word.
      const std::int64_t* keys = batch_keys;
      const std::uint64_t* digests = batch_digests;
      if (stored != nullptr) {
        keys = stored->keys.data() + start;
        digests = stored->key_digests.data() + start;
      } else {
        const std::uint8_t* record = base + start * record_bytes + key_offset;
        for (std::size_t i = 0; i < m; ++i, record += record_bytes) {
          std::memcpy(&batch_keys[i], record, sizeof(std::int64_t));
          batch_digests[i] = DigestOf(batch_keys[i]);
        }
      }
      for (std::size_t i = 0; i < m; ++i) PrefetchRead(&bloom_[BloomWordOf(digests[i])]);
      // Select: the records the filter passes, in record order. Every
      // index is written and the count advances only on a pass, so the
      // loop has no data-dependent branch.
      std::size_t count = 0;
      for (std::size_t i = 0; i < m; ++i) {
        selected[count] = static_cast<std::uint32_t>(i);
        count += BloomMayContain(digests[i]) ? 1 : 0;
      }
      // Walk: only the selected records, their slot lines prefetched
      // kPrefetchDistance selections ahead.
      const std::size_t lead = std::min(count, kPrefetchDistance);
      for (std::size_t k = 0; k < lead; ++k) {
        PrefetchRead(&slots_[static_cast<std::size_t>(digests[selected[k]]) & mask_]);
      }
      for (std::size_t k = 0; k < count; ++k) {
        if (k + kPrefetchDistance < count) {
          PrefetchRead(
              &slots_[static_cast<std::size_t>(digests[selected[k + kPrefetchDistance]]) &
                      mask_]);
        }
        const std::size_t i = selected[k];
        const Slot& slot = slots_[FindBatched(level, digests[i], keys[i])];
        if (slot.digest == 0) continue;
        const rel::Tuple probe(
            std::span<const std::uint8_t>(base + (start + i) * record_bytes, record_bytes),
            probe_schema);
        // Without a store the probe record is hashed here, on the match.
        const std::uint64_t probe_digest = stored != nullptr
                                               ? stored->record_digests[start + i]
                                               : HashBytes(probe.bytes());
        TERTIO_RETURN_IF_ERROR(EmitChain(slot, probe, probe_digest, pipeline, out));
      }
    }
  }
  return Status::OK();
}

}  // namespace tertio::join
