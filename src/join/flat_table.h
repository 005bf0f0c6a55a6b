#pragma once

/// \file flat_table.h
/// Cache-friendly build/probe substrate of the full-data join paths.
///
/// FlatJoinTable replaces the original std::unordered_multimap table. Each
/// distinct build key owns exactly one 32-byte slot in a contiguous
/// open-addressed array (linear probing) keyed by the splitmix64 digest of
/// the key (hash/hasher.h). The key's build records form an insertion-ordered
/// chain outside the slot array: one (record digest, next) entry per record,
/// in insertion order, with the full record bytes (when captured) packed at
/// the same index in a per-table arena. The slot holds the chain's first and
/// last record and the first record's digest, so a duplicate insert appends
/// in O(1) and a unique key's probe touches the slot line only. A hot key
/// therefore costs one slot however many copies it has: its inserts never
/// walk past earlier copies, and a probe stops at the key's slot and walks
/// only that key's records. AddBlocks runs a short software-prefetch ring
/// over the slot array, and the batched probe works a block at a time, so
/// the dependent cache miss per tuple largely overlaps with other records'
/// work.
///
/// Probes compare the stored 64-bit key digest first and the key itself only
/// on digest equality; a digest collision between unequal keys therefore
/// never produces a match (see FlatTableDigestCollision in
/// tests/join_correctness_test.cc).
///
/// Two kernel generations coexist behind a runtime dispatch (join/simd.h):
/// per-record loops with per-slot walks (the forced-scalar reference,
/// selected with TERTIO_SIMD=scalar or simd::SetLevelForTest) and a batched
/// probe that takes each block in fixed-size batches and makes three passes
/// over a batch. Decode reads every record's key at one fixed offset,
/// digests it and prefetches its blocked-Bloom filter word; select collects,
/// without branches, the records the filter passes into a selection vector;
/// walk visits only those, in record order, prefetching slot lines a fixed
/// distance ahead. Probes the filter rejects — the common case for selective
/// joins — never touch the slot array at all; survivors walk the slot array
/// with SSE2/NEON group-of-four digest compares. Both kernels find the same
/// slot for every key and share the insert and chain-walk code, so they
/// build identical tables and emit the identical match sequence
/// (tests/flat_table_simd_test.cc).

#include <cstdint>
#include <span>
#include <vector>

#include "hash/hasher.h"
#include "join/join_output.h"
#include "relation/schema.h"
#include "util/block_payload.h"
#include "util/hugepage.h"
#include "util/status.h"

namespace tertio::join {

namespace simd {
enum class Level : int;  // join/simd.h
}  // namespace simd

/// Hash of a join key, used for slot placement and the digest-first probe
/// compare. Injectable so tests can force digest collisions; production code
/// always uses hash::HashKey (a 64-bit bijection).
using KeyHashFn = std::uint64_t (*)(std::int64_t);

/// The decode pass of probe blocks that are probed more than once, kept
/// across probes: per block, every record's key, key digest and record
/// digest (HashBytes), 24 bytes per record. NB Step II streams all of R
/// through a fresh table for every memory load of S; through a store, each
/// R block is decoded and hashed on its first pass only.
///
/// Entries are indexed by a caller-chosen block index (NB: the block's
/// offset within R). An entry is reused only for the very payload object it
/// was decoded from: payloads are immutable shared buffers, and the entry's
/// reference keeps the object, and so its address, alive. Any other payload
/// at an index is decoded again, and so is every entry when the store is
/// probed with another schema, key column or key hash. Nothing is allocated
/// until the first real probe; the forced-scalar kernel ignores the store.
class DecodedColumnStore {
 public:
  /// Block indices the store has entries for (one past the highest probed).
  std::size_t size() const { return entries_.size(); }

 private:
  friend class FlatJoinTable;

  struct Entry {
    /// The block these columns were decoded from; null until decoded.
    BlockPayload payload;
    std::vector<std::int64_t> keys;
    std::vector<std::uint64_t> key_digests;
    std::vector<std::uint64_t> record_digests;
  };

  const rel::Schema* schema_ = nullptr;
  std::size_t key_column_ = 0;
  KeyHashFn key_hash_ = nullptr;
  std::vector<Entry> entries_;
};

/// In-memory hash table over the build side of one (sub-)join.
///
/// Stores, per key, the digest of every build record, so probes can emit the
/// exact pair set without keeping full tuples around. `build_is_r` fixes
/// which side of the output pair the build records occupy. When
/// `capture_records` is set the full build records are retained (in the
/// arena) so that probes can pipeline whole joined rows to a MatchSink (the
/// build side is memory-resident by construction — that is the join methods'
/// invariant). A table that is never filled allocates nothing (phantom joins
/// construct one per chunk or slice).
class FlatJoinTable {
 public:
  FlatJoinTable(const rel::Schema* build_schema, std::size_t build_key_column, bool build_is_r,
                bool capture_records = false, KeyHashFn key_hash = nullptr)
      : build_schema_(build_schema),
        build_key_(build_key_column),
        build_is_r_(build_is_r),
        capture_records_(capture_records),
        key_hash_(key_hash != nullptr ? key_hash : &hash::HashKey) {}

  /// Adds every tuple in `blocks` to the table.
  Status AddBlocks(std::span<const BlockPayload> blocks);

  /// Probes every tuple in `blocks` (from the other relation), emitting all
  /// matching pairs into `out`: per probe record, its key's build records
  /// in insertion order. With a `store`, blocks[i] is the store's block
  /// `first_index + i`, and the batched kernel takes its decode pass from
  /// the store (decoding into it what it does not hold).
  Status Probe(std::span<const BlockPayload> blocks, const rel::Schema* probe_schema,
               std::size_t probe_key_column, JoinOutput* out,
               DecodedColumnStore* store = nullptr, std::size_t first_index = 0) const;

  /// Build records in the table.
  std::uint64_t size() const { return records_.size(); }
  /// Distinct build keys, i.e. occupied slots.
  std::uint64_t distinct_keys() const { return distinct_keys_; }

  /// Drops all entries but keeps the slot array, record and arena capacity
  /// (the tape-tape methods rebuild per bucket slice).
  void Clear();

 private:
  /// One slot per distinct key: 32 bytes, two per cache line. digest == 0
  /// marks an empty slot; key digests are remapped off 0 in DigestOf.
  struct Slot {
    std::uint64_t digest = 0;
    std::int64_t key = 0;
    /// HashBytes of the key's first build record (enters the pair checksum),
    /// so a unique key's match needs no records_ load.
    std::uint64_t first_digest = 0;
    /// records_ indices of the key's first and last build records.
    std::uint32_t first = 0;
    std::uint32_t last = 0;
  };

  /// One build record, in insertion order. Records of one key are chained
  /// from Slot::first through `next` to Slot::last.
  struct Record {
    std::uint64_t digest = 0;  ///< HashBytes of the full build record
    std::uint32_t next = 0;    ///< next record of the same key (unset at the tail)
  };

  std::uint64_t DigestOf(std::int64_t key) const {
    std::uint64_t digest = key_hash_(key);
    // 0 is the empty-slot marker; remap to a fixed odd constant.
    return digest != 0 ? digest : 0x9E3779B97F4A7C15ULL;
  }

  /// Counts the batch's records and grows the slot array so that every one
  /// of them could be a new key: no rehash happens mid-batch, so both
  /// kernels' prefetched lines and word views stay valid. Record indices
  /// are 32-bit: a table past 2^32 - 1 records is ResourceExhausted.
  Status ReserveFor(std::span<const BlockPayload> blocks);
  void Rehash(std::size_t new_capacity);
  /// The slot of (`digest`, `key`) if the key is present, else the empty
  /// slot where it would go — the same slot for both walks, since a key's
  /// slot always precedes the first empty slot of its probe sequence.
  /// FindScalar steps slot by slot; FindBatched compares groups of four.
  std::size_t FindScalar(std::uint64_t digest, std::int64_t key) const;
  std::size_t FindBatched(simd::Level level, std::uint64_t digest, std::int64_t key) const;
  /// Appends one build record under the key at slot `idx`: either the key's
  /// own slot or the empty slot where the key goes.
  void Append(std::size_t idx, std::uint64_t digest, std::int64_t key,
              std::span<const std::uint8_t> bytes);
  /// Emits the pairs of `probe`, whose record digest is `probe_digest`, with
  /// every build record of `slot`'s key.
  Status EmitChain(const Slot& slot, const rel::Tuple& probe, std::uint64_t probe_digest,
                   bool pipeline, JoinOutput* out) const;

  /// Per-record loops with per-slot walks — the reference semantics the
  /// batched kernels must reproduce exactly, and the baseline of the probe_*
  /// bench speedup metrics.
  Status AddBlocksScalar(std::span<const BlockPayload> blocks);
  Status ProbeScalar(std::span<const BlockPayload> blocks, const rel::Schema* probe_schema,
                     std::size_t probe_key_column, JoinOutput* out) const;

  /// Batched kernels: the build's prefetch ring and the probe's
  /// decode/select/walk passes, both with SIMD group-of-four slot compares
  /// (join/simd.h).
  Status AddBlocksBatched(std::span<const BlockPayload> blocks);
  Status ProbeBatched(std::span<const BlockPayload> blocks, const rel::Schema* probe_schema,
                      std::size_t probe_key_column, JoinOutput* out, DecodedColumnStore* store,
                      std::size_t first_index) const;
  /// The store's columns of `payload` (a block of `record_count` records of
  /// the store's schema), decoded into its entry `index` unless the entry
  /// holds that payload.
  const DecodedColumnStore::Entry& StoredColumns(DecodedColumnStore* store, std::size_t index,
                                                 const BlockPayload& payload,
                                                 std::size_t record_count) const;

  /// Blocked Bloom prefilter over the stored digests: one 64-bit filter word
  /// per eight slots, four bits per key, all drawn from digest bits the slot
  /// index (low bits) does not use. Every new key sets its bits, so a
  /// negative test proves the digest is absent — the filter only ever skips
  /// slot walks that could not have matched, never real matches.
  static std::uint64_t BloomBitsOf(std::uint64_t digest) {
    return (1ull << ((digest >> 38) & 63)) | (1ull << ((digest >> 44) & 63)) |
           (1ull << ((digest >> 50) & 63)) | (1ull << ((digest >> 56) & 63));
  }
  std::size_t BloomWordOf(std::uint64_t digest) const {
    return static_cast<std::size_t>(digest >> 32) & bloom_mask_;
  }
  void BloomAdd(std::uint64_t digest) { bloom_[BloomWordOf(digest)] |= BloomBitsOf(digest); }
  bool BloomMayContain(std::uint64_t digest) const {
    const std::uint64_t bits = BloomBitsOf(digest);
    return (bloom_[BloomWordOf(digest)] & bits) == bits;
  }

  const rel::Schema* build_schema_;
  std::size_t build_key_;
  bool build_is_r_;
  bool capture_records_;
  KeyHashFn key_hash_;

  /// Power-of-two size, linear probing, max load 0.7 over distinct keys.
  /// Hugepage-backed above 2 MiB: paper-scale tables have page working sets
  /// far beyond the dTLB on 4 KiB pages, and x86 drops prefetches that miss
  /// the dTLB — THP backing is what makes both kernels' prefetches
  /// effective (util/hugepage.h).
  std::vector<Slot, util::HugePageAllocator<Slot>> slots_;
  std::size_t mask_ = 0;
  /// One filter word per eight slots (3% of the table), kept in lockstep
  /// with slots_ by Rehash/Clear and every new key.
  std::vector<std::uint64_t, util::HugePageAllocator<std::uint64_t>> bloom_;
  std::size_t bloom_mask_ = 0;
  std::uint64_t distinct_keys_ = 0;
  std::vector<Record> records_;
  /// Captured record bytes (capture_records_ only): record i at
  /// i * record_bytes, records being fixed-width.
  std::vector<std::uint8_t> arena_;
};

}  // namespace tertio::join
