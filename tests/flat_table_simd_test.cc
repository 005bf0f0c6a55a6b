// Forced-scalar vs SIMD FlatJoinTable equivalence (join/simd.h dispatch).
//
// The batched kernels (the build's prefetch ring, the probe's block-at-a-time
// decode/select/walk passes, and group-of-four digest compares) must build
// the same table as the original scalar loops and emit exactly the same
// match sequence on every workload shape: uniform, foreign-key, Zipf-skewed
// on either side, all-one-key, and selective (miss-heavy) key
// distributions, narrow records (a block of more records than one probe
// batch) and wide ones, seeded digest collisions, and the record-capturing
// pipeline mode. Build and probe modes are also crossed (scalar build + SIMD
// probe and vice versa): the Bloom filter is table state maintained by every
// insert path, so a mode switch between build and probe must not lose
// matches. Edge blocks (empty, all rejected by the filter, all passing it,
// a header count the payload cannot hold) and probes through a
// DecodedColumnStore hold to the same reference.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "join/flat_table.h"
#include "join/join_output.h"
#include "join/simd.h"
#include "relation/block.h"
#include "relation/generator.h"
#include "relation/tuple.h"
#include "tape/tape_volume.h"
#include "util/units.h"

namespace tertio::join {
namespace {

constexpr ByteCount kBlock = 8 * kKiB;

struct GeneratedBlocks {
  rel::Relation relation;
  std::vector<BlockPayload> blocks;
};

GeneratedBlocks GenerateBlocks(const rel::GeneratorConfig& config) {
  GeneratedBlocks g;
  tape::TapeVolume tape(config.name, kBlock);
  g.relation = rel::GenerateOnTape(config, &tape).value();
  for (BlockIndex i = 0; i < tape.size_blocks(); ++i) {
    g.blocks.push_back(tape.ReadBlock(i).value());
  }
  return g;
}

struct ProbeResult {
  std::uint64_t tuples = 0;
  std::uint64_t checksum = 0;
  std::uint64_t table_size = 0;
  std::uint64_t distinct_keys = 0;
  /// HashBytes of the (r, s) records of every pair, in emission order;
  /// recorded only in pipeline mode, where a sink sees each pair.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> pairs;
};

/// Builds under `build_level`, probes under `probe_level`, returns the
/// output aggregates. In `pipeline` mode the table captures its records and
/// the probe feeds a sink that logs the match sequence. The levels are
/// restored before returning.
ProbeResult RunAtLevels(simd::Level build_level, simd::Level probe_level,
                        const GeneratedBlocks& r, const GeneratedBlocks& s,
                        bool pipeline = false, KeyHashFn key_hash = nullptr) {
  FlatJoinTable table(&r.relation.schema, 0, /*build_is_r=*/true,
                      /*capture_records=*/pipeline, key_hash);
  simd::SetLevelForTest(build_level);
  TERTIO_CHECK(table.AddBlocks(r.blocks).ok(), "build failed");
  simd::SetLevelForTest(probe_level);
  ProbeResult result;
  JoinOutput out;
  if (pipeline) {
    out.set_sink([&result](const rel::Tuple& rt, const rel::Tuple& st) {
      result.pairs.emplace_back(HashBytes(rt.bytes()), HashBytes(st.bytes()));
      return Status::OK();
    });
  }
  TERTIO_CHECK(table.Probe(s.blocks, &s.relation.schema, 0, &out).ok(), "probe failed");
  simd::ResetLevelForTest();
  result.tuples = out.tuples();
  result.checksum = out.checksum();
  result.table_size = table.size();
  result.distinct_keys = table.distinct_keys();
  return result;
}

void ExpectSameResult(const ProbeResult& got, const ProbeResult& want) {
  EXPECT_EQ(got.table_size, want.table_size);
  EXPECT_EQ(got.distinct_keys, want.distinct_keys);
  EXPECT_EQ(got.tuples, want.tuples);
  EXPECT_EQ(got.checksum, want.checksum);
  EXPECT_TRUE(got.pairs == want.pairs) << "match sequences differ";
}

/// Workload grid shared by the equivalence tests: every key-sequence shape
/// the generator offers, including a selective case whose probe keys mostly
/// miss (the regime the Bloom prefilter accelerates).
struct WorkloadCase {
  const char* name;
  rel::KeySequence r_keys;
  rel::KeySequence s_keys;
  std::uint64_t r_domain;
  std::uint64_t s_domain;
  ByteCount record_bytes;
  /// Exponent of whichever side draws kZipf keys.
  double zipf_theta = 1.0;
};

const WorkloadCase kWorkloads[] = {
    {"foreign-key", rel::KeySequence::kSequentialUnique, rel::KeySequence::kForeignKeyUniform,
     400, 400, 24},
    {"many-to-many", rel::KeySequence::kUniformRandom, rel::KeySequence::kUniformRandom, 120,
     120, 24},
    {"zipf-skew", rel::KeySequence::kSequentialUnique, rel::KeySequence::kZipf, 400, 400, 24},
    {"selective", rel::KeySequence::kUniformRandom, rel::KeySequence::kUniformRandom, 300,
     30000, 24},
    {"wide-records", rel::KeySequence::kUniformRandom, rel::KeySequence::kUniformRandom, 200,
     200, 256},
    // 16-byte records: 511 to an 8 KiB block, more than one probe batch;
    // half of the probe keys miss.
    {"narrow-records", rel::KeySequence::kUniformRandom, rel::KeySequence::kUniformRandom, 400,
     800, 16},
    // Duplicate-heavy build sides: a hot key holding about a third of R,
    // and R made of one key that a quarter of S matches.
    {"build-zipf-1.5", rel::KeySequence::kZipf, rel::KeySequence::kForeignKeyUniform, 400, 400,
     24, 1.5},
    {"all-one-key", rel::KeySequence::kUniformRandom, rel::KeySequence::kUniformRandom, 1, 4,
     24},
};

std::pair<GeneratedBlocks, GeneratedBlocks> Generate(const WorkloadCase& c) {
  rel::GeneratorConfig r_config;
  r_config.name = "R";
  r_config.tuple_count = 400;
  r_config.record_bytes = c.record_bytes;
  r_config.keys = c.r_keys;
  r_config.key_domain = c.r_domain;
  r_config.zipf_theta = c.zipf_theta;
  r_config.seed = 101;
  rel::GeneratorConfig s_config;
  s_config.name = "S";
  s_config.tuple_count = 1500;
  s_config.record_bytes = c.record_bytes;
  s_config.keys = c.s_keys;
  s_config.key_domain = c.s_domain;
  s_config.zipf_theta = c.zipf_theta;
  s_config.seed = 202;
  return {GenerateBlocks(r_config), GenerateBlocks(s_config)};
}

/// Every (build level, probe level) combination must build the scalar
/// reference's table (records and distinct keys) and emit its pair set —
/// same match count, same order-independent checksum — on every workload
/// shape; in pipeline mode the match sequence itself must be identical.
TEST(FlatTableSimdTest, AllLevelCombinationsMatchScalarOnGeneratedWorkloads) {
  const simd::Level best = simd::BestSupportedLevel();
  for (const WorkloadCase& c : kWorkloads) {
    SCOPED_TRACE(c.name);
    auto [r, s] = Generate(c);
    for (bool pipeline : {false, true}) {
      SCOPED_TRACE(pipeline ? "pipeline" : "digests only");
      const ProbeResult reference =
          RunAtLevels(simd::Level::kScalar, simd::Level::kScalar, r, s, pipeline);
      EXPECT_GT(reference.table_size, 0u);
      EXPECT_GT(reference.tuples, 0u);
      EXPECT_EQ(reference.pairs.size(), pipeline ? reference.tuples : 0u);
      const std::pair<simd::Level, simd::Level> combos[] = {
          {best, best}, {simd::Level::kScalar, best}, {best, simd::Level::kScalar}};
      for (const auto& [build_level, probe_level] : combos) {
        SCOPED_TRACE(std::string(simd::LevelName(build_level)) + " build / " +
                     simd::LevelName(probe_level) + " probe");
        ExpectSameResult(RunAtLevels(build_level, probe_level, r, s, pipeline), reference);
      }
    }
  }
}

/// The pipelined path passes the digests the table already holds to
/// AddMatchWithRows instead of re-hashing both records: one table probed
/// with and without a sink must report the same (tuples, checksum), at
/// every level and on every workload shape.
TEST(FlatTableSimdTest, SinkDoesNotChangeTheOutputAggregates) {
  for (const WorkloadCase& c : kWorkloads) {
    SCOPED_TRACE(c.name);
    auto [r, s] = Generate(c);
    for (simd::Level level : {simd::Level::kScalar, simd::BestSupportedLevel()}) {
      SCOPED_TRACE(simd::LevelName(level));
      simd::SetLevelForTest(level);
      FlatJoinTable table(&r.relation.schema, 0, /*build_is_r=*/true,
                          /*capture_records=*/true);
      ASSERT_TRUE(table.AddBlocks(r.blocks).ok());
      JoinOutput plain;
      ASSERT_TRUE(table.Probe(s.blocks, &s.relation.schema, 0, &plain).ok());
      std::uint64_t delivered = 0;
      JoinOutput piped;
      piped.set_sink([&delivered](const rel::Tuple&, const rel::Tuple&) {
        ++delivered;
        return Status::OK();
      });
      ASSERT_TRUE(table.Probe(s.blocks, &s.relation.schema, 0, &piped).ok());
      simd::ResetLevelForTest();
      EXPECT_GT(plain.tuples(), 0u);
      EXPECT_EQ(piped.tuples(), plain.tuples());
      EXPECT_EQ(piped.checksum(), plain.checksum());
      EXPECT_EQ(delivered, plain.tuples());
    }
  }
}

/// One slot per distinct key: 2^16 copies of one key occupy a single slot,
/// and a probe of that key meets all of them, in insertion order, under
/// both kernels.
TEST(FlatTableSimdTest, HotKeyCopiesShareOneSlot) {
  constexpr std::uint64_t kCopies = 1u << 16;
  rel::Schema schema = rel::Schema::KeyPayload(16);
  std::vector<BlockPayload> build;
  rel::BlockBuilder builder(&schema, kBlock);
  rel::TupleBuilder tuple(&schema);
  std::vector<std::uint64_t> build_digests;
  for (std::uint64_t i = 0; i < kCopies; ++i) {
    if (builder.full()) build.push_back(builder.Finish());
    tuple.SetInt64(0, 7).SetFixedChar(1, std::to_string(i));
    build_digests.push_back(HashBytes(tuple.bytes()));
    ASSERT_TRUE(builder.Append(tuple.bytes()).ok());
  }
  build.push_back(builder.Finish());
  rel::BlockBuilder probe_builder(&schema, kBlock);
  ASSERT_TRUE(probe_builder.Append(tuple.SetInt64(0, 7).bytes()).ok());
  ASSERT_TRUE(probe_builder.Append(tuple.SetInt64(0, 8).bytes()).ok());
  const std::vector<BlockPayload> probe = {probe_builder.Finish()};

  for (simd::Level level : {simd::Level::kScalar, simd::BestSupportedLevel()}) {
    SCOPED_TRACE(simd::LevelName(level));
    simd::SetLevelForTest(level);
    FlatJoinTable table(&schema, 0, /*build_is_r=*/true, /*capture_records=*/true);
    ASSERT_TRUE(table.AddBlocks(build).ok());
    EXPECT_EQ(table.size(), kCopies);
    EXPECT_EQ(table.distinct_keys(), 1u);
    std::vector<std::uint64_t> met;
    JoinOutput out;
    out.set_sink([&met](const rel::Tuple& rt, const rel::Tuple&) {
      met.push_back(HashBytes(rt.bytes()));
      return Status::OK();
    });
    ASSERT_TRUE(table.Probe(probe, &schema, 0, &out).ok());
    simd::ResetLevelForTest();
    EXPECT_EQ(out.tuples(), kCopies);
    EXPECT_TRUE(met == build_digests) << "chain is not in insertion order";
  }
}

/// A degenerate injected hash maps every key to one of two digests, so the
/// batched walk sees digest matches whose keys differ in nearly every group
/// — the key-compare rejection path — and chains that are one long collision
/// cluster. Both kernels must agree with each other and reject every
/// unequal-key digest collision.
std::uint64_t TwoValuedKeyHash(std::int64_t key) {
  return (key & 1) != 0 ? 42u : 7777u;
}

TEST(FlatTableSimdTest, SeededDigestCollisionsAgreeWithScalar) {
  const simd::Level best = simd::BestSupportedLevel();
  const WorkloadCase& c = kWorkloads[1];  // many-to-many: duplicates on both sides
  auto [r, s] = Generate(c);
  const ProbeResult reference = RunAtLevels(simd::Level::kScalar, simd::Level::kScalar, r, s,
                                            /*pipeline=*/true, &TwoValuedKeyHash);
  ExpectSameResult(RunAtLevels(best, best, r, s, /*pipeline=*/true, &TwoValuedKeyHash),
                   reference);
  // The injected hash changes placement, never the output: each probe
  // record meets its key's records in insertion order, so the production
  // hash must emit the identical match sequence.
  ExpectSameResult(RunAtLevels(best, best, r, s, /*pipeline=*/true), reference);
}

/// Pipeline (record-capturing) mode: both kernels must hand the sink the
/// same joined-row multiset. Order is explicitly method-dependent, so the
/// comparison sorts the serialized rows.
TEST(FlatTableSimdTest, PipelineModeDeliversTheSameRowMultiset) {
  const WorkloadCase& c = kWorkloads[0];
  auto [r, s] = Generate(c);
  auto collect = [&](simd::Level level) {
    simd::SetLevelForTest(level);
    FlatJoinTable table(&r.relation.schema, 0, /*build_is_r=*/true, /*capture_records=*/true);
    TERTIO_CHECK(table.AddBlocks(r.blocks).ok(), "build failed");
    std::vector<std::string> rows;
    JoinOutput out;
    out.set_sink([&rows](const rel::Tuple& rt, const rel::Tuple& st) {
      std::string row(rt.bytes().begin(), rt.bytes().end());
      row.append(st.bytes().begin(), st.bytes().end());
      rows.push_back(std::move(row));
      return Status::OK();
    });
    TERTIO_CHECK(table.Probe(s.blocks, &s.relation.schema, 0, &out).ok(), "probe failed");
    simd::ResetLevelForTest();
    std::sort(rows.begin(), rows.end());
    return rows;
  };
  const std::vector<std::string> scalar_rows = collect(simd::Level::kScalar);
  const std::vector<std::string> simd_rows = collect(simd::BestSupportedLevel());
  EXPECT_FALSE(scalar_rows.empty());
  EXPECT_EQ(scalar_rows, simd_rows);
}

/// Clear() must reset the Bloom prefilter along with the slots: a cleared
/// and rebuilt table probed under SIMD must find the new entries (no false
/// negatives) and the aggregates must match a fresh scalar run.
TEST(FlatTableSimdTest, ClearResetsThePrefilter) {
  const WorkloadCase& c = kWorkloads[3];  // selective: the filter actually rejects
  auto [r, s] = Generate(c);
  simd::SetLevelForTest(simd::BestSupportedLevel());
  FlatJoinTable table(&r.relation.schema, 0, /*build_is_r=*/true);
  ASSERT_TRUE(table.AddBlocks(r.blocks).ok());
  table.Clear();
  EXPECT_EQ(table.size(), 0u);
  ASSERT_TRUE(table.AddBlocks(r.blocks).ok());
  JoinOutput out;
  ASSERT_TRUE(table.Probe(s.blocks, &s.relation.schema, 0, &out).ok());
  simd::ResetLevelForTest();
  const ProbeResult reference =
      RunAtLevels(simd::Level::kScalar, simd::Level::kScalar, r, s);
  EXPECT_EQ(out.tuples(), reference.tuples);
  EXPECT_EQ(out.checksum(), reference.checksum);
}

/// One block of 16-byte KeyPayload records with keys first, first + 1, ...
/// (`count` of them; 0 gives an empty block).
BlockPayload BlockOfKeys(const rel::Schema& schema, std::int64_t first, std::uint64_t count) {
  rel::BlockBuilder builder(&schema, kBlock);
  rel::TupleBuilder tuple(&schema);
  for (std::uint64_t i = 0; i < count; ++i) {
    tuple.SetInt64(0, first + static_cast<std::int64_t>(i)).SetFixedChar(1, std::to_string(i));
    TERTIO_CHECK(builder.Append(tuple.bytes()).ok(), "block overflow");
  }
  return builder.Finish();
}

GeneratedBlocks BlocksOf(const rel::Schema& schema, std::vector<BlockPayload> blocks) {
  GeneratedBlocks g;
  g.relation.schema = schema;
  g.blocks = std::move(blocks);
  return g;
}

/// Keys below 10^6 digest to values under 2^32, whose four Bloom bits are
/// all bit 0 of filter word 0; keys from 10^6 on digest with bit 38 set, so
/// each needs bit 1 as well, which no key below 10^6 sets. A table over the
/// small keys therefore rejects every large probe key at the filter.
std::uint64_t FilterSplitKeyHash(std::int64_t key) {
  const auto k = static_cast<std::uint64_t>(key);
  return key < 1000000 ? k + 1 : k | (1ull << 38);
}

/// Blocks at the edges of the batched probe's passes — an empty block
/// between full ones, a block of 511 records that all pass the Bloom
/// filter, and one whose every record the filter rejects — give the scalar
/// reference's pairs in its order.
TEST(FlatTableSimdTest, EdgeBlocksMatchScalar) {
  const rel::Schema schema = rel::Schema::KeyPayload(16);
  const GeneratedBlocks r =
      BlocksOf(schema, {BlockOfKeys(schema, 0, 511), BlockOfKeys(schema, 511, 489)});
  struct EdgeCase {
    const char* name;
    GeneratedBlocks s;
    std::uint64_t tuples;
    KeyHashFn key_hash;
  };
  const EdgeCase cases[] = {
      {"empty blocks around a block across batches",
       BlocksOf(schema, {BlockOfKeys(schema, 0, 0), BlockOfKeys(schema, 500, 300),
                         BlockOfKeys(schema, 0, 0)}),
       300, nullptr},
      {"every record passes the filter", BlocksOf(schema, {BlockOfKeys(schema, 0, 511)}), 511,
       nullptr},
      {"no record passes the filter", BlocksOf(schema, {BlockOfKeys(schema, 1000000, 511)}), 0,
       &FilterSplitKeyHash},
  };
  for (const EdgeCase& c : cases) {
    SCOPED_TRACE(c.name);
    const ProbeResult reference = RunAtLevels(simd::Level::kScalar, simd::Level::kScalar, r, c.s,
                                              /*pipeline=*/true, c.key_hash);
    EXPECT_EQ(reference.tuples, c.tuples);
    const simd::Level best = simd::BestSupportedLevel();
    ExpectSameResult(RunAtLevels(best, best, r, c.s, /*pipeline=*/true, c.key_hash), reference);
  }
}

/// A header whose record count the payload cannot hold is rejected by
/// BlockReader::Open in both kernels: it is the batched kernel's only
/// bounds guard, since that kernel addresses record i at base + i * width.
TEST(FlatTableSimdTest, AHeaderCountPastThePayloadIsInvalidArgument) {
  const rel::Schema schema = rel::Schema::KeyPayload(16);
  FlatJoinTable table(&schema, 0, /*build_is_r=*/true);
  ASSERT_TRUE(table.AddBlocks(std::vector<BlockPayload>{BlockOfKeys(schema, 0, 100)}).ok());
  std::vector<std::uint8_t> bytes = *BlockOfKeys(schema, 0, 511);
  const std::uint32_t count = 512;  // one record past what 8 KiB holds
  std::memcpy(bytes.data() + sizeof(std::uint32_t), &count, sizeof(count));
  const std::vector<BlockPayload> probe = {MakePayload(std::move(bytes))};
  for (simd::Level level : {simd::Level::kScalar, simd::BestSupportedLevel()}) {
    SCOPED_TRACE(simd::LevelName(level));
    simd::SetLevelForTest(level);
    JoinOutput out;
    EXPECT_EQ(table.Probe(probe, &schema, 0, &out).code(), StatusCode::kInvalidArgument);
    DecodedColumnStore store;
    EXPECT_EQ(table.Probe(probe, &schema, 0, &out, &store).code(),
              StatusCode::kInvalidArgument);
    simd::ResetLevelForTest();
    EXPECT_EQ(out.tuples(), 0u);
  }
}

/// Probes `s` through one table over `r` at the best level, `passes` times,
/// logging the match sequence. With a store, the first pass delivers all
/// blocks in one call and later ones a block at a time, at the block's
/// index, as a scan in one-block chunks would.
ProbeResult ProbePasses(const GeneratedBlocks& r, const GeneratedBlocks& s, int passes,
                        DecodedColumnStore* store, KeyHashFn key_hash = nullptr) {
  simd::SetLevelForTest(simd::BestSupportedLevel());
  FlatJoinTable table(&r.relation.schema, 0, /*build_is_r=*/true, /*capture_records=*/true,
                      key_hash);
  TERTIO_CHECK(table.AddBlocks(r.blocks).ok(), "build failed");
  ProbeResult result;
  JoinOutput out;
  out.set_sink([&result](const rel::Tuple& rt, const rel::Tuple& st) {
    result.pairs.emplace_back(HashBytes(rt.bytes()), HashBytes(st.bytes()));
    return Status::OK();
  });
  for (int pass = 0; pass < passes; ++pass) {
    if (pass == 0 || store == nullptr) {
      TERTIO_CHECK(table.Probe(s.blocks, &s.relation.schema, 0, &out, store).ok(),
                   "probe failed");
      continue;
    }
    for (std::size_t i = 0; i < s.blocks.size(); ++i) {
      TERTIO_CHECK(table.Probe(std::span<const BlockPayload>(&s.blocks[i], 1),
                               &s.relation.schema, 0, &out, store, i)
                       .ok(),
                   "probe failed");
    }
  }
  simd::ResetLevelForTest();
  result.tuples = out.tuples();
  result.checksum = out.checksum();
  result.table_size = table.size();
  result.distinct_keys = table.distinct_keys();
  return result;
}

/// A second pass through a store probes the columns the first one decoded:
/// on every workload shape it gives the tuples, checksum and sink sequence
/// of two probes without one, and the store holds one entry per block.
TEST(DecodedColumnStoreTest, TwoPassesThroughOneStoreEqualTwoFreshProbes) {
  for (const WorkloadCase& c : kWorkloads) {
    SCOPED_TRACE(c.name);
    auto [r, s] = Generate(c);
    const ProbeResult fresh = ProbePasses(r, s, 2, nullptr);
    EXPECT_EQ(fresh.pairs.size(), fresh.tuples);
    DecodedColumnStore store;
    ExpectSameResult(ProbePasses(r, s, 2, &store), fresh);
    // Only the batched kernel reads and fills the store.
    const bool batched = simd::BestSupportedLevel() != simd::Level::kScalar;
    EXPECT_EQ(store.size(), batched ? s.blocks.size() : 0u);
  }
}

/// An entry serves only the payload object it was decoded from: other
/// payloads at the same indices, under the same schema object, and a table
/// with another key hash are decoded again and probe exactly as without a
/// store.
TEST(DecodedColumnStoreTest, AnotherPayloadAtAStoredIndexIsDecodedAgain) {
  const WorkloadCase& c = kWorkloads[1];  // many-to-many
  auto [r, s] = Generate(c);
  WorkloadCase other = c;
  other.s_domain = 60;  // other keys, same block count
  std::vector<BlockPayload> other_blocks = Generate(other).second.blocks;
  ASSERT_EQ(other_blocks.size(), s.blocks.size());
  DecodedColumnStore store;
  const ProbeResult first = ProbePasses(r, s, 1, nullptr);
  ExpectSameResult(ProbePasses(r, s, 1, &store), first);
  s.blocks = std::move(other_blocks);
  const ProbeResult fresh = ProbePasses(r, s, 1, nullptr);
  EXPECT_NE(fresh.checksum, first.checksum);
  ExpectSameResult(ProbePasses(r, s, 1, &store), fresh);
  ExpectSameResult(ProbePasses(r, s, 1, &store, &TwoValuedKeyHash),
                   ProbePasses(r, s, 1, nullptr, &TwoValuedKeyHash));
}

/// Dispatch plumbing: the test hooks clamp to the best supported level, and
/// the scalar fallback is always selectable.
TEST(FlatTableSimdTest, LevelDispatchIsClampedAndResettable) {
  const simd::Level best = simd::BestSupportedLevel();
  simd::SetLevelForTest(simd::Level::kScalar);
  EXPECT_EQ(simd::ActiveLevel(), simd::Level::kScalar);
  simd::SetLevelForTest(best);
  EXPECT_EQ(simd::ActiveLevel(), best);
#if defined(TERTIO_SIMD_SSE2) || defined(TERTIO_SIMD_NEON)
  EXPECT_NE(best, simd::Level::kScalar);
#else
  EXPECT_EQ(best, simd::Level::kScalar);
#endif
  simd::ResetLevelForTest();
}

}  // namespace
}  // namespace tertio::join
