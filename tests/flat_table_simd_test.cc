// Forced-scalar vs SIMD FlatJoinTable equivalence (join/simd.h dispatch).
//
// The batched kernels (Bloom-prefiltered two-stage pipeline + group-of-four
// digest compares) must build the same table as the original scalar loops
// and emit exactly the same match sequence on every workload shape:
// uniform, foreign-key, Zipf-skewed on either side, all-one-key, and
// selective (miss-heavy) key distributions, wide records, seeded digest
// collisions, and the record-capturing pipeline mode. Build and probe modes
// are also crossed (scalar build + SIMD probe and vice versa): the Bloom
// filter is table state maintained by every insert path, so a mode switch
// between build and probe must not lose matches.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
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
