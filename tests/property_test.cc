// Property-style sweeps (parameterized gtest): conservation and resource
// invariants that must hold for every method across a grid of geometries,
// verified on real data against the reference join.

#include <gtest/gtest.h>

#include <cmath>

#include "exec/experiment.h"
#include "join/join_method.h"
#include "join/reference_join.h"
#include "relation/generator.h"
#include "whole_site.h"

namespace tertio::join {
namespace {

constexpr ByteCount kBlock = 1024;

struct Geometry {
  uint64_t r_tuples;
  uint64_t s_tuples;
  BlockCount memory_blocks;
  BlockCount disk_blocks;
};

// Three regimes: comfortable, memory-tight, disk-tight (tape-tape only for
// the disk-tight one — disk-tape methods are expected to refuse it).
const Geometry kGeometries[] = {
    {300, 1500, 24, 96},   // comfortable
    {600, 1800, 14, 128},  // memory-tight
    {600, 1800, 20, 40},   // disk-tight: D < |R| = 60 blocks
};

using Param = std::tuple<JoinMethodId, int>;

class PropertyTest : public ::testing::TestWithParam<Param> {
 public:
  static std::string Name(const ::testing::TestParamInfo<Param>& info) {
    std::string name(JoinMethodName(std::get<0>(info.param)));
    for (char& c : name) {
      if (c == '-' || c == '/') c = '_';
    }
    return name + "_geo" + std::to_string(std::get<1>(info.param));
  }
};

TEST_P(PropertyTest, InvariantsAndCorrectness) {
  auto [method_id, geo_index] = GetParam();
  const Geometry& geo = kGeometries[geo_index];

  exec::SiteConfig config;
  config.block_bytes = kBlock;
  config.memory_bytes = geo.memory_blocks * kBlock;
  config.disk_space_bytes = geo.disk_blocks * kBlock;
  config.stripe_unit = 4;
  exec::Site site(config);
  std::unique_ptr<exec::QuerySession> session = test::WholeSiteSession(site);

  rel::GeneratorConfig r_config;
  r_config.name = "R";
  r_config.tuple_count = geo.r_tuples;
  r_config.keys = rel::KeySequence::kSequentialUnique;
  r_config.seed = 101 + geo_index;
  rel::GeneratorConfig s_config;
  s_config.name = "S";
  s_config.tuple_count = geo.s_tuples;
  s_config.keys = rel::KeySequence::kForeignKeyUniform;
  s_config.key_domain = geo.r_tuples;
  s_config.seed = 202 + geo_index;
  auto prepared = exec::PrepareWorkload(session.get(), r_config, s_config);
  ASSERT_TRUE(prepared.ok()) << prepared.status();

  JoinSpec spec;
  spec.r = &prepared->r;
  spec.s = &prepared->s;
  auto executor = CreateJoinMethod(method_id);
  JoinContext ctx = session->context();

  auto requirements = executor->Requirements(spec, ctx);
  auto stats = executor->Execute(spec, ctx);
  if (!stats.ok()) {
    // A method may refuse a geometry, but then it must be a resource error
    // and (when requirements are computable) the requirements must exceed
    // the site.
    EXPECT_EQ(stats.status().code(), StatusCode::kResourceExhausted) << stats.status();
    if (requirements.ok()) {
      EXPECT_TRUE(requirements->memory_blocks > site.memory_blocks() ||
                  requirements->disk_blocks > site.disk_blocks())
          << "refused although requirements fit: " << stats.status();
    }
    return;
  }

  // --- Correctness: identical pair set to the reference join.
  auto reference = ReferenceJoin(*spec.r, *spec.s, 0, 0);
  ASSERT_TRUE(reference.ok());
  EXPECT_EQ(stats->output_tuples, reference->tuples());
  EXPECT_EQ(stats->output_checksum, reference->checksum());

  // --- Conservation: both relations are read in full from tape at least
  // once; R is read exactly r_scans times from *some* medium.
  EXPECT_GE(stats->tape_blocks_read, spec.r->blocks + spec.s->blocks);

  // --- Resource ceilings: never exceed the configured M and D.
  EXPECT_LE(stats->peak_memory_blocks, site.memory_blocks());
  EXPECT_LE(stats->peak_disk_blocks, site.disk_blocks());

  // --- Timing: steps sum to the response; all durations non-negative.
  EXPECT_GE(stats->step1_seconds, 0.0);
  EXPECT_GE(stats->step2_seconds, 0.0);
  EXPECT_NEAR((stats->step1_seconds + stats->step2_seconds).value(), ((stats->response_seconds)).value(),
              stats->response_seconds.value() * 0.05 + 1e-9);

  // --- Device accounting: traffic implies busy time; response is at least
  // the busiest device's busy time and at most the sum of all busy times
  // plus idle gaps (sanity bound: sum of device busy).
  double busiest = 0.0;
  double total_busy = 0.0;
  for (const auto& resource : site.sim().resources()) {
    busiest = std::max(busiest, resource->stats().busy_seconds.value());
    total_busy += resource->stats().busy_seconds.value();
  }
  EXPECT_GE(stats->response_seconds, busiest * 0.999);
  EXPECT_LE(stats->response_seconds, total_busy * 1.001 + 1.0);

  // --- Cleanup: scratch space restored.
  EXPECT_EQ(session->memory().reserved_blocks(), 0u);
  EXPECT_EQ(session->disks().allocator().used_blocks(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    MethodsByGeometry, PropertyTest,
    ::testing::Combine(::testing::ValuesIn(kAllJoinMethods), ::testing::Values(0, 1, 2)),
    PropertyTest::Name);

/// Checksum is permutation-independent: two methods joining the same inputs
/// through entirely different physical plans agree bit-for-bit.
TEST(ChecksumPropertyTest, AllFeasibleMethodsAgreePairwise) {
  exec::SiteConfig config;
  config.block_bytes = kBlock;
  config.memory_bytes = 24 * kBlock;
  config.disk_space_bytes = 96 * kBlock;
  config.stripe_unit = 4;

  std::uint64_t checksum = 0;
  std::uint64_t tuples = 0;
  bool first = true;
  for (JoinMethodId method_id : kAllJoinMethods) {
    exec::Site site(config);
    std::unique_ptr<exec::QuerySession> session = test::WholeSiteSession(site);
    rel::GeneratorConfig r_config;
    r_config.tuple_count = 400;
    r_config.keys = rel::KeySequence::kUniformRandom;
    r_config.key_domain = 90;
    r_config.seed = 7;
    rel::GeneratorConfig s_config;
    s_config.tuple_count = 1300;
    s_config.keys = rel::KeySequence::kUniformRandom;
    s_config.key_domain = 90;
    s_config.seed = 8;
    auto prepared = exec::PrepareWorkload(session.get(), r_config, s_config);
    ASSERT_TRUE(prepared.ok()) << prepared.status();
    JoinSpec spec;
    spec.r = &prepared->r;
    spec.s = &prepared->s;
    JoinContext ctx = session->context();
    auto stats = CreateJoinMethod(method_id)->Execute(spec, ctx);
    ASSERT_TRUE(stats.ok()) << JoinMethodName(method_id) << ": " << stats.status();
    if (first) {
      checksum = stats->output_checksum;
      tuples = stats->output_tuples;
      first = false;
    } else {
      EXPECT_EQ(stats->output_checksum, checksum) << JoinMethodName(method_id);
      EXPECT_EQ(stats->output_tuples, tuples) << JoinMethodName(method_id);
    }
  }
}

}  // namespace
}  // namespace tertio::join
