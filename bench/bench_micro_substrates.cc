/// \file bench_micro_substrates.cc
/// google-benchmark microbenchmarks of the substrate hot paths: block codec,
/// key hashing, hash partitioning, the disk allocator, resource scheduling,
/// and the join table build/probe paths (flat open-addressing table vs the
/// seed's multimap, kept as LegacyMultimapJoinTable for comparison). These
/// bound how fast paper-scale simulations run.
///
/// After the google-benchmark run, main() times a fixed build+probe workload
/// on both table substrates, the scalar-vs-SIMD probe sweep, an NB-shaped
/// re-scan with and without a DecodedColumnStore and the closed-form commit,
/// and prints them in its record (bench_util.h).

#include <benchmark/benchmark.h>

#include <chrono>
#include <iterator>
#include <optional>
#include <string>

#include "bench/bench_util.h"
#include "disk/allocator.h"
#include "disk/striped_group.h"
#include "hash/disk_partitioner.h"
#include "hash/hasher.h"
#include "join/flat_table.h"
#include "join/join_output.h"
#include "join/legacy_table.h"
#include "join/simd.h"
#include "relation/block.h"
#include "relation/generator.h"
#include "relation/tuple.h"
#include "sim/auditor.h"
#include "sim/pipeline.h"
#include "sim/resource.h"
#include "sim/simulation.h"
#include "tape/tape_drive.h"
#include "tape/tape_volume.h"

namespace tertio {
namespace {

constexpr ByteCount kBlock = 8 * kKiB;

/// Materialized build/probe workload for the join-table benches: R is
/// sequential-unique (the canonical build side), S draws foreign keys over
/// R's domain, so every probe tuple matches exactly one build tuple.
///
/// Records are narrow (16 bytes) and the table is far larger than L2, so
/// the measurement isolates the table substrate — slot placement and the
/// dependent cache miss per tuple — rather than record decoding.
struct TableWorkload {
  rel::Schema schema;
  std::uint64_t build_tuples = 0;
  std::uint64_t probe_tuples = 0;
  std::vector<BlockPayload> build_blocks;
  std::vector<BlockPayload> probe_blocks;
};

std::vector<BlockPayload> ReadAll(tape::TapeVolume* tape) {
  std::vector<BlockPayload> blocks;
  for (BlockIndex i = 0; i < tape->size_blocks(); ++i) {
    blocks.push_back(tape->ReadBlock(i).value());
  }
  return blocks;
}

const TableWorkload& JoinTableWorkload() {
  static const TableWorkload workload = [] {
    TableWorkload w;
    w.build_tuples = 1u << 20;
    w.probe_tuples = 1u << 21;
    tape::TapeVolume r_tape("r", kBlock);
    rel::GeneratorConfig r_config;
    r_config.name = "R";
    r_config.record_bytes = 16;
    r_config.tuple_count = w.build_tuples;
    // Uniform keys, not sequential: std::hash<int64> is the identity, so a
    // 0..N build side would hand the multimap artificially perfect bucket
    // locality that no real R exhibits.
    r_config.keys = rel::KeySequence::kUniformRandom;
    r_config.key_domain = 4 * w.build_tuples;
    auto r = rel::GenerateOnTape(r_config, &r_tape);
    TERTIO_CHECK(r.ok(), "R generation failed");
    w.schema = r->schema;
    w.build_blocks = ReadAll(&r_tape);
    tape::TapeVolume s_tape("s", kBlock);
    rel::GeneratorConfig s_config;
    s_config.name = "S";
    s_config.record_bytes = 16;
    s_config.tuple_count = w.probe_tuples;
    s_config.keys = rel::KeySequence::kForeignKeyUniform;
    s_config.key_domain = 4 * w.build_tuples;
    s_config.seed = 17;
    auto s = rel::GenerateOnTape(s_config, &s_tape);
    TERTIO_CHECK(s.ok(), "S generation failed");
    w.probe_blocks = ReadAll(&s_tape);
    return w;
  }();
  return workload;
}

// ---- Scalar-vs-SIMD probe sweep --------------------------------------------

/// One point of the probe sweep: key distribution, record width, and probe
/// selectivity (probe keys draw from `domain_multiplier * build_tuples`, so
/// larger multipliers mean more probes that miss the table — the regime the
/// Bloom prefilter accelerates by skipping the slot walk entirely).
struct ProbeSweepCase {
  const char* name;
  std::uint64_t build_tuples;
  std::uint64_t probe_tuples;
  ByteCount record_bytes;
  rel::KeySequence s_keys;
  std::uint64_t domain_multiplier;
};

/// The sweep grid: the fk-uniform headline (matching JoinTableWorkload's
/// shape), Zipf(1) skew, two miss-heavy selectivities at 16-byte records,
/// and the 64/256-byte wide-record points (smaller cardinalities keep the
/// byte volume comparable).
constexpr ProbeSweepCase kProbeSweep[] = {
    {"fk_uniform_16b", 1u << 20, 1u << 21, 16, rel::KeySequence::kForeignKeyUniform, 4},
    {"zipf_16b", 1u << 20, 1u << 21, 16, rel::KeySequence::kZipf, 4},
    {"selective_16b", 1u << 20, 1u << 21, 16, rel::KeySequence::kUniformRandom, 32},
    {"very_selective_16b", 1u << 20, 1u << 21, 16, rel::KeySequence::kUniformRandom, 256},
    {"fk_uniform_64b", 1u << 18, 1u << 19, 64, rel::KeySequence::kForeignKeyUniform, 4},
    {"fk_uniform_256b", 1u << 16, 1u << 17, 256, rel::KeySequence::kForeignKeyUniform, 4},
};
constexpr int kProbeSweepSize = static_cast<int>(std::size(kProbeSweep));

/// Lazily generated and cached blocks for one sweep case (generation runs
/// once per case, shared by the registered benches and the main() metrics).
const TableWorkload& ProbeSweepWorkload(int index) {
  static std::optional<TableWorkload> cache[kProbeSweepSize];
  std::optional<TableWorkload>& slot = cache[index];
  if (!slot.has_value()) {
    const ProbeSweepCase& c = kProbeSweep[index];
    TableWorkload w;
    w.build_tuples = c.build_tuples;
    w.probe_tuples = c.probe_tuples;
    tape::TapeVolume r_tape("r", kBlock);
    rel::GeneratorConfig r_config;
    r_config.name = "R";
    r_config.record_bytes = c.record_bytes;
    r_config.tuple_count = c.build_tuples;
    r_config.keys = rel::KeySequence::kUniformRandom;
    r_config.key_domain = 4 * c.build_tuples;
    auto r = rel::GenerateOnTape(r_config, &r_tape);
    TERTIO_CHECK(r.ok(), "R generation failed");
    w.schema = r->schema;
    w.build_blocks = ReadAll(&r_tape);
    tape::TapeVolume s_tape("s", kBlock);
    rel::GeneratorConfig s_config;
    s_config.name = "S";
    s_config.record_bytes = c.record_bytes;
    s_config.tuple_count = c.probe_tuples;
    s_config.keys = c.s_keys;
    s_config.key_domain = c.domain_multiplier * c.build_tuples;
    s_config.seed = 17;
    auto s = rel::GenerateOnTape(s_config, &s_tape);
    TERTIO_CHECK(s.ok(), "S generation failed");
    w.probe_blocks = ReadAll(&s_tape);
    slot = std::move(w);
  }
  return *slot;
}

struct ProbeModeResult {
  double seconds = 0.0;  ///< best-of-reps wall-clock of one probe pass
  std::uint64_t tuples = 0;
  std::uint64_t checksum = 0;
};

/// Builds once and times `reps` probe passes under `level`, keeping the
/// best. Build and probe both run at `level`; the dispatch level is restored
/// before returning.
ProbeModeResult TimedProbe(const TableWorkload& w, join::simd::Level level, int reps) {
  join::simd::SetLevelForTest(level);
  join::FlatJoinTable table(&w.schema, 0, /*build_is_r=*/true);
  TERTIO_CHECK(table.AddBlocks(w.build_blocks).ok(), "build failed");
  ProbeModeResult best;
  best.seconds = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < reps; ++rep) {
    join::JoinOutput out;
    auto start = std::chrono::steady_clock::now();
    TERTIO_CHECK(table.Probe(w.probe_blocks, &w.schema, 0, &out).ok(), "probe failed");
    double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
    if (seconds < best.seconds) best.seconds = seconds;
    best.tuples = out.tuples();
    best.checksum = out.checksum();
  }
  join::simd::ResetLevelForTest();
  return best;
}

// ---- NB-shaped re-scan through a DecodedColumnStore -------------------------

/// NB Step II in miniature: R (8 MB of 100-byte tuples, unique keys — the
/// full_data_skew size) is the probe side, a 1 MB chunk of S with foreign
/// keys into R's domain the build side, and R streams through one table
/// kRescanPasses times, as it streams once per S chunk.
constexpr int kRescanPasses = 8;

const TableWorkload& RescanWorkload() {
  static const TableWorkload workload = [] {
    TableWorkload w;
    const std::uint64_t per_block = rel::TuplesPerBlock(rel::Schema::KeyPayload(100), kBlock);
    w.probe_tuples = BytesToBlocks(8 * kMB, kBlock).value() * per_block;
    w.build_tuples = BytesToBlocks(1 * kMB, kBlock).value() * per_block;
    tape::TapeVolume r_tape("r", kBlock);
    rel::GeneratorConfig r_config;
    r_config.name = "R";
    r_config.tuple_count = w.probe_tuples;
    auto r = rel::GenerateOnTape(r_config, &r_tape);
    TERTIO_CHECK(r.ok(), "R generation failed");
    w.schema = r->schema;
    w.probe_blocks = ReadAll(&r_tape);
    tape::TapeVolume s_tape("s", kBlock);
    rel::GeneratorConfig s_config;
    s_config.name = "S";
    s_config.tuple_count = w.build_tuples;
    s_config.keys = rel::KeySequence::kForeignKeyUniform;
    s_config.key_domain = w.probe_tuples;
    s_config.seed = 17;
    auto s = rel::GenerateOnTape(s_config, &s_tape);
    TERTIO_CHECK(s.ok(), "S generation failed");
    w.build_blocks = ReadAll(&s_tape);
    return w;
  }();
  return workload;
}

/// Builds one table over the S chunk and times kRescanPasses probes of R
/// through it, keeping the best of `reps`; with `use_store` the passes go
/// through one DecodedColumnStore, fresh for every rep, so each rep's first
/// pass decodes.
ProbeModeResult TimedRescan(const TableWorkload& w, bool use_store, int reps) {
  join::FlatJoinTable table(&w.schema, 0, /*build_is_r=*/false);
  TERTIO_CHECK(table.AddBlocks(w.build_blocks).ok(), "build failed");
  ProbeModeResult best;
  best.seconds = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < reps; ++rep) {
    join::JoinOutput out;
    join::DecodedColumnStore store;
    auto start = std::chrono::steady_clock::now();
    for (int pass = 0; pass < kRescanPasses; ++pass) {
      TERTIO_CHECK(table.Probe(w.probe_blocks, &w.schema, 0, &out, use_store ? &store : nullptr)
                       .ok(),
                   "probe failed");
    }
    double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
    if (seconds < best.seconds) best.seconds = seconds;
    best.tuples = out.tuples();
    best.checksum = out.checksum();
  }
  return best;
}

void BM_FlatTableProbeSweep(benchmark::State& state) {
  const int index = static_cast<int>(state.range(0));
  const TableWorkload& w = ProbeSweepWorkload(index);
  const join::simd::Level level =
      state.range(1) != 0 ? join::simd::BestSupportedLevel() : join::simd::Level::kScalar;
  join::simd::SetLevelForTest(level);
  join::FlatJoinTable table(&w.schema, 0, /*build_is_r=*/true);
  TERTIO_CHECK(table.AddBlocks(w.build_blocks).ok(), "build failed");
  for (auto _ : state) {
    join::JoinOutput out;
    TERTIO_CHECK(table.Probe(w.probe_blocks, &w.schema, 0, &out).ok(), "probe failed");
    benchmark::DoNotOptimize(out.checksum());
  }
  join::simd::ResetLevelForTest();
  state.SetLabel(kProbeSweep[index].name);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * w.probe_tuples));
}
BENCHMARK(BM_FlatTableProbeSweep)
    ->ArgsProduct({benchmark::CreateDenseRange(0, kProbeSweepSize - 1, 1), {0, 1}})
    ->ArgNames({"case", "simd"})
    ->Unit(benchmark::kMillisecond);

template <typename Table>
void JoinTableBuildBench(benchmark::State& state) {
  const TableWorkload& w = JoinTableWorkload();
  for (auto _ : state) {
    Table table(&w.schema, 0, /*build_is_r=*/true);
    TERTIO_CHECK(table.AddBlocks(w.build_blocks).ok(), "build failed");
    benchmark::DoNotOptimize(table.size());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * w.build_tuples));
}

template <typename Table>
void JoinTableProbeBench(benchmark::State& state) {
  const TableWorkload& w = JoinTableWorkload();
  Table table(&w.schema, 0, /*build_is_r=*/true);
  TERTIO_CHECK(table.AddBlocks(w.build_blocks).ok(), "build failed");
  for (auto _ : state) {
    join::JoinOutput out;
    TERTIO_CHECK(table.Probe(w.probe_blocks, &w.schema, 0, &out).ok(), "probe failed");
    benchmark::DoNotOptimize(out.checksum());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * w.probe_tuples));
}

void BM_FlatTableBuild(benchmark::State& state) {
  JoinTableBuildBench<join::FlatJoinTable>(state);
}
BENCHMARK(BM_FlatTableBuild)->Unit(benchmark::kMillisecond);

void BM_LegacyTableBuild(benchmark::State& state) {
  JoinTableBuildBench<join::LegacyMultimapJoinTable>(state);
}
BENCHMARK(BM_LegacyTableBuild)->Unit(benchmark::kMillisecond);

void BM_FlatTableProbe(benchmark::State& state) {
  JoinTableProbeBench<join::FlatJoinTable>(state);
}
BENCHMARK(BM_FlatTableProbe)->Unit(benchmark::kMillisecond);

void BM_LegacyTableProbe(benchmark::State& state) {
  JoinTableProbeBench<join::LegacyMultimapJoinTable>(state);
}
BENCHMARK(BM_LegacyTableProbe)->Unit(benchmark::kMillisecond);

void BM_BlockBuilderAppend(benchmark::State& state) {
  rel::Schema schema = rel::Schema::KeyPayload(100);
  rel::BlockBuilder builder(&schema, kBlock);
  rel::TupleBuilder tuple(&schema);
  tuple.SetInt64(0, 42).SetFixedChar(1, "payload");
  std::uint64_t tuples = 0;
  for (auto _ : state) {
    if (builder.full()) benchmark::DoNotOptimize(builder.Finish());
    TERTIO_CHECK(builder.Append(tuple.bytes()).ok(), "append failed");
    ++tuples;
  }
  state.SetItemsProcessed(static_cast<int64_t>(tuples));
  state.SetBytesProcessed(static_cast<int64_t>(tuples * schema.record_bytes().value()));
}
BENCHMARK(BM_BlockBuilderAppend);

void BM_BlockReaderScan(benchmark::State& state) {
  rel::Schema schema = rel::Schema::KeyPayload(100);
  rel::BlockBuilder builder(&schema, kBlock);
  rel::TupleBuilder tuple(&schema);
  while (!builder.full()) {
    tuple.SetInt64(0, static_cast<int64_t>(builder.record_count()));
    TERTIO_CHECK(builder.Append(tuple.bytes()).ok(), "append failed");
  }
  BlockPayload payload = builder.Finish();
  std::int64_t sum = 0;
  std::uint64_t tuples = 0;
  for (auto _ : state) {
    auto reader = rel::BlockReader::Open(payload, &schema);
    for (BlockCount i = 0; i < reader->record_count(); ++i) {
      sum += rel::Tuple(reader->record(i.value()), &schema).GetInt64(0);
      ++tuples;
    }
  }
  benchmark::DoNotOptimize(sum);
  state.SetItemsProcessed(static_cast<int64_t>(tuples));
}
BENCHMARK(BM_BlockReaderScan);

void BM_HashKeyAndBucket(benchmark::State& state) {
  std::uint64_t acc = 0;
  std::int64_t key = 0;
  for (auto _ : state) {
    acc += hash::BucketOf(key++, 317);
  }
  benchmark::DoNotOptimize(acc);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HashKeyAndBucket);

void BM_JoinOutputAddMatch(benchmark::State& state) {
  join::JoinOutput output;
  std::int64_t key = 0;
  for (auto _ : state) {
    output.AddMatch(key++, 0x1234, 0x5678);
  }
  benchmark::DoNotOptimize(output.checksum());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_JoinOutputAddMatch);

void BM_ResourceSchedule(benchmark::State& state) {
  sim::Resource resource("disk");
  SimSeconds ready = 0.0;
  for (auto _ : state) {
    ready = resource.Schedule(ready, 0.001, kBlock, "op").end;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ResourceSchedule);

void BM_AllocatorAllocFree(benchmark::State& state) {
  disk::DiskSpaceAllocator allocator({1 << 20, 1 << 20}, 32);
  for (auto _ : state) {
    auto extents = allocator.Allocate(64, 0.0, "bench");
    TERTIO_CHECK(extents.ok(), "alloc failed");
    TERTIO_CHECK(allocator.Free(*extents, 0.0, "bench").ok(), "free failed");
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AllocatorAllocFree);

void BM_PhantomPartitioner(benchmark::State& state) {
  // Throughput of timing-only partitioning — the inner loop of every
  // paper-scale Grace run.
  for (auto _ : state) {
    state.PauseTiming();
    sim::Simulation sim;
    disk::StripedDiskGroup group(
        disk::DiskGroupConfig::Uniform(2, disk::DiskModel::Ideal(1e9), 200000, kBlock, 32),
        &sim);
    hash::DiskPartitioner::Options options;
    options.bucket_count = 300;
    options.write_buffer_blocks = 3;
    hash::DiskPartitioner partitioner(&group, options);
    state.ResumeTiming();
    TERTIO_CHECK(partitioner.AddPhantomBlocks(100000, 0.0).ok(), "add failed");
    TERTIO_CHECK(partitioner.Flush().ok(), "flush failed");
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 100000);
}
BENCHMARK(BM_PhantomPartitioner)->Unit(benchmark::kMillisecond);

void BM_RealPartitioner(benchmark::State& state) {
  tape::TapeVolume tape("t", kBlock);
  rel::GeneratorConfig config;
  config.tuple_count = 50000;
  auto relation = rel::GenerateOnTape(config, &tape);
  TERTIO_CHECK(relation.ok(), "generation failed");
  std::vector<BlockPayload> blocks;
  for (BlockIndex i = 0; i < tape.size_blocks(); ++i) {
    blocks.push_back(tape.ReadBlock(i).value());
  }
  for (auto _ : state) {
    state.PauseTiming();
    sim::Simulation sim;
    disk::StripedDiskGroup group(
        disk::DiskGroupConfig::Uniform(2, disk::DiskModel::Ideal(1e9), 20000, kBlock, 32),
        &sim);
    hash::DiskPartitioner::Options options;
    options.schema = &relation->schema;
    options.bucket_count = 32;
    options.write_buffer_blocks = 4;
    hash::DiskPartitioner partitioner(&group, options);
    state.ResumeTiming();
    TERTIO_CHECK(partitioner.AddBlocks(blocks, 0.0).ok(), "add failed");
    TERTIO_CHECK(partitioner.Flush().ok(), "flush failed");
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 50000);
}
BENCHMARK(BM_RealPartitioner)->Unit(benchmark::kMillisecond);

void BM_SyntheticGeneration(benchmark::State& state) {
  for (auto _ : state) {
    tape::TapeVolume tape("t", kBlock);
    rel::GeneratorConfig config;
    config.tuple_count = 10000;
    benchmark::DoNotOptimize(rel::GenerateOnTape(config, &tape));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 10000);
}
BENCHMARK(BM_SyntheticGeneration)->Unit(benchmark::kMillisecond);

// ---- Pipeline transfer: closed form, plain and audited ---------------------

/// Blocks per chunk of the transfer benches (device requests per chunk).
constexpr BlockCount kTransferChunk = 8;

struct TransferTiming {
  double wall_seconds = 0.0;   ///< host wall-clock of the Transfer call
  SimSeconds done = 0.0;       ///< simulated completion (must match both runs)
  std::uint64_t ops = 0;       ///< device ops accounted (must match both runs)
};

/// Simulates one fault-free phantom tape->memory transfer of `chunks` chunks
/// and times the Transfer call itself (setup excluded). An `audited`
/// pipeline has an Auditor bound, whose cross-check re-derives every
/// closed-form window with the O(chunks) replay.
TransferTiming TimedTransfer(std::uint64_t chunks, bool audited) {
  sim::Simulation sim;
  tape::TapeVolume volume("t", kBlock);
  TERTIO_CHECK(volume.AppendPhantom(chunks * kTransferChunk, 0.25).ok(), "append failed");
  tape::TapeDrive drive("tape", tape::TapeDriveModel::DLT4000(), sim.CreateResource("tape"));
  TERTIO_CHECK(drive.Load(&volume, 0.0).ok(), "load failed");
  tape::TapeReadSource source(&drive, 0);
  sim::CollectSink sink(nullptr);
  sim::Auditor auditor;
  sim::Pipeline pipe(0.0, nullptr, audited ? &auditor : nullptr);
  sim::Pipeline::TransferPlan plan;
  plan.read_phase = "stage:tape-read";
  plan.write_phase = "stage:disk-write";
  plan.total = chunks * kTransferChunk;
  plan.chunk = kTransferChunk;
  TransferTiming timing;
  auto start = std::chrono::steady_clock::now();
  auto result = pipe.Transfer(plan, source, sink);
  timing.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  TERTIO_CHECK(result.ok(), "transfer failed");
  TERTIO_CHECK(auditor.clean(), auditor.TraceString());
  TERTIO_CHECK(!audited || auditor.checks_performed() > 0, "the auditor checked nothing");
  timing.done = result->done;
  timing.ops = drive.resource()->stats().op_count;
  return timing;
}

void BM_PipelineTransfer(benchmark::State& state) {
  const std::uint64_t chunks = static_cast<std::uint64_t>(state.range(0));
  const bool audited = state.range(1) != 0;
  for (auto _ : state) {
    TransferTiming timing = TimedTransfer(chunks, audited);
    // Count only the Transfer call: setup (volume append, drive load) is
    // excluded without PauseTiming's per-iteration overhead.
    state.SetIterationTime(timing.wall_seconds);
    benchmark::DoNotOptimize(timing.done);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(chunks));
}
BENCHMARK(BM_PipelineTransfer)
    ->ArgsProduct({{1 << 10, 1 << 12, 1 << 14}, {0, 1}})
    ->ArgNames({"chunks", "audited"})
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond);

/// Best-of-`reps` wall-clock seconds of one build+probe pass.
template <typename Table>
double TimedBuildProbeSeconds(int reps) {
  const TableWorkload& w = JoinTableWorkload();
  double best = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < reps; ++rep) {
    auto start = std::chrono::steady_clock::now();
    Table table(&w.schema, 0, /*build_is_r=*/true);
    TERTIO_CHECK(table.AddBlocks(w.build_blocks).ok(), "build failed");
    join::JoinOutput out;
    TERTIO_CHECK(table.Probe(w.probe_blocks, &w.schema, 0, &out).ok(), "probe failed");
    benchmark::DoNotOptimize(out.checksum());
    double seconds = std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
                         .count();
    if (seconds < best) best = seconds;
  }
  return best;
}

}  // namespace
}  // namespace tertio

int main(int argc, char** argv) {
  tertio::bench::BenchRecorder recorder("micro_substrates", argc, argv);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  // Headline comparison for BENCH_joins.json: one build+probe pass over the
  // same workload on both table substrates (best of 3).
  using tertio::JoinTableWorkload;
  const tertio::TableWorkload& w = JoinTableWorkload();
  const double tuples =
      static_cast<double>(w.build_tuples) + static_cast<double>(w.probe_tuples);
  double flat = tertio::TimedBuildProbeSeconds<tertio::join::FlatJoinTable>(3);
  double legacy = tertio::TimedBuildProbeSeconds<tertio::join::LegacyMultimapJoinTable>(3);
  std::printf("\nJoin-table build+probe (%llu build + %llu probe tuples, best of 3):\n",
              (unsigned long long)w.build_tuples, (unsigned long long)w.probe_tuples);
  std::printf("  flat table:     %.1f ms  (%.1f M tuples/s)\n", 1e3 * flat,
              tuples / flat / 1e6);
  std::printf("  multimap table: %.1f ms  (%.1f M tuples/s)\n", 1e3 * legacy,
              tuples / legacy / 1e6);
  std::printf("  speedup: %.2fx\n", legacy / flat);
  recorder.RecordMetric("flat_build_probe_tuples_per_sec", tuples / flat);
  recorder.RecordMetric("multimap_build_probe_tuples_per_sec", tuples / legacy);
  recorder.RecordMetric("flat_vs_multimap_speedup", legacy / flat);

  // Scalar-vs-SIMD probe sweep: for each sweep point, build once per mode
  // and keep the best of 3 probe passes. The two modes must agree on the
  // pair set (count + order-independent checksum) — a divergence here is a
  // kernel bug, not a perf regression.
  std::printf("\nFlat-table probe, scalar vs SIMD (best of 3):\n");
  for (int i = 0; i < tertio::kProbeSweepSize; ++i) {
    const tertio::TableWorkload& w = tertio::ProbeSweepWorkload(i);
    const tertio::ProbeModeResult scalar =
        tertio::TimedProbe(w, tertio::join::simd::Level::kScalar, 3);
    const tertio::ProbeModeResult simd =
        tertio::TimedProbe(w, tertio::join::simd::BestSupportedLevel(), 3);
    TERTIO_CHECK(scalar.tuples == simd.tuples, "probe sweep diverged in match count");
    TERTIO_CHECK(scalar.checksum == simd.checksum, "probe sweep diverged in checksum");
    const double probes = static_cast<double>(w.probe_tuples);
    const double speedup = scalar.seconds / simd.seconds;
    const std::string key = std::string("probe_") + tertio::kProbeSweep[i].name;
    std::printf("  %-20s scalar %6.1f ns/probe   simd %6.1f ns/probe   %4.2fx  (%.2f%% hit)\n",
                tertio::kProbeSweep[i].name, 1e9 * scalar.seconds / probes,
                1e9 * simd.seconds / probes, speedup,
                100.0 * static_cast<double>(simd.tuples) / probes);
    recorder.RecordMetric(key + "_scalar_ns", 1e9 * scalar.seconds / probes);
    recorder.RecordMetric(key + "_simd_ns", 1e9 * simd.seconds / probes);
    recorder.RecordMetric(key + "_speedup", speedup);
  }

  // NB-shaped re-scan: the same R blocks probed kRescanPasses times through
  // one table, without and with a DecodedColumnStore (best of 3 each). Both
  // must emit the same pair set; the ratio is recorded, not gated.
  {
    const tertio::TableWorkload& w = tertio::RescanWorkload();
    const tertio::ProbeModeResult plain = tertio::TimedRescan(w, /*use_store=*/false, 3);
    const tertio::ProbeModeResult stored = tertio::TimedRescan(w, /*use_store=*/true, 3);
    TERTIO_CHECK(plain.tuples == stored.tuples, "store re-scan diverged in match count");
    TERTIO_CHECK(plain.checksum == stored.checksum, "store re-scan diverged in checksum");
    const double probes = static_cast<double>(w.probe_tuples) * tertio::kRescanPasses;
    std::printf("\nNB-shaped re-scan (%llu probe x %d passes, %llu build tuples, best of 3):\n",
                (unsigned long long)w.probe_tuples, tertio::kRescanPasses,
                (unsigned long long)w.build_tuples);
    std::printf("  plain %6.1f ns/probe   store %6.1f ns/probe   %4.2fx  (%.2f%% hit)\n",
                1e9 * plain.seconds / probes, 1e9 * stored.seconds / probes,
                plain.seconds / stored.seconds,
                100.0 * static_cast<double>(stored.tuples) / probes);
    recorder.RecordMetric("probe_rescan_plain_ns", 1e9 * plain.seconds / probes);
    recorder.RecordMetric("probe_rescan_store_ns", 1e9 * stored.seconds / probes);
    recorder.RecordMetric("probe_rescan_store_speedup", plain.seconds / stored.seconds);
  }

  // Headline transfer comparison at the 10^6-chunk point: one fault-free
  // phantom transfer through a plain pipeline and through one with a bound
  // auditor (best of 3 each). Both commit in closed form, O(1) per window,
  // and reach the same simulated outcome; the audited one also re-derives
  // the window with the O(chunks) replay, so the difference times the replay.
  constexpr std::uint64_t kChunks = 1000000;
  tertio::TransferTiming closed{}, audited{};
  closed.wall_seconds = std::numeric_limits<double>::infinity();
  audited.wall_seconds = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < 3; ++rep) {
    tertio::TransferTiming plain = tertio::TimedTransfer(kChunks, false);
    tertio::TransferTiming checked = tertio::TimedTransfer(kChunks, true);
    TERTIO_CHECK(plain.done == checked.done, "the audited transfer diverged in simulated time");
    TERTIO_CHECK(plain.ops == checked.ops, "the audited transfer diverged in op count");
    if (plain.wall_seconds < closed.wall_seconds) closed = plain;
    if (checked.wall_seconds < audited.wall_seconds) audited = checked;
  }
  const double replay = audited.wall_seconds - closed.wall_seconds;
  std::printf("\nPipeline transfer commit (%llu chunks, fault-free phantom, best of 3):\n",
              (unsigned long long)kChunks);
  std::printf("  closed-form: %.3f ms   audited: %.2f ms   replay (audited - plain): %.2f ms\n",
              1e3 * closed.wall_seconds, 1e3 * audited.wall_seconds, 1e3 * replay);
  std::printf("  closed-form vs replay: %.1fx\n", replay / closed.wall_seconds);
  recorder.RecordMetric("commit_closed_form_seconds", closed.wall_seconds);
  recorder.RecordMetric("commit_replay_seconds", replay);
  recorder.RecordMetric("commit_closed_form_vs_replay_speedup", replay / closed.wall_seconds);
  return recorder.Finish();
}
