// paper_sweep: the paper's Experiment 3 (Figures 6-11) at its own size,
// timing-only. |S| = 1 GB, |R| = 18 MB, D = 50 MB, 25%-compressible data;
// all seven methods at each of the experiment's twelve memory sizes,
// each join on a fresh site. Phantom blocks move no tuples, so host time is
// the sim engine and the partitioner's device operations: this is the
// workload a faster engine or partitioner shows on.

#include <memory>
#include <vector>

#include "relation/generator.h"
#include "workloads.h"

namespace tertio::benchmark {
namespace {

constexpr double kCompressibility = 0.25;
// Experiment 3's memory sizes, as fractions of |R|.
constexpr double kMemoryFractions[] = {0.05, 0.1, 0.15, 0.2, 0.3, 0.4,
                                       0.5,  0.6, 0.7,  0.8, 0.9, 1.0};

class PaperSweep final : public Workload {
 public:
  PaperSweep(const WorkloadOptions& options, Tracer* tracer)
      : seed_(options.seed),
        tracer_(tracer),
        // The smoke size is a tenth of the full one.
        r_bytes_(options.smoke ? 1800 * kKB : 18 * kMB),
        s_bytes_(options.smoke ? 100 * kMB : 1 * kGB),
        disk_bytes_(options.smoke ? 5 * kMB : 50 * kMB) {}

  Status Setup() override {
    counters_ = LayerCounters{};
    r_tape_ = std::make_unique<tape::TapeVolume>("tape-R", kDefaultBlockBytes);
    s_tape_ = std::make_unique<tape::TapeVolume>("tape-S", kDefaultBlockBytes);
    std::uint64_t per_block =
        rel::TuplesPerBlock(rel::Schema::KeyPayload(100), kDefaultBlockBytes);
    rel::GeneratorConfig r_config;
    r_config.name = "R";
    r_config.compressibility = kCompressibility;
    r_config.seed = seed_;
    r_config.phantom = true;
    r_config.tuple_count = BytesToBlocks(r_bytes_, kDefaultBlockBytes).value() * per_block;
    rel::GeneratorConfig s_config = r_config;
    s_config.name = "S";
    s_config.seed = seed_ + 1;
    s_config.keys = rel::KeySequence::kForeignKeyUniform;
    s_config.key_domain = r_config.tuple_count;
    s_config.tuple_count = BytesToBlocks(s_bytes_, kDefaultBlockBytes).value() * per_block;
    {
      Tracer::Scope span(tracer_, "relation.GenerateOnTape");
      TERTIO_ASSIGN_OR_RETURN(r_, rel::GenerateOnTape(r_config, r_tape_.get()));
    }
    {
      Tracer::Scope span(tracer_, "relation.GenerateOnTape");
      TERTIO_ASSIGN_OR_RETURN(s_, rel::GenerateOnTape(s_config, s_tape_.get()));
    }
    counters_.generated_mb = static_cast<double>((r_.bytes() + s_.bytes()).value()) / 1e6;
    return Status::OK();
  }

  RoundOutcome Serve() override {
    RoundOutcome out;
    Digest digest;
    std::size_t mark = tracer_->size();
    std::uint64_t query = 0;
    for (double fraction : kMemoryFractions) {
      auto memory_bytes = static_cast<ByteCount>(fraction * static_cast<double>(r_bytes_.value()));
      DecisionPoint point = RunAllMethods(r_, s_, disk_bytes_, memory_bytes, &query, tracer_,
                                          &counters_, &digest);
      for (const StandaloneJoin& join : point.joins) {
        ++out.attempted;
        if (join.stats.ok()) ++out.completed;
        // Table 2 is binding: a join runs exactly when its method's
        // Requirements() fit the site.
        if (join.stats.ok() != join.admitted) ++out.failed;
      }
      if (!point.advisor_pick_ran) ++out.failed;
    }
    counters_.peak_in_flight = 1;
    if (tracer_->enabled()) counters_.execute_ms = tracer_->DurationsMs("join.Execute", mark);
    out.sim_digest = digest.value();
    return out;
  }

 private:
  std::uint64_t seed_;
  Tracer* tracer_;
  ByteCount r_bytes_;
  ByteCount s_bytes_;
  ByteCount disk_bytes_;
  std::unique_ptr<tape::TapeVolume> r_tape_;
  std::unique_ptr<tape::TapeVolume> s_tape_;
  rel::Relation r_;
  rel::Relation s_;
};

}  // namespace

std::unique_ptr<Workload> MakePaperSweep(const WorkloadOptions& options, Tracer* tracer) {
  return std::make_unique<PaperSweep>(options, tracer);
}

}  // namespace tertio::benchmark
