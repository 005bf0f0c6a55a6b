// full_data_skew: real tuples under build-side key skew. |R| = 8 MB and
// |S| = 16 MB of 100-byte tuples (about 79k and 158k), M = 1 MB, D = 24 MB;
// all seven methods at R keys drawn Zipf(theta) for theta in {0, 0.5, 1, 1.5},
// S keys uniform over R's key domain. The only workload where the
// generator, the partitioner and the join table move real bytes, and where
// a hot key larger than M forces the hash methods' overflow slices; theta = 0
// is the control a hot-key remedy must leave unchanged. Every output is
// checked against ReferenceJoin after the timed phase.

#include <memory>
#include <vector>

#include "join/reference_join.h"
#include "relation/generator.h"
#include "util/string_util.h"
#include "workloads.h"

namespace tertio::benchmark {
namespace {

constexpr double kCompressibility = 0.25;
constexpr double kThetas[] = {0.0, 0.5, 1.0, 1.5};
constexpr std::size_t kThetaCount = sizeof(kThetas) / sizeof(kThetas[0]);

struct Dataset {
  std::unique_ptr<tape::TapeVolume> r_tape;
  std::unique_ptr<tape::TapeVolume> s_tape;
  rel::Relation r;
  rel::Relation s;
};

/// (tuples, checksum) of one join output; `ran` is false for a join that
/// failed, which Serve() has already counted.
struct Output {
  bool ran = false;
  std::uint64_t tuples = 0;
  std::uint64_t checksum = 0;
};

class FullDataSkew final : public Workload {
 public:
  FullDataSkew(const WorkloadOptions& options, Tracer* tracer)
      : seed_(options.seed),
        tracer_(tracer),
        // The smoke size shrinks the data 8x; M shrinks only 4x, since the
        // hash methods need M >= 2 sqrt(|R|).
        r_bytes_(options.smoke ? 1 * kMB : 8 * kMB),
        s_bytes_(options.smoke ? 2 * kMB : 16 * kMB),
        memory_bytes_(options.smoke ? 256 * kKB : 1 * kMB),
        disk_bytes_(options.smoke ? 3 * kMB : 24 * kMB) {}

  Status Setup() override {
    counters_ = LayerCounters{};
    std::uint64_t per_block =
        rel::TuplesPerBlock(rel::Schema::KeyPayload(100), kDefaultBlockBytes);
    std::uint64_t r_tuples = BytesToBlocks(r_bytes_, kDefaultBlockBytes).value() * per_block;
    std::uint64_t s_tuples = BytesToBlocks(s_bytes_, kDefaultBlockBytes).value() * per_block;
    datasets_.clear();
    datasets_.resize(kThetaCount);
    for (std::size_t t = 0; t < kThetaCount; ++t) {
      Dataset& d = datasets_[t];
      d.r_tape = std::make_unique<tape::TapeVolume>(StrFormat("tape-R%zu", t), kDefaultBlockBytes);
      d.s_tape = std::make_unique<tape::TapeVolume>(StrFormat("tape-S%zu", t), kDefaultBlockBytes);
      rel::GeneratorConfig r_config;
      r_config.name = StrFormat("R%zu", t);
      r_config.compressibility = kCompressibility;
      r_config.seed = seed_ * 16 + 2 * t;
      r_config.keys = rel::KeySequence::kZipf;
      r_config.zipf_theta = kThetas[t];
      r_config.key_domain = r_tuples;
      r_config.tuple_count = r_tuples;
      rel::GeneratorConfig s_config = r_config;
      s_config.name = StrFormat("S%zu", t);
      s_config.seed = r_config.seed + 1;
      s_config.keys = rel::KeySequence::kForeignKeyUniform;
      s_config.tuple_count = s_tuples;
      {
        Tracer::Scope span(tracer_, "relation.GenerateOnTape");
        TERTIO_ASSIGN_OR_RETURN(d.r, rel::GenerateOnTape(r_config, d.r_tape.get()));
      }
      {
        Tracer::Scope span(tracer_, "relation.GenerateOnTape");
        TERTIO_ASSIGN_OR_RETURN(d.s, rel::GenerateOnTape(s_config, d.s_tape.get()));
      }
      counters_.generated_mb += static_cast<double>((d.r.bytes() + d.s.bytes()).value()) / 1e6;
    }
    return Status::OK();
  }

  RoundOutcome Serve() override {
    RoundOutcome out;
    Digest digest;
    std::size_t mark = tracer_->size();
    std::uint64_t query = 0;
    std::vector<Output> outputs;
    for (const Dataset& d : datasets_) {
      DecisionPoint point = RunAllMethods(d.r, d.s, disk_bytes_, memory_bytes_, &query, tracer_,
                                          &counters_, &digest);
      for (const StandaloneJoin& join : point.joins) {
        ++out.attempted;
        outputs.emplace_back();
        // Every method must run at this size; a rejection is a failure.
        if (!join.stats.ok() || !join.admitted) {
          ++out.failed;
          continue;
        }
        ++out.completed;
        outputs.back() = {true, join.stats->output_tuples, join.stats->output_checksum};
      }
      if (!point.advisor_pick_ran) ++out.failed;
    }
    counters_.peak_in_flight = 1;
    if (tracer_->enabled()) counters_.execute_ms = tracer_->DurationsMs("join.Execute", mark);
    rounds_.push_back(std::move(outputs));
    out.sim_digest = digest.value();
    return out;
  }

  Status Probe() override {
    TERTIO_ASSIGN_OR_RETURN(counters_.checksum_mismatches, Mismatches(rounds_.back()));
    return Status::OK();
  }

  std::uint64_t Verify() override {
    std::uint64_t failures = 0;
    for (const std::vector<Output>& outputs : rounds_) {
      Result<std::uint64_t> mismatches = Mismatches(outputs);
      failures += mismatches.ok() ? *mismatches : outputs.size();
    }
    return failures;
  }

 private:
  // Joins of `outputs` whose (tuples, checksum) differ from ReferenceJoin's.
  Result<std::uint64_t> Mismatches(const std::vector<Output>& outputs) {
    if (references_.empty()) {
      for (const Dataset& d : datasets_) {
        Tracer::Scope span(tracer_, "join.ReferenceJoin");
        TERTIO_ASSIGN_OR_RETURN(join::JoinOutput reference, join::ReferenceJoin(d.r, d.s, 0, 0));
        references_.push_back({true, reference.tuples(), reference.checksum()});
      }
    }
    std::uint64_t mismatches = 0;
    for (std::size_t i = 0; i < outputs.size(); ++i) {
      const Output& want = references_[i / kAllJoinMethods.size()];
      if (outputs[i].ran &&
          (outputs[i].tuples != want.tuples || outputs[i].checksum != want.checksum)) {
        ++mismatches;
      }
    }
    return mismatches;
  }

  std::uint64_t seed_;
  Tracer* tracer_;
  ByteCount r_bytes_;
  ByteCount s_bytes_;
  ByteCount memory_bytes_;
  ByteCount disk_bytes_;
  std::vector<Dataset> datasets_;
  /// Every round's outputs, [theta][method] flattened.
  std::vector<std::vector<Output>> rounds_;
  /// ReferenceJoin's output per theta, computed once after the timed phase.
  std::vector<Output> references_;
};

}  // namespace

std::unique_ptr<Workload> MakeFullDataSkew(const WorkloadOptions& options, Tracer* tracer) {
  return std::make_unique<FullDataSkew>(options, tracer);
}

}  // namespace tertio::benchmark
