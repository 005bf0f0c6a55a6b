/// \file bench_ablations.cc
/// Ablations of the design choices DESIGN.md calls out:
///   1. interleaved vs split double-buffering (Section 4's argument);
///   2. the per-request disk positioning model vs pure transfer-only
///      (what the paper's measured Figures 8-9 show but its cost model
///      cannot);
///   3. hash write-buffer size w (Section 6: larger bucket writes tame
///      random I/O);
///   4. full-data vs timing-only execution agreement (the phantom-block
///      substitution is timing-neutral).

#include "bench/bench_util.h"

namespace tertio::bench {
namespace {

void AblationDoubleBuffering(BenchRecorder& recorder) {
  std::printf("\n--- Ablation 1: interleaved vs split double-buffering ---\n");
  std::printf("Same memory budget; CDT-NB/MB splits it into two half-size S\n");
  std::printf("buffers (the scheme Section 4 rejects for disk), CDT-NB/DB keeps\n");
  std::printf("full-size chunks through one interleaved disk ring.\n\n");
  exec::TableReport table({"M/|R|", "MB iterations", "DB iterations", "MB resp (s)",
                           "DB resp (s)"});
  const std::vector<double> fractions = {0.2, 0.4, 0.8};
  struct Pair {
    Result<join::JoinStats> mb;
    Result<join::JoinStats> db;
  };
  std::vector<Pair> results = exec::ParallelSweep(
      fractions,
      [](double f) {
        auto m = static_cast<ByteCount>(f * 18 * static_cast<double>(kMB.value()));
        return Pair{RunPaperJoin(1000 * kMB, 18 * kMB, 50 * kMB, m, JoinMethodId::kCdtNbMb),
                    RunPaperJoin(1000 * kMB, 18 * kMB, 50 * kMB, m, JoinMethodId::kCdtNbDb)};
      },
      recorder.threads());
  for (std::size_t i = 0; i < fractions.size(); ++i) {
    const auto& mb = results[i].mb;
    const auto& db = results[i].db;
    TERTIO_CHECK(mb.ok() && db.ok(), "ablation runs failed");
    recorder.RecordSim(StrFormat("dbl-buffer M/R=%.2f/MB", fractions[i]),
                       mb->response_seconds);
    recorder.RecordSim(StrFormat("dbl-buffer M/R=%.2f/DB", fractions[i]),
                       db->response_seconds);
    table.AddRow({FormatFixed(fractions[i], 2),
                  StrFormat("%llu", (unsigned long long)mb->iterations),
                  StrFormat("%llu", (unsigned long long)db->iterations),
                  StrFormat("%.0f", mb->response_seconds.value()),
                  StrFormat("%.0f", db->response_seconds.value())});
  }
  table.Print();
  std::printf("Halved chunks double the iteration count — and every iteration\n");
  std::printf("re-scans R, which is what hurts at small M.\n");
}

void AblationPositioningModel(BenchRecorder& recorder) {
  std::printf("\n--- Ablation 2: disk positioning model on/off ---\n");
  std::printf("CDT-GH at small memory: tiny per-bucket write buffers degrade to\n");
  std::printf("random I/O only if the model charges positioning per request.\n\n");
  exec::TableReport table({"M/|R|", "with positioning (s)", "transfer-only (s)"});
  const std::vector<double> fractions = {0.05, 0.1, 0.3};
  struct Pair {
    Result<join::JoinStats> with;
    Result<join::JoinStats> without;
  };
  std::vector<Pair> results = exec::ParallelSweep(
      fractions,
      [](double f) {
        auto m = static_cast<ByteCount>(f * 18 * static_cast<double>(kMB.value()));
        exec::SiteConfig real = exec::SiteConfig::PaperTestbed(50 * kMB, m);
        exec::SiteConfig ideal = real;
        ideal.disk_model = disk::DiskModel::Ideal(real.disk_model.transfer_rate_bps);
        exec::WorkloadConfig workload;
        workload.r_bytes = 18 * kMB;
        workload.s_bytes = 1000 * kMB;
        workload.phantom = true;
        return Pair{exec::RunJoinExperiment(real, workload, JoinMethodId::kCdtGh),
                    exec::RunJoinExperiment(ideal, workload, JoinMethodId::kCdtGh)};
      },
      recorder.threads());
  for (std::size_t i = 0; i < fractions.size(); ++i) {
    const auto& with = results[i].with;
    const auto& without = results[i].without;
    TERTIO_CHECK(with.ok() && without.ok(), "ablation runs failed");
    recorder.RecordSim(StrFormat("positioning M/R=%.2f/on", fractions[i]),
                       with->response_seconds);
    recorder.RecordSim(StrFormat("positioning M/R=%.2f/off", fractions[i]),
                       without->response_seconds);
    table.AddRow({FormatFixed(fractions[i], 2), StrFormat("%.0f", with->response_seconds.value()),
                  StrFormat("%.0f", without->response_seconds.value())});
  }
  table.Print();
  std::printf("The small-M uptick of Figures 8-9 exists only with positioning.\n");
}

void AblationWriteBuffer(BenchRecorder& recorder) {
  std::printf("\n--- Ablation 3: hash write-buffer size w ---\n");
  std::printf("DT-GH with the write buffer forced to w blocks per bucket\n");
  std::printf("(memory permitting): bigger flushes, fewer seeks.\n\n");
  exec::TableReport table({"w (blocks)", "disk requests", "response (s)"});
  const std::vector<BlockCount> widths = {1, 2, 4, 8};
  std::vector<Result<join::JoinStats>> results = exec::ParallelSweep(
      widths,
      [](BlockCount w) -> Result<join::JoinStats> {
        exec::Site site(exec::SiteConfig::PaperTestbed(50 * kMB, 9 * kMB));
        std::unique_ptr<exec::QuerySession> session =
            exec::QuerySession::Open(&site, exec::SessionResources::WholeSite(site)).value();
        exec::WorkloadConfig workload;
        workload.r_bytes = 18 * kMB;
        workload.s_bytes = 1000 * kMB;
        workload.phantom = true;
        auto prepared = exec::PrepareWorkload(session.get(), workload);
        TERTIO_CHECK(prepared.ok(), "setup failed");
        join::JoinSpec spec;
        spec.r = &prepared->r;
        spec.s = &prepared->s;
        spec.options.preferred_write_buffer = w;
        auto method = join::CreateJoinMethod(JoinMethodId::kDtGh);
        join::JoinContext ctx = session->context();
        return method->Execute(spec, ctx);
      },
      recorder.threads());
  for (std::size_t i = 0; i < widths.size(); ++i) {
    const auto& stats = results[i];
    TERTIO_CHECK(stats.ok(), stats.status().ToString());
    recorder.RecordSim(StrFormat("write-buffer w=%llu", (unsigned long long)widths[i].value()),
                       stats->response_seconds);
    table.AddRow({StrFormat("%llu", (unsigned long long)widths[i].value()),
                  StrFormat("%llu", (unsigned long long)stats->disk_requests),
                  StrFormat("%.0f", stats->response_seconds.value())});
  }
  table.Print();
}

void AblationPhantomVsReal(BenchRecorder& recorder) {
  std::printf("\n--- Ablation 4: timing-only (phantom) vs full-data execution ---\n");
  std::printf("Same geometry run both ways; virtual times should agree closely\n");
  std::printf("(full-data re-encodes tuples into blocks, so counts shift a little).\n\n");
  exec::TableReport table({"method", "phantom (s)", "full-data (s)", "delta"});
  const std::vector<JoinMethodId> methods = {JoinMethodId::kDtNb, JoinMethodId::kCdtGh,
                                             JoinMethodId::kCttGh};
  struct Pair {
    Result<join::JoinStats> phantom;
    Result<join::JoinStats> real;
  };
  std::vector<Pair> results = exec::ParallelSweep(
      methods,
      [](JoinMethodId method) {
        exec::SiteConfig config;
        config.block_bytes = 8 * kKiB;
        config.disk_space_bytes = 24 * kMB;
        config.memory_bytes = 4 * kMB;
        exec::WorkloadConfig workload;
        workload.r_bytes = 8 * kMB;
        workload.s_bytes = 60 * kMB;
        workload.phantom = true;
        auto phantom = exec::RunJoinExperiment(config, workload, method);
        workload.phantom = false;
        auto real = exec::RunJoinExperiment(config, workload, method);
        return Pair{std::move(phantom), std::move(real)};
      },
      recorder.threads());
  for (std::size_t i = 0; i < methods.size(); ++i) {
    const auto& phantom = results[i].phantom;
    const auto& real = results[i].real;
    TERTIO_CHECK(phantom.ok() && real.ok(), "ablation runs failed");
    const std::string name(JoinMethodName(methods[i]));
    recorder.RecordSim(StrFormat("phantom/%s", name.c_str()), phantom->response_seconds);
    recorder.RecordSim(StrFormat("full-data/%s", name.c_str()), real->response_seconds);
    double delta = real->response_seconds / phantom->response_seconds - 1.0;
    table.AddRow({std::string(JoinMethodName(methods[i])),
                  StrFormat("%.1f", phantom->response_seconds.value()),
                  StrFormat("%.1f", real->response_seconds.value()), StrFormat("%+.1f%%", 100 * delta)});
  }
  table.Print();
}

int Run(int argc, char** argv) {
  BenchRecorder recorder("ablations", argc, argv);
  Banner("Ablations — the design choices behind the reproduction",
         "DESIGN.md section 5", "each choice changes the outcome it claims to");
  AblationDoubleBuffering(recorder);
  AblationPositioningModel(recorder);
  AblationWriteBuffer(recorder);
  AblationPhantomVsReal(recorder);
  return recorder.Finish();
}

}  // namespace
}  // namespace tertio::bench

int main(int argc, char** argv) { return tertio::bench::Run(argc, argv); }
