#pragma once

/// \file bench_util.h
/// Shared scaffolding for the paper-reproduction harnesses.
///
/// Every bench binary reproduces one table or figure of the paper at the
/// paper's own parameters, in timing-only (phantom) mode: blocks are
/// accounted and devices charge virtual time, but no tuple bytes move, so a
/// 10 GB join runs in seconds of wall-clock.

#include <chrono>
#include <cmath>
#include <cstdio>
#include <limits>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "cost/cost_model.h"
#include "exec/experiment.h"
#include "exec/parallel_sweep.h"
#include "exec/report.h"
#include "join/join_method.h"
#include "util/string_util.h"

namespace tertio::bench {

/// `s` as a JSON string literal, quotes included.
inline std::string JsonString(std::string_view s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += StrFormat("\\u%04x", static_cast<unsigned>(c));
    } else {
      out += c;
    }
  }
  return out + '"';
}

/// `value` as a JSON number (%.6g); NaN and infinities become null.
inline std::string JsonNumber(double value) {
  return std::isfinite(value) ? StrFormat("%.6g", value) : "null";
}

/// Per-binary record of one bench invocation: wall-clock, worker count, the
/// simulated seconds of every join the bench ran, and free-form metrics
/// (tuples/sec and the like). Finish() prints the record as one JSON line,
/// the last line the harness writes to stdout; bench/golden_check.py reads
/// it and keeps BENCH_joins.json (see EXPERIMENTS.md for the schema).
class BenchRecorder {
 public:
  /// Parses --threads=N from argv (0 = all hardware threads).
  BenchRecorder(std::string name, int argc, char** argv)
      : name_(std::move(name)),
        threads_(exec::EffectiveSweepThreads(exec::ParseSweepThreads(argc, argv))),
        start_(std::chrono::steady_clock::now()) {}

  /// Worker count the bench's ParallelSweep calls should use.
  int threads() const { return threads_; }

  /// Records the simulated response time of one join run.
  void RecordSim(const std::string& label, SimSeconds sim_seconds) {
    runs_.emplace_back(label, sim_seconds.value());
  }

  /// Records a run that may have been infeasible; errors record null.
  void RecordJoin(const std::string& label, const Result<join::JoinStats>& stats) {
    RecordSim(label, stats.ok() ? stats->response_seconds
                                : std::numeric_limits<double>::quiet_NaN());
  }

  /// Records a named scalar (throughputs, speedups, ...).
  void RecordMetric(const std::string& key, double value) {
    metrics_.emplace_back(key, value);
  }

  /// Prints the record. \returns 0 (bench main's exit code).
  int Finish() {
    double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start_).count();
    std::string json = "{\"name\": " + JsonString(name_) +
                       ", \"wall_seconds\": " + JsonNumber(wall) +
                       ", \"threads\": " + std::to_string(threads_) + ", \"runs\": [";
    for (std::size_t i = 0; i < runs_.size(); ++i) {
      if (i != 0) json += ", ";
      json += "{\"label\": " + JsonString(runs_[i].first) +
              ", \"sim_seconds\": " + JsonNumber(runs_[i].second) + "}";
    }
    json += "], \"metrics\": {";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      if (i != 0) json += ", ";
      json += JsonString(metrics_[i].first) + ": " + JsonNumber(metrics_[i].second);
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
    return 0;
  }

 private:
  std::string name_;
  int threads_;
  std::chrono::steady_clock::time_point start_;
  std::vector<std::pair<std::string, double>> runs_;
  std::vector<std::pair<std::string, double>> metrics_;
};

/// The paper's base data compressibility. Section 6 enables drive
/// compression on synthetic data; Experiment 3's base run uses
/// 25%-compressible data, which we adopt everywhere unless a figure varies
/// it (Figures 10/11 use 0% and 50%).
inline constexpr double kBaseCompressibility = 0.25;

/// Prints the bench banner.
inline void Banner(const char* experiment, const char* paper_ref, const char* expectation) {
  std::printf("=============================================================\n");
  std::printf("%s\n", experiment);
  std::printf("Paper: %s\n", paper_ref);
  std::printf("Expected shape: %s\n", expectation);
  std::printf("=============================================================\n");
}

/// Runs a phantom (timing-only) join at paper scale; aborts the bench on
/// setup errors, returns an errored Result for per-point infeasibility.
inline Result<join::JoinStats> RunPaperJoin(ByteCount s_bytes, ByteCount r_bytes,
                                            ByteCount disk_bytes, ByteCount memory_bytes,
                                            JoinMethodId method,
                                            double compressibility = kBaseCompressibility) {
  exec::WorkloadConfig workload;
  workload.r_bytes = r_bytes;
  workload.s_bytes = s_bytes;
  workload.compressibility = compressibility;
  workload.phantom = true;
  return exec::RunJoinExperiment(exec::SiteConfig::PaperTestbed(disk_bytes, memory_bytes),
                                 workload, method);
}

/// Bare sequential read time of both relations on one drive after the other
/// (Table 3's "Read S + R" column).
inline SimSeconds BareReadSeconds(ByteCount s_bytes, ByteCount r_bytes, double compressibility,
                                  const tape::TapeDriveModel& model) {
  return model.TransferSeconds(s_bytes, compressibility) +
         model.TransferSeconds(r_bytes, compressibility);
}

}  // namespace tertio::bench
