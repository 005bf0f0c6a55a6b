#pragma once

/// \file exp3_common.h
/// Shared sweep for Figures 6–11 (Experiment 3: Large S, Small R).
///
/// |S| = 1,000 MB, |R| = 18 MB, D = 50 MB; memory varies from a small
/// fraction of |R| up to |R|. The five disk–tape methods are compared; the
/// optimum join time is the bare tape transfer of S. Figures 9–11 repeat
/// the sweep at different data compressibilities (0.25 / 0 / 0.5), which
/// changes the effective tape speed and therefore the optimum.

#include <cmath>
#include <cstdint>
#include <vector>

#include "bench/bench_util.h"

namespace tertio::bench {

inline constexpr ByteCount kExp3R = 18 * kMB;
inline constexpr ByteCount kExp3S = 1000 * kMB;
inline constexpr ByteCount kExp3D = 50 * kMB;

inline const std::vector<double>& Exp3MemoryFractions() {
  static const std::vector<double> kFractions = {0.05, 0.1, 0.15, 0.2, 0.3, 0.4,
                                                 0.5,  0.6, 0.7,  0.8, 0.9, 1.0};
  return kFractions;
}

inline const std::vector<JoinMethodId>& Exp3Methods() {
  static const std::vector<JoinMethodId> kMethods = {
      JoinMethodId::kDtNb, JoinMethodId::kCdtNbMb, JoinMethodId::kCdtNbDb,
      JoinMethodId::kDtGh, JoinMethodId::kCdtGh};
  return kMethods;
}

inline std::vector<std::string> Exp3Labels(const char* suffix) {
  std::vector<std::string> labels;
  for (JoinMethodId method : Exp3Methods()) {
    labels.push_back(std::string(JoinMethodName(method)) + suffix);
  }
  return labels;
}

/// One full sweep: stats per (fraction, method); errored entries are
/// infeasible points.
struct Exp3Sweep {
  std::vector<double> fractions;
  // [point][method]
  std::vector<std::vector<Result<join::JoinStats>>> runs;
  /// Bare tape transfer time of S — the optimum join time of Section 9.
  SimSeconds optimum_seconds = 0.0;
};

/// Runs the (fraction x method) grid across `threads` workers (0 = all
/// hardware threads, 1 = the seed's serial path). Every point builds a
/// fresh Site, so simulated times are independent of the thread count.
/// `scale` multiplies |R|, |S|, D and memory uniformly — scale 100 is the
/// TB-class timing-only sweep (100 GB S), feasible in host seconds only
/// because the coalesced closed-form commit makes chunk count nearly free.
inline Exp3Sweep RunExp3Sweep(double compressibility, int threads = 1,
                              std::uint64_t scale = 1) {
  Exp3Sweep sweep;
  sweep.fractions = Exp3MemoryFractions();
  sweep.optimum_seconds =
      tape::TapeDriveModel::DLT4000().TransferSeconds(scale * kExp3S, compressibility);

  struct Point {
    double fraction;
    JoinMethodId method;
  };
  std::vector<Point> points;
  for (double f : sweep.fractions) {
    for (JoinMethodId method : Exp3Methods()) {
      points.push_back({f, method});
    }
  }
  std::vector<Result<join::JoinStats>> results = exec::ParallelSweep(
      points,
      [&](const Point& p) {
        auto memory = static_cast<ByteCount>(p.fraction * static_cast<double>(scale * kExp3R.value()));
        return RunPaperJoin(scale * kExp3S, scale * kExp3R, scale * kExp3D, memory, p.method,
                            compressibility);
      },
      threads);
  const std::size_t methods = Exp3Methods().size();
  for (std::size_t i = 0; i < sweep.fractions.size(); ++i) {
    sweep.runs.emplace_back(
        std::make_move_iterator(results.begin() + static_cast<std::ptrdiff_t>(i * methods)),
        std::make_move_iterator(results.begin() + static_cast<std::ptrdiff_t>((i + 1) * methods)));
  }
  return sweep;
}

/// Adds every run of the sweep to a bench record, labelled "M/R=f/<method>".
inline void RecordExp3Sweep(BenchRecorder& recorder, const Exp3Sweep& sweep) {
  for (std::size_t i = 0; i < sweep.fractions.size(); ++i) {
    for (std::size_t m = 0; m < sweep.runs[i].size(); ++m) {
      recorder.RecordJoin(StrFormat("M/R=%.2f/%s", sweep.fractions[i],
                                    std::string(JoinMethodName(Exp3Methods()[m])).c_str()),
                          sweep.runs[i][m]);
    }
  }
}

/// Prints one metric of the sweep as a figure series.
template <typename MetricFn>
void PrintExp3Series(const Exp3Sweep& sweep, const char* x_label, const char* suffix,
                     MetricFn metric, int precision = 0,
                     std::vector<std::string> extra_labels = {},
                     std::vector<double> extra_values = {}) {
  std::vector<std::string> labels = Exp3Labels(suffix);
  labels.insert(labels.end(), extra_labels.begin(), extra_labels.end());
  exec::SeriesReport series(x_label, labels);
  for (size_t i = 0; i < sweep.fractions.size(); ++i) {
    std::vector<double> values;
    for (const auto& run : sweep.runs[i]) {
      values.push_back(run.ok() ? metric(run.value()) : std::nan(""));
    }
    values.insert(values.end(), extra_values.begin(), extra_values.end());
    series.AddPoint(sweep.fractions[i], values);
  }
  series.Print(precision);
}

}  // namespace tertio::bench
