#pragma once

/// \file workloads.h
/// The benchmark's four workloads behind one round-based interface.
///
/// A run repeats rounds until its time budget is spent. One round is
/// Setup() (fresh inputs from the seed, timed as set-up), Serve() (the timed
/// phase) and, in traced rounds only, Probe() (untimed extra measurements
/// that feed per-layer metrics). Inputs depend only on the seed, so every
/// round does identical work and must produce identical simulated results.

#include <cstdint>
#include <memory>
#include <string_view>

#include "harness.h"
#include "util/status.h"

namespace tertio::benchmark {

struct WorkloadOptions {
  std::uint64_t seed = 1;
  /// About 1/50 of the full size: a correctness smoke test, not a timing.
  bool smoke = false;
};

/// What one Serve() did.
struct RoundOutcome {
  /// Joins (service queries) the round attempted.
  std::uint64_t attempted = 0;
  /// Joins that ran to an OK result.
  std::uint64_t completed = 0;
  /// Correctness failures: a join whose outcome disagrees with its
  /// method's Requirements(), an advisor pick the executor rejects, a
  /// service query that never completed, or a leaked lease.
  std::uint64_t failed = 0;
  /// Digest of every simulated response of the round, in order.
  std::uint64_t sim_digest = 0;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Builds the round's inputs; resets counters().
  virtual Status Setup() = 0;
  /// The timed phase over the inputs of the last Setup().
  virtual RoundOutcome Serve() = 0;
  /// Untimed measurements that only traced rounds need.
  virtual Status Probe() { return Status::OK(); }
  /// Correctness oracles over every round served so far. \returns the
  /// number of failed checks.
  virtual std::uint64_t Verify() { return 0; }

  /// Counters of the current round (Setup + Serve + Probe).
  const LayerCounters& counters() const { return counters_; }

 protected:
  LayerCounters counters_;
};

/// Creates the named workload, or null for an unknown name. `tracer` must
/// outlive the workload.
std::unique_ptr<Workload> MakeWorkload(std::string_view name, const WorkloadOptions& options,
                                       Tracer* tracer);

std::unique_ptr<Workload> MakePaperSweep(const WorkloadOptions& options, Tracer* tracer);
std::unique_ptr<Workload> MakeServiceClosed(const WorkloadOptions& options, Tracer* tracer);
std::unique_ptr<Workload> MakeServiceBacklog(const WorkloadOptions& options, Tracer* tracer);
std::unique_ptr<Workload> MakeFullDataSkew(const WorkloadOptions& options, Tracer* tracer);

}  // namespace tertio::benchmark
