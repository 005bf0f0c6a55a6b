#pragma once

/// \file experiment.h
/// End-to-end experiment driving: generate the workload, run a method,
/// collect stats — the loop behind every table and figure reproduction.

#include <cstdint>
#include <memory>
#include <string>

#include "exec/query_session.h"
#include "exec/site.h"
#include "join/join_method.h"
#include "relation/generator.h"
#include "tape/tape_volume.h"
#include "util/status.h"

namespace tertio::exec {

/// The synthetic workload of one experiment.
struct WorkloadConfig {
  ByteCount r_bytes = 0;
  ByteCount s_bytes = 0;
  /// Data compressibility (drives the effective tape rate; paper base: 25%).
  double compressibility = 0.25;
  ByteCount record_bytes = 100;
  std::uint64_t seed = 42;
  /// Timing-only (paper-scale) vs full-data (verifiable) runs.
  bool phantom = true;
};

/// R and S generated onto two loose scratch volumes, "tape-R" and "tape-S",
/// which the workload owns. They must outlive every join run on them.
struct PreparedWorkload {
  std::unique_ptr<tape::TapeVolume> tape_r;
  std::unique_ptr<tape::TapeVolume> tape_s;
  rel::Relation r;
  rel::Relation s;
};

/// Generates R and S from `workload` onto fresh volumes (uncosted), binds
/// them to the site's auditor and force-mounts them in the session's drives.
Result<PreparedWorkload> PrepareWorkload(QuerySession* session, const WorkloadConfig& workload);

/// As above, from explicit generator configs (key distributions, tuple
/// counts and seeds of the caller's choosing).
Result<PreparedWorkload> PrepareWorkload(QuerySession* session, const rel::GeneratorConfig& r,
                                         const rel::GeneratorConfig& s);

/// One full run: a fresh site from `site_config`, one session leasing all of
/// it, the prepared workload and the method. \returns the join statistics,
/// or Site::Create's status for an invalid configuration.
Result<join::JoinStats> RunJoinExperiment(const SiteConfig& site_config,
                                          const WorkloadConfig& workload, JoinMethodId method);

}  // namespace tertio::exec
