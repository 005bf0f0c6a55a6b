#pragma once

/// \file cost_model.h
/// Closed-form response-time and resource estimates for the seven methods.
///
/// The paper presents expected response times (Figures 1–3) "calculated
/// using cost formulas derived for each join method" but defers the
/// derivation to its reference [13]. The formulas below are re-derived from
/// the method descriptions in Section 5 under the paper's own cost model
/// (Section 3.2):
///
///  * transfer-only device costs: t_T(b) = b·bs / X_T, t_D(b) = b·bs / X_D;
///  * sequential methods sum the I/O of their single process;
///  * concurrent methods overlap tape and disk per iteration, so a
///    steady-state iteration costs max(tape work, disk work);
///  * optional per-request disk positioning cost (0 reproduces the paper's
///    pure transfer-only analysis; nonzero reproduces the random-I/O
///    degradation the measurements show at tiny write buffers).
///
/// Each estimate also reports the resource requirements of Table 2 and the
/// traffic/scan counts behind Figures 6 and 7.

#include "cost/method_id.h"
#include "util/status.h"
#include "util/units.h"

namespace tertio::cost {

/// Inputs of one estimate (all sizes in blocks, rates in bytes/second).
struct CostParams {
  BlockCount r_blocks = 0;       // |R| (smaller relation)
  BlockCount s_blocks = 0;       // |S|
  BlockCount memory_blocks = 0;  // M
  BlockCount disk_blocks = 0;    // D
  ByteCount block_bytes = kDefaultBlockBytes;
  BytesPerSecond tape_rate_bps = 1.5e6;  // effective X_T (compression included)
  BytesPerSecond disk_rate_bps = 8.0e6;  // aggregate X_D
  /// Per-request disk positioning time; 0 = the paper's transfer-only model.
  SimSeconds disk_positioning_seconds = 0.0;
  /// Blocks of S resident in the cross-query extent cache
  /// (disk/extent_cache.h). That fraction of every pass over the original S
  /// is served at the disk rate instead of the tape rate, so the estimates
  /// (and join::Advisor rankings built on them) reflect a partially
  /// disk-resident S. 0 — the default — reproduces the paper's pure-tape
  /// model exactly.
  BlockCount s_cached_blocks = 0;
};

/// Outputs of one estimate.
struct CostBreakdown {
  SimSeconds step1_seconds = 0.0;  // preparing R (copy or hash)
  SimSeconds step2_seconds = 0.0;  // the iterative join phase
  SimSeconds total_seconds = 0.0;
  /// Blocks moved to/from disk (reads + writes) — Figure 7.
  BlockCount disk_traffic_blocks = 0;
  /// Blocks moved to/from tape (both drives).
  BlockCount tape_traffic_blocks = 0;
  /// Full passes over R, from whatever medium holds it.
  std::uint64_t r_scans = 0;
  /// Iterations of the Step II loop.
  std::uint64_t iterations = 0;
  /// Disk space the method needs — Figure 6 / Table 2.
  BlockCount disk_space_blocks = 0;
  /// Minimum memory for feasibility — Table 2.
  BlockCount memory_required_blocks = 0;
  /// Scratch tape space on the R / S tapes — Table 2.
  BlockCount tape_scratch_r_blocks = 0;
  BlockCount tape_scratch_s_blocks = 0;
};

/// Estimates `method` under `params`. Fails with kResourceExhausted /
/// kInvalidArgument when the method is infeasible in that configuration
/// (e.g. CDT-GH with D <= |R|, hash joins below the memory bound).
Result<CostBreakdown> Estimate(JoinMethodId method, const CostParams& params);

/// Section 3.2's local-output case: "if the join output is to be stored
/// locally, the effect of writing the output has been taken into account in
/// X_D" — i.e. the aggregate disk rate the join sees shrinks by the share
/// of bandwidth the output writes consume. \returns params with the disk
/// rate reduced accordingly; `output_bandwidth_share` must be in [0, 1).
Result<CostParams> WithLocalOutput(CostParams params, double output_bandwidth_share);

/// The optimum join time of Section 9: the bare tape transfer time of S.
SimSeconds OptimumJoinSeconds(const CostParams& params);

/// Relative join overhead of a response time against the optimum
/// (response/optimum - 1).
double RelativeJoinOverhead(SimSeconds response, const CostParams& params);

}  // namespace tertio::cost
