#include "cost/cost_model.h"

#include <algorithm>

#include "hash/bucket_layout.h"
#include "mem/memory_budget.h"
#include "util/math_util.h"
#include "util/string_util.h"

namespace tertio::cost {
namespace {

/// Device-time helpers bound to one parameter set.
class Calc {
 public:
  explicit Calc(const CostParams& p) : p_(p) {}

  SimSeconds TapeSeconds(BlockCount blocks) const {
    return static_cast<double>(blocks.value()) * static_cast<double>(p_.block_bytes.value()) /
           p_.tape_rate_bps.value();
  }
  SimSeconds DiskSeconds(BlockCount blocks) const {
    return static_cast<double>(blocks.value()) * static_cast<double>(p_.block_bytes.value()) /
           p_.disk_rate_bps.value();
  }
  /// Tape-seconds of a pass over `blocks` of the *original* S when a
  /// fraction of S sits in the extent cache: the cached fraction of the
  /// pass reads at disk rate. With nothing cached this is exactly
  /// TapeSeconds (no blended arithmetic), preserving bit-identity of the
  /// cache-less estimates.
  SimSeconds STapeSeconds(BlockCount blocks) const {
    if (p_.s_cached_blocks == 0 || p_.s_blocks == 0) return TapeSeconds(blocks);
    double cached_fraction = static_cast<double>(std::min(p_.s_cached_blocks, p_.s_blocks).value()) /
                             static_cast<double>(p_.s_blocks.value());
    double bytes = static_cast<double>(blocks.value()) * static_cast<double>(p_.block_bytes.value());
    return bytes * (1.0 - cached_fraction) / p_.tape_rate_bps.value() +
           bytes * cached_fraction / p_.disk_rate_bps.value();
  }
  /// Positioning cost of transferring `blocks` in requests of `chunk`.
  SimSeconds Positioning(BlockCount blocks, BlockCount chunk) const {
    if (p_.disk_positioning_seconds <= 0.0 || blocks == 0) return 0.0;
    if (chunk == 0) chunk = 1;
    return static_cast<double>(CeilDiv<std::uint64_t>(blocks.value(), chunk.value())) *
           p_.disk_positioning_seconds;
  }

 private:
  const CostParams& p_;
};

Status ValidateCommon(const CostParams& p) {
  if (p.r_blocks == 0 || p.s_blocks == 0) {
    return Status::InvalidArgument("relations must be non-empty");
  }
  if (p.r_blocks > p.s_blocks) {
    return Status::InvalidArgument("R must be the smaller relation (|R| <= |S|)");
  }
  if (p.memory_blocks == 0) return Status::InvalidArgument("memory must be positive");
  if (p.tape_rate_bps <= 0.0 || p.disk_rate_bps <= 0.0) {
    return Status::InvalidArgument("device rates must be positive");
  }
  return Status::OK();
}

Result<CostBreakdown> EstimateDtNb(const CostParams& p) {
  Calc c(p);
  TERTIO_ASSIGN_OR_RETURN(mem::NbSplit split, mem::NbSplit::Plan(p.memory_blocks, false));
  const BlockCount mr = split.r_blocks;
  const BlockCount ms = split.s_blocks;
  if (p.disk_blocks < p.r_blocks) {
    return Status::ResourceExhausted("DT-NB requires D >= |R| to stage R on disk");
  }
  std::uint64_t n = CeilDiv<std::uint64_t>(p.s_blocks.value(), ms.value());
  CostBreakdown out;
  out.step1_seconds = c.TapeSeconds(p.r_blocks) + c.DiskSeconds(p.r_blocks) +
                      c.Positioning(p.r_blocks, ms);
  out.step2_seconds = c.STapeSeconds(p.s_blocks) +
                      static_cast<double>(n) * (c.DiskSeconds(p.r_blocks) +
                                                c.Positioning(p.r_blocks, mr));
  out.total_seconds = out.step1_seconds + out.step2_seconds;
  out.disk_traffic_blocks = p.r_blocks + n * p.r_blocks;
  out.tape_traffic_blocks = p.r_blocks + p.s_blocks;
  out.r_scans = n;
  out.iterations = n;
  out.disk_space_blocks = p.r_blocks;
  out.memory_required_blocks = 2;
  return out;
}

Result<CostBreakdown> EstimateCdtNbMb(const CostParams& p) {
  Calc c(p);
  TERTIO_ASSIGN_OR_RETURN(mem::NbSplit split, mem::NbSplit::Plan(p.memory_blocks, true));
  const BlockCount mr = split.r_blocks;
  const BlockCount ms = split.s_blocks;  // per S buffer; there are two
  if (p.disk_blocks < p.r_blocks) {
    return Status::ResourceExhausted("CDT-NB/MB requires D >= |R| to stage R on disk");
  }
  std::uint64_t n = CeilDiv<std::uint64_t>(p.s_blocks.value(), ms.value());
  SimSeconds join_iter = c.DiskSeconds(p.r_blocks) + c.Positioning(p.r_blocks, mr);
  SimSeconds read_iter = c.STapeSeconds(ms);
  CostBreakdown out;
  out.step1_seconds =
      std::max(c.TapeSeconds(p.r_blocks), c.DiskSeconds(p.r_blocks) +
                                              c.Positioning(p.r_blocks, ms));
  out.step2_seconds = read_iter + (n > 0 ? static_cast<double>(n - 1) : 0.0) *
                                      std::max(read_iter, join_iter) +
                      join_iter;
  out.total_seconds = out.step1_seconds + out.step2_seconds;
  out.disk_traffic_blocks = p.r_blocks + n * p.r_blocks;
  out.tape_traffic_blocks = p.r_blocks + p.s_blocks;
  out.r_scans = n;
  out.iterations = n;
  out.disk_space_blocks = p.r_blocks;
  out.memory_required_blocks = 3;
  return out;
}

Result<CostBreakdown> EstimateCdtNbDb(const CostParams& p) {
  Calc c(p);
  // One full-size S buffer in memory.
  TERTIO_ASSIGN_OR_RETURN(mem::NbSplit split, mem::NbSplit::Plan(p.memory_blocks, false));
  const BlockCount mr = split.r_blocks;
  const BlockCount ms = split.s_blocks;
  if (p.disk_blocks < p.r_blocks + ms) {
    return Status::ResourceExhausted("CDT-NB/DB requires D >= |R| + |Si| for the disk buffer");
  }
  std::uint64_t n = CeilDiv<std::uint64_t>(p.s_blocks.value(), ms.value());
  // Steady state: tape refills Ms while the disk serves Ms (buffer write) +
  // Ms (buffer read) + R (scan of R).
  SimSeconds tape_iter = c.STapeSeconds(ms);
  SimSeconds disk_iter = c.DiskSeconds(2 * ms + p.r_blocks) + c.Positioning(ms, ms) * 2 +
                         c.Positioning(p.r_blocks, mr);
  SimSeconds first_fill = c.STapeSeconds(ms) + c.DiskSeconds(ms);
  SimSeconds last_join = c.DiskSeconds(ms + p.r_blocks) + c.Positioning(p.r_blocks, mr);
  CostBreakdown out;
  out.step1_seconds =
      std::max(c.TapeSeconds(p.r_blocks), c.DiskSeconds(p.r_blocks) +
                                              c.Positioning(p.r_blocks, ms));
  out.step2_seconds = first_fill +
                      (n > 1 ? static_cast<double>(n - 1) * std::max(tape_iter, disk_iter) : 0.0) +
                      last_join;
  out.total_seconds = out.step1_seconds + out.step2_seconds;
  out.disk_traffic_blocks = p.r_blocks + 2 * p.s_blocks + n * p.r_blocks;
  out.tape_traffic_blocks = p.r_blocks + p.s_blocks;
  out.r_scans = n;
  out.iterations = n;
  out.disk_space_blocks = p.r_blocks + ms;
  out.memory_required_blocks = 2;
  return out;
}

/// Shared Grace geometry: bucket layout + per-iteration S buffer d.
struct GraceGeometry {
  hash::BucketLayout layout;
  BlockCount d = 0;  // S buffer on disk per iteration
  std::uint64_t iterations = 0;
};

Result<GraceGeometry> PlanDiskTapeGrace(const CostParams& p) {
  TERTIO_ASSIGN_OR_RETURN(hash::BucketLayout layout,
                          hash::BucketLayout::Plan(p.r_blocks, p.memory_blocks));
  if (p.disk_blocks <= p.r_blocks) {
    return Status::ResourceExhausted(
        StrFormat("disk space of %llu blocks cannot hold R (%llu) plus an S buffer",
                  static_cast<unsigned long long>(p.disk_blocks.value()),
                  static_cast<unsigned long long>(p.r_blocks.value())));
  }
  GraceGeometry g;
  g.layout = layout;
  g.d = p.disk_blocks - p.r_blocks;
  g.iterations = CeilDiv<std::uint64_t>(p.s_blocks.value(), g.d.value());
  return g;
}

Result<CostBreakdown> EstimateDtGh(const CostParams& p) {
  Calc c(p);
  TERTIO_ASSIGN_OR_RETURN(GraceGeometry g, PlanDiskTapeGrace(p));
  BlockCount w = g.layout.write_buffer_blocks;
  std::uint64_t n = g.iterations;
  CostBreakdown out;
  out.step1_seconds =
      c.TapeSeconds(p.r_blocks) + c.DiskSeconds(p.r_blocks) + c.Positioning(p.r_blocks, w);
  // Per iteration: read d from tape, hash-write d, then join every bucket
  // pair: read the R bucket (R total per iteration) and the S bucket (d).
  out.step2_seconds = c.STapeSeconds(p.s_blocks) + c.DiskSeconds(2 * p.s_blocks) +
                      c.Positioning(p.s_blocks, w) * 2 +
                      static_cast<double>(n) *
                          (c.DiskSeconds(p.r_blocks) + c.Positioning(p.r_blocks, w));
  out.total_seconds = out.step1_seconds + out.step2_seconds;
  out.disk_traffic_blocks = p.r_blocks + n * p.r_blocks + 2 * p.s_blocks;
  out.tape_traffic_blocks = p.r_blocks + p.s_blocks;
  out.r_scans = n;
  out.iterations = n;
  out.disk_space_blocks = p.disk_blocks;
  out.memory_required_blocks = g.layout.memory_blocks;
  return out;
}

Result<CostBreakdown> EstimateCdtGh(const CostParams& p) {
  Calc c(p);
  TERTIO_ASSIGN_OR_RETURN(GraceGeometry g, PlanDiskTapeGrace(p));
  BlockCount w = g.layout.write_buffer_blocks;
  std::uint64_t n = g.iterations;
  // Average S consumed per iteration (the last slab may be partial).
  BlockCount slab = CeilDiv<std::uint64_t>(p.s_blocks.value(), n);
  SimSeconds tape_iter = c.STapeSeconds(slab);
  SimSeconds disk_iter = c.DiskSeconds(2 * slab + p.r_blocks) +
                         c.Positioning(2 * slab + p.r_blocks, w);
  SimSeconds fill = std::max(c.STapeSeconds(slab), c.DiskSeconds(slab) + c.Positioning(slab, w));
  SimSeconds last_join = c.DiskSeconds(slab + p.r_blocks) + c.Positioning(slab + p.r_blocks, w);
  CostBreakdown out;
  out.step1_seconds = std::max(c.TapeSeconds(p.r_blocks),
                               c.DiskSeconds(p.r_blocks) + c.Positioning(p.r_blocks, w));
  out.step2_seconds =
      fill + (n > 1 ? static_cast<double>(n - 1) * std::max(tape_iter, disk_iter) : 0.0) +
      last_join;
  out.total_seconds = out.step1_seconds + out.step2_seconds;
  out.disk_traffic_blocks = p.r_blocks + n * p.r_blocks + 2 * p.s_blocks;
  out.tape_traffic_blocks = p.r_blocks + p.s_blocks;
  out.r_scans = n;
  out.iterations = n;
  out.disk_space_blocks = p.disk_blocks;
  out.memory_required_blocks = g.layout.memory_blocks;
  return out;
}

Result<CostBreakdown> EstimateCttGh(const CostParams& p) {
  Calc c(p);
  TERTIO_ASSIGN_OR_RETURN(hash::BucketLayout layout,
                          hash::BucketLayout::Plan(p.r_blocks, p.memory_blocks));
  if (p.disk_blocks == 0) return Status::ResourceExhausted("CTT-GH requires some disk space");
  BlockCount w = layout.write_buffer_blocks;
  std::uint64_t scans = CeilDiv<std::uint64_t>(p.r_blocks.value(), p.disk_blocks.value());
  std::uint64_t n = CeilDiv<std::uint64_t>(p.s_blocks.value(), p.disk_blocks.value());
  // Per-scan assembly slice and per-iteration S slab (capped by the data).
  BlockCount slice = CeilDiv<std::uint64_t>(p.r_blocks.value(), scans);
  BlockCount slab = CeilDiv<std::uint64_t>(p.s_blocks.value(), n);

  // Step I, per scan: stream R from tape while assembling a slice of
  // buckets on disk (overlapped), then stream the slice back and append it
  // to the R tape (read-back overlaps the append; both are bounded by the
  // slower medium). The last scan assembles the tail fraction of R.
  SimSeconds scan_hash = std::max(c.TapeSeconds(p.r_blocks),
                                  c.DiskSeconds(slice) + c.Positioning(slice, w));
  SimSeconds scan_append =
      std::max(c.DiskSeconds(slice) + c.Positioning(slice, w), c.TapeSeconds(slice));
  CostBreakdown out;
  out.step1_seconds = static_cast<double>(scans) * (scan_hash + scan_append);

  // Step II, per iteration: read a slab of S (tape S), read all hashed R
  // buckets (tape R), and serve 2*slab of disk traffic — all overlapped.
  SimSeconds iter = std::max({c.STapeSeconds(slab), c.TapeSeconds(p.r_blocks),
                              c.DiskSeconds(2 * slab) + c.Positioning(2 * slab, w)});
  SimSeconds fill = std::max(c.STapeSeconds(slab), c.DiskSeconds(slab) + c.Positioning(slab, w));
  SimSeconds last_join = std::max(c.TapeSeconds(p.r_blocks),
                                  c.DiskSeconds(slab) + c.Positioning(slab, w));
  out.step2_seconds =
      fill + (n > 1 ? static_cast<double>(n - 1) * iter : 0.0) + last_join;
  out.total_seconds = out.step1_seconds + out.step2_seconds;
  out.disk_traffic_blocks = 2 * p.r_blocks + 2 * p.s_blocks;
  out.tape_traffic_blocks =
      scans * p.r_blocks + p.r_blocks + n * p.r_blocks + p.s_blocks;
  out.r_scans = scans + n;
  out.iterations = n;
  out.disk_space_blocks = p.disk_blocks;
  out.memory_required_blocks = layout.memory_blocks;
  out.tape_scratch_r_blocks = p.r_blocks;
  return out;
}

Result<CostBreakdown> EstimateTtGh(const CostParams& p) {
  Calc c(p);
  TERTIO_ASSIGN_OR_RETURN(hash::BucketLayout layout,
                          hash::BucketLayout::Plan(p.r_blocks, p.memory_blocks));
  if (p.disk_blocks == 0) return Status::ResourceExhausted("TT-GH requires some disk space");
  BlockCount w = layout.write_buffer_blocks;
  std::uint64_t scans_r = CeilDiv<std::uint64_t>(p.r_blocks.value(), p.disk_blocks.value());
  std::uint64_t scans_s = CeilDiv<std::uint64_t>(p.s_blocks.value(), p.disk_blocks.value());
  BlockCount slice_r = CeilDiv<std::uint64_t>(p.r_blocks.value(), scans_r);
  BlockCount slice_s = CeilDiv<std::uint64_t>(p.s_blocks.value(), scans_s);

  // Hashing R to the S tape: the append (drive S) overlaps the next scan's
  // read (drive R), so each scan costs roughly one pass over the relation
  // plus disk work for its slice; one trailing append remains.
  // The S scans read the original S, which the extent cache may hold; the
  // R scans and every Step II bucket stream read (re)partitioned scratch,
  // which is never cached.
  auto scan_cost = [&](BlockCount rel_blocks, BlockCount slice, bool s_side) {
    return std::max(s_side ? c.STapeSeconds(rel_blocks) : c.TapeSeconds(rel_blocks),
                    c.DiskSeconds(2 * slice) + c.Positioning(2 * slice, w));
  };
  CostBreakdown out;
  out.step1_seconds =
      static_cast<double>(scans_r) * scan_cost(p.r_blocks, slice_r, /*s_side=*/false) +
      c.TapeSeconds(slice_r) +
      static_cast<double>(scans_s) * scan_cost(p.s_blocks, slice_s, /*s_side=*/true) +
      c.TapeSeconds(slice_s);
  // Step II: stream R buckets (tape S drive) and S buckets (tape R drive) in
  // parallel.
  out.step2_seconds = std::max(c.TapeSeconds(p.r_blocks), c.TapeSeconds(p.s_blocks));
  out.total_seconds = out.step1_seconds + out.step2_seconds;
  out.disk_traffic_blocks = 2 * p.r_blocks + 2 * p.s_blocks;
  out.tape_traffic_blocks = scans_r * p.r_blocks + p.r_blocks + scans_s * p.s_blocks +
                            p.s_blocks + p.r_blocks + p.s_blocks;
  out.r_scans = scans_r + 1;
  out.iterations = scans_r + scans_s;
  out.disk_space_blocks = p.disk_blocks;
  out.memory_required_blocks = layout.memory_blocks;
  out.tape_scratch_r_blocks = p.s_blocks;
  out.tape_scratch_s_blocks = p.r_blocks;
  return out;
}

}  // namespace

Result<CostBreakdown> Estimate(JoinMethodId method, const CostParams& params) {
  TERTIO_RETURN_IF_ERROR(ValidateCommon(params));
  switch (method) {
    case JoinMethodId::kDtNb:
      return EstimateDtNb(params);
    case JoinMethodId::kCdtNbMb:
      return EstimateCdtNbMb(params);
    case JoinMethodId::kCdtNbDb:
      return EstimateCdtNbDb(params);
    case JoinMethodId::kDtGh:
      return EstimateDtGh(params);
    case JoinMethodId::kCdtGh:
      return EstimateCdtGh(params);
    case JoinMethodId::kCttGh:
      return EstimateCttGh(params);
    case JoinMethodId::kTtGh:
      return EstimateTtGh(params);
  }
  return Status::InvalidArgument("unknown join method");
}

Result<CostParams> WithLocalOutput(CostParams params, double output_bandwidth_share) {
  if (output_bandwidth_share < 0.0 || output_bandwidth_share >= 1.0) {
    return Status::InvalidArgument("output bandwidth share must be in [0, 1)");
  }
  params.disk_rate_bps *= 1.0 - output_bandwidth_share;
  return params;
}

SimSeconds OptimumJoinSeconds(const CostParams& params) {
  return static_cast<double>(params.s_blocks.value()) * static_cast<double>(params.block_bytes.value()) /
         params.tape_rate_bps.value();
}

double RelativeJoinOverhead(SimSeconds response, const CostParams& params) {
  SimSeconds optimum = OptimumJoinSeconds(params);
  return optimum > 0.0 ? response / optimum - 1.0 : 0.0;
}

}  // namespace tertio::cost
