#pragma once

/// \file join_spec.h
/// Inputs, outputs, and device context of one tertiary join execution.

#include <cstdint>
#include <string>

#include "cost/method_id.h"
#include "join/join_output.h"
#include "disk/striped_group.h"
#include "mem/memory_budget.h"
#include "relation/relation.h"
#include "sim/pipeline.h"
#include "sim/simulation.h"
#include "tape/tape_drive.h"
#include "util/status.h"
#include "util/units.h"

namespace tertio::join {

/// Tuning knobs shared by all executors.
struct ExecutionOptions {
  /// Preferred hash write-buffer size w (blocks per bucket flush; the
  /// planner shrinks it under memory pressure). 0 = the library default
  /// (hash::BucketLayout::Plan).
  BlockCount preferred_write_buffer = 0;
};

/// The join to compute: R |><| S on an equality key.
struct JoinSpec {
  const rel::Relation* r = nullptr;
  const rel::Relation* s = nullptr;
  std::size_t r_key_column = 0;
  std::size_t s_key_column = 0;
  ExecutionOptions options;
  /// Optional pipelined consumer of the joined pairs (Section 3.2's
  /// "pipelined to an unrelated process"). Ignored in phantom runs.
  MatchSink match_sink;
};

/// The devices and memory the join may use (Section 3.1's configuration).
struct JoinContext {
  sim::Simulation* sim = nullptr;
  /// Drive holding (and with scratch space for) tape R.
  tape::TapeDrive* drive_r = nullptr;
  /// Drive holding tape S.
  tape::TapeDrive* drive_s = nullptr;
  disk::StripedDiskGroup* disks = nullptr;
  mem::MemoryBudget* memory = nullptr;
  /// Robot resource when the machine has a tape library (exchange counting).
  sim::Resource* robot = nullptr;
  /// Earliest virtual time the join may begin. The single-query path leaves
  /// this 0 (the join anchors at the current horizon, the seed behavior);
  /// the service layer sets it to the end of the query's mounts, which is
  /// never before the query's dispatch or its arrival.
  SimSeconds not_before = 0.0;
  /// Anchor the join at exactly not_before instead of
  /// max(Horizon(), not_before), and measure response_seconds from
  /// per-resource horizon deltas instead of the global horizon. Set by the
  /// query scheduler for every query it runs: with other sessions in flight
  /// the global horizon includes *their* queued work, so anchoring or
  /// measuring against it would serialize independent joins; on an idle
  /// site both ways give the same bits. Off for the single-query path.
  bool exact_anchor = false;
  /// Retain every pipeline span in JoinStats::spans (per-phase summaries are
  /// always collected; full span lists of paper-scale joins are large).
  bool retain_spans = false;
};

/// Everything a run reports. Timing is virtual; tuple counts are exact in
/// full-data mode and zero in timing-only (phantom) mode.
struct JoinStats {
  std::string method;
  /// Total response time (Steps I + II), seconds of virtual time.
  SimSeconds response_seconds = 0.0;
  SimSeconds step1_seconds = 0.0;
  SimSeconds step2_seconds = 0.0;

  /// True when the run moved real tuples and `output_*` are meaningful.
  bool output_valid = false;
  std::uint64_t output_tuples = 0;
  /// Order-independent digest over all joined pairs; equal digests across
  /// methods mean identical join results.
  std::uint64_t output_checksum = 0;

  BlockCount disk_blocks_read = 0;
  BlockCount disk_blocks_written = 0;
  BlockCount tape_blocks_read = 0;
  BlockCount tape_blocks_written = 0;
  /// Tape blocks this join received by piggybacking on another query's
  /// in-flight pass (scan sharing) instead of reading the tape itself.
  /// Always 0 outside the multi-query service.
  BlockCount tape_blocks_shared = 0;
  /// Tape blocks this join received from the cross-query disk extent cache
  /// (disk/extent_cache.h) at disk cost instead of reading the tape.
  /// Always 0 outside the multi-query service.
  BlockCount tape_blocks_cached = 0;
  std::uint64_t disk_requests = 0;

  /// Full passes over R (from any medium).
  std::uint64_t r_scans = 0;
  std::uint64_t iterations = 0;
  /// Extra build-side slices forced by hash-bucket overflow (0 under the
  /// paper's uniform-hashing assumption; >0 signals key skew absorbed by
  /// the graceful-degradation path).
  std::uint64_t bucket_overflow_slices = 0;

  /// Peak reservations observed during the run.
  BlockCount peak_memory_blocks = 0;
  BlockCount peak_disk_blocks = 0;

  /// Memory blocks this join still held when its stats were collected (the
  /// method's working reservation, excluding pre-existing reservations).
  BlockCount memory_occupied_blocks = 0;
  /// Robot operations (cartridge exchange trips) during the join.
  std::uint64_t robot_exchanges = 0;

  /// Fault-model counters (sim/fault.h), all zero in a fault-free run.
  /// Faults injected into this join's device operations (transient read
  /// errors + bad blocks discovered + robot exchange failures).
  std::uint64_t faults_injected = 0;
  /// Device-level bounded re-attempts that recovered.
  std::uint64_t fault_retries = 0;
  /// Latent bad blocks discovered and skip-and-remapped.
  std::uint64_t blocks_remapped = 0;
  /// Chunk-granular re-issues after a hard device error (the pipeline's
  /// in-place chunk retry).
  std::uint64_t chunk_retries = 0;
  /// Device time spent detecting and recovering from faults.
  SimSeconds recovery_seconds = 0.0;

  /// Per-phase pipeline spans of the run (always carries per-phase
  /// summaries; individual spans when JoinContext::retain_spans was set).
  /// Rendered by exec/report and sim/trace_report.
  sim::SpanTrace spans;

  BlockCount disk_traffic_blocks() const { return disk_blocks_read + disk_blocks_written; }
  BlockCount tape_traffic_blocks() const { return tape_blocks_read + tape_blocks_written; }
};

/// Table 2: what a method needs before it can run.
struct ResourceRequirements {
  BlockCount memory_blocks = 0;
  BlockCount disk_blocks = 0;
  BlockCount tape_scratch_r_blocks = 0;
  BlockCount tape_scratch_s_blocks = 0;
};

}  // namespace tertio::join
