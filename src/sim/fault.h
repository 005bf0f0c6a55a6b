#pragma once

/// \file fault.h
/// Deterministic fault injection for the simulated devices.
///
/// The paper's joins run for hours against DLT drives, where media defects
/// and robot glitches are routine; tertio's devices were perfect. A
/// FaultPlan describes, per device class, how imperfect they should be:
///
///  * transient read errors — a read attempt of one block fails with a
///    fixed probability and is retried (reposition + re-read + exponential
///    backoff) up to a bounded number of times, after which the operation
///    fails hard with StatusCode::kDeviceError;
///  * latent bad blocks — a fixed fraction of media *positions* is
///    defective. A defect is a property of the position (stable across
///    retries and re-reads), discovered on first contact: the failed
///    attempt is charged, then the device skip-and-remaps the block to a
///    spare region and never faults there again;
///  * robot exchange failures — a cartridge exchange trip fails with a
///    fixed probability and is re-tried, each failed trip costing a full
///    exchange.
///
/// All randomness flows through one seeded Rng per injector plus a
/// position-keyed hash for bad blocks, so a (plan, workload) pair replays
/// exactly. With every rate at zero — the default — the injectors are never
/// consulted and device timings are bit-identical to a fault-free build.

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_set>

#include "util/rng.h"
#include "util/status.h"
#include "util/units.h"

namespace tertio::sim {

/// Fault behaviour of one device class.
struct FaultProfile {
  /// Probability that one block's read attempt fails transiently.
  double transient_read_error_rate = 0.0;
  /// Fraction of media positions carrying a latent defect.
  double bad_block_rate = 0.0;
  /// Probability that one robot exchange trip fails (libraries only).
  double exchange_failure_rate = 0.0;
  /// Bounded retries per fault site before the operation fails hard.
  int max_retries = 4;
  /// Base backoff charged before a retry; doubles per consecutive retry.
  SimSeconds retry_backoff_seconds = 0.1;
  /// Skip-and-remap penalty charged once per discovered bad block.
  SimSeconds remap_seconds = 2.0;

  bool enabled() const {
    return transient_read_error_rate > 0.0 || bad_block_rate > 0.0 ||
           exchange_failure_rate > 0.0;
  }
};

/// One plan for a whole machine: per-class profiles plus the seed.
struct FaultPlan {
  std::uint64_t seed = 1;
  FaultProfile tape;
  FaultProfile disk;
  /// Only the exchange fields of the robot profile are consulted.
  FaultProfile robot;

  bool enabled() const { return tape.enabled() || disk.enabled() || robot.enabled(); }

  /// Parses a comma-separated spec, e.g.
  ///   "seed=7,tape-transient=1e-4,tape-bad=1e-6,disk-transient=1e-5,
  ///    exchange=0.01,retries=4,backoff=0.1,remap=2"
  /// Unknown keys or malformed values are errors.
  static Result<FaultPlan> Parse(std::string_view spec);
};

/// Cumulative fault/recovery counters of one injector.
struct FaultStats {
  std::uint64_t transient_faults = 0;
  std::uint64_t bad_blocks_remapped = 0;
  std::uint64_t exchange_faults = 0;
  /// Bounded re-attempts that recovered (retried reads + retried trips).
  std::uint64_t retries = 0;
  /// Fault sites that exhausted their retries (surfaced as kDeviceError).
  std::uint64_t hard_failures = 0;
  /// Device time spent detecting and recovering from faults.
  SimSeconds recovery_seconds = 0.0;

  std::uint64_t faults() const {
    return transient_faults + bad_blocks_remapped + exchange_faults;
  }

  void Add(const FaultStats& other);
};

/// The per-device fault source. Devices consult it inside their costed
/// operations; it answers with the extra time recovery took (or the point
/// where recovery gave up) and keeps the running FaultStats.
class FaultInjector {
 public:
  FaultInjector(const FaultProfile& profile, std::uint64_t plan_seed, std::string_view device);

  const FaultProfile& profile() const { return profile_; }
  const FaultStats& stats() const { return stats_; }
  const std::string& device() const { return device_; }
  bool enabled() const { return profile_.enabled(); }

  /// Outcome of walking one read request through the fault model.
  struct ReadOutcome {
    /// Recovery time to add to the clean transfer cost (failed attempts,
    /// repositions, backoff, remaps).
    SimSeconds recovery_seconds = 0.0;
    /// Blocks delivered before the walk stopped (== count on success).
    BlockCount clean_blocks = 0;
    bool completed = true;
    /// Media position of the unrecoverable fault when !completed.
    BlockIndex failed_block = 0;
  };

  /// Simulates reading [start, start+count): draws transient faults per
  /// block attempt, discovers latent bad blocks, and prices every recovery
  /// action at `seconds_per_block` (one wasted re-read) plus
  /// `reposition_seconds` (backing the head up) plus backoff. The blocks
  /// are drawn in the order they pass the head: ascending, or descending
  /// for a `backwards` (READ REVERSE) read.
  ReadOutcome SimulateRead(BlockIndex start, BlockCount count, SimSeconds seconds_per_block,
                           SimSeconds reposition_seconds, bool backwards = false);

  /// Outcome of one cartridge exchange through the fault model.
  struct ExchangeOutcome {
    /// Failed trips before the successful one (each costs a full exchange).
    int failed_attempts = 0;
    bool completed = true;
  };
  /// `exchange_seconds` is what one trip costs; failed trips are booked as
  /// recovery time (the caller schedules them on the robot resource).
  ExchangeOutcome SimulateExchange(SimSeconds exchange_seconds);

  /// Whether `position` carries a latent (not yet remapped) defect — a pure
  /// function of (plan seed, device, position), so tests can predict it.
  bool IsLatentBadBlock(BlockIndex position) const;

 private:
  FaultProfile profile_;
  std::uint64_t position_salt_;
  std::string device_;
  Rng rng_;
  std::unordered_set<BlockIndex> remapped_;
  FaultStats stats_;
};

}  // namespace tertio::sim
