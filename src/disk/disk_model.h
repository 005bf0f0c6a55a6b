#pragma once

/// \file disk_model.h
/// Performance model of one disk drive.
///
/// The paper uses a transfer-only cost model for disks but justifies it by
/// requiring multi-page requests (≥30 blocks), under which positioning cost
/// is negligible (Section 3.2, citing [7]). tertio models positioning
/// explicitly — a per-request positioning time charged whenever a request
/// does not continue sequentially from the previous one — so that the ≥30
/// block claim is checkable and so that the random-I/O degradation the paper
/// observes for tiny hash-bucket writes (Section 9, smallest memory sizes)
/// emerges from the model instead of being hand-inserted.

#include <string>

#include "util/units.h"

namespace tertio::disk {

/// Static performance characteristics of one disk.
struct DiskModel {
  std::string name = "generic-disk";

  /// Sustained media transfer rate (the paper's X_D).
  BytesPerSecond transfer_rate_bps = 4.0e6;

  /// Average positioning time (seek + rotational latency) charged per
  /// discontiguous request.
  SimSeconds positioning_seconds = 0.012;

  /// Seconds to transfer `bytes` (excluding positioning).
  SimSeconds TransferSeconds(ByteCount bytes) const {
    return bytes / transfer_rate_bps;
  }

  /// Seconds one request moving `bytes` occupies the disk: the transfer,
  /// plus the positioning time when the request is `positioned` (does not
  /// continue the previous one). Every disk request is costed by this rule.
  SimSeconds RequestSeconds(ByteCount bytes, bool positioned) const {
    SimSeconds seconds = TransferSeconds(bytes);
    if (positioned) seconds += positioning_seconds;
    return seconds;
  }

  /// Quantum Fireball 1080 (the 1 GB disk on each SCSI bus in the paper's
  /// testbed, Section 6).
  static DiskModel QuantumFireball1080();

  /// Quantum Lightning 540 (the second disk on the first SCSI bus).
  static DiskModel QuantumLightning540();

  /// Positioning-free disk for isolating algorithmic cost in tests.
  static DiskModel Ideal(BytesPerSecond rate_bps);
};

}  // namespace tertio::disk
