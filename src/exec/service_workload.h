#pragma once

/// \file service_workload.h
/// Synthetic multi-query workloads for the join service.
///
/// The single-query experiment driver (experiment.h) generates one R and one
/// S onto two loose tapes that one session mounts. The service works against
/// library cartridges instead: this helper populates a Site's library with
/// one large S relation per cartridge and several small R relations sharing
/// one cartridge, so a stream of joins "R_j |><| S_k" can be composed where
/// many queries target the same S cartridge — the scan-sharing case.

#include <cstdint>
#include <vector>

#include "exec/site.h"
#include "relation/relation.h"
#include "util/status.h"

namespace tertio::exec {

/// Shape of the generated cartridge population.
struct ServiceWorkloadConfig {
  /// Distinct S relations, one per cartridge.
  int s_cartridges = 1;
  /// Bytes of each S relation.
  ByteCount s_bytes = 0;
  /// Distinct R relations, all appended to one shared cartridge.
  int r_relations = 1;
  /// Cartridges the R relations are distributed over (relation j goes to
  /// cartridge j mod r_cartridges, in generation order). 1 (the default,
  /// bit-identical to the original single-cartridge layout) makes every
  /// query contend for the same R tape — which serializes the whole service,
  /// since an in-flight query keeps it mounted. Concurrency benches spread R
  /// over several cartridges.
  int r_cartridges = 1;
  /// Bytes of each R relation.
  ByteCount r_bytes = 0;
  double compressibility = 0.25;
  ByteCount record_bytes = 100;
  std::uint64_t seed = 42;
  /// Timing-only blocks (paper scale) vs full data.
  bool phantom = true;
};

/// The populated library: descriptors plus the slots they live in.
struct ServiceWorkload {
  std::vector<rel::Relation> r;
  std::vector<rel::Relation> s;
  /// Slot of the first R cartridge (the only one when r_cartridges == 1).
  int r_slot = -1;
  /// Slot of the cartridge holding each R relation (parallel to `r`).
  std::vector<int> r_slots;
  /// Slot of each S cartridge (parallel to `s`).
  std::vector<int> s_slots;
};

/// Generates the relations onto fresh cartridges in the site's library
/// (uncosted — experiment setup). The site must have a library with enough
/// free slots (1 + s_cartridges).
Result<ServiceWorkload> PrepareServiceWorkload(Site* site, const ServiceWorkloadConfig& config);

}  // namespace tertio::exec
