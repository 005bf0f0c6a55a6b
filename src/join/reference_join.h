#pragma once

/// \file reference_join.h
/// Uncosted in-memory equi-join used as the correctness oracle.
///
/// Reads both relations directly off their tape volumes (no device timing)
/// and computes the full join in memory on the seed's multimap table
/// (legacy_table.h), independent of the executors' FlatJoinTable. Every
/// tertiary method must produce the same (tuples, checksum) pair.

#include "join/join_output.h"
#include "relation/relation.h"
#include "util/status.h"

namespace tertio::join {

/// Computes R |><| S entirely in memory. Fails on phantom relations.
Result<JoinOutput> ReferenceJoin(const rel::Relation& r, const rel::Relation& s,
                                 std::size_t r_key_column, std::size_t s_key_column);

}  // namespace tertio::join
