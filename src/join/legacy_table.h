#pragma once

/// \file legacy_table.h
/// The seed's std::unordered_multimap join table, kept verbatim as an
/// independent reference implementation.
///
/// Executors use FlatJoinTable (flat_table.h). This table (a) backs
/// join::ReferenceJoin, so the correctness oracle shares no code with the
/// table under test, (b) lets tests/join_correctness_test.cc assert the two
/// substrates compute identical match sets over generated workloads, and
/// (c) gives bench_micro_substrates the node-per-entry baseline for the flat
/// table's build/probe speedup. Do not use it in executors.

#include <cstdint>
#include <span>
// tertio-lint: allow(unordered-map) — this IS the multimap baseline.
#include <unordered_map>
#include <vector>

#include "join/join_output.h"
#include "relation/block.h"
#include "relation/schema.h"
#include "relation/tuple.h"
#include "util/block_payload.h"
#include "util/status.h"

namespace tertio::join {

/// The pre-flat-table implementation: one multimap node plus (when records
/// are captured) one heap-allocated byte vector per build tuple.
class LegacyMultimapJoinTable {
 public:
  LegacyMultimapJoinTable(const rel::Schema* build_schema, std::size_t build_key_column,
                          bool build_is_r, bool capture_records = false)
      : build_schema_(build_schema),
        build_key_(build_key_column),
        build_is_r_(build_is_r),
        capture_records_(capture_records) {}

  Status AddBlocks(std::span<const BlockPayload> blocks) {
    for (const BlockPayload& payload : blocks) {
      TERTIO_ASSIGN_OR_RETURN(rel::BlockReader reader,
                              rel::BlockReader::Open(payload, build_schema_));
      for (std::uint64_t i = 0; i < reader.record_count(); ++i) {
        rel::Tuple tuple(reader.record(i), build_schema_);
        Entry entry{HashBytes(tuple.bytes()), {}};
        if (capture_records_) {
          entry.bytes.assign(tuple.bytes().begin(), tuple.bytes().end());
        }
        entries_.emplace(tuple.GetInt64(build_key_), std::move(entry));
      }
    }
    return Status::OK();
  }

  Status Probe(std::span<const BlockPayload> blocks, const rel::Schema* probe_schema,
               std::size_t probe_key_column, JoinOutput* out) const {
    const bool pipeline = capture_records_ && out->has_sink();
    for (const BlockPayload& payload : blocks) {
      TERTIO_ASSIGN_OR_RETURN(rel::BlockReader reader,
                              rel::BlockReader::Open(payload, probe_schema));
      for (std::uint64_t i = 0; i < reader.record_count(); ++i) {
        rel::Tuple tuple(reader.record(i), probe_schema);
        std::int64_t key = tuple.GetInt64(probe_key_column);
        std::uint64_t probe_digest = HashBytes(tuple.bytes());
        auto [begin, end] = entries_.equal_range(key);
        for (auto it = begin; it != end; ++it) {
          if (pipeline) {
            rel::Tuple build_tuple(it->second.bytes, build_schema_);
            const rel::Tuple& r = build_is_r_ ? build_tuple : tuple;
            const rel::Tuple& s = build_is_r_ ? tuple : build_tuple;
            const std::uint64_t r_digest = build_is_r_ ? it->second.digest : probe_digest;
            const std::uint64_t s_digest = build_is_r_ ? probe_digest : it->second.digest;
            TERTIO_RETURN_IF_ERROR(out->AddMatchWithRows(key, r, r_digest, s, s_digest));
          } else if (build_is_r_) {
            out->AddMatch(key, it->second.digest, probe_digest);
          } else {
            out->AddMatch(key, probe_digest, it->second.digest);
          }
        }
      }
    }
    return Status::OK();
  }

  std::uint64_t size() const { return entries_.size(); }
  void Clear() { entries_.clear(); }

 private:
  struct Entry {
    std::uint64_t digest;
    std::vector<std::uint8_t> bytes;  // filled only when capture_records_
  };

  const rel::Schema* build_schema_;
  std::size_t build_key_;
  bool build_is_r_;
  bool capture_records_;
  // tertio-lint: allow(unordered-map) — the baseline under comparison.
  std::unordered_multimap<std::int64_t, Entry> entries_;
};

}  // namespace tertio::join
