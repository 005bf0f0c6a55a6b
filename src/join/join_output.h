#pragma once

/// \file join_output.h
/// Join result accumulation and the cross-method result digest.
///
/// The paper assumes query output is pipelined to a consumer and charges no
/// I/O for it (Section 3.2); tertio therefore accumulates a count and an
/// order-independent checksum instead of materializing pairs. Two join
/// methods computed the same join iff their (tuples, checksum) agree — the
/// property the correctness tests assert for all seven methods against the
/// in-memory reference join.

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <span>

#include "relation/tuple.h"
#include "util/rng.h"
#include "util/status.h"

namespace tertio::join {

/// Consumer of joined pairs. The paper's Section 3.2 assumes query output is
/// "pipelined to an unrelated process capable of receiving and processing
/// data at the output rate" — a MatchSink is that process. Pairs arrive in
/// an arbitrary, method-dependent order.
using MatchSink = std::function<Status(const rel::Tuple& r, const rel::Tuple& s)>;

/// Digest of a record's raw bytes: the per-record term of the pair checksum.
/// Word at a time: the state starts from the length, absorbs each 8-byte
/// word (the last one zero-padded) as h = M(h ^ w), where M multiplies by an
/// odd constant and folds the high half into the low, and ends with the
/// SplitMix64 finalizer. For fixed input words every step is a bijection of
/// the state, so any change inside one word changes the digest, and so does
/// a change of length alone (zero-extending a record by a byte).
inline std::uint64_t HashBytes(std::span<const std::uint8_t> bytes) {
  const std::uint8_t* p = bytes.data();
  const std::size_t n = bytes.size();
  std::uint64_t h = 0x243F6A8885A308D3ULL ^ n;
  auto absorb = [&h](std::uint64_t w) {
    h = (h ^ w) * 0x9E3779B97F4A7C15ULL;
    h ^= h >> 32;
  };
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    std::uint64_t w;
    std::memcpy(&w, p + i, sizeof(w));
    absorb(w);
  }
  if (i < n) {
    std::uint64_t w = 0;
    for (std::size_t j = 0; i + j < n; ++j) w |= std::uint64_t{p[i + j]} << (8 * j);
    absorb(w);
  }
  return SplitMix64(h);
}

/// Accumulator for joined pairs, with an optional pipelined consumer.
class JoinOutput {
 public:
  /// Records the pair (r_tuple, s_tuple); digests are HashBytes of the full
  /// records. Addition is commutative, so methods may emit pairs in any
  /// order.
  void AddMatch(std::int64_t key, std::uint64_t r_digest, std::uint64_t s_digest) {
    ++tuples_;
    checksum_ += SplitMix64(SplitMix64(static_cast<std::uint64_t>(key)) ^
                            (r_digest * 0x9E3779B97F4A7C15ULL) ^ s_digest);
  }

  /// Records the pair and forwards the full tuples to the sink (if set).
  /// The caller passes the records' HashBytes digests, which the tables
  /// already hold, so no pair re-hashes its records.
  Status AddMatchWithRows(std::int64_t key, const rel::Tuple& r, std::uint64_t r_digest,
                          const rel::Tuple& s, std::uint64_t s_digest) {
    AddMatch(key, r_digest, s_digest);
    if (sink_) return sink_(r, s);
    return Status::OK();
  }

  /// Attaches a pipelined consumer; pairs flow to it as they are produced.
  void set_sink(MatchSink sink) { sink_ = std::move(sink); }
  bool has_sink() const { return static_cast<bool>(sink_); }

  std::uint64_t tuples() const { return tuples_; }
  std::uint64_t checksum() const { return checksum_; }

 private:
  std::uint64_t tuples_ = 0;
  std::uint64_t checksum_ = 0;
  MatchSink sink_;
};

}  // namespace tertio::join
