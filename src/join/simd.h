#pragma once

/// \file simd.h
/// Vectorized slot-group compares for the flat join table.
///
/// This is the only file in the repository allowed to contain raw SIMD
/// intrinsics (tertio_lint rule `simd-intrinsics` pins that boundary). The
/// rest of the join layer sees one portable operation over a group of four
/// consecutive table slots, used by the table's slot search on both the
/// insert and the probe side:
///
///   CompareDigests4  — which of the four slot digests equal a probe digest,
///                      and which slots are empty (digest == 0)?
///
/// It returns little bitmasks (bit j = slot j), so the caller's slot-search
/// logic is identical across instruction sets and the scalar fallback —
/// the equivalence tests in tests/flat_table_simd_test.cc hold the SIMD
/// paths to bit-identical outputs against the forced-scalar reference.
///
/// The table's slots are 32 bytes (four std::uint64_t words) with the digest
/// in word 0, so consecutive digests sit one `stride_words` apart; SSE2 has
/// no gather, so the kernels assemble two digests per 128-bit lane pair from
/// scalar loads (the compare, movemask, and branch-free mask logic are where
/// the vector units earn their keep, not the loads).
///
/// Instruction-set selection is runtime-dispatched: the baseline presets
/// compile with no -march assumptions, SSE2 is architectural on x86_64 and
/// NEON on AArch64, so the "best" level needs no compiler flags. Override
/// with the environment variable TERTIO_SIMD=scalar|native (the forced-
/// scalar CI job) or SetLevelForTest from tests.

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <cstring>

#if defined(__x86_64__) || defined(_M_X64)
#define TERTIO_SIMD_SSE2 1
#include <emmintrin.h>
#elif defined(__aarch64__)
#define TERTIO_SIMD_NEON 1
#include <arm_neon.h>
#endif

namespace tertio::join::simd {

enum class Level : int {
  kScalar = 0,  ///< reference path: the original per-slot probe loop
  kSse2 = 1,    ///< x86-64 baseline (no SSE4.1 assumption)
  kNeon = 2,    ///< AArch64 baseline
};

/// Best level the build target architecturally guarantees (no CPUID needed:
/// SSE2 and NEON are baseline on their respective 64-bit ISAs).
constexpr Level BestSupportedLevel() {
#if defined(TERTIO_SIMD_SSE2)
  return Level::kSse2;
#elif defined(TERTIO_SIMD_NEON)
  return Level::kNeon;
#else
  return Level::kScalar;
#endif
}

constexpr const char* LevelName(Level level) {
  switch (level) {
    case Level::kScalar: return "scalar";
    case Level::kSse2: return "sse2";
    case Level::kNeon: return "neon";
  }
  return "unknown";
}

namespace internal {

/// -1 = uninitialized; otherwise holds a Level. Process-wide, so one env
/// read serves every table.
inline std::atomic<int>& LevelCell() {
  static std::atomic<int> cell{-1};
  return cell;
}

inline Level ResolveFromEnvironment() {
  const char* env = std::getenv("TERTIO_SIMD");
  if (env != nullptr && std::strcmp(env, "scalar") == 0) return Level::kScalar;
  // Any other value (including "native" and unset) takes the best level the
  // target guarantees; requesting an ISA the binary was not built for cannot
  // be honored, so there is no way to over-promise.
  return BestSupportedLevel();
}

}  // namespace internal

/// The dispatch level in effect for every FlatJoinTable in the process.
inline Level ActiveLevel() {
  int cached = internal::LevelCell().load(std::memory_order_relaxed);
  if (cached < 0) {
    cached = static_cast<int>(internal::ResolveFromEnvironment());
    internal::LevelCell().store(cached, std::memory_order_relaxed);
  }
  return static_cast<Level>(cached);
}

/// Test hook: force a dispatch level (clamped to the build target's best).
/// Tests restore the default by calling ResetLevelForTest.
inline void SetLevelForTest(Level level) {
  if (static_cast<int>(level) > static_cast<int>(BestSupportedLevel())) {
    level = BestSupportedLevel();
  }
  internal::LevelCell().store(static_cast<int>(level), std::memory_order_relaxed);
}

inline void ResetLevelForTest() {
  internal::LevelCell().store(-1, std::memory_order_relaxed);
}

/// Result of one group-of-four digest compare. Bit j (j in 0..3) refers to
/// the slot at `slot_digests + j * stride_words`.
struct Group4 {
  std::uint32_t match_mask = 0;  ///< slot digest == probe digest
  std::uint32_t empty_mask = 0;  ///< slot digest == 0 (open-addressing end)
};

/// Portable reference kernel — also the forced-scalar path's group compare
/// in code that is structured around groups (the scalar *probe loop* in
/// flat_table.cc does not call this; it keeps the original per-slot walk).
inline Group4 CompareDigests4Scalar(const std::uint64_t* slot_digests,
                                    std::size_t stride_words, std::uint64_t digest) {
  Group4 g;
  for (std::uint32_t j = 0; j < 4; ++j) {
    const std::uint64_t d = slot_digests[j * stride_words];
    g.match_mask |= (d == digest ? 1u : 0u) << j;
    g.empty_mask |= (d == 0 ? 1u : 0u) << j;
  }
  return g;
}

#if defined(TERTIO_SIMD_SSE2)

namespace internal {

/// 64-bit lane equality on plain SSE2: _mm_cmpeq_epi64 is SSE4.1, so build
/// it from the 32-bit compare — a 64-bit lane is equal iff both of its
/// 32-bit halves compare equal, i.e. AND the compare with its half-swapped
/// self.
inline __m128i CmpEq64(__m128i a, __m128i b) {
  __m128i eq32 = _mm_cmpeq_epi32(a, b);
  __m128i swapped = _mm_shuffle_epi32(eq32, _MM_SHUFFLE(2, 3, 0, 1));
  return _mm_and_si128(eq32, swapped);
}

/// Packs the two 64-bit lane predicates of (lo, hi) into bits 0..3:
/// movemask_pd reads the lane sign bits, two lanes per register.
inline std::uint32_t Mask64x4(__m128i lo, __m128i hi) {
  const std::uint32_t lo_bits =
      static_cast<std::uint32_t>(_mm_movemask_pd(_mm_castsi128_pd(lo)));
  const std::uint32_t hi_bits =
      static_cast<std::uint32_t>(_mm_movemask_pd(_mm_castsi128_pd(hi)));
  return lo_bits | (hi_bits << 2);
}

}  // namespace internal

inline Group4 CompareDigests4Sse2(const std::uint64_t* slot_digests,
                                  std::size_t stride_words, std::uint64_t digest) {
  // Slots are strided, not contiguous, and SSE2 has no gather: assemble two
  // digests per register from scalar loads.
  const __m128i d01 = _mm_set_epi64x(static_cast<long long>(slot_digests[stride_words]),
                                     static_cast<long long>(slot_digests[0]));
  const __m128i d23 = _mm_set_epi64x(static_cast<long long>(slot_digests[3 * stride_words]),
                                     static_cast<long long>(slot_digests[2 * stride_words]));
  const __m128i target = _mm_set1_epi64x(static_cast<long long>(digest));
  const __m128i zero = _mm_setzero_si128();
  Group4 g;
  g.match_mask = internal::Mask64x4(internal::CmpEq64(d01, target),
                                    internal::CmpEq64(d23, target));
  g.empty_mask = internal::Mask64x4(internal::CmpEq64(d01, zero),
                                    internal::CmpEq64(d23, zero));
  return g;
}

#endif  // TERTIO_SIMD_SSE2

#if defined(TERTIO_SIMD_NEON)

namespace internal {

/// Bits 0..3 from the 64-bit lane predicates of (lo, hi) (lanes are all-ones
/// or all-zero after vceqq_u64).
inline std::uint32_t Mask64x4(uint64x2_t lo, uint64x2_t hi) {
  return static_cast<std::uint32_t>(vgetq_lane_u64(lo, 0) & 1u) |
         static_cast<std::uint32_t>(vgetq_lane_u64(lo, 1) & 1u) << 1 |
         static_cast<std::uint32_t>(vgetq_lane_u64(hi, 0) & 1u) << 2 |
         static_cast<std::uint32_t>(vgetq_lane_u64(hi, 1) & 1u) << 3;
}

}  // namespace internal

inline Group4 CompareDigests4Neon(const std::uint64_t* slot_digests,
                                  std::size_t stride_words, std::uint64_t digest) {
  uint64x2_t d01 = vdupq_n_u64(slot_digests[0]);
  d01 = vsetq_lane_u64(slot_digests[stride_words], d01, 1);
  uint64x2_t d23 = vdupq_n_u64(slot_digests[2 * stride_words]);
  d23 = vsetq_lane_u64(slot_digests[3 * stride_words], d23, 1);
  const uint64x2_t target = vdupq_n_u64(digest);
  const uint64x2_t zero = vdupq_n_u64(0);
  Group4 g;
  g.match_mask = internal::Mask64x4(vceqq_u64(d01, target), vceqq_u64(d23, target));
  g.empty_mask = internal::Mask64x4(vceqq_u64(d01, zero), vceqq_u64(d23, zero));
  return g;
}

#endif  // TERTIO_SIMD_NEON

/// Group compare at the given dispatch level. Callers hoist ActiveLevel()
/// out of their loops; the switch then predicts perfectly.
inline Group4 CompareDigests4(Level level, const std::uint64_t* slot_digests,
                              std::size_t stride_words, std::uint64_t digest) {
  switch (level) {
#if defined(TERTIO_SIMD_SSE2)
    case Level::kSse2:
      return CompareDigests4Sse2(slot_digests, stride_words, digest);
#endif
#if defined(TERTIO_SIMD_NEON)
    case Level::kNeon:
      return CompareDigests4Neon(slot_digests, stride_words, digest);
#endif
    default:
      return CompareDigests4Scalar(slot_digests, stride_words, digest);
  }
}

}  // namespace tertio::join::simd
