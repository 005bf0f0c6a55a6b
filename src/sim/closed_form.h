#pragma once

/// \file closed_form.h
/// Exact closed forms for iterated IEEE-754 accumulation.
///
/// The coalesced transfer fast path (pipeline.h) must keep every float
/// aggregate bit-identical to the per-chunk schedule it replaces, and those
/// aggregates are built by *iterated rounded addition* — a resource's
/// busy_seconds grows by the same cycle of durations once per committed
/// chunk. Float addition is not associative, so `n * d` drifts from the loop
/// in low-order bits; but rounded addition of a fixed delta is *exactly
/// affine within one binade*: every representable value in [2^e, 2^{e+1}) is
/// an integer multiple of the ulp u = 2^{e-52}, the realized step
/// fl(t + d) - t depends on t only through the parity of t/u (round-half-
/// even resolves ties toward even grid indices), and the parity orbit of a
/// fixed step cycle is periodic with period <= 2 after one warm-up cycle.
/// IteratedAddCycle therefore replays a handful of cycles scalar, reads off
/// the realized per-cycle advance, and jumps to the binade boundary with
/// exact integer grid arithmetic — O(binades crossed) instead of O(n), and
/// bit-identical to the literal loop by construction. DESIGN.md §5.1 carries
/// the full derivation.

#include <cstdint>
#include <span>

#include "util/units.h"

namespace tertio::sim {

/// Exact result of the reference loop
///
///   for (uint64_t c = 0; c < cycles; ++c)
///     for (SimSeconds d : deltas) acc += d;
///
/// computed in O(deltas * binades crossed). Bit-identical to the loop for
/// every input; non-finite or negative inputs (which the simulator never
/// produces — durations are checked non-negative) fall back to the literal
/// loop.
SimSeconds IteratedAddCycle(SimSeconds acc, std::span<const SimSeconds> deltas,
                            std::uint64_t cycles);

/// The same closed form for a dimensionless accumulator: exact result of
/// `n` iterations of `acc += term` (tape::TapeVolume sums a run of equal
/// compressibilities with it).
double IteratedSum(double acc, double term, std::uint64_t n);

}  // namespace tertio::sim
