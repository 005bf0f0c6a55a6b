#include "sim/closed_form.h"

#include <cmath>

namespace tertio::sim {
namespace {

// The closed form below is written once over the accumulator type T: the
// simulator's SimSeconds and plain dimensionless doubles.
inline double Raw(double x) { return x; }
inline double Raw(SimSeconds x) { return x.value(); }

/// One scalar cycle of the reference loop.
template <typename T>
inline T OneCycle(T acc, std::span<const T> deltas) {
  for (T d : deltas) acc += d;
  return acc;
}

/// The uniform rounding grid containing a finite t >= 0. Values in
/// [0, 2^-1021) all sit on the subnormal grid of spacing 2^-1074; values in
/// a normal binade [2^e, 2^{e+1}) sit on the grid of the binade's ulp
/// 2^{e-52}. In both cases the segment's upper boundary lies exactly 2^53
/// grid units above zero, so `index` (= t / u, an exact division by a power
/// of two) always fits 53 bits and the boundary test never has to form the
/// boundary as a double (2^1024 would overflow for the topmost binade).
template <typename T>
struct Segment {
  T u = 0.0;                 // grid spacing
  std::uint64_t index = 0;   // t / u, exact, < 2^53
};

template <typename T>
inline Segment<T> SegmentOf(T t) {
  if (t < 0x1p-1021) {
    return Segment<T>{0x1p-1074, static_cast<std::uint64_t>(Raw(t) / 0x1p-1074)};
  }
  const int e = std::ilogb(Raw(t));
  const T u = std::ldexp(1.0, e - 52);
  return Segment<T>{u, static_cast<std::uint64_t>(t / u)};
}

inline constexpr std::uint64_t kSegmentTopIndex = std::uint64_t{1} << 53;

template <typename T>
T IteratedAddCycleImpl(T acc, std::span<const T> deltas, std::uint64_t cycles) {
  if (cycles == 0 || deltas.empty()) return acc;
  // The grid arguments below need a finite non-negative accumulator and
  // finite non-negative deltas (the simulator checks durations >= 0; -0.0 is
  // excluded so monotonicity and signed-zero cases never arise). Anything
  // else takes the literal loop.
  bool fast = std::isfinite(Raw(acc)) && !std::signbit(Raw(acc));
  bool all_zero = true;
  for (T d : deltas) {
    if (!std::isfinite(Raw(d)) || std::signbit(Raw(d))) fast = false;
    if (d != 0.0) all_zero = false;
  }
  // A cycle of (signed) zeros reaches its fixed point after one cycle.
  if (all_zero && fast) return OneCycle(acc, deltas);
  if (!fast) {
    while (cycles-- > 0) acc = OneCycle(acc, deltas);
    return acc;
  }

  while (cycles > 0) {
    const Segment<T> seg = SegmentOf(acc);
    // Scalar warm-up inside the current segment. Adding non-negative deltas
    // is monotone, so a cycle whose end stays inside the segment had every
    // intermediate value inside it too, and consecutive in-segment cycle
    // ends differ by an exact multiple of the grid spacing (Sterbenz for a
    // normal binade; subnormal-range subtraction is always exact).
    T t = acc;
    T ends[3];
    int got = 0;
    while (got < 3) {
      t = OneCycle(t, deltas);
      --cycles;
      if (!std::isfinite(Raw(t))) return t;  // saturated at +inf: absorbing
      if (cycles == 0) return t;
      if (SegmentOf(t).u != seg.u) break;  // crossed a boundary: re-anchor
      ends[got++] = t;
    }
    if (got < 3) {
      acc = t;
      continue;
    }
    const T d1 = ends[1] - ends[0];
    const T d2 = ends[2] - ends[1];
    // Within one segment the realized cycle advance depends on the current
    // value only through the parity of its grid index (round-half-even
    // resolves exact ties toward even indices), and a map on two parities is
    // purely periodic with period <= 2 after one cycle. So from ends[0] the
    // advance sequence is (d1, d2, d1, d2, ...), except that when d1 != d2
    // the first period may be pre-periodic: the tail is either alternating
    // (next advance d1) or constant d2 — one more scalar cycle decides.
    if (d1 == 0.0 && d2 == 0.0) return ends[2];  // absorbed: fixed point
    const std::uint64_t m1 = static_cast<std::uint64_t>(d1 / seg.u);
    const std::uint64_t m2 = static_cast<std::uint64_t>(d2 / seg.u);
    std::uint64_t m = 0;        // grid advance per jump stride
    std::uint64_t stride = 0;   // cycles per jump stride
    if (d1 == d2) {
      m = m1;
      stride = 1;
      t = ends[2];
    } else {
      t = OneCycle(ends[2], deltas);
      --cycles;
      if (!std::isfinite(Raw(t))) return t;
      if (cycles == 0) return t;
      if (SegmentOf(t).u != seg.u) {
        acc = t;
        continue;
      }
      const T d3 = t - ends[2];
      if (d3 == d1) {
        m = m1 + m2;  // alternating tail: two cycles advance d2 + d1
        stride = 2;
      } else if (d3 == d2) {
        m = m2;  // constant tail
        stride = 1;
      } else {
        acc = t;  // cannot happen per the parity argument; stay scalar
        continue;
      }
    }
    // Jump: k strides advance exactly k*m grid units (monotone cycles whose
    // ends stay strictly below the segment top keep every intermediate on
    // this grid, so the scalar loop would have realized the same advances).
    const std::uint64_t index = static_cast<std::uint64_t>(t / seg.u);
    const std::uint64_t room = kSegmentTopIndex - index;  // > 0
    std::uint64_t k = cycles / stride;
    if (m > 0 && room > m) {
      const std::uint64_t k_room = (room - 1) / m;  // land strictly below top
      if (k > k_room) k = k_room;
    } else {
      k = 0;  // the boundary is within one stride: keep stepping scalar
    }
    if (k == 0) {
      acc = t;
      continue;
    }
    // k*m <= room - 1 < 2^53: the product converts to double exactly, the
    // multiply by the power-of-two spacing is exact, and the sum lands on a
    // grid point inside the segment — also exact.
    acc = t + static_cast<double>(k * m) * seg.u;
    cycles -= k * stride;
  }
  return acc;
}

}  // namespace

SimSeconds IteratedAddCycle(SimSeconds acc, std::span<const SimSeconds> deltas,
                            std::uint64_t cycles) {
  return IteratedAddCycleImpl(acc, deltas, cycles);
}

double IteratedSum(double acc, double term, std::uint64_t n) {
  return IteratedAddCycleImpl(acc, std::span<const double>(&term, 1), n);
}

}  // namespace tertio::sim
