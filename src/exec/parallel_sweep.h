#pragma once

/// \file parallel_sweep.h
/// Deterministic multi-threaded sweep driver for the experiment harnesses.
///
/// Every figure/table reproduction runs dozens of independent simulated
/// joins: each sweep point builds a fresh Site, so points share no state
/// and any schedule produces the same per-point results. ParallelSweep
/// exploits that: it spreads the points over a fixed pool of workers with a
/// static block-cyclic assignment (worker w runs points w, w+T, w+2T, ... —
/// no work stealing, no scheduling nondeterminism) and returns results in
/// input order. With threads == 1 it runs the points inline on the calling
/// thread, byte-for-byte the seed's serial path.
///
/// Simulated times are a function of the point alone; wall-clock is the only
/// thing the thread count changes.

#include <cstddef>
#include <functional>
#include <optional>
#include <utility>
#include <vector>

namespace tertio::exec {

/// Worker count actually used for `requested` (0 = all hardware threads).
int EffectiveSweepThreads(int requested);

/// Parses a `--threads=N` argument out of argv (any position). Unrecognized
/// arguments are ignored. \returns the requested thread count (0 = default:
/// all hardware threads).
int ParseSweepThreads(int argc, char** argv);

/// Runs body(0) ... body(count - 1) across `threads` workers (0 = all
/// hardware threads). Worker w executes indices w, w + T, w + 2T, ... in
/// increasing order. Blocks until every index ran. `body` must be
/// thread-safe across distinct indices.
void ParallelFor(std::size_t count, int threads, const std::function<void(std::size_t)>& body);

/// Maps `fn` over `points` with ParallelFor; results come back in input
/// order, regardless of thread count or scheduling.
template <typename Point, typename Fn>
auto ParallelSweep(const std::vector<Point>& points, Fn&& fn, int threads = 0)
    -> std::vector<decltype(fn(std::declval<const Point&>()))> {
  using R = decltype(fn(std::declval<const Point&>()));
  std::vector<std::optional<R>> slots(points.size());
  ParallelFor(points.size(), threads,
              [&](std::size_t i) { slots[i].emplace(fn(points[i])); });
  std::vector<R> results;
  results.reserve(points.size());
  for (std::optional<R>& slot : slots) {
    results.push_back(std::move(*slot));
  }
  return results;
}

}  // namespace tertio::exec
