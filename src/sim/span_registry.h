#pragma once

/// \file span_registry.h
/// The canonical registry of pipeline span (phase) labels.
///
/// Every stage a join method dispatches carries a phase label that ends up
/// in per-phase report tables (exec/report), Gantt timelines and CSV export
/// (sim/trace_report), and the JSON bench schema. A typo'd label silently
/// forks a phase row, so the labels are centralized here and enforced twice:
///
///  - statically by tools/lint/tertio_lint.py, which cross-checks every
///    phase literal in src/join and src/sim (and any special-cased label in
///    trace_report / exec/report) against this registry, in both directions
///    (unknown labels and orphaned registry entries are both findings);
///  - dynamically by SimSan (sim/auditor.h), which flags any stage committed
///    under an unregistered label when an auditor is bound.
///
/// Pipelines constructed without an auditor (unit tests, ad-hoc harnesses)
/// may use any label; the registry governs the join executors.

#include <algorithm>
#include <string_view>

namespace tertio::sim {

/// All phase labels the pipeline engine and the seven join executors emit,
/// sorted lexicographically (binary-searched by IsRegisteredSpan).
inline constexpr std::string_view kRegisteredSpans[] = {
    // tt_methods: tape-to-tape bucket assembly and pairing.
    "assemble-flush",
    "assemble-read",
    "assemble-readback",
    "assemble-write",
    "bucket-ready",
    "pair-sync",
    // join_common: disk-scan consumption (the CPU end of a probe transfer).
    "probe",
    // gh_methods / tt_methods: R-side bucket traffic.
    "r-bucket-read",
    "r-bucket-ready",
    "r-hash-flush",
    "r-hash-read",
    "r-hash-write",
    "r-run-read",
    // nb_methods: R staging scan.
    "r-scan",
    // pipeline engine: chunk-granular fault recovery marker.
    "recovery:chunk-retry",
    // nb_methods: interleaved double-buffer ring.
    "ring-read",
    "ring-space",
    "ring-write",
    // gh_methods / tt_methods: S-side bucket traffic.
    "s-bucket-read",
    "s-bucket-ready",
    "s-bucket-scan",
    "s-hash-flush",
    "s-hash-read",
    "s-hash-write",
    // nb_methods: streaming S from tape.
    "s-read",
    // gh_methods: slab barriers of the hashed-join inner loop.
    "slab-hashed",
    "slab-joined",
    // join_common: Step I staging (tape -> disk) and its completion event.
    "stage:disk-write",
    "stage:done",
    "stage:tape-read",
    // tt_methods: virtual-origin marker of a pipeline.
    "start",
    // tt_methods: appending assembled buckets to scratch tape.
    "tape-append",
};

/// \returns true when `phase` is a canonical span label.
constexpr bool IsRegisteredSpan(std::string_view phase) {
  return std::binary_search(std::begin(kRegisteredSpans), std::end(kRegisteredSpans), phase);
}

static_assert(std::is_sorted(std::begin(kRegisteredSpans), std::end(kRegisteredSpans)),
              "kRegisteredSpans must stay sorted for binary_search");

}  // namespace tertio::sim
