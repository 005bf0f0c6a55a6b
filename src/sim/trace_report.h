#pragma once

/// \file trace_report.h
/// Rendering device traces: ASCII Gantt timelines and CSV export.
///
/// Requires EnableTrace() on the resources of interest before the run. The
/// Gantt view makes the parallel-I/O structure of the concurrent join
/// methods visible at a glance: overlapping busy spans on the tape and disk
/// rows are exactly the overlap the methods exist to create.

#include <ostream>
#include <string>

#include "sim/pipeline.h"
#include "sim/simulation.h"

namespace tertio::sim {

/// Options for the ASCII timeline.
struct GanttOptions {
  /// Window rendered; end <= start means [0, horizon].
  SimSeconds window_start = 0.0;
  SimSeconds window_end = 0.0;
  /// Character cells across the window.
  int width = 100;
};

/// Renders one row per traced resource; '#' cells are >=50% busy, '+' cells
/// partially busy, '.' idle. Resources without traces render as "(no
/// trace)".
std::string RenderGantt(const Simulation& sim, const GanttOptions& options = {});

/// Writes "resource,tag,start,end,bytes" rows for every traced operation.
void WriteTraceCsv(const Simulation& sim, std::ostream& out);

/// Renders a pipeline span trace as one Gantt row per phase — the
/// per-method phase timeline (Figure 4 generalized to every join method).
/// Uses individual spans when the trace retained them, otherwise each
/// phase's busy time is spread uniformly over its window (marked '~').
std::string RenderSpanGantt(const SpanTrace& trace, const GanttOptions& options = {});

}  // namespace tertio::sim
