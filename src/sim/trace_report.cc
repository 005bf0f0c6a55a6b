#include "sim/trace_report.h"

#include <algorithm>
#include <vector>

#include "util/string_util.h"

namespace tertio::sim {

std::string RenderGantt(const Simulation& sim, const GanttOptions& options) {
  SimSeconds t0 = options.window_start;
  SimSeconds t1 = options.window_end > options.window_start ? options.window_end
                                                            : sim.Horizon();
  int width = options.width < 10 ? 10 : options.width;
  if (t1 <= t0) return "(empty window)\n";
  const double lo = t0.value();
  const double hi = t1.value();
  double cell = (hi - lo) / width;

  // Column widths for the resource labels.
  std::size_t label_width = 0;
  for (const auto& resource : sim.resources()) {
    label_width = std::max(label_width, resource->name().size());
  }

  std::string out = StrFormat("%-*s  %.1fs", static_cast<int>(label_width), "", t0.value());
  out += std::string(width > 12 ? static_cast<size_t>(width - 12) : 0, ' ');
  out += StrFormat("%.1fs\n", t1.value());
  for (const auto& resource : sim.resources()) {
    out += StrFormat("%-*s  ", static_cast<int>(label_width), resource->name().c_str());
    if (resource->trace().empty() && resource->stats().op_count > 0) {
      out += "(no trace)\n";
      continue;
    }
    std::vector<double> busy(static_cast<size_t>(width), 0.0);
    for (const OpRecord& op : resource->trace()) {
      double s = std::max(op.interval.start.value(), lo);
      double e = std::min(op.interval.end.value(), hi);
      if (e <= s) continue;
      int first = static_cast<int>((s - lo) / cell);
      int last = static_cast<int>((e - lo) / cell);
      last = std::min(last, width - 1);
      for (int c = first; c <= last; ++c) {
        double cs = lo + c * cell;
        double ce = cs + cell;
        busy[static_cast<size_t>(c)] += std::max(0.0, std::min(e, ce) - std::max(s, cs));
      }
    }
    for (int c = 0; c < width; ++c) {
      double fraction = busy[static_cast<size_t>(c)] / cell;
      out += fraction >= 0.5 ? '#' : (fraction > 0.01 ? '+' : '.');
    }
    out += StrFormat("  %4.0f%%\n", 100.0 * resource->Utilization(t1));
  }
  return out;
}

std::string RenderSpanGantt(const SpanTrace& trace, const GanttOptions& options) {
  if (trace.empty()) return "(no spans)\n";
  SimSeconds t0 = options.window_start;
  SimSeconds t1 = options.window_end > options.window_start ? options.window_end
                                                            : trace.window().end;
  int width = options.width < 10 ? 10 : options.width;
  if (t1 <= t0) return "(empty window)\n";
  const double lo = t0.value();
  const double hi = t1.value();
  double cell = (hi - lo) / width;

  std::size_t label_width = 0;
  for (const PhaseSummary& phase : trace.phases()) {
    label_width = std::max(label_width, phase.phase.size());
  }

  std::string out = StrFormat("%-*s  %.1fs", static_cast<int>(label_width), "", t0.value());
  out += std::string(width > 12 ? static_cast<size_t>(width - 12) : 0, ' ');
  out += StrFormat("%.1fs\n", t1.value());
  for (const PhaseSummary& phase : trace.phases()) {
    out += StrFormat("%-*s  ", static_cast<int>(label_width), phase.phase.c_str());
    std::vector<double> busy(static_cast<size_t>(width), 0.0);
    auto accumulate = [&](SimSeconds span_start, SimSeconds span_end, double density) {
      double s = std::max(span_start.value(), lo);
      double e = std::min(span_end.value(), hi);
      if (e <= s) return;
      int first = static_cast<int>((s - lo) / cell);
      int last = std::min(static_cast<int>((e - lo) / cell), width - 1);
      for (int c = first; c <= last; ++c) {
        double cs = lo + c * cell;
        double ce = cs + cell;
        busy[static_cast<size_t>(c)] +=
            density * std::max(0.0, std::min(e, ce) - std::max(s, cs));
      }
    };
    bool approximate = !trace.retain();
    if (approximate) {
      // Spread the phase's busy time uniformly over its window.
      double window = phase.window.duration().value();
      double density = window > 0.0 ? phase.busy_seconds.value() / window : 1.0;
      accumulate(phase.window.start, phase.window.end, density);
    } else {
      for (const Span& span : trace.spans()) {
        if (span.phase != phase.phase) continue;
        accumulate(span.interval.start, span.interval.end, 1.0);
      }
    }
    for (int c = 0; c < width; ++c) {
      double fraction = busy[static_cast<size_t>(c)] / cell;
      char mark = fraction >= 0.5 ? '#' : (fraction > 0.01 ? '+' : '.');
      if (approximate && mark == '#') mark = '~';
      out += mark;
    }
    out += StrFormat("  %6.1fs busy\n", phase.busy_seconds.value());
  }
  return out;
}

void WriteTraceCsv(const Simulation& sim, std::ostream& out) {
  out << "resource,tag,start,end,bytes\n";
  for (const auto& resource : sim.resources()) {
    for (const OpRecord& op : resource->trace()) {
      out << resource->name() << ',' << op.tag << ',' << op.interval.start << ','
          << op.interval.end << ',' << op.bytes << '\n';
    }
  }
}

}  // namespace tertio::sim
