// Trace exporters: turn a sim::Trace into files other tools can read.
//
// Two formats, both documented with examples in docs/OBSERVABILITY.md:
//
//   * JSON-lines — one JSON object per record (ts_us, component, name,
//     kind, dur_us for spans, attrs). Greppable, diffable, trivially
//     parsed back (tests round-trip it through obs::json).
//   * Chrome trace_event — the {"traceEvents":[...]} JSON that
//     chrome://tracing and https://ui.perfetto.dev load directly. Spans
//     become complete ("X") events, instants become "i" events; each
//     component gets its own synthetic thread row (named via "M" metadata
//     events) so scheduler / link / method activity stack visually.
//
// Timestamps are *simulated* microseconds since the run's epoch — the
// timeline you see in Perfetto is the simulation's, not the host's.
#pragma once

#include <string>

#include "sim/trace.h"

namespace bnm::obs::trace {

/// One record per line. Deterministic for a deterministic trace.
std::string to_jsonl(const bnm::sim::Trace& trace);

/// Chrome trace_event JSON (see header comment). Deterministic: component
/// rows are assigned tids in order of first appearance.
std::string to_chrome_trace(const bnm::sim::Trace& trace);

}  // namespace bnm::obs::trace
