// Trace export: run one measurement case with tracing enabled and write
// the structured trace in both exporter formats.
//
//   $ trace_export [runs]             (default: 3)
//
// Writes:
//   trace.jsonl  - one JSON object per record (grep/jq-friendly)
//   trace.json   - Chrome trace_event JSON; load it in chrome://tracing
//                  or https://ui.perfetto.dev to see scheduler dispatch,
//                  per-link packet hops and method-level probe spans on
//                  their own timeline rows
//
// Also prints the profiling-scope table for the run and a metrics snapshot,
// so this one example exercises the whole observability surface described
// in docs/OBSERVABILITY.md.
#include <cstdio>
#include <cstdlib>

#include "core/checkpoint.h"
#include "core/experiment.h"
#include "obs/metrics.h"
#include "obs/prof.h"
#include "obs/trace_export.h"

int main(int argc, char** argv) {
  using namespace bnm;

  core::ExperimentConfig cfg;
  cfg.kind = methods::ProbeKind::kXhrGet;
  cfg.browser = browser::BrowserId::kChrome;
  cfg.os = browser::OsId::kUbuntu;
  cfg.runs = argc > 1 ? std::atoi(argv[1]) : 3;

  std::printf("trace_export: %s on %s / %s, %d runs\n",
              probe_kind_name(cfg.kind), browser_name(cfg.browser),
              os_name(cfg.os), cfg.runs);

  core::Experiment experiment{cfg};
  sim::Trace& trace = experiment.testbed().sim().trace();
  trace.set_enabled(true);
  obs::prof::reset();
  obs::prof::set_enabled(true);

  const core::OverheadSeries series = experiment.run();

  obs::prof::set_enabled(false);
  if (series.samples.empty()) {
    std::fprintf(stderr, "no successful runs (%d failures: %s)\n",
                 series.failures, series.first_error.c_str());
    return 1;
  }
  std::printf("%zu samples, %zu trace records\n", series.samples.size(),
              trace.records().size());

  // The Perfetto acceptance bar: the trace must show scheduler spans,
  // network-hop spans and method-layer probe spans for the run.
  std::printf("  scheduler dispatch spans : %zu\n",
              trace.view_by_component("scheduler").size());
  std::printf("  network hop spans        : %zu\n",
              trace.view_by_attr("wire_bytes").size());
  std::printf("  method probe spans       : %zu\n",
              trace.view_by_component("method").size());

  if (!core::write_file_atomic("trace.jsonl", obs::trace::to_jsonl(trace)) ||
      !core::write_file_atomic("trace.json",
                               obs::trace::to_chrome_trace(trace))) {
    std::fprintf(stderr, "failed to write trace files\n");
    return 1;
  }
  std::printf("wrote trace.jsonl and trace.json (open the latter in "
              "chrome://tracing or ui.perfetto.dev)\n\n");

  std::printf("profiling scopes:\n%s\n",
              obs::prof::format_report(obs::prof::report()).c_str());
  obs::prof::reset();

  std::printf("metrics snapshot:\n%s",
              obs::MetricsRegistry::instance().snapshot().to_text().c_str());
  return 0;
}
