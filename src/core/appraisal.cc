#include "core/appraisal.h"

#include <algorithm>
#include <cmath>

#include "report/table.h"
#include "stats/descriptive.h"
#include "stats/kstest.h"

namespace bnm::core {

MethodAppraisal appraise_method(
    methods::ProbeKind kind,
    const std::vector<OverheadSeries>& per_case_series) {
  MethodAppraisal a;
  a.kind = kind;

  std::vector<double> medians;
  std::vector<double> iqrs;
  std::vector<std::vector<double>> d2_samples;
  for (const auto& series : per_case_series) {
    a.total_samples += static_cast<int>(series.samples.size());
    record_add(a.resilience, series.accounting);
    if (series.samples.empty()) continue;
    if (a.method_name.empty()) a.method_name = series.method_name;
    const auto box = series.d2_box();
    medians.push_back(box.median);
    iqrs.push_back(box.iqr());
    d2_samples.push_back(series.d2());
  }
  for (std::size_t i = 0; i < d2_samples.size(); ++i) {
    for (std::size_t j = i + 1; j < d2_samples.size(); ++j) {
      const auto ks = stats::ks_two_sample(d2_samples[i], d2_samples[j]);
      a.min_pairwise_ks_p = std::min(a.min_pairwise_ks_p, ks.p_value);
    }
  }
  if (medians.empty()) {
    a.method_name = probe_kind_name(kind);
    return a;
  }

  std::vector<double> abs_medians;
  abs_medians.reserve(medians.size());
  for (double m : medians) abs_medians.push_back(std::fabs(m));

  a.median_abs_overhead_ms = stats::median(abs_medians);
  a.worst_case_median_ms = stats::max(abs_medians);
  a.mean_iqr_ms = stats::mean(iqrs);
  a.cross_case_spread_ms = stats::max(medians) - stats::min(medians);
  return a;
}

std::vector<MethodAppraisal> rank_methods(
    const std::map<methods::ProbeKind, std::vector<OverheadSeries>>& results) {
  std::vector<MethodAppraisal> out;
  out.reserve(results.size());
  for (const auto& [kind, series] : results) {
    out.push_back(appraise_method(kind, series));
  }
  std::sort(out.begin(), out.end(),
            [](const MethodAppraisal& x, const MethodAppraisal& y) {
              return x.score() < y.score();
            });
  return out;
}

std::string resilience_report(const std::vector<MethodAppraisal>& appraisals) {
  report::TextTable table({"Method", "Samples", "Timeouts", "Errors",
                           "Degraded", "HTTP retries", "HTTP timeouts"});
  for (const auto& a : appraisals) {
    table.add_row({a.method_name, std::to_string(a.total_samples),
                   std::to_string(a.resilience.timeouts),
                   std::to_string(a.resilience.transport_errors),
                   std::to_string(a.resilience.degraded),
                   std::to_string(a.resilience.http_retries),
                   std::to_string(a.resilience.http_timeouts)});
  }
  return table.render();
}

Recommendation recommend(const Platform& platform) {
  Recommendation r;
  r.preferred_browser = platform.os == browser::OsId::kWindows7
                            ? browser::BrowserId::kFirefox
                            : browser::BrowserId::kChrome;

  if (platform.plugins_available && platform.can_use_nanotime) {
    r.method = methods::ProbeKind::kJavaSocket;
    r.rationale =
        "Java applet socket with System.nanoTime() approaches packet-capture "
        "accuracy (Table 4): sub-0.1 ms overhead with ~0 variation.";
    r.cautions.push_back(
        "Never time with Date.getTime()/currentTimeMillis(): Windows "
        "granularity flips between 1 ms and ~15.6 ms (Section 4.2).");
    r.cautions.push_back(
        "Avoid Safari's stock Java interface (JavaPlugin.jar); force the "
        "Oracle JRE or results inflate (Section 5).");
  } else if (platform.websocket_available) {
    r.method = methods::ProbeKind::kWebSocket;
    r.rationale =
        "WebSocket gives the most accurate and consistent RTTs available to "
        "plain JavaScript, and is the only socket option without plug-ins "
        "(mobile platforms included).";
  } else {
    r.method = methods::ProbeKind::kDom;
    r.rationale =
        "Without sockets, DOM element timing has the smallest and most "
        "consistent overhead of the HTTP methods (mostly < 5 ms medians).";
    r.cautions.push_back(
        "HTTP overheads are platform-dependent; calibrate per browser/OS.");
  }

  r.cautions.push_back(
      "Never measure with Flash GET/POST: overhead medians run 20-100 ms and "
      "vary wildly across browsers; some plugins fold a TCP handshake into "
      "the measurement (Table 3).");
  r.cautions.push_back(
      "If a method opens a fresh connection per probe, subtract one network "
      "RTT or the measurement includes TCP connection setup (Section 4.1).");
  return r;
}

}  // namespace bnm::core
