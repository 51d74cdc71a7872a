// The delay-overhead experiment runner: the paper's Eq. (1) pipeline.
//
// For one (browser, OS, method) case it repeats the two-phase protocol N
// times (default 50). Each repetition launches a fresh browser session,
// runs the method's two back-to-back measurements, and computes
//
//     Δd = (tB_r - tB_s) - (tN_r - tN_s)
//
// where tB come from the method's own timing API and tN from the client
// packet capture (first outbound data packet / last inbound data packet to
// the probe port within the measurement window).
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "browser/profile.h"
#include "core/record.h"
#include "core/testbed.h"
#include "methods/method.h"
#include "methods/registry.h"
#include "stats/boxplot.h"
#include "stats/ci.h"

namespace bnm::core {

struct ExperimentConfig {
  browser::BrowserId browser = browser::BrowserId::kChrome;
  browser::OsId os = browser::OsId::kUbuntu;
  methods::ProbeKind kind = methods::ProbeKind::kXhrGet;
  int runs = 50;
  std::uint64_t seed = 42;

  bool java_use_nanotime = false;     ///< Table 4 variant
  bool java_via_appletviewer = false; ///< Figure 4(b) variant
  bool js_use_performance_now = false; ///< High Resolution Time variant

  /// Override the Table-2 profile entirely (mobile platforms, custom
  /// calibrations). When set, `browser`/`os` still choose the machine
  /// clock behaviour and the RNG case label.
  std::optional<browser::BrowserProfile> custom_profile;

  /// Idle gap between repetitions (browser launch, page load, automation
  /// script overhead). 50 runs at 5-9 s apart span ~6 minutes, so the
  /// Windows timer-granularity regime flips within one experiment - the
  /// mechanism behind Fig. 4's discrete Δd levels.
  sim::Duration inter_run_gap_min = sim::Duration::seconds(5);
  sim::Duration inter_run_gap_max = sim::Duration::seconds(9);

  /// Per-repetition wall-clock budget. A run that has not settled by then
  /// (e.g. the server is blackholed and nothing ever times out underneath)
  /// is cancelled and recorded as a timeout sample - the experiment never
  /// hangs on one repetition.
  sim::Duration sample_deadline = sim::Duration::seconds(30);

  /// Robustness knobs for the browser's HTTP client. Zero/negative keep the
  /// defaults (no request timeout, no retries), so a fault-free experiment
  /// schedules no extra events and stays bit-identical to older builds.
  sim::Duration http_request_timeout = sim::Duration::zero();
  int http_max_retries = 0;
  sim::Duration http_retry_backoff = sim::Duration::millis(200);

  /// SO_TIMEOUT-style bound for reply-less probes (Java UDP). Zero = off.
  sim::Duration probe_timeout = sim::Duration::zero();

  Testbed::Config testbed{};  ///< client_os is overridden from `os`

  /// Field list (core/config_hash.h); custom_profile hashes shallowly.
  template <class S>
  static auto fields(S& s) {
    return std::tie(s.browser, s.os, s.kind, s.runs, s.seed,
                    s.java_use_nanotime, s.java_via_appletviewer,
                    s.js_use_performance_now, s.custom_profile,
                    s.inter_run_gap_min, s.inter_run_gap_max,
                    s.sample_deadline, s.http_request_timeout,
                    s.http_max_retries, s.http_retry_backoff,
                    s.probe_timeout, s.testbed);
  }
};

/// One repetition's outcome.
struct OverheadSample {
  double d1_ms = 0;  ///< Δd1: first measurement, fresh object
  double d2_ms = 0;  ///< Δd2: second measurement, object reused
  double browser_rtt1_ms = 0, browser_rtt2_ms = 0;
  double net_rtt1_ms = 0, net_rtt2_ms = 0;
  /// TCP connections opened during each measurement window (0 = reused).
  int connections_opened1 = 0, connections_opened2 = 0;

  template <class S>  ///< record field list (core/record.h): an 8-array
  static auto record_fields(S& s) {
    return std::tie(s.d1_ms, s.d2_ms, s.browser_rtt1_ms, s.browser_rtt2_ms,
                    s.net_rtt1_ms, s.net_rtt2_ms, s.connections_opened1,
                    s.connections_opened2);
  }
};

/// How an experiment's repetitions degraded under faults. All-zero on a
/// healthy testbed; under injected faults these separate "the run hung and
/// hit the sample deadline" from "the transport surfaced an error" from
/// "the probe finished but its capture window was unusable".
struct SampleAccounting {
  int timeouts = 0;          ///< runs cancelled at the sample deadline
  int transport_errors = 0;  ///< runs settled with an error (reset, SO_TIMEOUT, ...)
  int degraded = 0;          ///< completed runs with an incomplete capture window
  std::uint64_t http_retries = 0;   ///< HTTP request retries across all runs
  std::uint64_t http_timeouts = 0;  ///< HTTP per-request timeouts across all runs
  int total() const { return timeouts + transport_errors + degraded; }

  template <class S>  ///< record field list (core/record.h)
  static auto record_fields(S& s) {
    return std::tuple{
        Field{"timeouts", s.timeouts},
        Field{"transport_errors", s.transport_errors},
        Field{"degraded", s.degraded}, Field{"http_retries", s.http_retries},
        Field{"http_timeouts", s.http_timeouts}};
  }
};

/// A full experiment's results plus summary statistics.
struct OverheadSeries {
  ExperimentConfig config;
  std::string case_label;    ///< "C (U)", "appletviewer (W)", ...
  std::string method_name;   ///< "XHR GET", ...
  std::vector<OverheadSample> samples;
  int failures = 0;          ///< == accounting.total()
  std::string first_error;
  SampleAccounting accounting;

  std::vector<double> d1() const;
  std::vector<double> d2() const;
  stats::BoxStats d1_box() const { return stats::box_stats(d1()); }
  stats::BoxStats d2_box() const { return stats::box_stats(d2()); }
  stats::ConfidenceInterval d1_ci() const { return stats::mean_ci(d1()); }
  stats::ConfidenceInterval d2_ci() const { return stats::mean_ci(d2()); }

  template <class S>  ///< record field list (core/record.h)
  static auto record_fields(S& s) {
    return std::tuple{
        Field{"case_label", s.case_label}, Field{"method_name", s.method_name},
        Field{"failures", s.failures}, Field{"first_error", s.first_error},
        Field{"accounting", s.accounting}, Field{"samples", s.samples}};
  }
  /// Not recorded: a resuming run supplies the config from its own matrix.
  template <class S>
  static auto unrecorded_fields(S& s) { return std::tie(s.config); }
};

/// Run-level watchdog context for one cell attempt, shared between the
/// matrix runner (which owns it, and whose watchdog thread sets
/// `wall_expired` when the cell's real-time deadline passes) and the
/// Experiment running on a worker (which polls the flag between simulated
/// events and charges every fired event against `event_budget`). A cell
/// with no watchdog attached behaves exactly as before — the flag is never
/// loaded on that path.
struct CellWatchdog {
  std::atomic<bool> wall_expired{false};
  std::uint64_t event_budget = 0;  ///< total simulated events (0 = unlimited)
};

/// Thrown by Experiment::run when its watchdog trips. The run is cancelled
/// cleanly first (method cancel + browser teardown via RAII); the matrix
/// runner catches this, retries the cell with backoff, and quarantines it
/// with a structured CellError after the attempt limit.
class CellAbortError : public std::runtime_error {
 public:
  CellAbortError(std::string where, const std::string& what)
      : std::runtime_error{what}, where_{std::move(where)} {}
  /// Which guard fired: "watchdog.wall_clock" or "watchdog.event_budget".
  const std::string& where() const { return where_; }

 private:
  std::string where_;
};

/// Eq. (1)'s network side for one measurement window, read off a capture.
struct WindowTimes {
  std::optional<double> net_rtt_ms;  ///< tN_r - tN_s; unset if not positive
  int connections_opened = 0;        ///< outbound SYNs to the port
};

/// The one window rule: over the rows whose true_time lies in [from, to],
/// tN_s is the timestamp of the first outbound data packet to `port` and
/// tN_r that of the last inbound data packet from it. Counts outbound SYNs
/// (not SYN-ACKs) to `port` as fresh connections.
WindowTimes window_times(const net::PacketCapture& capture,
                         sim::TimePoint from, sim::TimePoint to,
                         net::Port port);

class Experiment {
 public:
  explicit Experiment(ExperimentConfig config);

  /// Run all repetitions to completion (drains the simulation between
  /// runs) and return the collected series.
  OverheadSeries run();

  /// Attach a runner-owned watchdog before run(). When its wall-clock flag
  /// is set or the event budget runs dry mid-repetition, the active method
  /// is cancelled and run() throws CellAbortError.
  void set_watchdog(CellWatchdog* watchdog) { watchdog_ = watchdog; }

  /// Testbed access after run() - e.g. to dump the capture to a pcap file.
  Testbed& testbed() { return *testbed_; }

 private:
  net::Port probe_port() const;

  ExperimentConfig config_;
  std::unique_ptr<Testbed> testbed_;
  CellWatchdog* watchdog_ = nullptr;
};

/// Convenience: run one case end to end.
OverheadSeries run_experiment(ExperimentConfig config);

/// run_experiment with a watchdog attached — the default cell runner of the
/// resilient matrix engine (parallel_runner.h). `watchdog` may be nullptr.
OverheadSeries run_experiment_watched(ExperimentConfig config,
                                      CellWatchdog* watchdog);

}  // namespace bnm::core
