// MeasurementMethod: one row of the paper's Table 1.
//
// A method knows how to execute the two-phase protocol of Figure 1 inside a
// Browser session: preparation (load the container page, set up objects /
// sockets) and measurement (two back-to-back RTT probes, the second reusing
// the object created for the first - Δd1 and Δd2 in the paper).
//
// Methods record only *browser-level* timestamps, read through the timing
// API the real implementation would use. Ground truth comes from the packet
// capture, outside the method's reach - exactly the separation the paper
// enforces.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "browser/browser.h"
#include "browser/profile.h"
#include "obs/prof.h"

namespace bnm::methods {

using browser::ProbeKind;

/// Static description (Table 1 row).
struct MethodInfo {
  ProbeKind kind = ProbeKind::kXhrGet;
  std::string name;        ///< "XHR GET"
  std::string approach;    ///< "HTTP-based" or "Socket-based"
  std::string technology;  ///< "XHR", "DOM", "Flash", "Java applet", "WebSocket"
  std::string availability;  ///< "Native" or "Plug-in"
  std::string verb;          ///< "GET", "POST", "TCP", "UDP"

  enum class SameOrigin { kYes, kYesBypassable, kNo };
  SameOrigin same_origin = SameOrigin::kYes;

  bool measures_rtt = true;
  bool measures_tput = true;
  bool measures_loss = false;

  std::vector<std::string> example_tools;  ///< services in the Table 1 cell

  std::string same_origin_text() const;
  std::string metrics_text() const;
};

/// One browser-level probe: timestamps as the measurement code saw them,
/// plus the true instants those reads happened (used only to window the
/// packet capture, the way the paper lines up browser logs with pcaps).
struct ProbeTimestamps {
  sim::TimePoint t_b_s;       ///< browser clock at send
  sim::TimePoint t_b_r;       ///< browser clock at receive
  sim::TimePoint true_send;   ///< true instant of the tB_s read
  sim::TimePoint true_recv;   ///< true instant of the tB_r read

  sim::Duration browser_rtt() const { return t_b_r - t_b_s; }
};

struct MethodRunResult {
  bool ok = false;
  std::string error;
  ProbeTimestamps m1;  ///< first measurement (fresh object) -> Δd1
  ProbeTimestamps m2;  ///< second measurement (object reused) -> Δd2
};

/// Everything a method needs from the testbed.
struct MethodContext {
  browser::Browser* browser = nullptr;
  net::Endpoint http_server;  ///< container page + HTTP probes (port 80)
  net::Endpoint tcp_echo;     ///< raw TCP echo service
  net::Endpoint udp_echo;     ///< UDP echo service
  net::Endpoint ws_server;    ///< WebSocket echo endpoint
  std::string ws_path = "/ws";

  /// Java applet options (§4.2 / Table 4 / Fig. 4b).
  bool java_use_nanotime = false;
  bool java_via_appletviewer = false;
  /// Read JS timestamps via performance.now() where the browser has it.
  bool js_use_performance_now = false;

  /// Per-probe wait bound for methods that block on a reply with no
  /// transport-level failure signal (Java UDP SO_TIMEOUT). Zero = wait
  /// forever (the Experiment's sample deadline is then the only bound).
  sim::Duration probe_timeout = sim::Duration::zero();
};

class MeasurementMethod {
 public:
  virtual ~MeasurementMethod() = default;

  virtual const MethodInfo& info() const = 0;

  /// Execute preparation + both measurements. `done` fires exactly once on
  /// success or error; it may fire synchronously on setup failure.
  virtual void run(const MethodContext& ctx,
                   std::function<void(MethodRunResult)> done) = 0;

  /// Abandon the in-flight run without delivering a result: tears down the
  /// run-state registered via arm_cancel() (sockets, plugin objects, the
  /// self-referential continuation), so a deadline-expired run cannot leak
  /// or call back later. Safe to call when no run is active.
  void cancel() {
    if (!cancel_) return;
    auto teardown = std::move(cancel_);
    cancel_ = nullptr;
    teardown();
  }

 protected:
  /// Implementations register their teardown at the start of run(); it is
  /// disarmed automatically when the run finishes normally.
  void arm_cancel(std::function<void()> teardown) {
    cancel_ = std::move(teardown);
  }
  void disarm_cancel() { cancel_ = nullptr; }

 private:
  std::function<void()> cancel_;
};

/// Helper shared by implementations: read a timing API now. Every method's
/// probe send and receive path stamps through here, so the profiling scope
/// counts (and times) both sides of every probe.
inline void stamp(browser::TimingApi& clock, sim::Simulation& sim,
                  sim::TimePoint& api_value, sim::TimePoint& true_value) {
  BNM_PROF_SCOPE("method.stamp");
  true_value = sim.now();
  api_value = clock.read(true_value);
}

/// Deliver the result and break the run-state's reference cycles.
///
/// Method run-states hold measurement objects whose callbacks capture the
/// run-state (and a self-referential `measure` continuation); without an
/// explicit break the state would keep itself alive forever. Cleanup is
/// deferred one event so it never destroys a callback that is still
/// executing.
/// Idempotent: under faults several failure signals can race for the same
/// run (transport error, close, SO_TIMEOUT) - only the first one wins.
template <typename State>
void finish_run(sim::Simulation& sim, const std::shared_ptr<State>& state) {
  if (state->settled) return;
  state->settled = true;
  state->done(state->result);
  sim.scheduler().post_after(sim::Duration::zero(),
                             [state] { state->cleanup(); });
}

}  // namespace bnm::methods
