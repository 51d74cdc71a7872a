// Browser/OS overhead profiles: the encoded shape of the paper's Figure 3.
//
// Each (browser, OS) pair carries, per measurement-probe kind, a model of
// the application-level overheads a real browser added in the paper's
// testbed: the delay between taking tB_s and the request reaching the
// network stack (pre_send), the delay between the response arriving at the
// stack and the completion event firing (recv_dispatch), and a first-use
// extra paid only by the first measurement on a fresh object (Δd1).
// Connection policies capture which technologies open a fresh TCP
// connection (and therefore swallow a handshake into the measured RTT).
//
// The numeric tables below are calibrated against the published box plots
// and tables; DESIGN.md §5 documents the mapping. They are data, not code:
// replace them to model a different browser generation.
#pragma once

#include <array>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "sim/random.h"
#include "sim/time.h"

namespace bnm::browser {

enum class BrowserId { kChrome, kFirefox, kIe, kOpera, kSafari };
enum class OsId { kWindows7, kUbuntu };

const char* browser_name(BrowserId b);
const char* browser_initial(BrowserId b);  // C, F, IE, O, S
const char* os_name(OsId os);
const char* os_initial(OsId os);  // W, U

/// One browser-on-OS case, e.g. "C (U)" in the figures.
struct BrowserOsCase {
  BrowserId browser;
  OsId os;
  std::string label() const;  ///< "C (U)", "IE (W)", ...
  bool operator==(const BrowserOsCase&) const = default;

  template <class S>  ///< field list (core/config_hash.h)
  static auto fields(S& s) { return std::tie(s.browser, s.os); }
};

/// The eight cases the paper evaluates (Table 2): five browsers on Windows,
/// three (no IE/Safari) on Ubuntu.
std::vector<BrowserOsCase> paper_cases();

/// The probe kinds whose overheads are profiled (Figure 3's ten methods
/// plus the Java UDP extension).
enum class ProbeKind {
  kXhrGet,
  kXhrPost,
  kDom,
  kFlashGet,
  kFlashPost,
  kFlashSocket,
  kJavaGet,
  kJavaPost,
  kJavaSocket,
  kJavaUdp,
  kWebSocket,
};
const char* probe_kind_name(ProbeKind k);
std::vector<ProbeKind> all_probe_kinds();

/// A small distribution specification, sampled per run.
struct DistSpec {
  enum class Kind { kConstant, kUniform, kNormal, kLognormalMed };
  Kind kind = Kind::kConstant;
  double a = 0;  ///< constant: value; uniform: lo; normal: mean; lognormal: median (all ms)
  double b = 0;  ///< uniform: hi; normal: stddev; lognormal: sigma

  static DistSpec constant(double ms) { return {Kind::kConstant, ms, 0}; }
  static DistSpec uniform(double lo_ms, double hi_ms) {
    return {Kind::kUniform, lo_ms, hi_ms};
  }
  static DistSpec normal(double mean_ms, double sd_ms) {
    return {Kind::kNormal, mean_ms, sd_ms};
  }
  static DistSpec lognormal_med(double median_ms, double sigma) {
    return {Kind::kLognormalMed, median_ms, sigma};
  }

  /// Sample a non-negative duration.
  sim::Duration sample(sim::Rng& rng) const;
  /// The distribution's median in ms (used by documentation tables).
  double median_ms() const;

  template <class S>  ///< field list (core/config_hash.h)
  static auto fields(S& s) { return std::tie(s.kind, s.a, s.b); }
};

/// Application-level overhead of one probe kind on one browser/OS.
struct OverheadModel {
  DistSpec pre_send;       ///< tB_s taken -> request at the network stack
  DistSpec recv_dispatch;  ///< response at the stack -> completion event
  DistSpec first_use;      ///< extra cost on a fresh object (Δd1 only)
};

/// Which timestamp source a probe kind reads in this browser.
enum class ClockKind {
  kJsDate,            ///< JavaScript Date.getTime()
  kJsPerformanceNow,  ///< window.performance.now() (high-resolution time)
  kFlashDate,         ///< ActionScript Date.getTime()
  kJavaDate,          ///< java.util.Date.getTime() -> currentTimeMillis()
  kJavaNano,          ///< System.nanoTime()
};

/// Connection-handling policy for plugin HTTP (Section 4.1).
struct ConnectionPolicy {
  /// Flash URLLoader: first request opens a fresh TCP connection instead of
  /// reusing the container page's (Opera behaviour).
  bool flash_first_request_new_connection = false;
  /// Flash URLLoader POST: every request opens a fresh connection (Opera).
  bool flash_post_always_new_connection = false;
};

struct BrowserProfile {
  BrowserOsCase which;
  /// Display label; overrides which.label() when set (mobile profiles,
  /// appletviewer sessions).
  std::string label_override;
  std::string label() const {
    return label_override.empty() ? which.label() : label_override;
  }
  bool supports_websocket = true;   ///< IE9 / Safari 5 lack it (Table 2)
  bool supports_flash = true;
  bool supports_java = true;
  std::string flash_version;
  std::string java_version;
  std::string browser_version;

  ConnectionPolicy policy;

  /// Safari's stock Java interface (JavaPlugin.jar / npJavaPlugin.dll)
  /// "runs into problems easily" (§5): warm-path Date.getTime()
  /// measurements pick up continuous extra latency (Fig. 4a, S Δd2).
  /// Absent for healthy plugins; removed when the Oracle JRE is forced.
  std::optional<DistSpec> java_date_warm_noise;

  /// performance.now()/webkitNow() availability (Table 2 era: Chrome and
  /// Firefox shipped it; IE 9, Opera 12 and Safari 5 had not).
  bool supports_performance_now = false;

  OverheadModel overhead(ProbeKind kind) const;
  /// `js_use_performance_now` upgrades the JS-native kinds to the
  /// high-resolution timer when the browser has one.
  ClockKind clock_for(ProbeKind kind, bool java_use_nanotime,
                      bool js_use_performance_now = false) const;

  /// All per-kind models, indexed by ProbeKind (filled by make_profile).
  std::array<OverheadModel, 11> models{};
};

/// Build the calibrated profile for one case. Throws std::invalid_argument
/// for combinations outside Table 2 (IE/Safari on Ubuntu).
BrowserProfile make_profile(BrowserId browser, OsId os);

/// True if the case exists in the paper's Table 2 matrix.
bool case_supported(BrowserId browser, OsId os);

/// Mobile-platform extension (paper §7: "the methodology can be extended
/// to the mobile environment"). Mobile browsers of the era have no Flash
/// or Java plug-ins - WebSocket is the only socket-based option left
/// (Section 2.1) - and pay higher event-loop dispatch costs on phone-class
/// CPUs.
enum class MobilePlatform { kIosSafari, kAndroidChrome };
const char* mobile_platform_name(MobilePlatform p);
BrowserProfile make_mobile_profile(MobilePlatform platform);

}  // namespace bnm::browser
