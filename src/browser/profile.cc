#include "browser/profile.h"

#include <cmath>
#include <stdexcept>

namespace bnm::browser {

const char* browser_name(BrowserId b) {
  switch (b) {
    case BrowserId::kChrome: return "Chrome";
    case BrowserId::kFirefox: return "Firefox";
    case BrowserId::kIe: return "IE";
    case BrowserId::kOpera: return "Opera";
    case BrowserId::kSafari: return "Safari";
  }
  return "?";
}

const char* browser_initial(BrowserId b) {
  switch (b) {
    case BrowserId::kChrome: return "C";
    case BrowserId::kFirefox: return "F";
    case BrowserId::kIe: return "IE";
    case BrowserId::kOpera: return "O";
    case BrowserId::kSafari: return "S";
  }
  return "?";
}

const char* os_name(OsId os) {
  return os == OsId::kWindows7 ? "Windows 7" : "Ubuntu 12.04";
}

const char* os_initial(OsId os) { return os == OsId::kWindows7 ? "W" : "U"; }

std::string BrowserOsCase::label() const {
  return std::string{browser_initial(browser)} + " (" + os_initial(os) + ")";
}

std::vector<BrowserOsCase> paper_cases() {
  using B = BrowserId;
  using O = OsId;
  return {
      {B::kChrome, O::kUbuntu},   {B::kFirefox, O::kUbuntu},
      {B::kOpera, O::kUbuntu},    {B::kChrome, O::kWindows7},
      {B::kFirefox, O::kWindows7}, {B::kIe, O::kWindows7},
      {B::kOpera, O::kWindows7},  {B::kSafari, O::kWindows7},
  };
}

const char* probe_kind_name(ProbeKind k) {
  switch (k) {
    case ProbeKind::kXhrGet: return "XHR GET";
    case ProbeKind::kXhrPost: return "XHR POST";
    case ProbeKind::kDom: return "DOM";
    case ProbeKind::kFlashGet: return "Flash GET";
    case ProbeKind::kFlashPost: return "Flash POST";
    case ProbeKind::kFlashSocket: return "Flash TCP socket";
    case ProbeKind::kJavaGet: return "Java applet GET";
    case ProbeKind::kJavaPost: return "Java applet POST";
    case ProbeKind::kJavaSocket: return "Java applet TCP socket";
    case ProbeKind::kJavaUdp: return "Java applet UDP socket";
    case ProbeKind::kWebSocket: return "WebSocket";
  }
  return "?";
}

std::vector<ProbeKind> all_probe_kinds() {
  return {ProbeKind::kXhrGet,      ProbeKind::kXhrPost,  ProbeKind::kDom,
          ProbeKind::kFlashGet,    ProbeKind::kFlashPost, ProbeKind::kFlashSocket,
          ProbeKind::kJavaGet,     ProbeKind::kJavaPost, ProbeKind::kJavaSocket,
          ProbeKind::kJavaUdp,     ProbeKind::kWebSocket};
}

sim::Duration DistSpec::sample(sim::Rng& rng) const {
  double ms = 0;
  switch (kind) {
    case Kind::kConstant: ms = a; break;
    case Kind::kUniform: ms = rng.uniform(a, b); break;
    case Kind::kNormal: ms = rng.normal(a, b); break;
    case Kind::kLognormalMed: ms = rng.lognormal_med(a, b); break;
  }
  // Normal deltas may legitimately be negative (first-use deltas); other
  // kinds model latencies and clamp at zero.
  if (kind != Kind::kNormal && ms < 0) ms = 0;
  return sim::Duration::from_millis_f(ms);
}

double DistSpec::median_ms() const {
  switch (kind) {
    case Kind::kConstant: return a;
    case Kind::kUniform: return (a + b) / 2;
    case Kind::kNormal: return a;
    case Kind::kLognormalMed: return a;
  }
  return 0;
}

OverheadModel BrowserProfile::overhead(ProbeKind kind) const {
  return models[static_cast<std::size_t>(kind)];
}

ClockKind BrowserProfile::clock_for(ProbeKind kind, bool java_use_nanotime,
                                    bool js_use_performance_now) const {
  switch (kind) {
    case ProbeKind::kXhrGet:
    case ProbeKind::kXhrPost:
    case ProbeKind::kDom:
    case ProbeKind::kWebSocket:
      return js_use_performance_now && supports_performance_now
                 ? ClockKind::kJsPerformanceNow
                 : ClockKind::kJsDate;
    case ProbeKind::kFlashGet:
    case ProbeKind::kFlashPost:
    case ProbeKind::kFlashSocket:
      return ClockKind::kFlashDate;
    case ProbeKind::kJavaGet:
    case ProbeKind::kJavaPost:
    case ProbeKind::kJavaSocket:
    case ProbeKind::kJavaUdp:
      return java_use_nanotime ? ClockKind::kJavaNano : ClockKind::kJavaDate;
  }
  return ClockKind::kJsDate;
}

bool case_supported(BrowserId browser, OsId os) {
  if (os == OsId::kUbuntu) {
    return browser == BrowserId::kChrome || browser == BrowserId::kFirefox ||
           browser == BrowserId::kOpera;
  }
  return true;
}

namespace {

// Shorthand for the calibration table below.
using D = DistSpec;

void set(BrowserProfile& p, ProbeKind k, OverheadModel m) {
  p.models[static_cast<std::size_t>(k)] = m;
}

/// Split a warm-path median across pre-send (40%) and receive-dispatch
/// (60%): event-loop dispatch after the response dominates in practice.
OverheadModel http_model(double warm_median_ms, double first_extra_ms,
                         double sigma) {
  return OverheadModel{
      D::lognormal_med(warm_median_ms * 0.4, sigma),
      D::lognormal_med(warm_median_ms * 0.6, sigma),
      D::lognormal_med(first_extra_ms, sigma),
  };
}

/// Java models reproduce Table 4: tight normal distributions, with a signed
/// first-use delta (the paper's Δd1 is *below* Δd2 for Java GET).
OverheadModel java_model(double warm_ms, double first_delta_ms, double sd) {
  return OverheadModel{
      D::normal(warm_ms * 0.4, sd * 0.5),
      D::normal(warm_ms * 0.6, sd * 0.5),
      D::normal(first_delta_ms, sd),
  };
}

struct HttpRow {
  double xhr_get, xhr_post, dom, flash_get, flash_post, flash_socket, ws;
};

// Warm-path medians (ms) per case, calibrated to Figure 3 (DESIGN.md §5).
//                         xhrG  xhrP   dom  flaG  flaP  flaS    ws
const HttpRow kChromeU =  { 4.0,  5.5,  1.5, 25.0, 28.0, 0.50, 0.25};
const HttpRow kFirefoxU = { 8.0, 11.0,  2.0, 40.0, 45.0, 0.70, 0.35};
const HttpRow kOperaU =   {12.0, 16.0,  2.5, 20.0, 20.0, 0.80, 0.45};
const HttpRow kChromeW =  { 6.0,  8.0,  3.0, 30.0, 34.0, 0.80, 0.35};
const HttpRow kFirefoxW = { 5.0,  7.0,  2.5, 35.0, 40.0, 0.90, 0.45};
const HttpRow kIeW =      {15.0, 20.0,  5.0, 60.0, 68.0, 2.00, 0.00};
const HttpRow kOperaW =   {10.0, 13.5,  4.0, 20.0, 20.0, 1.00, 0.55};
const HttpRow kSafariW =  {18.0, 24.0,  6.0, 80.0, 90.0, 3.00, 0.00};

const HttpRow& http_row(BrowserId b, OsId os) {
  if (os == OsId::kUbuntu) {
    switch (b) {
      case BrowserId::kChrome: return kChromeU;
      case BrowserId::kFirefox: return kFirefoxU;
      case BrowserId::kOpera: return kOperaU;
      default: break;
    }
    throw std::invalid_argument("case outside Table 2");
  }
  switch (b) {
    case BrowserId::kChrome: return kChromeW;
    case BrowserId::kFirefox: return kFirefoxW;
    case BrowserId::kIe: return kIeW;
    case BrowserId::kOpera: return kOperaW;
    case BrowserId::kSafari: return kSafariW;
  }
  throw std::invalid_argument("unknown browser");
}

struct JavaRow {
  // warm medians and signed first-use deltas (ms), plus noise sd
  double get_warm, get_first, post_warm, post_first, sock_warm, sock_first, sd;
};

// Windows rows reproduce Table 4 (nanoTime ground truth); Ubuntu rows match
// the small consistent overheads of Figure 3(h)-(j) U cases.
const JavaRow kJavaChromeU =  {2.0, 0.6, 1.6, 0.5, 0.06, 0.02, 0.10};
const JavaRow kJavaFirefoxU = {2.5, 0.7, 1.9, 0.6, 0.07, 0.02, 0.12};
const JavaRow kJavaOperaU =   {3.0, 0.8, 2.2, 0.7, 0.08, 0.03, 0.14};
const JavaRow kJavaChromeW =  {4.80, -1.84, 1.84, 0.87, 0.07, -0.06, 0.18};
const JavaRow kJavaFirefoxW = {4.38, -1.65, 1.49, 0.92, 0.07, -0.07, 0.20};
const JavaRow kJavaIeW =      {4.56, -1.83, 1.49, 1.08, 0.06, -0.04, 0.22};
const JavaRow kJavaOperaW =   {4.46, -1.63, 1.57, 0.94, 0.06, -0.05, 0.18};
const JavaRow kJavaSafariW =  {1.52, 0.36, 1.42, 0.20, 0.13, -0.06, 0.25};

const JavaRow& java_row(BrowserId b, OsId os) {
  if (os == OsId::kUbuntu) {
    switch (b) {
      case BrowserId::kChrome: return kJavaChromeU;
      case BrowserId::kFirefox: return kJavaFirefoxU;
      case BrowserId::kOpera: return kJavaOperaU;
      default: break;
    }
    throw std::invalid_argument("case outside Table 2");
  }
  switch (b) {
    case BrowserId::kChrome: return kJavaChromeW;
    case BrowserId::kFirefox: return kJavaFirefoxW;
    case BrowserId::kIe: return kJavaIeW;
    case BrowserId::kOpera: return kJavaOperaW;
    case BrowserId::kSafari: return kJavaSafariW;
  }
  throw std::invalid_argument("unknown browser");
}

}  // namespace

BrowserProfile make_profile(BrowserId browser, OsId os) {
  if (!case_supported(browser, os)) {
    throw std::invalid_argument(std::string{browser_name(browser)} +
                                " is not in the Table 2 matrix for " +
                                os_name(os));
  }

  BrowserProfile p;
  p.which = BrowserOsCase{browser, os};

  // Table 2: versions and WebSocket support.
  if (os == OsId::kWindows7) {
    p.supports_websocket =
        browser != BrowserId::kIe && browser != BrowserId::kSafari;
    p.java_version = "1.7.0";
    switch (browser) {
      case BrowserId::kChrome:
        p.browser_version = "23.0";
        p.flash_version = "11.7.700";
        break;
      case BrowserId::kFirefox:
        p.browser_version = "17.0";
        p.flash_version = "11.5.502";
        break;
      case BrowserId::kIe:
        p.browser_version = "9.0.8";
        p.flash_version = "11.5.502";
        break;
      case BrowserId::kOpera:
        p.browser_version = "12.11";
        p.flash_version = "11.5.502";
        break;
      case BrowserId::kSafari:
        p.browser_version = "5.1.7";
        p.flash_version = "11.5.502";
        break;
    }
  } else {
    p.supports_websocket = true;
    p.java_version = "1.6.0";
    switch (browser) {
      case BrowserId::kChrome:
        p.browser_version = "23.0";
        p.flash_version = "11.5.31";
        break;
      case BrowserId::kFirefox:
        p.browser_version = "17.0";
        p.flash_version = "11.2.202";
        break;
      default:
        p.browser_version = "12.11";
        p.flash_version = "11.2.202";
        break;
    }
  }

  // High Resolution Time API of the era: Chrome (webkitNow) and Firefox 15+
  // shipped it; IE 9, Opera 12 and Safari 5 had not.
  p.supports_performance_now =
      browser == BrowserId::kChrome || browser == BrowserId::kFirefox;

  // Section 4.1: Opera's Flash plugin opens a new TCP connection for the
  // first HTTP request, and for *every* POST.
  if (browser == BrowserId::kOpera) {
    p.policy.flash_first_request_new_connection = true;
    p.policy.flash_post_always_new_connection = true;
  }

  // --- Overhead calibration (DESIGN.md §5) ---
  const HttpRow& h = http_row(browser, os);
  const double sig = os == OsId::kUbuntu ? 0.35 : 0.45;
  const double flash_sig = 0.45;  // "extremely high" variability (Fig 3e/f)

  set(p, ProbeKind::kXhrGet, http_model(h.xhr_get, h.xhr_get * 0.6, sig));
  set(p, ProbeKind::kXhrPost, http_model(h.xhr_post, h.xhr_post * 0.6, sig));
  set(p, ProbeKind::kDom,
      http_model(h.dom, h.dom * 0.5, os == OsId::kUbuntu ? 0.20 : 0.35));

  // Opera's Flash first-use extra is large and *tight* (Table 3 medians /
  // Fig 3e: O(W) Δd1 never drops below ~100 ms = handshake + warm + ~26 ms
  // of object instantiation). Other browsers' first use costs ~40% of a
  // warm request extra.
  const OverheadModel flash_get_model{
      D::lognormal_med(h.flash_get * 0.4, flash_sig),
      D::lognormal_med(h.flash_get * 0.6, flash_sig),
      browser == BrowserId::kOpera
          ? D::lognormal_med(26.0, 0.15)
          : D::lognormal_med(h.flash_get * 0.4, flash_sig)};
  const OverheadModel flash_post_model{
      D::lognormal_med(h.flash_post * 0.4, flash_sig),
      D::lognormal_med(h.flash_post * 0.6, flash_sig),
      browser == BrowserId::kOpera
          ? D::lognormal_med(26.0, 0.15)
          : D::lognormal_med(h.flash_post * 0.4, flash_sig)};
  set(p, ProbeKind::kFlashGet, flash_get_model);
  set(p, ProbeKind::kFlashPost, flash_post_model);
  set(p, ProbeKind::kFlashSocket,
      OverheadModel{D::lognormal_med(h.flash_socket * 0.4, 0.45),
                    D::lognormal_med(h.flash_socket * 0.6, 0.45),
                    D::lognormal_med(h.flash_socket * 1.5, 0.5)});

  if (p.supports_websocket) {
    const double ws_first = (browser == BrowserId::kOpera && os == OsId::kWindows7)
                                ? 12.0   // the Opera (W) Δd1 outlier (Fig 3d)
                                : h.ws * 0.5;
    set(p, ProbeKind::kWebSocket,
        OverheadModel{D::lognormal_med(h.ws * 0.3, 0.40),
                      D::lognormal_med(h.ws * 0.7, 0.40),
                      D::lognormal_med(ws_first, 0.45)});
  }

  if (browser == BrowserId::kSafari && os == OsId::kWindows7) {
    p.java_date_warm_noise = D::uniform(0.0, 12.0);
  }

  const JavaRow& j = java_row(browser, os);
  set(p, ProbeKind::kJavaGet, java_model(j.get_warm, j.get_first, j.sd));
  set(p, ProbeKind::kJavaPost, java_model(j.post_warm, j.post_first, j.sd));
  set(p, ProbeKind::kJavaSocket, java_model(j.sock_warm, j.sock_first, j.sd * 0.3));
  set(p, ProbeKind::kJavaUdp,
      java_model(j.sock_warm * 1.1, j.sock_first, j.sd * 0.3));

  return p;
}

const char* mobile_platform_name(MobilePlatform p) {
  switch (p) {
    case MobilePlatform::kIosSafari: return "Mobile Safari (iOS 6)";
    case MobilePlatform::kAndroidChrome: return "Chrome Mobile (Android 4)";
  }
  return "?";
}

BrowserProfile make_mobile_profile(MobilePlatform platform) {
  BrowserProfile p;
  // Base on the closest desktop engine for clock behaviour and policies;
  // `which` keeps a plausible engine family for rng labels.
  p.which = BrowserOsCase{platform == MobilePlatform::kIosSafari
                              ? BrowserId::kSafari
                              : BrowserId::kChrome,
                          OsId::kUbuntu};
  p.label_override = platform == MobilePlatform::kIosSafari ? "MobSaf" : "MobChr";
  p.browser_version =
      platform == MobilePlatform::kIosSafari ? "6.0 (iOS)" : "18.0 (Android)";

  // No third-party plug-ins on mobile (Section 2.1) - WebSocket is the
  // only socket option.
  p.supports_flash = false;
  p.supports_java = false;
  p.supports_websocket = true;
  p.flash_version.assign(1, '-');
  p.java_version.assign(1, '-');

  // Phone-class CPUs: 2-4x the desktop dispatch overheads of the engine's
  // desktop sibling.
  const bool ios = platform == MobilePlatform::kIosSafari;
  const double xhr = ios ? 28.0 : 16.0;
  const double dom = ios ? 9.0 : 5.0;
  const double ws = ios ? 1.2 : 0.8;
  set(p, ProbeKind::kXhrGet, http_model(xhr, xhr * 0.6, 0.5));
  set(p, ProbeKind::kXhrPost, http_model(xhr * 1.35, xhr * 0.6, 0.5));
  set(p, ProbeKind::kDom, http_model(dom, dom * 0.5, 0.4));
  set(p, ProbeKind::kWebSocket,
      OverheadModel{DistSpec::lognormal_med(ws * 0.3, 0.45),
                    DistSpec::lognormal_med(ws * 0.7, 0.45),
                    DistSpec::lognormal_med(ws * 0.8, 0.5)});
  return p;
}

}  // namespace bnm::browser
