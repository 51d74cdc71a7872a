// Shared packet-loss primitive used by Link, DelayEmulator and
// FaultInjector, so i.i.d. and bursty (Gilbert-Elliott) loss semantics never
// diverge between pipeline stages.
//
// Determinism contract: a disabled process never touches the RNG, and the
// i.i.d. mode draws exactly one rng.chance(p) per packet — bit-identical to
// the historical inline check in Link::transmit.
#pragma once

#include <tuple>

#include "sim/random.h"

namespace bnm::net {

/// Two-state Gilbert-Elliott loss chain. Each packet is dropped with the
/// current state's loss probability, then the chain transitions.
struct GilbertElliottConfig {
  double p_good_to_bad = 0.0;  ///< per-packet transition probability
  double p_bad_to_good = 0.0;
  double loss_good = 0.0;  ///< drop probability while in the Good state
  double loss_bad = 1.0;   ///< drop probability while in the Bad state

  template <class S>  ///< field list (core/config_hash.h)
  static auto fields(S& s) {
    return std::tie(s.p_good_to_bad, s.p_bad_to_good, s.loss_good, s.loss_bad);
  }

  /// Long-run stationary loss rate of the chain (for test assertions).
  double stationary_loss_rate() const;
};

class LossProcess {
 public:
  LossProcess() = default;

  static LossProcess iid(double p);
  static LossProcess bursty(const GilbertElliottConfig& cfg);

  bool enabled() const { return mode_ != Mode::kNone; }
  bool is_bursty() const { return mode_ == Mode::kBursty; }

  /// Advances the chain (bursty mode) and reports whether to drop. Must only
  /// be called when enabled(): a disabled process never touches the RNG.
  bool should_drop(sim::Rng& rng);

  /// Current Gilbert-Elliott state (bursty mode only; false = Good).
  bool in_bad_state() const { return bad_; }

 private:
  enum class Mode { kNone, kIid, kBursty };
  Mode mode_ = Mode::kNone;
  double iid_p_ = 0.0;
  GilbertElliottConfig ge_{};
  bool bad_ = false;
};

}  // namespace bnm::net
