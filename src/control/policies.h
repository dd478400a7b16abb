// hpcc/control/policies.h
//
// The two built-in control policies (DESIGN.md §15) — one knob each,
// both steered from signals the tree already produces:
//
//  * PrefetchPolicy    — tunes the lazy mount's prefetch depth from the
//                        observed access pattern (sequential vs random
//                        first-touch order) and fault-shed pressure,
//                        through a shared LazyTuning handle;
//  * RoutingPolicy     — steers RegistryClient route preference
//                        (proxy-first vs origin-first) from the primary
//                        proxy's HealthTracker EWMAs and breaker state,
//                        *ahead* of the breaker tripping.
//
// Each policy runs its target through a StepGuard (deadband, hysteresis,
// bounded step — controller.h), so no sensor spike can slam a knob and
// no boundary-sitting signal can oscillate one.
#pragma once

#include <memory>
#include <vector>

#include "control/controller.h"
#include "registry/client.h"
#include "registry/lazy.h"

namespace hpcc::control {

// ---------------------------------------------------------------------------
// PrefetchPolicy
// ---------------------------------------------------------------------------

class PrefetchPolicy final : public Policy {
 public:
  /// Steers `tuning` (shared with one or more lazy mounts) in
  /// [0, max_depth]. The default guard reacts after 2 consecutive
  /// epochs, moves at most 4 blocks per epoch, and holds targets within
  /// half a block of the current depth.
  PrefetchPolicy(std::shared_ptr<registry::LazyTuning> tuning,
                 unsigned max_depth = 16);
  PrefetchPolicy(std::shared_ptr<registry::LazyTuning> tuning,
                 unsigned max_depth, GuardConfig guard);

  std::string_view name() const override { return "prefetch"; }
  std::string_view sensor_prefix() const override { return "lazy."; }

  std::optional<Proposal> evaluate(const EpochContext& ctx) override;
  void actuate(const Proposal& p) override;

 private:
  std::shared_ptr<registry::LazyTuning> tuning_;
  unsigned max_depth_;
  StepGuard guard_;
  DeltaTracker deltas_;
};

// ---------------------------------------------------------------------------
// RoutingPolicy
// ---------------------------------------------------------------------------

struct RoutingConfig {
  /// Switch to origin-first when the proxy latency EWMA exceeds
  /// degrade_factor × the best EWMA this policy has observed.
  double degrade_factor = 3.0;
  /// ...or when the proxy error-rate EWMA exceeds this.
  double max_error_rate = 0.5;
  /// Return to proxy-first once the EWMA recovers under
  /// recover_factor × baseline (needs fresh proxy samples — the
  /// preference is sticky while the proxy goes unexercised).
  double recover_factor = 1.5;
};

class RoutingPolicy final : public Policy {
 public:
  /// Steers every client in `clients` together (one site = one route
  /// decision). The setting is binary: 0 = proxy-first, 1 =
  /// origin-first; the default guard needs the flip direction to hold
  /// for 2 consecutive epochs.
  explicit RoutingPolicy(std::vector<registry::RegistryClient*> clients,
                         RoutingConfig cfg = {});
  RoutingPolicy(std::vector<registry::RegistryClient*> clients,
                RoutingConfig cfg, GuardConfig guard);

  std::string_view name() const override { return "routing"; }
  std::string_view sensor_prefix() const override { return "fault.health."; }

  std::optional<Proposal> evaluate(const EpochContext& ctx) override;
  void actuate(const Proposal& p) override;

  /// The best (lowest) mean proxy latency EWMA observed so far — the
  /// healthy-proxy baseline the degrade threshold is relative to.
  double baseline_latency_us() const { return baseline_; }

 private:
  std::vector<registry::RegistryClient*> clients_;
  RoutingConfig cfg_;
  StepGuard guard_;
  double baseline_ = 0.0;
};

}  // namespace hpcc::control
