// hpcc/fault/resilience.h
//
// The fleet-scale resilience toolkit: the *containment* half of the
// fault story. PR 4 injects faults and retries them; nothing stopped a
// throttled origin or a browned-out proxy from cascading into retry
// amplification across the whole fleet (§5.1.3 — production sites like
// the Sarus deployments lean on site caching plus failover precisely
// because registry outages are routine). This header provides the four
// building blocks the pull path threads together:
//
//  * HealthTracker      — per-endpoint EWMA error rate and latency over
//                         sim time, plus a fixed-bucket latency
//                         histogram for deterministic percentiles;
//  * CircuitBreaker     — closed → open → half-open with seeded probe
//                         admission; every transition happens at a
//                         deterministic sim time;
//  * HedgePolicy        — launch a second pull leg after a latency
//                         percentile budget, first completion wins;
//  * AdmissionController— token-bucket load shedding with priority
//                         classes so lazy prefetch sheds before
//                         first-touch reads.
//
// Determinism contract (enforced by tests/resilience_test.cpp):
//  * everything runs on the single-threaded timed plane and advances
//    only with explicit sim times — same seed + same call sequence ⇒
//    identical admissions, transitions and budgets;
//  * a disabled breaker/controller admits everything and draws nothing,
//    so the disabled configuration is byte-identical to a build without
//    the resilience layer at all;
//  * all state is observable via obs (the per-endpoint state gauge
//    fault.breaker.<endpoint>.state and health gauges
//    fault.health.<endpoint>.*, fault.hedge.won, fault.shed.count) and
//    obs itself is off-is-byte-identical.
//
// This state is also the sensor input the ROADMAP's closed-loop
// adaptive control plane will read: breaker transitions and health
// EWMAs are exactly the signals an online policy needs to steer
// proxy-vs-origin selection and prefetch aggressiveness.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>

#include "util/rng.h"
#include "util/sim_time.h"

namespace hpcc::fault {

// ---------------------------------------------------------------------------
// HealthTracker
// ---------------------------------------------------------------------------

struct HealthConfig {
  /// EWMA smoothing per sample: estimate += alpha * (sample - estimate).
  double alpha = 0.2;
};

/// Per-endpoint health over sim time. Purely functional-plane
/// bookkeeping: recording never charges simulated time, so tracking
/// health on an otherwise-unchanged path keeps outputs byte-identical.
class HealthTracker {
 public:
  explicit HealthTracker(HealthConfig cfg = {}) : cfg_(cfg) {}

  void record_success(SimTime now, SimDuration latency);
  void record_failure(SimTime now);

  /// EWMA of the failure indicator in [0, 1]. 0 before any sample.
  double error_rate() const { return error_ewma_; }
  /// EWMA of successful-attempt latency. 0 before any success.
  SimDuration latency_ewma() const {
    return static_cast<SimDuration>(latency_ewma_);
  }
  /// Deterministic latency percentile (p in [0,1]) from power-of-two
  /// buckets: returns the upper bound of the bucket where the
  /// cumulative success count crosses p. 0 before any success.
  SimDuration latency_percentile(double p) const;

  std::uint64_t successes() const { return successes_; }
  std::uint64_t failures() const { return failures_; }
  std::uint64_t samples() const { return successes_ + failures_; }
  SimTime last_sample_at() const { return last_sample_at_; }

  /// Exports the tracker's state as obs gauges under `prefix`
  /// (<prefix>.latency_us, .error_bp, .successes, .failures) — the
  /// on-demand health export the control plane reads per epoch via
  /// obs::Registry::snapshot_subset. No-op when metrics are off.
  void publish(std::string_view prefix) const;

 private:
  // Power-of-two latency buckets: bucket k counts successes with
  // latency in [2^k, 2^(k+1)) microseconds (bucket 0 includes 0).
  static constexpr std::size_t kBuckets = 40;

  HealthConfig cfg_;
  double error_ewma_ = 0.0;
  double latency_ewma_ = 0.0;
  std::uint64_t successes_ = 0;
  std::uint64_t failures_ = 0;
  SimTime last_sample_at_ = 0;
  std::array<std::uint64_t, kBuckets> latency_hist_{};
};

// ---------------------------------------------------------------------------
// CircuitBreaker
// ---------------------------------------------------------------------------

enum class BreakerState : std::uint8_t { kClosed = 0, kOpen = 1, kHalfOpen = 2 };

std::string_view to_string(BreakerState s) noexcept;

struct BreakerConfig {
  /// Disabled (the default) admits everything, records only health, and
  /// draws nothing: byte-identical to a breaker-less path.
  bool enabled = false;
  /// Consecutive failures in closed state that trip the breaker open.
  std::uint32_t failure_threshold = 5;
  /// How long the breaker stays open before probing (open → half-open
  /// happens at exactly opened_at + cooldown).
  SimDuration cooldown = sec(5);
  /// Successful half-open probes required to close again.
  std::uint32_t probe_successes = 2;
  /// Seeded Bernoulli probability that a half-open request is admitted
  /// as a probe (the rest fast-fail — a trickle, not a thundering herd).
  double probe_admit = 0.5;
  std::uint64_t seed = 0xb7ea3ull;

  /// The configuration the ROB003 fix-it installs.
  static BreakerConfig standard();
};

/// Per-endpoint circuit breaker over sim time. Not thread-safe: lives on
/// the deterministic single-threaded timed plane, like FaultInjector.
class CircuitBreaker {
 public:
  /// `endpoint` names the breaker's gauges and seeds its probe stream.
  CircuitBreaker(std::string endpoint, BreakerConfig cfg);

  bool enabled() const { return cfg_.enabled; }
  const BreakerConfig& config() const { return cfg_; }
  const std::string& endpoint() const { return endpoint_; }

  /// Admission check for one request at `now`. Advances open → half-open
  /// when the cooldown has elapsed; in half-open, draws the seeded probe
  /// admission. False means fast-fail without touching the endpoint.
  /// Disabled breakers always return true and never draw.
  bool allow(SimTime now);

  /// Outcome feedback. Health is recorded even when disabled (it is the
  /// hedge budget's input and pure bookkeeping); state transitions only
  /// happen when enabled.
  void on_success(SimTime now, SimDuration latency = 0);
  void on_failure(SimTime now);

  /// The state an allow() at `now` would act under (open flips to
  /// half-open in the view once the cooldown has elapsed). Const: never
  /// advances anything.
  BreakerState state(SimTime now) const;
  /// The raw stored state, for untimed consumers (prefetch admission).
  BreakerState state() const { return state_; }

  const HealthTracker& health() const { return health_; }
  /// Publishes the breaker's state gauge fault.breaker.<endpoint>.state
  /// and its health gauges under fault.health.<endpoint> (the state
  /// stays out of fault.health., RoutingPolicy's sensor family). An
  /// enabled breaker calls this after every outcome and transition; a
  /// control epoch calls it on demand, since it wants fresh EWMAs from
  /// quiet and disabled breakers too.
  void publish_health() const;
  std::uint64_t rejected() const { return rejected_; }
  std::uint64_t trips() const { return trips_; }
  SimTime opened_at() const { return opened_at_; }

 private:
  void transition(BreakerState next, SimTime now);

  std::string endpoint_;
  BreakerConfig cfg_;
  Rng rng_;
  BreakerState state_ = BreakerState::kClosed;
  HealthTracker health_;
  std::uint32_t consecutive_failures_ = 0;
  std::uint32_t half_open_successes_ = 0;
  SimTime opened_at_ = 0;
  std::uint64_t rejected_ = 0;
  std::uint64_t trips_ = 0;
};

// ---------------------------------------------------------------------------
// HedgePolicy
// ---------------------------------------------------------------------------

/// When to launch a second pull leg against an independent endpoint.
/// The budget is derived from the primary endpoint's observed latency
/// percentile (the classic tail-at-scale hedge) or fixed; first
/// completion wins and the loser is cancelled without charging duplicate
/// bytes (DESIGN.md §14 has the determinism argument).
struct HedgePolicy {
  /// Launch the hedge once the primary has been outstanding longer than
  /// this percentile of its own history (0 disables percentile mode).
  double percentile = 0.0;
  /// Stretch applied to the percentile latency (1.5 = "50% grace").
  double multiplier = 1.0;
  /// Fixed budget; nonzero overrides percentile mode.
  SimDuration fixed_budget = 0;
  /// Budget floor, and the budget used before any history exists.
  SimDuration min_budget = msec(1);
  SimDuration default_budget = msec(200);

  bool enabled() const { return fixed_budget > 0 || percentile > 0.0; }

  /// The sim-duration the caller waits before launching the second leg.
  SimDuration launch_after(const HealthTracker& primary_health) const;

  static HedgePolicy at_percentile(double p, double mult = 1.0);
  static HedgePolicy after(SimDuration budget);
};

// ---------------------------------------------------------------------------
// AdmissionController
// ---------------------------------------------------------------------------

/// Priority class of a request entering a shared choke point. First-
/// touch reads block a running job; lazy prefetch is an optimization —
/// under pressure prefetch sheds first.
enum class RequestClass : std::uint8_t { kFirstTouch = 0, kPrefetch = 1 };

std::string_view to_string(RequestClass c) noexcept;

struct AdmissionConfig {
  /// Disabled (the default) admits everything: byte-identical to a
  /// controller-less path.
  bool enabled = false;
  /// Token refill rate (requests per simulated second).
  double rate_per_sec = 200.0;
  /// Bucket capacity (burst size), in tokens.
  double burst = 32.0;
  /// Fraction of the bucket reserved for first-touch traffic: prefetch
  /// is admitted only while tokens > reserve * burst, so as the bucket
  /// drains prefetch sheds strictly before first-touch does.
  double prefetch_reserve = 0.5;

  /// The configuration the ROB004 fix-it installs.
  static AdmissionConfig standard(double qps = 200.0);
};

/// Deterministic token-bucket load shedder over sim time. Single timed
/// plane, no draws: the admit sequence is a pure function of the
/// (class, time) call sequence.
class AdmissionController {
 public:
  AdmissionController() : AdmissionController(AdmissionConfig{}) {}
  explicit AdmissionController(AdmissionConfig cfg)
      : cfg_(cfg), tokens_(cfg.burst) {}

  bool enabled() const { return cfg_.enabled; }
  const AdmissionConfig& config() const { return cfg_; }

  /// One request of class `cls` at `now`. Disabled controllers admit
  /// everything and keep no state.
  bool admit(RequestClass cls, SimTime now);

  double tokens() const { return tokens_; }
  std::uint64_t admitted() const { return admitted_; }
  std::uint64_t shed(RequestClass cls) const {
    return shed_[static_cast<std::size_t>(cls)];
  }
  std::uint64_t shed_total() const { return shed_[0] + shed_[1]; }

 private:
  AdmissionConfig cfg_;
  double tokens_;
  SimTime last_refill_ = 0;
  std::uint64_t admitted_ = 0;
  std::array<std::uint64_t, 2> shed_{};
};

}  // namespace hpcc::fault
