#include "fault/resilience.h"

#include <algorithm>
#include <cmath>

#include "obs/obs.h"

namespace hpcc::fault {

// ---------------------------------------------------------------------------
// HealthTracker
// ---------------------------------------------------------------------------

namespace {

std::size_t latency_bucket(SimDuration latency) {
  if (latency <= 1) return 0;
  std::size_t b = 0;
  std::uint64_t v = static_cast<std::uint64_t>(latency);
  while (v > 1) {
    v >>= 1;
    ++b;
  }
  return b < 40 ? b : 39;
}

}  // namespace

void HealthTracker::record_success(SimTime now, SimDuration latency) {
  ++successes_;
  last_sample_at_ = now;
  error_ewma_ += cfg_.alpha * (0.0 - error_ewma_);
  if (latency_ewma_ == 0.0 && successes_ == 1) {
    latency_ewma_ = static_cast<double>(latency);
  } else {
    latency_ewma_ += cfg_.alpha * (static_cast<double>(latency) - latency_ewma_);
  }
  ++latency_hist_[latency_bucket(latency)];
}

void HealthTracker::record_failure(SimTime now) {
  ++failures_;
  last_sample_at_ = now;
  error_ewma_ += cfg_.alpha * (1.0 - error_ewma_);
}

void HealthTracker::publish(std::string_view prefix) const {
  if (!obs::metrics_enabled()) return;
  const std::string base(prefix);
  obs::metrics().gauge(base + ".latency_us").set(latency_ewma());
  obs::metrics()
      .gauge(base + ".error_bp")
      .set(static_cast<std::int64_t>(error_ewma_ * 10000.0));
  obs::metrics()
      .gauge(base + ".successes")
      .set(static_cast<std::int64_t>(successes_));
  obs::metrics()
      .gauge(base + ".failures")
      .set(static_cast<std::int64_t>(failures_));
}

SimDuration HealthTracker::latency_percentile(double p) const {
  if (successes_ == 0) return 0;
  p = std::clamp(p, 0.0, 1.0);
  const double target = p * static_cast<double>(successes_);
  std::uint64_t cumulative = 0;
  for (std::size_t b = 0; b < kBuckets; ++b) {
    cumulative += latency_hist_[b];
    if (static_cast<double>(cumulative) >= target && cumulative > 0) {
      // Upper bound of bucket b: 2^(b+1) us.
      return static_cast<SimDuration>(1ull << std::min<std::size_t>(b + 1, 62));
    }
  }
  return static_cast<SimDuration>(1ull << 40);
}

// ---------------------------------------------------------------------------
// CircuitBreaker
// ---------------------------------------------------------------------------

std::string_view to_string(BreakerState s) noexcept {
  switch (s) {
    case BreakerState::kClosed: return "closed";
    case BreakerState::kOpen: return "open";
    case BreakerState::kHalfOpen: return "half-open";
  }
  return "?";
}

BreakerConfig BreakerConfig::standard() {
  BreakerConfig cfg;
  cfg.enabled = true;
  return cfg;
}

CircuitBreaker::CircuitBreaker(std::string endpoint, BreakerConfig cfg)
    : endpoint_(std::move(endpoint)),
      cfg_(cfg),
      // A private per-endpoint stream (seed mixed with the endpoint name)
      // so probe draws at one endpoint never shift another's.
      rng_(cfg.seed ^ (0x9e3779b97f4a7c15ull *
                       (std::hash<std::string>{}(endpoint_) | 1))) {}

bool CircuitBreaker::allow(SimTime now) {
  if (!cfg_.enabled) return true;
  if (state_ == BreakerState::kOpen) {
    if (now < opened_at_ + cfg_.cooldown) {
      ++rejected_;
      obs::count("fault.breaker.rejected");
      return false;
    }
    transition(BreakerState::kHalfOpen, now);
  }
  if (state_ == BreakerState::kHalfOpen) {
    if (!rng_.next_bool(cfg_.probe_admit)) {
      ++rejected_;
      obs::count("fault.breaker.rejected");
      return false;
    }
  }
  return true;
}

void CircuitBreaker::on_success(SimTime now, SimDuration latency) {
  health_.record_success(now, latency);
  if (!cfg_.enabled) return;
  consecutive_failures_ = 0;
  if (state_ == BreakerState::kHalfOpen) {
    if (++half_open_successes_ >= cfg_.probe_successes)
      transition(BreakerState::kClosed, now);
  }
  publish_health();
}

void CircuitBreaker::on_failure(SimTime now) {
  health_.record_failure(now);
  if (!cfg_.enabled) return;
  if (state_ == BreakerState::kHalfOpen) {
    // A failed probe reopens immediately: the endpoint is still sick.
    transition(BreakerState::kOpen, now);
  } else if (state_ == BreakerState::kClosed &&
             ++consecutive_failures_ >= cfg_.failure_threshold) {
    transition(BreakerState::kOpen, now);
  }
  publish_health();
}

BreakerState CircuitBreaker::state(SimTime now) const {
  if (state_ == BreakerState::kOpen && now >= opened_at_ + cfg_.cooldown)
    return BreakerState::kHalfOpen;
  return state_;
}

void CircuitBreaker::transition(BreakerState next, SimTime now) {
  state_ = next;
  switch (next) {
    case BreakerState::kOpen:
      opened_at_ = now;
      ++trips_;
      obs::count("fault.breaker.trips");
      break;
    case BreakerState::kHalfOpen:
      half_open_successes_ = 0;
      break;
    case BreakerState::kClosed:
      consecutive_failures_ = 0;
      half_open_successes_ = 0;
      break;
  }
  publish_health();
}

void CircuitBreaker::publish_health() const {
  if (!obs::metrics_enabled()) return;
  obs::metrics()
      .gauge("fault.breaker." + endpoint_ + ".state")
      .set(static_cast<std::int64_t>(state_));
  health_.publish("fault.health." + endpoint_);
}

// ---------------------------------------------------------------------------
// HedgePolicy
// ---------------------------------------------------------------------------

HedgePolicy HedgePolicy::at_percentile(double p, double mult) {
  HedgePolicy h;
  h.percentile = std::clamp(p, 0.0, 1.0);
  h.multiplier = mult < 1.0 ? 1.0 : mult;
  return h;
}

HedgePolicy HedgePolicy::after(SimDuration budget) {
  HedgePolicy h;
  h.fixed_budget = budget < 1 ? 1 : budget;
  return h;
}

SimDuration HedgePolicy::launch_after(const HealthTracker& primary_health) const {
  if (fixed_budget > 0) return std::max(fixed_budget, min_budget);
  SimDuration budget = default_budget;
  if (primary_health.successes() > 0) {
    const SimDuration pct = primary_health.latency_percentile(percentile);
    budget = static_cast<SimDuration>(static_cast<double>(pct) * multiplier);
  }
  return std::max(budget, min_budget);
}

// ---------------------------------------------------------------------------
// AdmissionController
// ---------------------------------------------------------------------------

std::string_view to_string(RequestClass c) noexcept {
  switch (c) {
    case RequestClass::kFirstTouch: return "first-touch";
    case RequestClass::kPrefetch: return "prefetch";
  }
  return "?";
}

AdmissionConfig AdmissionConfig::standard(double qps) {
  AdmissionConfig cfg;
  cfg.enabled = true;
  cfg.rate_per_sec = qps < 1.0 ? 1.0 : qps;
  return cfg;
}

bool AdmissionController::admit(RequestClass cls, SimTime now) {
  if (!cfg_.enabled) return true;
  if (now > last_refill_) {
    tokens_ = std::min(
        cfg_.burst, tokens_ + to_seconds(now - last_refill_) * cfg_.rate_per_sec);
    last_refill_ = now;
  }
  const double floor =
      cls == RequestClass::kPrefetch ? cfg_.prefetch_reserve * cfg_.burst : 0.0;
  if (tokens_ < 1.0 + floor) {
    ++shed_[static_cast<std::size_t>(cls)];
    obs::count("fault.shed.count");
    if (obs::metrics_enabled())
      obs::metrics()
          .counter(std::string("fault.shed.") + std::string(to_string(cls)))
          .add(1);
    return false;
  }
  tokens_ -= 1.0;
  ++admitted_;
  return true;
}

}  // namespace hpcc::fault
