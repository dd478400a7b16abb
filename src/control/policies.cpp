#include "control/policies.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "fault/resilience.h"

namespace hpcc::control {

namespace {

std::string kv(const char* key, std::uint64_t v) {
  return std::string(key) + "=" + std::to_string(v);
}

std::string kv(const char* key, double v) {
  return std::string(key) + "=" + fmt_setting(v);
}

}  // namespace

// ---------------------------------------------------------------------------
// PrefetchPolicy
// ---------------------------------------------------------------------------

PrefetchPolicy::PrefetchPolicy(std::shared_ptr<registry::LazyTuning> tuning,
                               unsigned max_depth)
    : PrefetchPolicy(std::move(tuning), max_depth,
                     GuardConfig{.deadband = 0.5,
                                 .hysteresis_epochs = 2,
                                 .max_step = 4.0,
                                 .min_value = 0.0,
                                 .max_value = static_cast<double>(max_depth)}) {}

PrefetchPolicy::PrefetchPolicy(std::shared_ptr<registry::LazyTuning> tuning,
                               unsigned max_depth, GuardConfig guard)
    : tuning_(std::move(tuning)), max_depth_(max_depth), guard_(guard) {}

std::optional<Proposal> PrefetchPolicy::evaluate(const EpochContext& ctx) {
  const std::uint64_t seq = deltas_.delta(*ctx.sensors, "lazy.read_sequential");
  const std::uint64_t rnd = deltas_.delta(*ctx.sensors, "lazy.read_random");
  const std::uint64_t shed =
      deltas_.delta(*ctx.sensors, "lazy.prefetch_skipped_fault");
  const std::uint64_t total = seq + rnd;
  if (total == 0) return std::nullopt;  // sensors dark or mount idle: hold

  const double current = tuning_->prefetch_depth();
  const double seq_frac =
      static_cast<double>(seq) / static_cast<double>(total);
  // Depth proportional to how sequential the epoch looked: a fully
  // sequential phase earns max depth, a random scan earns none (its
  // prefetches only pollute the cache tiers).
  double target = seq_frac * static_cast<double>(max_depth_);
  // Shed pressure (prefetch candidates dropped by fault draws) backs
  // the knob off regardless of pattern — the link is struggling.
  if (shed > 0) target = std::min(target, std::max(0.0, current - 1.0));

  const auto next = guard_.step(current, target);
  if (!next) return std::nullopt;

  Proposal p;
  p.old_setting = current;
  p.new_setting = std::round(*next);
  if (p.new_setting == p.old_setting) return std::nullopt;
  p.sensors = kv("seq", seq) + " " + kv("rand", rnd) + " " + kv("shed", shed);
  p.rationale = "sequential fraction " + fmt_setting(seq_frac) + " over " +
                std::to_string(total) + " reads" +
                (shed > 0 ? ", shed pressure" : "");
  return p;
}

void PrefetchPolicy::actuate(const Proposal& p) {
  tuning_->set_prefetch_depth(static_cast<unsigned>(p.new_setting));
}

// ---------------------------------------------------------------------------
// RoutingPolicy
// ---------------------------------------------------------------------------

RoutingPolicy::RoutingPolicy(std::vector<registry::RegistryClient*> clients,
                             RoutingConfig cfg)
    : RoutingPolicy(std::move(clients), cfg,
                    GuardConfig{.deadband = 0.25,
                                .hysteresis_epochs = 2,
                                .max_step = 1.0,
                                .min_value = 0.0,
                                .max_value = 1.0}) {}

RoutingPolicy::RoutingPolicy(std::vector<registry::RegistryClient*> clients,
                             RoutingConfig cfg, GuardConfig guard)
    : clients_(std::move(clients)), cfg_(cfg), guard_(guard) {}

std::optional<Proposal> RoutingPolicy::evaluate(const EpochContext& ctx) {
  (void)ctx;
  if (clients_.empty()) return std::nullopt;

  // Export fresh health gauges (the transition-driven publish only
  // fires on state changes) and aggregate the primary-proxy EWMAs.
  double lat_sum = 0.0;
  double err_sum = 0.0;
  std::uint64_t sampled = 0;
  for (const registry::RegistryClient* c : clients_) {
    c->primary_breaker().publish_health();
    const fault::HealthTracker& h = c->primary_breaker().health();
    if (h.samples() == 0) continue;
    lat_sum += static_cast<double>(h.latency_ewma());
    err_sum += h.error_rate();
    ++sampled;
  }
  if (sampled == 0) return std::nullopt;  // proxy never exercised yet
  const double lat = lat_sum / static_cast<double>(sampled);
  const double err = err_sum / static_cast<double>(sampled);

  const bool origin_first =
      clients_.front()->route_preference() ==
      registry::RegistryClient::RoutePreference::kOriginFirst;
  const double current = origin_first ? 1.0 : 0.0;

  // The healthy baseline is the best latency EWMA seen while actually
  // exercising the proxy; it only tightens, never chases a brownout.
  if (!origin_first && lat > 0.0 && (baseline_ == 0.0 || lat < baseline_))
    baseline_ = lat;

  double target = current;
  const bool degraded =
      err > cfg_.max_error_rate ||
      (baseline_ > 0.0 && lat > cfg_.degrade_factor * baseline_);
  const bool recovered =
      err <= cfg_.max_error_rate &&
      (baseline_ == 0.0 || lat <= cfg_.recover_factor * baseline_);
  if (degraded) {
    target = 1.0;
  } else if (origin_first && recovered) {
    target = 0.0;
  }

  const auto next = guard_.step(current, target);
  if (!next) return std::nullopt;

  Proposal p;
  p.old_setting = current;
  p.new_setting = *next >= 0.5 ? 1.0 : 0.0;
  if (p.new_setting == p.old_setting) return std::nullopt;
  p.sensors = kv("lat_us", lat) + " " + kv("err", err) +
              " " + kv("baseline_us", baseline_);
  p.rationale =
      p.new_setting > 0.5
          ? "proxy latency EWMA " + fmt_setting(lat) + "us vs baseline " +
                fmt_setting(baseline_) + "us; prefer origin"
          : "proxy health recovered; prefer proxy";
  return p;
}

void RoutingPolicy::actuate(const Proposal& p) {
  const auto pref =
      p.new_setting > 0.5
          ? registry::RegistryClient::RoutePreference::kOriginFirst
          : registry::RegistryClient::RoutePreference::kProxyFirst;
  for (registry::RegistryClient* c : clients_) c->set_route_preference(pref);
}

}  // namespace hpcc::control
