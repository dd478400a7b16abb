// Tests for the fleet-scale resilience layer (fault/resilience.h) and
// its integration across the pull path: deterministic breaker state
// machines (every transition at an exact sim time, seeded probe
// admission), hedge budgets derived from health percentiles, token-
// bucket load shedding with strict prefetch-before-first-touch
// priority, partition/brownout chaos windows, the retry total-deadline
// budget, and the two identity contracts — a disabled resilience
// configuration is byte-identical to a build without the layer, and
// the same seed reproduces the same admissions and completion times.
#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "fault/fault.h"
#include "fault/resilience.h"
#include "fault/retry.h"
#include "image/build.h"
#include "obs/obs.h"
#include "registry/client.h"
#include "registry/proxy.h"
#include "registry/registry.h"
#include "sim/network.h"
#include "sim/storage.h"
#include "storage/cache_hierarchy.h"
#include "storage/tiers.h"

namespace hpcc {
namespace {

using fault::AdmissionConfig;
using fault::AdmissionController;
using fault::BreakerConfig;
using fault::BreakerState;
using fault::CircuitBreaker;
using fault::Domain;
using fault::FaultInjector;
using fault::FaultKind;
using fault::FaultPlan;
using fault::FaultSpec;
using fault::HealthTracker;
using fault::HedgePolicy;
using fault::RequestClass;
using fault::RetryPolicy;
using fault::RetryStats;

// ------------------------------------------------------------ HealthTracker

TEST(ResilHealth, EmptyTrackerReportsZero) {
  HealthTracker h;
  EXPECT_EQ(h.error_rate(), 0.0);
  EXPECT_EQ(h.latency_ewma(), 0);
  EXPECT_EQ(h.latency_percentile(0.99), 0);
  EXPECT_EQ(h.samples(), 0u);
}

TEST(ResilHealth, ErrorEwmaTracksFailureRuns) {
  HealthTracker h;
  for (int i = 0; i < 30; ++i) h.record_failure(sec(i));
  EXPECT_GT(h.error_rate(), 0.95);
  for (int i = 30; i < 60; ++i) h.record_success(sec(i), msec(1));
  EXPECT_LT(h.error_rate(), 0.05);
  EXPECT_EQ(h.successes(), 30u);
  EXPECT_EQ(h.failures(), 30u);
  EXPECT_EQ(h.last_sample_at(), sec(59));
}

TEST(ResilHealth, LatencyPercentileIsBucketUpperBound) {
  HealthTracker h;
  // 1000 us lands in bucket 9 ([512, 1024)); the percentile reports the
  // bucket's upper bound, 1024 us, for any p once all samples agree.
  for (int i = 0; i < 16; ++i) h.record_success(sec(i), 1000);
  EXPECT_EQ(h.latency_percentile(0.5), 1024);
  EXPECT_EQ(h.latency_percentile(0.99), 1024);
}

TEST(ResilHealth, LatencyPercentileSeparatesTail) {
  HealthTracker h;
  // 90 fast samples (~100 us -> bucket upper bound 128) and 10 slow ones
  // (~100 ms -> bucket upper bound 2^27 us): p50 sees the fast bucket,
  // p99 the slow one.
  for (int i = 0; i < 90; ++i) h.record_success(sec(i), 100);
  for (int i = 90; i < 100; ++i) h.record_success(sec(i), 100'000);
  EXPECT_EQ(h.latency_percentile(0.5), 128);
  EXPECT_GT(h.latency_percentile(0.99), msec(100));
}

// ------------------------------------------------------------ CircuitBreaker

BreakerConfig test_breaker(std::uint32_t threshold = 3,
                           SimDuration cooldown = sec(1),
                           double probe_admit = 1.0) {
  BreakerConfig cfg = BreakerConfig::standard();
  cfg.failure_threshold = threshold;
  cfg.cooldown = cooldown;
  cfg.probe_successes = 2;
  cfg.probe_admit = probe_admit;
  return cfg;
}

TEST(ResilBreaker, DisabledBreakerAdmitsEverythingAndOnlyTracksHealth) {
  CircuitBreaker b("ep", BreakerConfig{});  // enabled == false
  for (int i = 0; i < 20; ++i) {
    b.on_failure(sec(i));
    EXPECT_TRUE(b.allow(sec(i)));
  }
  EXPECT_EQ(b.state(), BreakerState::kClosed);
  EXPECT_EQ(b.rejected(), 0u);
  EXPECT_EQ(b.trips(), 0u);
  EXPECT_EQ(b.health().failures(), 20u);  // health is still the sensor
}

TEST(ResilBreaker, TripsAfterConsecutiveFailuresAtExactTime) {
  CircuitBreaker b("ep", test_breaker(3));
  b.on_failure(msec(10));
  b.on_failure(msec(20));
  EXPECT_EQ(b.state(), BreakerState::kClosed);
  b.on_failure(msec(30));
  EXPECT_EQ(b.state(), BreakerState::kOpen);
  EXPECT_EQ(b.opened_at(), msec(30));
  EXPECT_EQ(b.trips(), 1u);
  EXPECT_FALSE(b.allow(msec(31)));
  EXPECT_EQ(b.rejected(), 1u);
}

TEST(ResilBreaker, SuccessResetsTheConsecutiveCount) {
  CircuitBreaker b("ep", test_breaker(3));
  b.on_failure(msec(1));
  b.on_failure(msec(2));
  b.on_success(msec(3), msec(1));
  b.on_failure(msec(4));
  b.on_failure(msec(5));
  EXPECT_EQ(b.state(), BreakerState::kClosed);  // never 3 in a row
  EXPECT_EQ(b.trips(), 0u);
}

TEST(ResilBreaker, HalfOpenAtExactlyCooldownExpiry) {
  CircuitBreaker b("ep", test_breaker(1, sec(1)));
  b.on_failure(sec(10));
  EXPECT_EQ(b.state(sec(10) + sec(1) - 1), BreakerState::kOpen);
  EXPECT_EQ(b.state(sec(10) + sec(1)), BreakerState::kHalfOpen);
  // The const view never advanced anything: the stored state is intact.
  EXPECT_EQ(b.state(), BreakerState::kOpen);
}

TEST(ResilBreaker, ProbeSuccessesCloseHalfOpenBreaker) {
  CircuitBreaker b("ep", test_breaker(1, sec(1), /*probe_admit=*/1.0));
  b.on_failure(sec(10));
  EXPECT_FALSE(b.allow(sec(10) + msec(500)));  // still cooling down
  EXPECT_TRUE(b.allow(sec(12)));               // probe admitted (p = 1)
  b.on_success(sec(12), msec(2));
  EXPECT_EQ(b.state(), BreakerState::kHalfOpen);  // needs 2 probes
  EXPECT_TRUE(b.allow(sec(13)));
  b.on_success(sec(13), msec(2));
  EXPECT_EQ(b.state(), BreakerState::kClosed);
}

TEST(ResilBreaker, FailedProbeReopensImmediately) {
  CircuitBreaker b("ep", test_breaker(1, sec(1), 1.0));
  b.on_failure(sec(10));
  EXPECT_TRUE(b.allow(sec(12)));  // half-open probe
  b.on_failure(sec(12) + msec(40));
  EXPECT_EQ(b.state(), BreakerState::kOpen);
  EXPECT_EQ(b.opened_at(), sec(12) + msec(40));  // cooldown restarts here
  EXPECT_EQ(b.trips(), 2u);
  EXPECT_FALSE(b.allow(sec(13)));
}

TEST(ResilBreaker, ProbeAdmissionIsSeededAndEndpointIndependent) {
  // Same endpoint + same config => identical admission sequence; a
  // different endpoint draws an independent stream.
  BreakerConfig cfg = test_breaker(1, sec(1), /*probe_admit=*/0.5);
  auto draw_sequence = [&](const std::string& ep) {
    CircuitBreaker b(ep, cfg);
    b.on_failure(0);
    std::uint64_t bits = 0;
    for (int i = 0; i < 32; ++i) {
      // Stay half-open: never feed outcomes, just draw admissions.
      bits = (bits << 1) | (b.allow(sec(2) + i) ? 1 : 0);
    }
    return bits;
  };
  EXPECT_EQ(draw_sequence("proxy-a"), draw_sequence("proxy-a"));
  EXPECT_NE(draw_sequence("proxy-a"), draw_sequence("proxy-b"));
}

TEST(ResilBreaker, EachHealthValuePublishesUnderOneName) {
  obs::Config metrics_on;
  metrics_on.metrics = true;
  obs::configure(metrics_on);

  // An enabled breaker publishes on every outcome: one gauge per value,
  // the state beside (not inside) the fault.health. sensor family.
  CircuitBreaker b("ep", test_breaker(3));
  b.on_success(sec(1), msec(20));
  b.on_failure(sec(2));
  const auto gauges = obs::metrics().snapshot().gauges;
  const std::pair<std::string, std::string> cases[] = {
      {"error_bp", "fault.health.ep.error_bp"},
      {"latency_us", "fault.health.ep.latency_us"},
      {"state", "fault.breaker.ep.state"}};
  for (const auto& [value, expected] : cases) {
    std::vector<std::string> names;
    for (const auto& [name, v] : gauges)
      if (name.find(value) != std::string::npos) names.push_back(name);
    EXPECT_EQ(names, std::vector<std::string>{expected});
  }

  // Every breaker a client or proxy builds carries an endpoint name.
  obs::configure(metrics_on);  // fresh registry
  sim::Network net(2);
  registry::OciRegistry reg("upstream.example");
  registry::RegistryClient client(&net, 1);
  registry::PullThroughProxy proxy("proxy.site", &reg);
  client.primary_breaker().publish_health();
  client.secondary_breaker().publish_health();
  client.origin_breaker().publish_health();
  proxy.origin_breaker().publish_health();
  const auto fresh = obs::metrics().snapshot().gauges;
  for (const char* ep :
       {"proxy-primary", "proxy-secondary", "origin", "proxy.site-origin"})
    EXPECT_EQ(fresh.count("fault.health." + std::string(ep) + ".error_bp"), 1u)
        << ep;
  for (const auto& [name, v] : fresh)
    EXPECT_EQ(name.find('?'), std::string::npos) << name;
  obs::reset();
}

// --------------------------------------------------------------- HedgePolicy

TEST(ResilHedge, DisabledByDefaultAndFixedBudgetOverrides) {
  HedgePolicy off;
  EXPECT_FALSE(off.enabled());
  HedgePolicy fixed = HedgePolicy::after(msec(30));
  EXPECT_TRUE(fixed.enabled());
  HealthTracker ignored;
  EXPECT_EQ(fixed.launch_after(ignored), msec(30));
}

TEST(ResilHedge, DefaultBudgetBeforeAnyHistory) {
  HedgePolicy h = HedgePolicy::at_percentile(0.95, 1.5);
  HealthTracker cold;
  EXPECT_EQ(h.launch_after(cold), h.default_budget);
}

TEST(ResilHedge, PercentileBudgetStretchesObservedLatency) {
  HedgePolicy h = HedgePolicy::at_percentile(0.95, 1.5);
  HealthTracker health;
  // All samples ~1000 us -> p95 = 1024 us bucket bound; budget 1.5x.
  for (int i = 0; i < 50; ++i) health.record_success(sec(i), 1000);
  EXPECT_EQ(h.launch_after(health), static_cast<SimDuration>(1024 * 1.5));
}

TEST(ResilHedge, MinBudgetFloorsTinyLatencies) {
  HedgePolicy h = HedgePolicy::at_percentile(0.5, 1.0);
  HealthTracker health;
  for (int i = 0; i < 10; ++i) health.record_success(sec(i), 2);
  EXPECT_EQ(h.launch_after(health), h.min_budget);
}

// ------------------------------------------------------- AdmissionController

TEST(ResilShed, DisabledControllerAdmitsEverything) {
  AdmissionController c;  // default config: disabled
  for (int i = 0; i < 100; ++i)
    EXPECT_TRUE(c.admit(RequestClass::kFirstTouch, 0));
  EXPECT_EQ(c.shed_total(), 0u);
}

TEST(ResilShed, BurstDrainsThenShedsAndRefillsDeterministically) {
  AdmissionConfig cfg;
  cfg.enabled = true;
  cfg.rate_per_sec = 2.0;
  cfg.burst = 4.0;
  cfg.prefetch_reserve = 0.0;
  AdmissionController c(cfg);
  for (int i = 0; i < 4; ++i)
    EXPECT_TRUE(c.admit(RequestClass::kFirstTouch, 0)) << i;
  EXPECT_FALSE(c.admit(RequestClass::kFirstTouch, 0));  // bucket dry
  // One second refills exactly rate_per_sec tokens.
  EXPECT_TRUE(c.admit(RequestClass::kFirstTouch, sec(1)));
  EXPECT_TRUE(c.admit(RequestClass::kFirstTouch, sec(1)));
  EXPECT_FALSE(c.admit(RequestClass::kFirstTouch, sec(1)));
  EXPECT_EQ(c.admitted(), 6u);
  EXPECT_EQ(c.shed(RequestClass::kFirstTouch), 2u);
}

TEST(ResilShed, PrefetchShedsStrictlyBeforeFirstTouch) {
  AdmissionConfig cfg;
  cfg.enabled = true;
  cfg.rate_per_sec = 1.0;
  cfg.burst = 4.0;
  cfg.prefetch_reserve = 0.5;  // prefetch needs tokens >= 1 + 2
  AdmissionController c(cfg);
  EXPECT_TRUE(c.admit(RequestClass::kPrefetch, 0));   // 4 -> 3
  EXPECT_TRUE(c.admit(RequestClass::kPrefetch, 0));   // 3 -> 2
  EXPECT_FALSE(c.admit(RequestClass::kPrefetch, 0));  // below the reserve
  // First-touch still runs the bucket all the way down.
  EXPECT_TRUE(c.admit(RequestClass::kFirstTouch, 0));  // 2 -> 1
  EXPECT_TRUE(c.admit(RequestClass::kFirstTouch, 0));  // 1 -> 0
  EXPECT_FALSE(c.admit(RequestClass::kFirstTouch, 0));
  EXPECT_EQ(c.shed(RequestClass::kPrefetch), 1u);
  EXPECT_EQ(c.shed(RequestClass::kFirstTouch), 1u);
}

TEST(ResilShed, BucketNeverExceedsBurstAfterLongIdle) {
  AdmissionConfig cfg;
  cfg.enabled = true;
  cfg.rate_per_sec = 100.0;
  cfg.burst = 3.0;
  cfg.prefetch_reserve = 0.0;
  AdmissionController c(cfg);
  for (int i = 0; i < 3; ++i)
    EXPECT_TRUE(c.admit(RequestClass::kFirstTouch, 0));
  // An hour idle refills to the burst cap, not rate * elapsed.
  for (int i = 0; i < 3; ++i)
    EXPECT_TRUE(c.admit(RequestClass::kFirstTouch, minutes(60)));
  EXPECT_FALSE(c.admit(RequestClass::kFirstTouch, minutes(60)));
}

// --------------------------------------------- partition / brownout windows

TEST(ResilPlan, PartitionWindowBlocksEveryOpInside) {
  FaultPlan plan;
  plan.seed = 11;
  plan.partition(Domain::kWan, sec(10), sec(20));
  FaultInjector inj(plan);
  EXPECT_TRUE(inj.enabled());

  const fault::Decision before = inj.decide(Domain::kWan, sec(9));
  EXPECT_FALSE(before.fail);
  const fault::Decision inside = inj.decide(Domain::kWan, sec(15));
  EXPECT_TRUE(inside.fail);
  EXPECT_TRUE(inside.partitioned);
  const fault::Decision after = inj.decide(Domain::kWan, sec(20));
  EXPECT_FALSE(after.fail);  // [from, until): until is outside

  EXPECT_FALSE(inj.partition_active(Domain::kWan, sec(9)));
  EXPECT_TRUE(inj.partition_active(Domain::kWan, sec(10)));
  EXPECT_FALSE(inj.partition_active(Domain::kWan, sec(20)));
  EXPECT_FALSE(inj.partition_active(Domain::kFabric, sec(15)));
  EXPECT_EQ(inj.counters(Domain::kWan).partition_blocks, 1u);
}

TEST(ResilPlan, BrownoutStretchesWithoutDrawingOrFailing) {
  FaultPlan plan;
  plan.seed = 11;
  plan.brownout(Domain::kWan, 0.25, sec(10), sec(20));
  FaultInjector inj(plan);

  const fault::Decision d = inj.decide(Domain::kWan, sec(15));
  EXPECT_FALSE(d.fail);
  EXPECT_TRUE(d.degrade);
  EXPECT_DOUBLE_EQ(d.slowdown, 4.0);  // 1 / bandwidth_factor
  EXPECT_DOUBLE_EQ(inj.brownout_slowdown(Domain::kWan, sec(15)), 4.0);
  EXPECT_DOUBLE_EQ(inj.brownout_slowdown(Domain::kWan, sec(25)), 1.0);
  EXPECT_EQ(inj.counters(Domain::kWan).brownout_ops, 1u);
  EXPECT_EQ(inj.counters(Domain::kWan).faults, 0u);
}

TEST(ResilPlan, NetworkPartitionFailsFastAtBaseLatency) {
  FaultPlan plan;
  plan.seed = 3;
  plan.partition(Domain::kWan, sec(1), sec(2));
  plan.partition(Domain::kFabric, sec(1), sec(2));
  FaultInjector inj(plan);
  sim::Network net(4);
  net.set_fault_injector(&inj);

  const sim::NetworkConfig defaults;
  SimTime failed_at = 0;
  const auto wan = net.try_wan_transfer(sec(1), 0, 1 << 20, &failed_at);
  ASSERT_FALSE(wan.ok());
  EXPECT_EQ(wan.error().code(), ErrorCode::kUnavailable);
  EXPECT_EQ(failed_at, sec(1) + defaults.wan_latency);

  const auto fab = net.try_transfer(sec(1), 0, 1, 1 << 20, &failed_at);
  ASSERT_FALSE(fab.ok());
  EXPECT_EQ(failed_at, sec(1) + defaults.fabric_latency);

  // Outside the window the same transfers succeed.
  EXPECT_TRUE(net.try_wan_transfer(sec(3), 0, 1 << 20).ok());
  EXPECT_TRUE(net.try_transfer(sec(3), 0, 1, 1 << 20).ok());
}

TEST(ResilPlan, NetworkBrownoutStretchesTransfers) {
  sim::Network plain(4);
  const SimTime base = plain.try_wan_transfer(sec(15), 0, 64 << 20).value();

  FaultPlan plan;
  plan.brownout(Domain::kWan, 0.5, sec(10), sec(20));
  FaultInjector inj(plan);
  sim::Network slow(4);
  slow.set_fault_injector(&inj);
  const SimTime stretched = slow.try_wan_transfer(sec(15), 0, 64 << 20).value();
  EXPECT_GT(stretched, base);

  // Outside the window the brownout plan charges exactly the base time.
  sim::Network outside(4);
  FaultInjector inj2(plan);
  outside.set_fault_injector(&inj2);
  EXPECT_EQ(outside.try_wan_transfer(sec(25), 0, 64 << 20).value(),
            plain.try_wan_transfer(sec(25), 0, 64 << 20).value());
}

// ------------------------------------------------------- retry total budget

TEST(ResilRetry, TotalBudgetGivesUpAtExactSimTime) {
  RetryPolicy policy;
  policy.max_attempts = 10;
  policy.initial_backoff = msec(100);
  policy.multiplier = 1.0;
  policy.jitter = 0.0;
  policy.total_budget = msec(250);

  Rng rng(policy.jitter_seed);
  RetryStats stats;
  SimTime failed_at = 0;
  int attempts = 0;
  const auto r = fault::retry_timed(
      0, policy, rng,
      [&](SimTime start, SimTime* fail) -> Result<SimTime> {
        ++attempts;
        *fail = start + msec(10);
        return err_unavailable("down");
      },
      &stats, &failed_at);
  ASSERT_FALSE(r.ok());
  // Attempts start at 0, 110 ms, 220 ms; the fourth would start at
  // 330 ms >= 250 ms, so the loop gives up when the third fails.
  EXPECT_EQ(attempts, 3);
  EXPECT_EQ(failed_at, msec(230));
  EXPECT_EQ(stats.failures, 1u);
  EXPECT_EQ(stats.attempts, 3u);
}

TEST(ResilRetry, ZeroBudgetIsByteIdenticalToUnlimited) {
  auto run = [](SimDuration budget) {
    RetryPolicy policy = RetryPolicy::standard(4);
    policy.total_budget = budget;
    Rng rng(policy.jitter_seed);
    RetryStats stats;
    SimTime failed_at = 0;
    const auto r = fault::retry_timed(
        0, policy, rng,
        [&](SimTime start, SimTime* fail) -> Result<SimTime> {
          *fail = start + msec(5);
          return err_unavailable("down");
        },
        &stats, &failed_at);
    EXPECT_FALSE(r.ok());
    return std::tuple<SimTime, std::uint64_t, SimDuration>{
        failed_at, stats.attempts, stats.backoff_total};
  };
  EXPECT_EQ(run(0), run(minutes(60)));  // a huge budget never binds
}

// ----------------------------------------------------- pull-path integration

struct PullSetup {
  PullSetup() : net(4), reg("upstream.example") {
    EXPECT_TRUE(reg.create_project("base", "ci", 0).ok());
    vfs::MemFs fs;
    (void)fs.mkdir("/opt", {}, true);
    Rng rng(3);
    (void)fs.write_file("/opt/payload",
                        image::synthetic_file_content(rng, 1 << 20));
    vfs::Layer layer = vfs::Layer::from_fs(fs);
    image::ImageConfig cfg;
    image::OciManifest m;
    m.config_digest = reg.push_blob("ci", "base", cfg.serialize()).value();
    Bytes blob = layer.serialize();
    const auto size = blob.size();
    m.layer_digests.push_back(
        reg.push_blob("ci", "base", std::move(blob)).value());
    m.layer_sizes.push_back(size);
    EXPECT_TRUE(reg.push_manifest("ci", ref(), m).ok());
  }

  static image::ImageReference ref() {
    return image::ImageReference::parse("upstream.example/base/app:v1").value();
  }

  sim::Network net;
  registry::OciRegistry reg;
};

TEST(ResilFallback, DisabledResilienceConfigIsByteIdentical) {
  PullSetup plain_setup;
  registry::PullThroughProxy plain_proxy("proxy.site", &plain_setup.reg);
  registry::RegistryClient plain(&plain_setup.net, 1);
  const auto base =
      plain.pull_with_fallback(0, plain_proxy, plain_setup.reg, PullSetup::ref());
  ASSERT_TRUE(base.ok());

  PullSetup wired_setup;
  registry::PullThroughProxy wired_proxy("proxy.site", &wired_setup.reg);
  wired_proxy.set_origin_breaker(BreakerConfig{});    // disabled
  wired_proxy.set_admission(AdmissionConfig{});       // disabled
  registry::RegistryClient wired(&wired_setup.net, 1);
  wired.set_breaker_config(BreakerConfig{});          // disabled
  wired.set_hedge_policy(HedgePolicy{});              // disabled
  const auto pulled =
      wired.pull_with_fallback(0, wired_proxy, wired_setup.reg, PullSetup::ref());
  ASSERT_TRUE(pulled.ok());
  EXPECT_EQ(pulled.value().done, base.value().done);
  EXPECT_EQ(pulled.value().bytes_transferred, base.value().bytes_transferred);
  EXPECT_EQ(wired.breaker_skips(), 0u);
  EXPECT_EQ(wired.hedges_launched(), 0u);
  EXPECT_EQ(wired_proxy.shed_upstream(), 0u);
}

TEST(ResilFallback, BreakerSkipsTheDeadProxyLeg) {
  PullSetup setup;
  registry::PullThroughProxy proxy("proxy.site", &setup.reg);
  const FaultPlan plan = FaultPlan::wan_failures(1.0, 5);  // proxy WAN down
  FaultInjector inj(plan);
  proxy.set_fault_injector(&inj);
  proxy.set_retry_policy(RetryPolicy::standard(2));

  registry::RegistryClient client(&setup.net, 1);
  BreakerConfig cfg = BreakerConfig::standard();
  cfg.failure_threshold = 3;
  cfg.cooldown = minutes(30);  // stays open for the whole test
  client.set_breaker_config(cfg);

  SimTime t = 0;
  for (int pull = 0; pull < 3; ++pull) {
    const auto r = client.pull_with_fallback(t, proxy, setup.reg,
                                             PullSetup::ref());
    ASSERT_TRUE(r.ok()) << r.error().to_string();
    t = r.value().done + sec(1);
  }
  EXPECT_EQ(client.primary_breaker().state(), BreakerState::kOpen);
  const auto attempts_when_open = proxy.retry_stats().attempts;

  const auto r = client.pull_with_fallback(t, proxy, setup.reg,
                                           PullSetup::ref());
  ASSERT_TRUE(r.ok());
  EXPECT_GE(client.breaker_skips(), 1u);
  // The skipped leg charged the dead proxy nothing at all.
  EXPECT_EQ(proxy.retry_stats().attempts, attempts_when_open);
}

TEST(ResilFallback, DeadProxyStormIsSeedReproducible) {
  auto run = [] {
    PullSetup setup;
    registry::PullThroughProxy proxy("proxy.site", &setup.reg);
    const FaultPlan plan = FaultPlan::wan_failures(1.0, 77);
    FaultInjector inj(plan);
    proxy.set_fault_injector(&inj);
    proxy.set_retry_policy(RetryPolicy::standard(2));
    registry::RegistryClient client(&setup.net, 1);
    BreakerConfig cfg = BreakerConfig::standard();
    cfg.failure_threshold = 2;
    client.set_breaker_config(cfg);
    SimTime t = 0;
    std::uint64_t bytes = 0;
    for (int pull = 0; pull < 4; ++pull) {
      const auto r =
          client.pull_with_fallback(t, proxy, setup.reg, PullSetup::ref());
      EXPECT_TRUE(r.ok());
      if (!r.ok()) continue;
      t = r.value().done + msec(100);
      bytes += r.value().bytes_transferred;
    }
    return std::tuple<SimTime, std::uint64_t, std::uint64_t, std::uint64_t>{
        t, bytes, client.breaker_skips(), client.primary_breaker().trips()};
  };
  EXPECT_EQ(run(), run());
}

TEST(ResilFallback, HedgeWinsAgainstWarmSecondary) {
  PullSetup setup;
  registry::PullThroughProxy primary("proxy-a.site", &setup.reg);
  registry::PullThroughProxy secondary("proxy-b.site", &setup.reg);

  // The primary's upstream leg is badly degraded (50x plus a 2 s latency
  // spike per crossing); the secondary is pre-warmed so its legs are
  // pure cache hits.
  FaultPlan plan;
  plan.seed = 9;
  FaultSpec slow;
  slow.domain = Domain::kWan;
  slow.kind = FaultKind::kDegrade;
  slow.probability = 1.0;
  slow.slowdown = 50.0;
  slow.extra_latency = sec(2);
  plan.add(slow);
  FaultInjector inj(plan);
  primary.set_fault_injector(&inj);

  registry::RegistryClient warmer(&setup.net, 2);
  ASSERT_TRUE(warmer.pull_via_proxy(0, secondary, PullSetup::ref()).ok());

  registry::RegistryClient client(&setup.net, 1);
  client.set_hedge_policy(HedgePolicy::after(msec(5)));
  const auto hedged = client.pull_with_fallback(
      sec(1), primary, setup.reg, PullSetup::ref(), nullptr, &secondary);
  ASSERT_TRUE(hedged.ok()) << hedged.error().to_string();
  EXPECT_EQ(client.hedges_launched(), 1u);
  EXPECT_EQ(client.hedges_won(), 1u);

  // The slow primary alone would have finished strictly later.
  registry::RegistryClient unhedged(&setup.net, 3);
  FaultInjector inj2(plan);
  registry::PullThroughProxy primary2("proxy-a.site", &setup.reg);
  primary2.set_fault_injector(&inj2);
  const auto solo =
      unhedged.pull_with_fallback(sec(1), primary2, setup.reg, PullSetup::ref());
  ASSERT_TRUE(solo.ok());
  EXPECT_LT(hedged.value().done, solo.value().done);
  // The loser charged no duplicate bytes: the hedged pull moved exactly
  // what a straight secondary pull moves.
  EXPECT_EQ(hedged.value().bytes_transferred, solo.value().bytes_transferred);
}

TEST(ResilFallback, FastPrimaryNeverLaunchesTheHedge) {
  PullSetup setup;
  registry::PullThroughProxy primary("proxy-a.site", &setup.reg);
  registry::PullThroughProxy secondary("proxy-b.site", &setup.reg);
  registry::RegistryClient client(&setup.net, 1);
  client.set_hedge_policy(HedgePolicy::after(minutes(5)));  // generous budget
  const auto r = client.pull_with_fallback(0, primary, setup.reg,
                                           PullSetup::ref(), nullptr,
                                           &secondary);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(client.hedges_launched(), 0u);
  EXPECT_EQ(client.hedges_won(), 0u);
}

// ----------------------------------------------------------- proxy shedding

TEST(ResilProxy, AdmissionShedsPrefetchMissesFirst) {
  PullSetup setup;
  registry::PullThroughProxy proxy("proxy.site", &setup.reg);
  AdmissionConfig cfg;
  cfg.enabled = true;
  cfg.rate_per_sec = 1.0;
  cfg.burst = 4.0;
  cfg.prefetch_reserve = 0.5;
  proxy.set_admission(cfg);

  // Distinct uncached blobs so every fetch is an upstream miss.
  std::vector<crypto::Digest> digests;
  for (int i = 0; i < 6; ++i) {
    Bytes blob(1024, static_cast<std::uint8_t>(i));
    digests.push_back(setup.reg.push_blob("ci", "base", std::move(blob)).value());
  }

  // Two prefetch misses fit above the reserve; the third sheds typed.
  EXPECT_TRUE(proxy.fetch_blob(0, digests[0], RequestClass::kPrefetch).ok());
  EXPECT_TRUE(proxy.fetch_blob(0, digests[1], RequestClass::kPrefetch).ok());
  const auto shed = proxy.fetch_blob(0, digests[2], RequestClass::kPrefetch);
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.error().code(), ErrorCode::kResourceExhausted);
  // First-touch still gets the remaining tokens.
  EXPECT_TRUE(proxy.fetch_blob(0, digests[3], RequestClass::kFirstTouch).ok());
  EXPECT_EQ(proxy.admission().shed(RequestClass::kPrefetch), 1u);
  EXPECT_EQ(proxy.shed_upstream(), 1u);

  // A cache hit is never shed, even with the bucket dry.
  EXPECT_TRUE(proxy.fetch_blob(0, digests[0], RequestClass::kPrefetch).ok());
}

TEST(ResilProxy, OpenOriginBreakerShedsByClass) {
  PullSetup setup;
  registry::PullThroughProxy proxy("proxy.site", &setup.reg);
  BreakerConfig cfg = BreakerConfig::standard();
  cfg.failure_threshold = 2;
  cfg.cooldown = minutes(30);
  proxy.set_origin_breaker(cfg);
  proxy.set_retry_policy(RetryPolicy::standard(2));

  FaultPlan plan;
  plan.partition(Domain::kWan, 0, sec(100));
  FaultInjector inj(plan);
  proxy.set_fault_injector(&inj);

  std::vector<crypto::Digest> digests;
  for (int i = 0; i < 3; ++i) {
    Bytes blob(1024, static_cast<std::uint8_t>(0x40 + i));
    digests.push_back(setup.reg.push_blob("ci", "base", std::move(blob)).value());
  }

  // Each partitioned miss is one breaker failure (the connect times out
  // once per fetch, before any retries); a failed fetch is never cached,
  // so the second miss trips the breaker.
  EXPECT_FALSE(proxy.fetch_blob(0, digests[0]).ok());
  EXPECT_EQ(proxy.origin_breaker().state(), BreakerState::kClosed);
  EXPECT_FALSE(proxy.fetch_blob(msec(1), digests[0]).ok());
  EXPECT_EQ(proxy.origin_breaker().state(), BreakerState::kOpen);

  // First-touch on an open breaker fails over (kUnavailable)...
  const auto ft = proxy.fetch_blob(sec(1), digests[1]);
  ASSERT_FALSE(ft.ok());
  EXPECT_EQ(ft.error().code(), ErrorCode::kUnavailable);
  // ...while prefetch sheds typed as load (kResourceExhausted).
  const auto pf = proxy.fetch_blob(sec(1), digests[2], RequestClass::kPrefetch);
  ASSERT_FALSE(pf.ok());
  EXPECT_EQ(pf.error().code(), ErrorCode::kResourceExhausted);
  EXPECT_GE(proxy.shed_upstream(), 1u);
}

// -------------------------------------------------------- tier breakers

TEST(ResilTier, OpenTierBreakerSkipsTheTierAndRecovers) {
  sim::PageCache pc;
  sim::SharedFilesystem fs;
  auto chain = std::make_shared<storage::CacheHierarchy>();
  chain->add_tier(storage::page_cache_tier(pc));
  chain->add_tier(storage::shared_fs_tier(fs));

  BreakerConfig cfg = BreakerConfig::standard();
  cfg.failure_threshold = 2;
  cfg.cooldown = sec(1);
  cfg.probe_successes = 1;
  cfg.probe_admit = 1.0;
  chain->set_tier_breaker_config(cfg);

  // The page-cache tier faults on every serve inside [10 ms, 1 s).
  FaultPlan plan;
  plan.seed = 4;
  FaultSpec sick;
  sick.domain = Domain::kStorage;
  sick.kind = FaultKind::kError;
  sick.probability = 1.0;
  sick.window_from = msec(10);
  sick.window_until = sec(1);
  plan.add(sick);
  FaultInjector inj(plan);
  chain->set_fault_injector(&inj);

  const storage::ChunkRequest req{"k", 64 << 10};
  SimTime t = chain->read(0, req).done;  // cold: terminal serves, promotes
  ASSERT_LT(t, msec(10));

  // Two faulted serves trip the tier breaker open.
  t = chain->read(msec(10), req).done;
  t = chain->read(t, req).done;
  EXPECT_EQ(chain->tier_breaker_state(0), BreakerState::kOpen);

  // While open, the walk skips the tier without probing it: the terminal
  // serves and tier 0 records a degraded miss, not a fault.
  const auto skipped = chain->read(t, req);
  EXPECT_EQ(skipped.tier, 1u);
  const auto s0 = chain->tier_stats(0);
  EXPECT_EQ(s0.hits + s0.misses, s0.lookups);
  EXPECT_GE(s0.degraded_reads, 3u);

  // Past the fault window and the cooldown, a half-open probe succeeds
  // and closes the breaker again — no operator intervention.
  const auto probed = chain->read(sec(2), req);
  EXPECT_EQ(probed.tier, 0u);
  EXPECT_TRUE(probed.cache_hit);
  EXPECT_EQ(chain->tier_breaker_state(0), BreakerState::kClosed);
}

}  // namespace
}  // namespace hpcc
