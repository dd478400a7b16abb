// tests/control_test.cpp — the closed-loop control plane suite
// (DESIGN.md §15). Covers: StepGuard properties (a deadband-dithering
// or boundary-sitting signal never actuates, steps are bounded and
// clamped), DeltaTracker rate extraction, controller epoch scheduling on the sim::EventQueue, per-policy
// steering behavior (prefetch ramps on sequential patterns, tier
// sizing follows eviction pressure under a conserved budget, routing
// flips to origin-first on degraded proxy EWMAs, engine selection
// re-ranks on observed start latencies), and the two identity
// contracts — a disabled controller is byte-identical to no controller
// at all, and the same seed reproduces the same decision log.
// Suites are named Ctrl* so the CI TSan filter picks them up.
#include "control/controller.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "adaptive/decision.h"
#include "adaptive/requirements.h"
#include "control/control.h"
#include "control/policies.h"
#include "engine/features.h"
#include "fault/fault.h"
#include "fault/retry.h"
#include "image/build.h"
#include "obs/obs.h"
#include "registry/client.h"
#include "registry/lazy.h"
#include "registry/proxy.h"
#include "registry/registry.h"
#include "sim/event_queue.h"
#include "sim/network.h"
#include "sim/storage.h"
#include "storage/cache_hierarchy.h"
#include "storage/tiers.h"
#include "util/rng.h"
#include "vfs/layer.h"
#include "vfs/memfs.h"
#include "vfs/squash_image.h"

namespace hpcc {
namespace {

using control::Controller;
using control::DeltaTracker;
using control::EpochContext;
using control::GuardConfig;
using control::Policy;
using control::Proposal;
using control::StepGuard;
using fault::Domain;
using fault::FaultInjector;
using fault::FaultKind;
using fault::FaultPlan;
using fault::FaultSpec;

// Every test starts and ends with the obs plane off, so suite order and
// ctest sharding can never leak state between cases.
class CtrlEnv : public ::testing::Test {
 protected:
  void SetUp() override { obs::reset(); }
  void TearDown() override { obs::reset(); }
};

// ----------------------------------------------------------- StepGuard

TEST(CtrlGuard, DeadbandHoldsAndClearsTheStreak) {
  StepGuard g({.deadband = 1.0,
               .hysteresis_epochs = 2,
               .max_step = 0.0,
               .min_value = 0.0,
               .max_value = 10.0});
  EXPECT_FALSE(g.step(5.0, 7.0).has_value());  // streak 1: held
  EXPECT_EQ(g.streak(), 1u);
  // A target inside the deadband holds AND forgets the pending
  // direction — dithering across the band edge can never accumulate.
  EXPECT_FALSE(g.step(5.0, 5.5).has_value());
  EXPECT_EQ(g.streak(), 0u);
  EXPECT_FALSE(g.step(5.0, 7.0).has_value());  // streak restarts at 1
  const auto moved = g.step(5.0, 7.0);         // streak 2: actuates
  ASSERT_TRUE(moved.has_value());
  EXPECT_DOUBLE_EQ(*moved, 7.0);
}

TEST(CtrlGuard, BoundarySittingSignalNeverOscillates) {
  // The classic failure mode a raw threshold controller has: a signal
  // alternating around the setpoint. Direction flips reset the streak,
  // so with hysteresis 2 the knob must never move.
  StepGuard g({.deadband = 0.0,
               .hysteresis_epochs = 2,
               .max_step = 1.0,
               .min_value = 0.0,
               .max_value = 10.0});
  for (int i = 0; i < 50; ++i) {
    const double target = (i % 2 == 0) ? 6.0 : 2.0;
    EXPECT_FALSE(g.step(4.0, target).has_value()) << "epoch " << i;
  }
}

TEST(CtrlGuard, StepIsBoundedAndClamped) {
  StepGuard g({.deadband = 0.0,
               .hysteresis_epochs = 1,
               .max_step = 2.0,
               .min_value = 0.0,
               .max_value = 10.0});
  // A spike target moves at most max_step per epoch.
  auto up = g.step(5.0, 100.0);
  ASSERT_TRUE(up.has_value());
  EXPECT_DOUBLE_EQ(*up, 7.0);
  // ...and the result respects the hard range.
  auto top = g.step(9.5, 100.0);
  ASSERT_TRUE(top.has_value());
  EXPECT_DOUBLE_EQ(*top, 10.0);
  auto bottom = g.step(0.5, -100.0);
  ASSERT_TRUE(bottom.has_value());
  EXPECT_DOUBLE_EQ(*bottom, 0.0);
}

TEST(CtrlGuard, SaturatedKnobSuppressesNoOpMoves) {
  StepGuard g({.deadband = 0.0,
               .hysteresis_epochs = 1,
               .max_step = 0.0,
               .min_value = 0.0,
               .max_value = 10.0});
  // Already at the clamp: the "move" would land exactly where we are.
  EXPECT_FALSE(g.step(10.0, 50.0).has_value());
}

// -------------------------------------------------------- DeltaTracker

TEST(CtrlDelta, RatesNotTotals) {
  obs::MetricsSnapshot snap;
  DeltaTracker d;
  snap.counters["x"] = 100;
  EXPECT_EQ(d.delta(snap, "x"), 100u);  // first epoch: lifetime total
  snap.counters["x"] = 140;
  EXPECT_EQ(d.delta(snap, "x"), 40u);   // then per-epoch rate
  snap.counters["x"] = 140;
  EXPECT_EQ(d.delta(snap, "x"), 0u);    // idle epoch
  snap.counters["x"] = 10;              // registry cleared between runs
  EXPECT_EQ(d.delta(snap, "x"), 10u);   // baseline resets, no underflow
  EXPECT_EQ(d.delta(snap, "missing"), 0u);
}

// ----------------------------------------------------------- Controller

/// Records every evaluate() call; proposes a fixed move on one chosen
/// epoch so actuation and the decision log can be asserted exactly.
class StubPolicy final : public Policy {
 public:
  explicit StubPolicy(std::uint64_t move_on_epoch = 0,
                      std::string_view prefix = {})
      : move_on_(move_on_epoch), prefix_(prefix) {}

  std::string_view name() const override { return "stub"; }
  std::string_view sensor_prefix() const override { return prefix_; }

  std::optional<Proposal> evaluate(const EpochContext& ctx) override {
    times.push_back(ctx.now);
    if (ctx.sensors != nullptr) seen_counters.push_back(*ctx.sensors);
    if (ctx.epoch != move_on_) return std::nullopt;
    Proposal p;
    p.old_setting = 0;
    p.new_setting = 1;
    p.sensors = "k=1";
    p.rationale = "because";
    return p;
  }
  void actuate(const Proposal& p) override { actuated.push_back(p); }

  std::vector<SimTime> times;
  std::vector<obs::MetricsSnapshot> seen_counters;
  std::vector<Proposal> actuated;

 private:
  std::uint64_t move_on_;
  std::string_view prefix_;
};

TEST_F(CtrlEnv, DisabledControllerSchedulesNothing) {
  sim::EventQueue q;
  Controller c{control::Config{}};  // disabled: the default
  auto policy = std::make_unique<StubPolicy>();
  StubPolicy* raw = policy.get();
  c.add_policy(std::move(policy));
  c.start(q, sec(10));
  EXPECT_TRUE(q.empty());  // no epoch event exists at all
  q.run();
  EXPECT_EQ(c.epochs(), 0u);
  EXPECT_TRUE(raw->times.empty());
}

TEST_F(CtrlEnv, EpochTicksSelfScheduleUntilTheHorizon) {
  sim::EventQueue q;
  control::Config cfg;
  cfg.enabled = true;
  cfg.epoch = msec(500);
  Controller c{cfg};
  auto policy = std::make_unique<StubPolicy>();
  StubPolicy* raw = policy.get();
  c.add_policy(std::move(policy));
  c.start(q, sec(3));
  q.run();
  EXPECT_EQ(c.epochs(), 6u);  // 0.5s, 1.0s, ..., 3.0s
  ASSERT_EQ(raw->times.size(), 6u);
  for (std::size_t i = 0; i < raw->times.size(); ++i)
    EXPECT_EQ(raw->times[i], msec(500) * static_cast<SimTime>(i + 1));
  EXPECT_EQ(q.now(), sec(3));
}

TEST_F(CtrlEnv, ActuationAppendsToTheDecisionLog) {
  Controller c{control::Config{}};
  auto policy = std::make_unique<StubPolicy>(/*move_on_epoch=*/2);
  StubPolicy* raw = policy.get();
  c.add_policy(std::move(policy));
  c.run_epoch(msec(100));
  c.run_epoch(msec(200));
  ASSERT_EQ(raw->actuated.size(), 1u);
  ASSERT_EQ(c.decisions().size(), 1u);
  const auto& d = c.decisions().front();
  EXPECT_EQ(d.epoch, 2u);
  EXPECT_EQ(d.at, msec(200));
  EXPECT_EQ(d.policy, "stub");
  EXPECT_EQ(d.sensors, "k=1");
  EXPECT_EQ(d.rationale, "because");
  EXPECT_DOUBLE_EQ(d.old_setting, 0.0);
  EXPECT_DOUBLE_EQ(d.new_setting, 1.0);
  EXPECT_EQ(c.decisions_json(),
            "[\n  {\"epoch\": 2, \"at\": " + std::to_string(msec(200)) +
                ", \"policy\": \"stub\", \"old\": 0, \"new\": 1, "
                "\"sensors\": \"k=1\", \"rationale\": \"because\"}\n]");
}

TEST_F(CtrlEnv, PolicySeesOnlyItsSensorFamily) {
  obs::Config ocfg;
  ocfg.metrics = true;
  obs::configure(ocfg);
  obs::count("lazy.read_sequential", 7);
  obs::count("registry.pulls", 3);

  Controller c{control::Config{}};
  auto policy = std::make_unique<StubPolicy>(0, "lazy.");
  StubPolicy* raw = policy.get();
  c.add_policy(std::move(policy));
  c.run_epoch(0);
  ASSERT_EQ(raw->seen_counters.size(), 1u);
  const auto& snap = raw->seen_counters.front();
  EXPECT_EQ(snap.counters.size(), 1u);
  EXPECT_EQ(snap.counters.at("lazy.read_sequential"), 7u);

  // Metrics off: the same policy reads an empty snapshot (the
  // dark-sensor condition audit rule CTRL001 flags at config time).
  obs::reset();
  c.run_epoch(1);
  ASSERT_EQ(raw->seen_counters.size(), 2u);
  EXPECT_TRUE(raw->seen_counters.back().empty());
}

// ------------------------------------------------------- PrefetchPolicy

obs::MetricsSnapshot lazy_sensors(std::uint64_t seq, std::uint64_t rnd,
                                  std::uint64_t shed = 0) {
  obs::MetricsSnapshot s;
  s.counters["lazy.read_sequential"] = seq;
  s.counters["lazy.read_random"] = rnd;
  s.counters["lazy.prefetch_skipped_fault"] = shed;
  return s;
}

TEST(CtrlPrefetch, RampsUpOnSequentialPattern) {
  auto tuning = std::make_shared<registry::LazyTuning>(0);
  control::PrefetchPolicy p(tuning, /*max_depth=*/8);
  EpochContext ctx;
  std::uint64_t total = 0;
  for (int epoch = 1; epoch <= 3; ++epoch) {
    total += 100;  // 100 purely sequential reads per epoch
    const auto snap = lazy_sensors(total, 0);
    ctx.sensors = &snap;
    if (auto prop = p.evaluate(ctx)) p.actuate(*prop);
  }
  // Hysteresis holds epoch 1; epochs 2 and 3 each step by max_step 4.
  EXPECT_EQ(tuning->prefetch_depth(), 8u);
}

TEST(CtrlPrefetch, RandomScanDropsTheDepth) {
  auto tuning = std::make_shared<registry::LazyTuning>(8);
  control::PrefetchPolicy p(tuning, 8);
  EpochContext ctx;
  std::uint64_t total = 0;
  for (int epoch = 1; epoch <= 3; ++epoch) {
    total += 100;  // 100 purely random touches per epoch
    const auto snap = lazy_sensors(0, total);
    ctx.sensors = &snap;
    if (auto prop = p.evaluate(ctx)) p.actuate(*prop);
  }
  EXPECT_EQ(tuning->prefetch_depth(), 0u);  // 8 -> 4 -> 0
}

TEST(CtrlPrefetch, ShedPressureBacksOffEvenWhenSequential) {
  auto tuning = std::make_shared<registry::LazyTuning>(8);
  control::PrefetchPolicy p(tuning, 8);
  EpochContext ctx;
  std::uint64_t seq = 0;
  std::uint64_t shed = 0;
  for (int epoch = 1; epoch <= 2; ++epoch) {
    seq += 100;
    shed += 5;  // the fault plane is dropping prefetch candidates
    const auto snap = lazy_sensors(seq, 0, shed);
    ctx.sensors = &snap;
    if (auto prop = p.evaluate(ctx)) p.actuate(*prop);
  }
  // The fully sequential pattern would ask for depth 8, but shed
  // pressure caps the target below the current depth instead.
  EXPECT_LT(tuning->prefetch_depth(), 8u);
}

TEST(CtrlPrefetch, IdleMountHolds) {
  auto tuning = std::make_shared<registry::LazyTuning>(4);
  control::PrefetchPolicy p(tuning, 8);
  EpochContext ctx;
  const auto snap = lazy_sensors(0, 0);
  ctx.sensors = &snap;
  for (int epoch = 0; epoch < 5; ++epoch)
    EXPECT_FALSE(p.evaluate(ctx).has_value());
  EXPECT_EQ(tuning->prefetch_depth(), 4u);
}

// ----------------------------------------------------- TierSizingPolicy

TEST(CtrlTierSizing, FollowsEvictionPressureUnderAConservedBudget) {
  sim::PageCacheConfig pcfg;
  pcfg.capacity_bytes = 2ull << 20;  // tiny DRAM tier: it will thrash
  sim::PageCache pc(pcfg);
  sim::NodeLocalStorage local;
  sim::SharedFilesystem fs;
  storage::CacheHierarchy chain;
  chain.add_tier(storage::page_cache_tier(pc));
  chain.add_tier(storage::NodeLocalTier::cache(local, 32ull << 20));
  chain.add_tier(storage::shared_fs_tier(fs));

  control::TierSizingPolicy p(&chain, /*upper=*/0, /*lower=*/1);
  const std::uint64_t budget = p.budget_bytes();
  EXPECT_EQ(budget, (2ull << 20) + (32ull << 20));
  const double share0 = p.upper_share();

  EpochContext ctx;
  auto churn = [&] {
    // A working set larger than the upper tier: every pass evicts.
    SimTime t = 0;
    for (unsigned i = 0; i < 8; ++i)
      t = chain.read(t, {"blk:" + std::to_string(i), 1u << 20}).done;
  };
  std::optional<Proposal> moved;
  for (int epoch = 0; epoch < 3 && !moved; ++epoch) {
    churn();
    moved = p.evaluate(ctx);
    if (moved) p.actuate(*moved);
  }
  ASSERT_TRUE(moved.has_value());
  EXPECT_GT(p.upper_share(), share0);  // capacity flowed to the thrasher

  // Budget conservation: the two tiers still sum to the same bytes.
  const auto topo = chain.topology();
  EXPECT_EQ(topo.tiers[0].capacity_bytes + topo.tiers[1].capacity_bytes,
            budget);
  EXPECT_GT(topo.tiers[0].capacity_bytes, 2ull << 20);
  // Bounded step: one epoch moved the share by at most the default
  // guard's max_step (0.1 of the budget).
  EXPECT_LE(p.upper_share(), share0 + 0.1 + 1e-9);
}

TEST(CtrlTierSizing, NoEvictionsHoldsTheSplit) {
  sim::PageCache pc;  // default capacity: plenty for the working set
  sim::NodeLocalStorage local;
  sim::SharedFilesystem fs;
  storage::CacheHierarchy chain;
  chain.add_tier(storage::page_cache_tier(pc));
  chain.add_tier(storage::NodeLocalTier::cache(local, 32ull << 20));
  chain.add_tier(storage::shared_fs_tier(fs));

  control::TierSizingPolicy p(&chain, 0, 1);
  const double share0 = p.upper_share();
  SimTime t = 0;
  for (unsigned i = 0; i < 4; ++i)
    t = chain.read(t, {"blk:" + std::to_string(i), 64u << 10}).done;
  EpochContext ctx;
  for (int epoch = 0; epoch < 3; ++epoch)
    EXPECT_FALSE(p.evaluate(ctx).has_value());
  EXPECT_DOUBLE_EQ(p.upper_share(), share0);
}

// -------------------------------------------------------- RoutingPolicy

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

TEST(CtrlRouting, DegradedProxyFlipsToOriginFirstThenSticks) {
  PullSetup setup;
  registry::PullThroughProxy proxy("proxy.site", &setup.reg);
  registry::RegistryClient client(&setup.net, 1);
  control::RoutingPolicy policy({&client});
  EpochContext ctx;

  // Healthy phase: proxy pulls establish the latency baseline.
  SimTime t = 0;
  for (int pull = 0; pull < 3; ++pull) {
    const auto r =
        client.pull_with_fallback(t, proxy, setup.reg, PullSetup::ref());
    ASSERT_TRUE(r.ok()) << r.error().to_string();
    t = r.value().done + sec(1);
    EXPECT_FALSE(policy.evaluate(ctx).has_value());  // healthy: hold
  }
  const double baseline = policy.baseline_latency_us();
  EXPECT_GT(baseline, 0.0);

  // Brownout: the site fabric degrades, so proxy legs stretch while the
  // origin WAN path is untouched. The policy must steer away *before*
  // any breaker trips (none is even configured here).
  FaultPlan plan;
  plan.seed = 5;
  FaultSpec slow;
  slow.domain = Domain::kFabric;
  slow.kind = FaultKind::kDegrade;
  slow.probability = 1.0;
  slow.slowdown = 40.0;
  slow.extra_latency = sec(1);
  plan.add(slow);
  FaultInjector inj(plan);
  setup.net.set_fault_injector(&inj);

  std::optional<Proposal> flip;
  for (int pull = 0; pull < 6 && !flip; ++pull) {
    const auto r =
        client.pull_with_fallback(t, proxy, setup.reg, PullSetup::ref());
    ASSERT_TRUE(r.ok()) << r.error().to_string();
    t = r.value().done + sec(1);
    flip = policy.evaluate(ctx);
  }
  ASSERT_TRUE(flip.has_value());  // hysteresis delayed it, then it fired
  EXPECT_DOUBLE_EQ(flip->new_setting, 1.0);
  policy.actuate(*flip);
  EXPECT_EQ(client.route_preference(),
            registry::RegistryClient::RoutePreference::kOriginFirst);
  // The baseline never chased the brownout EWMAs upward.
  EXPECT_DOUBLE_EQ(policy.baseline_latency_us(), baseline);

  // Origin-first pulls leave the proxy unexercised, so its EWMA is
  // stale: the preference must stay sticky instead of flapping back.
  setup.net.set_fault_injector(nullptr);
  for (int pull = 0; pull < 3; ++pull) {
    const auto r =
        client.pull_with_fallback(t, proxy, setup.reg, PullSetup::ref());
    ASSERT_TRUE(r.ok());
    t = r.value().done + sec(1);
    EXPECT_FALSE(policy.evaluate(ctx).has_value());
  }
  EXPECT_EQ(client.route_preference(),
            registry::RegistryClient::RoutePreference::kOriginFirst);
}

TEST(CtrlRouting, UnexercisedProxyHolds) {
  PullSetup setup;
  registry::RegistryClient client(&setup.net, 1);
  control::RoutingPolicy policy({&client});
  EpochContext ctx;
  for (int epoch = 0; epoch < 3; ++epoch)
    EXPECT_FALSE(policy.evaluate(ctx).has_value());
  EXPECT_EQ(client.route_preference(),
            registry::RegistryClient::RoutePreference::kProxyFirst);
}

// --------------------------------------------------- EngineSelectPolicy

/// The two best feasible engines for the site, in score order.
std::vector<engine::EngineKind> top_two_engines(
    const adaptive::DecisionEngine& engine) {
  const auto report = engine.decide();
  std::vector<engine::EngineKind> kinds;
  for (const auto& opt : report.engines) {
    if (!opt.feasible) continue;
    for (int k = 0; k <= static_cast<int>(engine::EngineKind::kEnroot); ++k) {
      const auto kind = static_cast<engine::EngineKind>(k);
      if (engine::to_string(kind) == opt.name) kinds.push_back(kind);
    }
    if (kinds.size() == 2) break;
  }
  return kinds;
}

TEST(CtrlEngineSelect, HoldsUntilEveryCandidateIsSampled) {
  adaptive::DecisionEngine engine(adaptive::pragmatic_hpc_site());
  const auto candidates = top_two_engines(engine);
  ASSERT_EQ(candidates.size(), 2u);
  control::EngineSelectPolicy p(&engine, "mpi-sim", candidates);
  EpochContext ctx;
  EXPECT_FALSE(p.evaluate(ctx).has_value());  // zero data
  p.observe(candidates[0], msec(200));
  EXPECT_FALSE(p.evaluate(ctx).has_value());  // one candidate still dark
  EXPECT_EQ(p.selected(), candidates[0]);
}

TEST(CtrlEngineSelect, ObservedLatencyFlipsTheSelectionAfterHysteresis) {
  adaptive::DecisionEngine engine(adaptive::pragmatic_hpc_site());
  const auto candidates = top_two_engines(engine);
  ASSERT_EQ(candidates.size(), 2u);
  control::EngineSelectPolicy p(&engine, "mpi-sim", candidates,
                                /*blend=*/0.9, /*hysteresis_epochs=*/2);
  // The incumbent (highest static score) starts 50x slower in practice.
  for (int i = 0; i < 4; ++i) {
    p.observe(candidates[0], msec(5000));
    p.observe(candidates[1], msec(100));
  }
  EpochContext ctx;
  EXPECT_FALSE(p.evaluate(ctx).has_value());  // challenger streak 1
  const auto flip = p.evaluate(ctx);          // streak 2: flips
  ASSERT_TRUE(flip.has_value());
  p.actuate(*flip);
  EXPECT_EQ(p.selected(), candidates[1]);
  EXPECT_NE(flip->rationale.find(engine::to_string(candidates[1])),
            std::string::npos);
}

TEST(CtrlEngineSelect, IncumbentWinnerNeverFlips) {
  adaptive::DecisionEngine engine(adaptive::pragmatic_hpc_site());
  const auto candidates = top_two_engines(engine);
  ASSERT_EQ(candidates.size(), 2u);
  control::EngineSelectPolicy p(&engine, "mpi-sim", candidates);
  for (int i = 0; i < 4; ++i) {
    p.observe(candidates[0], msec(100));   // incumbent is also fastest
    p.observe(candidates[1], msec(5000));
  }
  EpochContext ctx;
  for (int epoch = 0; epoch < 4; ++epoch)
    EXPECT_FALSE(p.evaluate(ctx).has_value());
  EXPECT_EQ(p.selected(), candidates[0]);
}

// ----------------------------------------- identity + closed-loop runs

class CtrlLazyTest : public CtrlEnv {
 protected:
  CtrlLazyTest() : net(4), reg("registry.site") {
    (void)reg.create_project("apps", "ci");
    Rng rng(7);
    (void)tree.mkdir("/opt/data", {}, true);
    for (int i = 0; i < 10; ++i)
      (void)tree.write_file(file_path(i),
                            image::synthetic_file_content(rng, 256 << 10),
                            {0, 0, 0644, 0});
    squash = std::make_unique<vfs::SquashImage>(
        vfs::SquashImage::build(tree, 128 * 1024));
    EXPECT_TRUE(registry::publish_lazy(reg, "ci", "apps", *squash).ok());
  }

  static std::string file_path(int i) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "/opt/data/f%02d", i);
    return buf;
  }

  registry::LazyMountConfig config(sim::PageCache& pc,
                                   sim::Network* network = nullptr,
                                   registry::OciRegistry* registry = nullptr) {
    registry::LazyMountConfig c;
    c.registry = registry != nullptr ? registry : &reg;
    c.network = network != nullptr ? network : &net;
    c.node = 1;
    c.cache = storage::page_cache_tier(pc);
    c.over_wan = true;
    return c;
  }

  sim::Network net;
  registry::OciRegistry reg;
  vfs::MemFs tree;
  std::unique_ptr<vfs::SquashImage> squash;
};

TEST_F(CtrlLazyTest, TuningHandleAtDepthZeroIsByteIdentical) {
  // Contract: attaching the control plane's actuator (a LazyTuning
  // handle at depth 0) without a controller steering it must keep
  // functional reads byte-identical in content AND timing. A fully
  // separate registry + network for the wired mount, so the two reads
  // never queue behind each other on shared serve stations.
  sim::PageCache pc_a, pc_b;
  sim::Network net_b(4);
  registry::OciRegistry reg_b("registry.site");
  ASSERT_TRUE(reg_b.create_project("apps", "ci").ok());
  ASSERT_TRUE(registry::publish_lazy(reg_b, "ci", "apps", *squash).ok());

  auto plain = registry::make_lazy_rootfs(squash.get(), config(pc_a)).value();
  auto wired_cfg = config(pc_b, &net_b, &reg_b);
  wired_cfg.tuning = std::make_shared<registry::LazyTuning>(0);
  auto wired =
      registry::make_lazy_rootfs(squash.get(), std::move(wired_cfg)).value();

  SimTime ta = 0, tb = 0;
  for (int i = 0; i < 10; ++i) {
    Bytes out_a, out_b;
    const auto a = plain->read_file(ta, file_path(i), &out_a);
    const auto b = wired->read_file(tb, file_path(i), &out_b);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(a.value(), b.value()) << "file " << i;
    EXPECT_EQ(out_a, out_b) << "file " << i;
    ta = a.value();
    tb = b.value();
  }
}

TEST_F(CtrlLazyTest, ClosedLoopRaisesDepthAndReproducesTheDecisionLog) {
  // The full loop on real parts: metrics sense the mount's first-touch
  // pattern, the controller steers the live prefetch depth, and the
  // whole run — including the decision log — is seed-reproducible.
  auto scenario = [&]() {
    obs::Config ocfg;
    ocfg.metrics = true;
    obs::configure(ocfg);  // clears the registry: a fresh sensor plane

    sim::Network run_net(4);
    registry::OciRegistry run_reg("registry.site");
    EXPECT_TRUE(run_reg.create_project("apps", "ci").ok());
    EXPECT_TRUE(registry::publish_lazy(run_reg, "ci", "apps", *squash).ok());
    sim::PageCache pc;
    auto cfg = config(pc, &run_net, &run_reg);
    auto tuning = std::make_shared<registry::LazyTuning>(0);
    cfg.tuning = tuning;
    auto mount = registry::make_lazy_rootfs(squash.get(), std::move(cfg));
    EXPECT_TRUE(mount.ok());

    control::Config ccfg;
    ccfg.enabled = true;
    ccfg.epoch = msec(100);
    Controller ctrl{ccfg};
    ctrl.add_policy(
        std::make_unique<control::PrefetchPolicy>(tuning, /*max_depth=*/8));

    SimTime t = 0;
    for (int round = 0; round < 3; ++round) {
      for (int i = 0; i < 10; ++i) {
        Bytes out;
        const auto r = mount.value()->read_file(t, file_path(i), &out);
        EXPECT_TRUE(r.ok());
        if (r.ok()) t = r.value();
      }
      ctrl.run_epoch(t);
    }
    const auto log = ctrl.decisions_json();
    const unsigned depth = tuning->prefetch_depth();
    obs::reset();
    return std::tuple<std::string, unsigned, SimTime>{log, depth, t};
  };

  const auto first = scenario();
  // The in-order scan reads overwhelmingly sequential, so the
  // controller ramped the depth up from 0 once hysteresis cleared.
  EXPECT_GE(std::get<1>(first), 4u);
  EXPECT_NE(std::get<0>(first), "[]");

  // Same seed, same bytes: decisions, depth and finish time all match.
  const auto second = scenario();
  EXPECT_EQ(std::get<0>(first), std::get<0>(second));
  EXPECT_EQ(std::get<1>(first), std::get<1>(second));
  EXPECT_EQ(std::get<2>(first), std::get<2>(second));
}

}  // namespace
}  // namespace hpcc
