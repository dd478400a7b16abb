// tools/hpcc-dcheck — dynamic concurrency & determinism checking from
// the command line (DESIGN.md §11).
//
//   hpcc-dcheck sweep     run the instrumented data-path workloads
//                         (parallel pull, prefetch stress, determinism
//                         audit) under the checker; clean on a healthy
//                         tree
//   hpcc-dcheck fixtures  run the deliberately broken fixtures (an
//                         unsynchronized write pair, a lock-order
//                         inversion, an order-dependent output) and
//                         report RACE001 / RACE002 / DET001 — the CI
//                         self-test that the detector detects
//
// Options:
//   --json       JSON report instead of the text table
//   --seed N     perturbation seed (default 42); same seed ⇒
//                byte-identical report
//
// Exit code: 0 when the report has no errors, 1 otherwise, 2 on usage
// errors. `sweep` is expected to exit 0 and `fixtures` to exit 1.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <mutex>
#include <queue>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "audit/dcheck_bridge.h"
#include "control/control.h"
#include "control/controller.h"
#include "control/policies.h"
#include "fault/fault.h"
#include "fault/resilience.h"
#include "fault/retry.h"
#include "audit/report.h"
#include "dcheck/dcheck.h"
#include "dcheck/determinism.h"
#include "image/build.h"
#include "image/convert.h"
#include "obs/obs.h"
#include "registry/client.h"
#include "registry/lazy.h"
#include "registry/proxy.h"
#include "registry/registry.h"
#include "sim/event_queue.h"
#include "sim/storage.h"
#include "storage/cache_hierarchy.h"
#include "storage/tiers.h"
#include "util/log.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "vfs/squash_image.h"

using namespace hpcc;

namespace {

struct Options {
  bool json = false;
  std::uint64_t seed = 42;
};

int usage() {
  std::fprintf(stderr,
               "usage: hpcc-dcheck <sweep | fixtures> [--json] [--seed N]\n");
  return 2;
}

/// The registry/image fixture every sweep workload pulls from: a
/// synthetic base OS plus three built layers, pushed once.
struct PullFixture {
  sim::Network net{4};
  registry::OciRegistry reg{"registry.site"};
  image::ImageReference ref;
  std::vector<vfs::Layer> layers;

  PullFixture() {
    (void)reg.create_project("apps", "builder");
    image::ImageConfig base_cfg;
    const auto base =
        image::synthetic_base_os("hpccos", 7, 6, 512 * 1024, &base_cfg);
    image::ImageBuilder builder(8);
    auto built = builder
                     .build(image::BuildSpec::parse_containerfile(
                                "FROM base\n"
                                "RUN install app 6 32768\n"
                                "RUN install data 4 65536\n"
                                "RUN lib libmpi 4.1 2.30\n")
                                .value(),
                            base, base_cfg)
                     .value();
    layers.push_back(vfs::Layer::from_fs(base));
    for (auto& l : built.layers) layers.push_back(std::move(l));
    registry::RegistryClient pusher(&net, 0);
    ref = image::ImageReference::parse("registry.site/apps/app:v1").value();
    (void)pusher.push(0, reg, "builder", ref, built.config, layers);
  }

  /// One full parallel pull against pristine copies of the registry and
  /// network; returns the layer digests in manifest order as the
  /// workload's output bytes.
  std::string pull_once(util::ThreadPool* pool) const {
    registry::OciRegistry r = reg;
    sim::Network n = net;
    image::BlobStore local;
    registry::RegistryClient client(&n, 1, pool);
    const auto pulled = client.pull(0, r, ref, &local);
    if (!pulled.ok()) return "pull-error:" + pulled.error().to_string();
    std::string out;
    for (const auto& d :
         image::digest_layers(pulled.value().layers, pool))
      out += d.to_string() + "\n";
    out += "blobs=" + std::to_string(local.num_blobs()) +
           " dedup=" + std::to_string(local.dedup_hits()) + "\n";
    return out;
  }
};

/// Prefetch stress over an annotated CacheHierarchy: pool decompression
/// races drains and timed reads (the ConcurrentPrefetchTest shape).
void prefetch_stress(util::ThreadPool* pool) {
  Rng rng(5);
  vfs::MemFs tree;
  (void)tree.mkdir("/d", {}, true);
  (void)tree.write_file("/d/big", image::synthetic_file_content(rng, 4 << 20));
  const auto squash = vfs::SquashImage::build(tree, 64 * 1024);

  sim::PageCacheConfig pcfg;
  pcfg.capacity_bytes = 1ull << 20;
  sim::PageCache pc(pcfg);
  sim::SharedFilesystem fs;
  storage::CacheHierarchy chain;
  chain.add_tier(storage::page_cache_tier(pc));
  chain.add_tier(storage::shared_fs_tier(fs));
  chain.set_prefetch_pool(pool);

  SimTime t = 0;
  for (int round = 0; round < 4; ++round) {
    for (int i = 0; i < 16; ++i) {
      const auto key = "blk:" + std::to_string((round * 7 + i) % 32);
      const std::uint64_t offset = static_cast<std::uint64_t>(i) * 65536;
      chain.prefetch({key, 64u << 10}, [&squash, offset] {
        (void)squash.read_range("/d/big", offset, 4096);
      });
    }
    chain.drain_prefetches();
    for (int i = 0; i < 8; ++i)
      t = chain.read(t, {"blk:" + std::to_string((round + i) % 32), 64u << 10})
              .done;
  }
}

/// Skewed stealing exercise: one item carrying 64× the work of its
/// siblings forces half-range steals between the pool's deques, so the
/// sweep's vector-clock pass walks the deque-transfer edges (DESIGN.md
/// §12) and the determinism audit proves the steal schedule never
/// reaches the output bytes.
std::string skewed_steal_once(util::ThreadPool* pool) {
  const std::size_t n = 512;
  std::vector<std::uint64_t> out(n);
  util::parallel_for(pool, n, [&out](std::size_t i) {
    std::uint64_t h = 1469598103934665603ull ^ i;
    const std::size_t rounds = i == 0 ? 64 * 512 : 512;
    for (std::size_t r = 0; r < rounds; ++r) {
      h ^= r;
      h *= 1099511628211ull;
    }
    out[i] = h;
  });
  std::string s;
  for (const auto h : out) s += std::to_string(h) + ",";
  return s;
}

/// Fleet flash crowd in miniature: 64 nodes pull one image, most
/// through a site pull-through proxy and one per wave straight at the
/// rate-limited origin (429 → reschedule at retry_at), every stage a
/// DES completion event. Returns the counters and a completion
/// checksum — the bytes the §13 contract says must be identical across
/// perturbed schedules.
std::string fleet_flash_crowd_once() {
  registry::RegistryLimits limits;
  limits.pull_limit = 6;  // tiny window cap: the limiter engages
  limits.pull_window = sec(1);
  registry::OciRegistry origin("registry.example", limits);
  (void)origin.create_project("apps", "builder", /*quota_bytes=*/1 << 20);

  Rng rng(11);
  image::OciManifest manifest;
  for (int i = 0; i < 3; ++i) {
    Bytes blob = image::synthetic_file_content(rng, 96 * 1024);
    manifest.layer_sizes.push_back(blob.size());
    manifest.layer_digests.push_back(
        origin.push_blob("builder", "apps", std::move(blob)).value());
  }
  manifest.config_digest =
      origin.push_blob("builder", "apps",
                       image::synthetic_file_content(rng, 2048))
          .value();
  const auto ref =
      image::ImageReference::parse("registry.example/apps/app:v1").value();
  (void)origin.push_manifest("builder", ref, manifest);

  // Quota pressure: pushes past the 1 MiB project quota must bounce.
  std::uint64_t quota_rejections = 0;
  for (int i = 0; i < 4; ++i) {
    if (!origin
             .push_blob("builder", "apps",
                        image::synthetic_file_content(rng, 512 * 1024))
             .ok())
      ++quota_rejections;
  }

  registry::PullThroughProxy proxy("proxy.site", &origin);
  sim::EventQueue events;

  constexpr std::uint32_t kNodes = 64;
  std::uint64_t completions = 0;
  std::uint64_t checksum = 1469598103934665603ull;
  SimTime makespan = 0;
  auto complete = [&](std::uint32_t node, SimTime at) {
    ++completions;
    makespan = std::max(makespan, at);
    checksum ^= (static_cast<std::uint64_t>(node) << 32) ^
                static_cast<std::uint64_t>(at);
    checksum *= 1099511628211ull;
  };

  // Continuations outlive the callbacks that schedule them (held here,
  // captured by raw pointer) — no shared_ptr self-cycles.
  std::vector<std::unique_ptr<std::function<void()>>> retries;
  std::vector<std::unique_ptr<std::function<void(std::size_t, SimTime)>>>
      chains;
  retries.reserve(kNodes);
  chains.reserve(kNodes);

  events.reserve(kNodes);
  for (std::uint32_t n = 0; n < kNodes; ++n) {
    const SimTime arrival = (n % 8) * 50;  // 8 waves, 8 nodes each
    if (n % 8 == 7) {
      // Direct-to-origin pull: admission, then frontend + egress.
      auto* attempt =
          retries.emplace_back(std::make_unique<std::function<void()>>())
              .get();
      *attempt = [&, n, attempt] {
        SimTime retry_at = 0;
        if (!origin.admit_pull(events.now(), &retry_at).ok()) {
          events.schedule_at(retry_at, [attempt] { (*attempt)(); });
          return;
        }
        SimTime t = origin.serve_request(events.now());
        t = origin.serve_transfer(t, manifest.total_layer_bytes());
        events.schedule_at(t, [&, n] { complete(n, events.now()); });
      };
      events.schedule_at(arrival, [attempt] { (*attempt)(); });
    } else {
      // Proxy pull: manifest, then the layer blobs as a chained
      // sequence of completion events.
      auto* chain =
          chains
              .emplace_back(
                  std::make_unique<std::function<void(std::size_t, SimTime)>>())
              .get();
      *chain = [&, n, chain](std::size_t idx, SimTime at) {
        if (idx == manifest.layer_digests.size()) {
          complete(n, at);
          return;
        }
        const auto blob =
            proxy.fetch_blob(events.now(), manifest.layer_digests[idx]);
        if (!blob.ok()) return;
        events.schedule_at(blob.value().done,
                           [chain, idx, done = blob.value().done] {
                             (*chain)(idx + 1, done);
                           });
      };
      events.schedule_at(arrival, [&, chain] {
        const auto m = proxy.fetch_manifest(events.now(), ref);
        if (!m.ok()) return;
        events.schedule_at(m.value().done, [chain, done = m.value().done] {
          (*chain)(0, done);
        });
      });
    }
  }
  events.run();

  return "completions=" + std::to_string(completions) +
         " throttled=" + std::to_string(origin.throttled()) +
         " quota_rejections=" + std::to_string(quota_rejections) +
         " proxy_hits=" + std::to_string(proxy.cache_hits()) +
         " upstream_fetches=" + std::to_string(proxy.upstream_fetches()) +
         " executed=" + std::to_string(events.executed()) +
         " makespan=" + std::to_string(makespan) +
         " checksum=" + std::to_string(checksum);
}

/// Partition flash crowd through the resilience layer (DESIGN.md §14):
/// 64 nodes pull 8 images via two breaker-guarded proxies while a WAN
/// partition window cuts the origin — clients fail over, proxies trip
/// and shed, nodes re-attempt past the window. Each node finishes its
/// pulls on the pool into its own blob store, and hedges its primary
/// proxy against the secondary, which is warm on every other image, so
/// hedges launch and some win. Everything timed runs on the single
/// timed plane, so the counters, the stores' bytes and the completion
/// checksum must be a pure function of the configuration; the
/// determinism audit checks exactly that.
std::string partition_flash_crowd_once(util::ThreadPool* pool) {
  sim::Network net(64);
  fault::FaultPlan plan;
  plan.seed = 21;
  plan.partition(fault::Domain::kWan, sec(8), sec(14));
  fault::FaultInjector injector(plan);
  net.set_fault_injector(&injector);

  registry::OciRegistry origin("registry.example");
  (void)origin.create_project("apps", "builder");
  Rng rng(13);
  std::vector<image::ImageReference> refs;
  for (int i = 0; i < 8; ++i) {
    vfs::MemFs fs;
    (void)fs.mkdir("/opt", {}, true);
    (void)fs.write_file("/opt/payload",
                        image::synthetic_file_content(rng, 32 * 1024));
    image::OciManifest m;
    Bytes blob = vfs::Layer::from_fs(fs).serialize();
    m.layer_sizes.push_back(blob.size());
    m.layer_digests.push_back(
        origin.push_blob("builder", "apps", std::move(blob)).value());
    m.config_digest =
        origin.push_blob("builder", "apps", image::ImageConfig{}.serialize())
            .value();
    auto ref = image::ImageReference::parse("registry.example/apps/img" +
                                            std::to_string(i) + ":v1")
                   .value();
    (void)origin.push_manifest("builder", ref, m);
    refs.push_back(std::move(ref));
  }

  registry::PullThroughProxy primary("proxy0.site", &origin);
  registry::PullThroughProxy secondary("proxy1.site", &origin);
  for (auto* proxy : {&primary, &secondary}) {
    proxy->set_fault_injector(&injector);
    proxy->set_retry_policy(fault::RetryPolicy::standard(2));
    proxy->set_origin_breaker(fault::BreakerConfig::standard());
    proxy->set_admission(fault::AdmissionConfig::standard(50.0));
  }

  registry::RegistryClient warmer(&net, 0);
  for (std::size_t i = 0; i < refs.size(); i += 2)
    (void)warmer.pull_via_proxy(0, secondary, refs[i]);

  std::vector<registry::RegistryClient> clients;
  std::vector<image::BlobStore> stores(64);
  clients.reserve(64);
  for (std::uint32_t n = 0; n < 64; ++n) {
    clients.emplace_back(&net, n, pool);
    auto rp = fault::RetryPolicy::standard(3);
    rp.total_budget = sec(4);
    clients.back().set_retry_policy(rp);
    clients.back().set_breaker_config(fault::BreakerConfig::standard());
    clients.back().set_hedge_policy(fault::HedgePolicy::after(msec(20)));
  }

  // (time, node, attempt) min-heap: images are released across the 20s
  // arrival window, so the partition lands on cold first-touch pulls.
  using Job = std::tuple<SimTime, std::uint32_t, int>;
  std::priority_queue<Job, std::vector<Job>, std::greater<Job>> jobs;
  for (std::uint32_t n = 0; n < 64; ++n)
    jobs.emplace(static_cast<SimTime>((n * 2654435761ull) %
                                      static_cast<std::uint64_t>(sec(20))),
                 n, 0);

  std::uint64_t completions = 0;
  std::uint64_t checksum = 1469598103934665603ull;
  while (!jobs.empty()) {
    const auto [t, n, attempt] = jobs.top();
    jobs.pop();
    auto& client = clients[n];
    const auto img = std::min<std::size_t>(
        refs.size() - 1, static_cast<std::size_t>((t * 8) / sec(20)));
    const auto pulled = client.pull_with_fallback(t, primary, origin,
                                                 refs[img], &stores[n],
                                                 &secondary);
    if (pulled.ok()) {
      ++completions;
      checksum ^= (static_cast<std::uint64_t>(n) << 32) ^
                  static_cast<std::uint64_t>(pulled.value().done);
      checksum *= 1099511628211ull;
    } else if (attempt + 1 < 4) {
      jobs.emplace(std::max(t, client.last_failed_at()) + sec(3), n,
                   attempt + 1);
    }
  }

  std::uint64_t trips = primary.origin_breaker().trips() +
                        secondary.origin_breaker().trips();
  std::uint64_t sheds = primary.shed_upstream() + secondary.shed_upstream();
  std::uint64_t fallbacks = 0, launched = 0, won = 0;
  for (const auto& c : clients) {
    fallbacks += c.proxy_fallbacks();
    launched += c.hedges_launched();
    won += c.hedges_won();
  }
  std::uint64_t stored = 0, logical = 0, dedup = 0;
  for (const auto& s : stores) {
    stored += s.stored_bytes();
    logical += s.logical_bytes();
    dedup += s.dedup_hits();
  }
  return "completions=" + std::to_string(completions) +
         " trips=" + std::to_string(trips) +
         " sheds=" + std::to_string(sheds) +
         " fallbacks=" + std::to_string(fallbacks) +
         " hedges_launched=" + std::to_string(launched) +
         " hedges_won=" + std::to_string(won) +
         " stored_bytes=" + std::to_string(stored) +
         " logical_bytes=" + std::to_string(logical) +
         " dedup_hits=" + std::to_string(dedup) +
         " wan_bytes=" + std::to_string(net.wan_bytes()) +
         " checksum=" + std::to_string(checksum);
}

/// Closed-loop control workload (DESIGN.md §15): a lazy mount with a
/// live tuning handle, metrics sensing the first-touch pattern, and a
/// controller raising the prefetch depth mid-run — so prefetch
/// decompression lands on the instrumented pool *because* the control
/// plane turned it on. The output folds the functional read bytes, the
/// final depth and the decision log; all of it must be byte-identical
/// under perturbed schedules.
std::string control_loop_once(util::ThreadPool* pool) {
  obs::Config ocfg;
  ocfg.metrics = true;
  obs::configure(ocfg);  // fresh sensor plane per run

  Rng rng(11);
  vfs::MemFs tree;
  (void)tree.mkdir("/opt/data", {}, true);
  for (int i = 0; i < 8; ++i)
    (void)tree.write_file("/opt/data/f" + std::to_string(i),
                          image::synthetic_file_content(rng, 256 << 10));
  const auto squash = vfs::SquashImage::build(tree, 128 * 1024);

  sim::Network net(4);
  registry::OciRegistry reg("registry.site");
  (void)reg.create_project("apps", "ci");
  (void)registry::publish_lazy(reg, "ci", "apps", squash);

  sim::PageCache pc;
  registry::LazyMountConfig cfg;
  cfg.registry = &reg;
  cfg.network = &net;
  cfg.node = 1;
  cfg.cache = storage::page_cache_tier(pc);
  cfg.over_wan = true;
  auto tuning = std::make_shared<registry::LazyTuning>(0);
  cfg.tuning = tuning;
  cfg.prefetch_pool = pool;
  auto mount = registry::make_lazy_rootfs(&squash, std::move(cfg));
  if (!mount.ok()) return "mount-error:" + mount.error().to_string();

  control::Config ccfg;
  ccfg.enabled = true;
  ccfg.epoch = msec(100);
  control::Controller ctrl{ccfg};
  ctrl.add_policy(
      std::make_unique<control::PrefetchPolicy>(tuning, /*max_depth=*/8));

  std::uint64_t checksum = 1469598103934665603ull;  // FNV offset basis
  SimTime t = 0;
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 8; ++i) {
      Bytes out;
      const auto r =
          mount.value()->read_file(t, "/opt/data/f" + std::to_string(i), &out);
      if (!r.ok()) return "read-error:" + r.error().to_string();
      t = r.value();
      for (unsigned char b : out) {
        checksum ^= b;
        checksum *= 1099511628211ull;
      }
    }
    ctrl.run_epoch(t);
  }
  const std::string out = "depth=" + std::to_string(tuning->prefetch_depth()) +
                          " done=" + std::to_string(t) +
                          " checksum=" + std::to_string(checksum) +
                          " decisions=" + ctrl.decisions_json();
  obs::reset();
  return out;
}

int report_and_exit(const Options& opts) {
  const audit::AuditReport report =
      audit::report_from_dcheck(dcheck::report());
  if (opts.json) {
    std::printf("%s\n", audit::render_json(report).c_str());
  } else {
    std::printf("%s\n", audit::render_text(report).c_str());
  }
  return report.clean() ? 0 : 1;
}

int run_sweep(const Options& opts) {
  dcheck::Config cfg;
  cfg.enabled = true;
  cfg.seed = opts.seed;
  dcheck::configure(cfg);

  const PullFixture fixture;
  util::ThreadPool pool(4);

  // Pass 1+2 (races, lock order) over the real data path, including
  // forced half-range steals.
  (void)fixture.pull_once(&pool);
  (void)skewed_steal_once(&pool);
  prefetch_stress(&pool);
  prefetch_stress(nullptr);

  // Pass 3: the pull pipeline must be byte-identical under perturbed
  // schedules (the §7 contract, now machine-checked), and so must the
  // skewed stealing workload.
  (void)dcheck::audit_determinism(
      "parallel-pull", [&] { return fixture.pull_once(&pool); }, opts.seed);
  (void)dcheck::audit_determinism(
      "steal-skewed", [&] { return skewed_steal_once(&pool); }, opts.seed);

  // Fleet workload: byte-identical across perturbed schedules (the §13
  // event-order contract, end-to-end).
  (void)dcheck::audit_determinism(
      "fleet-flash-crowd", [] { return fleet_flash_crowd_once(); },
      opts.seed);

  // Resilience workload (§14): the breaker/failover/shedding path under
  // a WAN partition window, with hedged pulls finished on the pool, must
  // be schedule-independent too.
  (void)dcheck::audit_determinism(
      "partition-flash-crowd",
      [&] { return partition_flash_crowd_once(&pool); },
      opts.seed);

  // Control-plane workload (§15): the closed-loop controller steering a
  // live lazy mount — its decision log, the steered prefetch schedule
  // and the functional bytes must all be schedule-independent.
  (void)dcheck::audit_determinism(
      "control-loop", [&] { return control_loop_once(&pool); }, opts.seed);

  return report_and_exit(opts);
}

int run_fixtures(const Options& opts) {
  dcheck::Config cfg;
  cfg.enabled = true;
  cfg.seed = opts.seed;
  dcheck::configure(cfg);

  // RACE001: two threads write one annotated location with no
  // happens-before edge between them. The vector clocks stay unrelated
  // whatever the real interleaving, so the finding is deterministic.
  {
    std::uint64_t counter = 0;
    auto bump = [&counter] {
      dcheck::access_write(&counter, "fixture.counter");
      ++counter;
    };
    std::thread t1(bump), t2(bump);
    t1.join();
    t2.join();
  }

  // RACE002: a lock-order inversion, exhibited purely sequentially —
  // the cycle lives in the held-while-acquiring graph, not a schedule.
  {
    std::mutex a_mu, b_mu;
    {
      dcheck::AnnotatedLock la(a_mu, "fixture.lock_a");
      dcheck::AnnotatedLock lb(b_mu, "fixture.lock_b");
    }
    {
      dcheck::AnnotatedLock lb(b_mu, "fixture.lock_b");
      dcheck::AnnotatedLock la(a_mu, "fixture.lock_a");
    }
  }

  // DET001: output concatenated in iteration order leaks the schedule.
  (void)dcheck::audit_determinism(
      "fixture.order-dependent",
      [] {
        std::string out;
        util::parallel_for(nullptr, 8, [&out](std::size_t i) {
          out += std::to_string(i) + ",";
        });
        return out;
      },
      opts.seed);

  return report_and_exit(opts);
}

}  // namespace

int main(int argc, char** argv) {
  LogSink::instance().set_print(false);

  Options opts;
  std::string command;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json") {
      opts.json = true;
    } else if (arg == "--seed" && i + 1 < argc) {
      char* end = nullptr;
      opts.seed = std::strtoull(argv[++i], &end, 10);
      if (end == argv[i] || *end != '\0') return usage();
    } else if (!arg.empty() && arg[0] == '-') {
      return usage();
    } else if (command.empty()) {
      command = arg;
    } else {
      return usage();
    }
  }
  if (command == "sweep") return run_sweep(opts);
  if (command == "fixtures") return run_fixtures(opts);
  return usage();
}
