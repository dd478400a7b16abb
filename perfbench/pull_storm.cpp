// pull_storm — the §5.1.3 flash crowd under chaos.
//
// 1024 nodes pull 32 four-layer images through 4 pull-through proxies
// from one origin while a seeded chaos plan runs the incidents of
// bench_chaos_fleet: a WAN brownout [10s, 40s) at 25% bandwidth, a
// proxy-to-node flap [20s, 35s) with p=0.2 transfer errors and a WAN
// partition [45s, 55s). Clients and proxies use the resilient settings
// (breakers, hedging, admission, budgeted retry).
//
// The clients verify and decode layers on the calling thread. With a
// shared ThreadPool of the caller and one worker, the worker's core was
// one the yardstick does not sample, and the spread of same-code runs
// grew from 0.016 to 0.127; the traced run times the pool on its own,
// over the workload's layer blobs (the util metrics).
//
// Load: open loop in simulated time. Each node arrives once, at a time
// drawn from the seed in its own slot of the 60 s window, and
// re-attempts 5 s after a failure, up to 4 attempts. The benchmark
// makes one pull_with_fallback call at a time, in arrival order. One op
// is one node's pull; its latency runs from the node's arrival to the
// completed pull.
#include <algorithm>
#include <memory>
#include <numeric>
#include <queue>
#include <tuple>

#include "crypto/digest.h"
#include "fault/fault.h"
#include "fault/resilience.h"
#include "fault/retry.h"
#include "image/build.h"
#include "registry/client.h"
#include "registry/proxy.h"
#include "registry/registry.h"
#include "sim/network.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "vfs/layer.h"
#include "vfs/memfs.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace hpcc;

constexpr std::uint32_t kNodes = 1024;
constexpr std::uint32_t kProxies = 4;
constexpr std::uint32_t kImages = 32;
constexpr int kLayers = 4;
constexpr std::uint64_t kLayerBytes = 64 * 1024;
constexpr std::uint32_t kPrefetchBlobs = 256;
constexpr std::uint64_t kPrefetchBytes = 16 * 1024;
constexpr SimTime kHorizon = sec(60);
constexpr int kNodeAttempts = 4;
constexpr SimDuration kReattemptAfter = sec(5);
constexpr int kUtilReps = 5;

std::uint64_t fold(std::uint64_t h, std::uint64_t v) {
  return (h ^ v) * 1099511628211ull;
}

/// Everything one pass computes in simulated time, plus the objects'
/// counters the per-layer metrics read.
struct Simulation {
  std::uint64_t completions = 0;
  std::uint64_t node_attempts = 0;
  std::uint64_t retry_ops = 0;
  std::uint64_t retry_attempts = 0;
  std::uint64_t upstream_fetches = 0;
  std::uint64_t proxy_hits = 0;
  std::uint64_t sheds = 0;
  std::uint64_t breaker_trips = 0;
  std::uint64_t breaker_skips = 0;
  std::uint64_t hedges_launched = 0;
  std::uint64_t hedges_won = 0;
  std::uint64_t fallbacks = 0;
  std::uint64_t wan_bytes = 0;       ///< sim::Network::wan_bytes()
  std::uint64_t upstream_bytes = 0;  ///< sum of proxy upstream_bytes()
  std::uint64_t checksum = 1469598103934665603ull;
  SimTime makespan = 0;
  std::vector<double> latency_s;  ///< per completed node, arrival → done

  bool same_simulation(const Simulation& o) const {
    return completions == o.completions && node_attempts == o.node_attempts &&
           retry_ops == o.retry_ops && retry_attempts == o.retry_attempts &&
           upstream_fetches == o.upstream_fetches &&
           proxy_hits == o.proxy_hits && sheds == o.sheds &&
           breaker_trips == o.breaker_trips &&
           breaker_skips == o.breaker_skips &&
           hedges_launched == o.hedges_launched &&
           hedges_won == o.hedges_won && fallbacks == o.fallbacks &&
           wan_bytes == o.wan_bytes && upstream_bytes == o.upstream_bytes &&
           checksum == o.checksum && makespan == o.makespan;
  }
};

class PullStorm : public Workload {
 public:
  explicit PullStorm(const Options& o)
      : seed_(o.seed), pool_threads_(o.pool_threads) {}

  void setup() override {
    // Stratified arrivals: the window is cut into one slot per node,
    // nodes take the slots in a seeded order and arrive at a seeded point
    // inside their slot. Every seed then loads each incident window with
    // the same number of nodes, so seeds differ in detail, not in load.
    Rng rng(seed_);
    std::vector<std::uint64_t> slot(kNodes);
    std::iota(slot.begin(), slot.end(), 0);
    for (std::size_t i = kNodes - 1; i > 0; --i)
      std::swap(slot[i], slot[rng.next_below(i + 1)]);
    arrivals_.clear();
    for (std::uint32_t n = 0; n < kNodes; ++n)
      arrivals_.push_back(static_cast<SimTime>(
          (slot[n] * kHorizon + rng.next_below(kHorizon)) / kNodes));
    images_.clear();
    for (std::uint32_t i = 0; i < kImages; ++i) {
      Image img;
      for (int l = 0; l < kLayers; ++l) {
        vfs::MemFs fs;
        (void)fs.mkdir("/opt", {}, true);
        (void)fs.write_file("/opt/payload-" + std::to_string(l),
                            image::synthetic_file_content(rng, kLayerBytes));
        img.layers.push_back(vfs::Layer::from_fs(fs).serialize());
      }
      img.ref = image::ImageReference::parse("registry.example/apps/img" +
                                             std::to_string(i) + ":v1")
                    .value();
      images_.push_back(std::move(img));
    }
    prefetch_.clear();
    for (std::uint32_t i = 0; i < kPrefetchBlobs; ++i)
      prefetch_.push_back(image::synthetic_file_content(rng, kPrefetchBytes));
    build_site();
  }

  void pass(SpanLog* spans) override {
    auto& proxies = site_->proxies;
    auto& clients = site_->clients;

    // (time, node, attempt) min-heap: one pull at a time, in arrival
    // order, keeps the timed plane single-threaded and reproducible.
    using Job = std::tuple<SimTime, std::uint32_t, int>;
    std::priority_queue<Job, std::vector<Job>, std::greater<Job>> jobs;
    for (std::uint32_t n = 0; n < kNodes; ++n)
      jobs.emplace(arrivals_[n], n, 0);

    Simulation sim;
    while (!jobs.empty()) {
      const auto [t, n, attempt] = jobs.top();
      jobs.pop();
      ++sim.node_attempts;
      auto& client = clients[n];
      registry::PullThroughProxy& primary = *proxies[n % kProxies];
      registry::PullThroughProxy* secondary =
          proxies[(n + 1) % kProxies].get();
      // Image k is released around k * horizon / images, so the
      // partition lands on cold first-touch traffic.
      const auto img = std::min<std::uint32_t>(
          kImages - 1, static_cast<std::uint32_t>((t * kImages) / kHorizon));
      Result<registry::PullResult> pulled = err_internal("not pulled");
      {
        SpanLog::Scope s(spans, "registry", "pull_with_fallback", n + 1);
        pulled = client.pull_with_fallback(t, primary, *site_->origin,
                                           images_[img].ref, nullptr,
                                           secondary);
      }
      if (pulled.ok()) {
        const SimTime done = pulled.value().done;
        ++sim.completions;
        sim.makespan = std::max(sim.makespan, done);
        sim.latency_s.push_back(to_seconds(done - arrivals_[n]));
        sim.checksum =
            fold(sim.checksum, (static_cast<std::uint64_t>(n) << 32) ^
                                   static_cast<std::uint64_t>(done));
        // Lazy warm-up of a cold blob: the prefetch-class traffic the
        // admission controller sheds first.
        SpanLog::Scope s(spans, "registry", "proxy.fetch_blob", n + 1);
        (void)primary.fetch_blob(done, site_->prefetch[n % kPrefetchBlobs],
                                 fault::RequestClass::kPrefetch);
      } else if (attempt + 1 < kNodeAttempts) {
        const SimTime failed = std::max(t, client.last_failed_at());
        jobs.emplace(failed + kReattemptAfter, n, attempt + 1);
      }
      yardstick().tick();
    }

    sim.wan_bytes = site_->net.wan_bytes();
    for (auto& client : clients) {
      sim.retry_ops += client.retry_stats().operations;
      sim.retry_attempts += client.retry_stats().attempts;
      sim.breaker_trips += client.primary_breaker().trips() +
                           client.secondary_breaker().trips() +
                           client.origin_breaker().trips();
      sim.breaker_skips += client.breaker_skips();
      sim.hedges_launched += client.hedges_launched();
      sim.hedges_won += client.hedges_won();
      sim.fallbacks += client.proxy_fallbacks();
    }
    for (const auto& proxy : proxies) {
      sim.retry_ops += proxy->retry_stats().operations;
      sim.retry_attempts += proxy->retry_stats().attempts;
      sim.upstream_fetches += proxy->upstream_fetches();
      sim.upstream_bytes += proxy->upstream_bytes();
      sim.proxy_hits += proxy->cache_hits();
      sim.sheds += proxy->shed_upstream();
      sim.breaker_trips += proxy->origin_breaker().trips();
    }

    if (!reference_) {
      reference_ = std::make_unique<Simulation>(std::move(sim));
    } else {
      ++passes_checked_;
      if (!sim.same_simulation(*reference_)) ++passes_diverged_;
    }
    site_.reset();
  }

  void finish(Report& r, const TracedPass* traced) override {
    const Simulation& sim = *reference_;
    r.sizes = {"nodes=1024", "proxies=4", "images=32", "layers_per_image=4",
               "layer_payload_bytes=65536", "prefetch_blobs=256",
               "arrival_window_s=60", "node_attempts=4", "client_threads=1"};
    r.attempted = kNodes;
    r.failed = kNodes - sim.completions;
    r.check(passes_checked_ > 0 && passes_diverged_ == 0,
            "same-seed passes diverged: " + std::to_string(passes_diverged_) +
                " of " + std::to_string(passes_checked_));

    r.unmeasured = {"registry.push_wall_ms.", "storage.page-cache.",
                    "storage.shared-fs.", "storage.node-local.", "vfs.",
                    "image.", "engine.", "runtime.", "orch.", "k8s.", "wlm."};
    if (pool_threads_ < 2) r.unmeasured.push_back("util.");

    const double wan_mib =
        static_cast<double>(sim.wan_bytes + sim.upstream_bytes) / kMiB;
    // p99 leaves ten of the 1024 pulls above it when all complete.
    add_latency_metrics(r, "registry.sim_pull", sim.latency_s, 0.99);
    r.layer("registry.wan_mib", wan_mib, "MiB");
    r.info("sim_makespan_s", to_seconds(sim.makespan), "s");
    if (traced == nullptr) return;
    const obs::MetricsSnapshot& metrics = traced->metrics;

    // crypto: the clients verify what they pull, the proxies hash what
    // they admit; nothing is pushed during a pass.
    std::uint64_t blob_bytes = 0;
    const double sha_ms = median_ms(3, [&] {
      blob_bytes = 0;
      for (const auto& img : images_)
        for (const auto& blob : img.layers) {
          (void)crypto::Digest::of(blob);
          blob_bytes += blob.size();
        }
    });
    const double hashed_mib = (counter(metrics, "registry.pull_bytes") +
                               static_cast<double>(sim.upstream_bytes) +
                               counter(metrics, "registry.push_bytes")) /
                              kMiB;
    r.layer("crypto.sha256_mbps",
            static_cast<double>(blob_bytes) / 1e3 / sha_ms, "MB/s");
    r.layer("crypto.hashed_mib", hashed_mib, "MiB");
    r.layer("crypto.hashed_per_wan", ratio(hashed_mib, wan_mib), "ratio");

    std::vector<double> pull_ms;
    for (const auto& s : traced->spans->spans())
      if (s.name == "pull_with_fallback")
        pull_ms.push_back((s.end_us - s.begin_us) / 1e3);
    r.layer("registry.pull_wall_ms.p50", percentile(pull_ms, 0.5), "ms");
    r.layer("registry.pull_wall_ms.p99", percentile(pull_ms, 0.99), "ms");
    r.layer("registry.proxy_hit_ratio",
            ratio(static_cast<double>(sim.proxy_hits),
                  static_cast<double>(sim.proxy_hits + sim.upstream_fetches)),
            "ratio");
    r.layer("registry.fallbacks", static_cast<double>(sim.fallbacks), "count");
    r.layer("registry.layers_fetched",
            counter(metrics, "registry.layers_fetched"), "count");
    r.layer("registry.layers_skipped",
            counter(metrics, "registry.layers_skipped"), "count");

    add_storage_metrics(r, metrics);

    r.layer("fault.retry_amplification",
            ratio(counter(metrics, "fault.retry.attempts"),
                  counter(metrics, "fault.retry.operations")),
            "ratio");
    r.layer("fault.hedges_launched", static_cast<double>(sim.hedges_launched),
            "count");
    r.layer("fault.hedge_win_ratio",
            ratio(static_cast<double>(sim.hedges_won),
                  static_cast<double>(sim.hedges_launched)),
            "ratio");
    r.layer("fault.sheds", static_cast<double>(sim.sheds), "count");
    r.layer("fault.breaker_trips", static_cast<double>(sim.breaker_trips),
            "count");
    r.layer("fault.breaker_skips", static_cast<double>(sim.breaker_skips),
            "count");

    // util: the pool verifying every layer blob, as a client would,
    // kUtilReps times.
    if (pool_threads_ >= 2) {
      util::ThreadPool pool(pool_threads_ - 1);
      std::vector<const Bytes*> blobs;
      for (const auto& img : images_)
        for (const auto& blob : img.layers) blobs.push_back(&blob);
      pool.reset_steal_stats();
      const auto t0 = std::chrono::steady_clock::now();
      for (int rep = 0; rep < kUtilReps; ++rep)
        pool.parallel_for(blobs.size(), [&](std::size_t i) {
          (void)crypto::Digest::of(*blobs[i]);
        });
      const double wall_s = seconds_since(t0);
      const util::ThreadPool::StealStats stats = pool.steal_stats();
      double busy_ns = 0;
      for (auto ns : stats.busy_ns) busy_ns += static_cast<double>(ns);
      const double slots = static_cast<double>(stats.busy_ns.size());
      r.layer("util.pool_busy_frac", busy_ns / 1e9 / (slots * wall_s),
              "ratio");
      r.layer("util.pool_steals", static_cast<double>(stats.steals), "count");
      r.layer("util.pool_chunks", static_cast<double>(stats.chunks), "count");
    }
  }

 private:
  struct Image {
    image::ImageReference ref;
    std::vector<Bytes> layers;  ///< serialized layer archives
  };

  /// The origin with every image pushed, the chaos plan, and the fleet:
  /// proxies and per-node clients with the resilient settings.
  struct Site {
    fault::FaultInjector injector;
    sim::Network net{kNodes};
    std::unique_ptr<registry::OciRegistry> origin;
    std::vector<std::unique_ptr<registry::PullThroughProxy>> proxies;
    std::vector<registry::RegistryClient> clients;
    std::vector<crypto::Digest> prefetch;  ///< cold blobs at the origin

    explicit Site(fault::FaultPlan plan) : injector(std::move(plan)) {}
  };

  void build_site() {
    fault::FaultPlan plan;
    plan.seed = seed_ ^ 0xc4a05ull;
    plan.brownout(fault::Domain::kWan, 0.25, sec(10), sec(40));
    plan.partition(fault::Domain::kWan, sec(45), sec(55));
    fault::FaultSpec flap;
    flap.domain = fault::Domain::kFabric;
    flap.kind = fault::FaultKind::kError;
    flap.probability = 0.2;
    flap.window_from = sec(20);
    flap.window_until = sec(35);
    plan.add(flap);
    site_ = std::make_unique<Site>(std::move(plan));
    site_->net.set_fault_injector(&site_->injector);

    site_->origin =
        std::make_unique<registry::OciRegistry>("registry.example");
    registry::OciRegistry& origin = *site_->origin;
    (void)origin.create_project("apps", "ci");
    for (const auto& img : images_) {
      image::OciManifest manifest;
      for (const auto& blob : img.layers) {
        manifest.layer_sizes.push_back(blob.size());
        manifest.layer_digests.push_back(
            origin.push_blob("ci", "apps", blob).value());
      }
      manifest.config_digest =
          origin.push_blob("ci", "apps", image::ImageConfig{}.serialize())
              .value();
      (void)origin.push_manifest("ci", img.ref, manifest);
    }
    for (const auto& blob : prefetch_)
      site_->prefetch.push_back(
          origin.push_blob("ci", "apps", blob).value());

    for (std::uint32_t i = 0; i < kProxies; ++i) {
      auto proxy = std::make_unique<registry::PullThroughProxy>(
          "proxy" + std::to_string(i) + ".site", &origin);
      proxy->set_fault_injector(&site_->injector);
      proxy->set_retry_policy(fault::RetryPolicy::standard(3));
      proxy->set_origin_breaker(fault::BreakerConfig::standard());
      proxy->set_admission(fault::AdmissionConfig::standard(5.0));
      site_->proxies.push_back(std::move(proxy));
    }
    site_->clients.reserve(kNodes);
    for (std::uint32_t n = 0; n < kNodes; ++n) {
      auto& client = site_->clients.emplace_back(&site_->net, n);
      auto rp = fault::RetryPolicy::standard(4);
      rp.total_budget = sec(8);
      client.set_retry_policy(rp);
      client.set_breaker_config(fault::BreakerConfig::standard());
      client.set_hedge_policy(fault::HedgePolicy::at_percentile(0.95, 1.5));
    }
  }

  std::uint64_t seed_;
  unsigned pool_threads_;  ///< the util measurement's pool, caller included
  std::vector<SimTime> arrivals_;
  std::vector<Image> images_;
  std::vector<Bytes> prefetch_;
  std::unique_ptr<Site> site_;

  std::unique_ptr<Simulation> reference_;
  std::uint64_t passes_checked_ = 0;
  std::uint64_t passes_diverged_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_pull_storm(const Options& o) {
  return std::make_unique<PullStorm>(o);
}

}  // namespace perfbench
