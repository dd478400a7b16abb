// bench_chaos_fleet — fleet-scale pull storm through a chaos plan
// (ISSUE 9: the resilience layer's end-to-end gate).
//
// 1024 nodes pull 32 images through 4 site pull-through proxies while
// the plan runs three overlapping incidents from §5.1.3's failure
// catalogue:
//
//   * WAN brownout  [10s, 40s): upstream bandwidth cut to 25%;
//   * proxy flap    [20s, 35s): Bernoulli(0.2) fabric-transfer errors
//     between the proxies and the nodes they serve;
//   * WAN partition [45s, 55s): the uplink goes dark — every upstream
//     miss and every direct-origin leg fails fast.
//
// Images are released over the 60s arrival window (image k's first
// puller arrives around k * 60/32 s), so the partition lands on cold
// first-touch traffic, not on a warmed cache. Each completed node then
// issues a prefetch-class fetch for a cold blob — the traffic the
// admission controller sheds under pressure.
//
// Two arms over the same plan and seed:
//
//   * resilient — clients with breakers + hedging + budgeted retry,
//     proxies with origin breakers + token-bucket admission;
//   * baseline  — the same fleet with every resilience knob disabled.
//
// Gates: resilient completion rate >= 99%; aggregate retry
// amplification (clients + proxies) <= 2x; no cascade (the resilient
// arm puts no more fetches on the origin than the baseline arm does
// during the same incidents); the chaos actually engaged (sheds and
// breaker trips are nonzero); a same-seed rerun of the resilient arm
// is byte-identical; and, with metrics on, each arm's
// fault.hedge.launched counter equals its hedges_launched field.
//
// Every arm starts from an empty obs registry, so --json embeds each
// arm's own metrics snapshot inside its arm object, and an HPCC_METRICS
// export holds the last arm's (the baseline's).
//
// Plain driver (not google-benchmark), so CI can track the summary:
//
//   bench_chaos_fleet [--quick] [--nodes N] [--json PATH]
//                     [--min-complete X] [--max-amp X]
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <memory>
#include <queue>
#include <string>
#include <tuple>
#include <vector>

#include "bench_common.h"
#include "fault/fault.h"
#include "fault/resilience.h"
#include "fault/retry.h"
#include "image/build.h"
#include "obs/obs.h"
#include "registry/client.h"
#include "registry/proxy.h"
#include "registry/registry.h"
#include "sim/network.h"
#include "util/log.h"
#include "util/rng.h"
#include "vfs/layer.h"
#include "vfs/memfs.h"

namespace {

using namespace hpcc;

double elapsed_ms(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration_cast<std::chrono::duration<double, std::milli>>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

std::uint64_t fold(std::uint64_t h, std::uint64_t v) {
  h ^= v;
  h *= 1099511628211ull;
  return h;
}

struct ChaosParams {
  std::uint32_t nodes = 1024;
  std::uint32_t proxies = 4;
  std::uint32_t images = 32;
  int layers = 4;
  std::uint64_t layer_bytes = 64 * 1024;
  std::uint32_t prefetch_blobs = 256;
  SimTime horizon = sec(60);
  /// Node-level attempts (first try included) — re-attempts resume 5s
  /// after the previous failure, so a node first arriving inside the
  /// 10s partition still outlasts it.
  int node_attempts = 4;
  std::uint64_t seed = 0xc4a05ull;
};

struct ArmResult {
  std::uint64_t completions = 0;
  std::uint64_t node_attempts = 0;  ///< storm-loop pulls issued
  std::uint64_t retry_ops = 0;      ///< client+proxy retry_timed() calls
  std::uint64_t retry_attempts = 0;
  std::uint64_t upstream_fetches = 0;
  std::uint64_t proxy_hits = 0;
  std::uint64_t sheds = 0;
  std::uint64_t breaker_trips = 0;
  std::uint64_t breaker_skips = 0;
  std::uint64_t hedges_launched = 0;
  std::uint64_t hedges_won = 0;
  std::uint64_t fallbacks = 0;
  std::uint64_t wan_bytes = 0;
  std::uint64_t checksum = 0;
  SimTime makespan = 0;
  double wall_ms = 0;
  obs::MetricsSnapshot metrics;  ///< this arm's obs registry at its end

  double completion_rate(const ChaosParams& p) const {
    return static_cast<double>(completions) / static_cast<double>(p.nodes);
  }
  double amplification() const {
    return retry_ops == 0 ? 1.0
                          : static_cast<double>(retry_attempts) /
                                static_cast<double>(retry_ops);
  }
  bool same_simulation(const ArmResult& o) const {
    return completions == o.completions &&
           node_attempts == o.node_attempts && retry_ops == o.retry_ops &&
           retry_attempts == o.retry_attempts &&
           upstream_fetches == o.upstream_fetches &&
           proxy_hits == o.proxy_hits && sheds == o.sheds &&
           breaker_trips == o.breaker_trips &&
           breaker_skips == o.breaker_skips &&
           hedges_launched == o.hedges_launched &&
           hedges_won == o.hedges_won && fallbacks == o.fallbacks &&
           wan_bytes == o.wan_bytes && checksum == o.checksum &&
           makespan == o.makespan;
  }
};

ArmResult run_arm(bool resilient, const ChaosParams& p) {
  obs::metrics().clear();

  // --- chaos plan: brownout, proxy flap, partition -----------------------
  fault::FaultPlan plan;
  plan.seed = fault::env_fault_seed(p.seed);
  plan.brownout(fault::Domain::kWan, 0.25, sec(10), sec(40));
  plan.partition(fault::Domain::kWan, sec(45), sec(55));
  fault::FaultSpec flap;
  flap.domain = fault::Domain::kFabric;
  flap.kind = fault::FaultKind::kError;
  flap.probability = 0.2;
  flap.window_from = sec(20);
  flap.window_until = sec(35);
  plan.add(flap);
  fault::FaultInjector injector(plan);

  sim::Network net(p.nodes);
  net.set_fault_injector(&injector);

  // --- origin content ----------------------------------------------------
  registry::OciRegistry origin("registry.example");
  (void)origin.create_project("apps", "builder");
  Rng rng(p.seed ^ 17);
  std::vector<image::ImageReference> refs;
  for (std::uint32_t i = 0; i < p.images; ++i) {
    image::OciManifest manifest;
    for (int l = 0; l < p.layers; ++l) {
      vfs::MemFs fs;
      (void)fs.mkdir("/opt", {}, true);
      (void)fs.write_file("/opt/payload-" + std::to_string(l),
                          image::synthetic_file_content(rng, p.layer_bytes));
      Bytes blob = vfs::Layer::from_fs(fs).serialize();
      manifest.layer_sizes.push_back(blob.size());
      manifest.layer_digests.push_back(
          origin.push_blob("builder", "apps", std::move(blob)).value());
    }
    manifest.config_digest =
        origin.push_blob("builder", "apps", image::ImageConfig{}.serialize())
            .value();
    auto ref = image::ImageReference::parse("registry.example/apps/img" +
                                            std::to_string(i) + ":v1")
                   .value();
    (void)origin.push_manifest("builder", ref, manifest);
    refs.push_back(std::move(ref));
  }
  // Cold prefetch targets: never part of an image pull, so every first
  // prefetch is an upstream-needing miss the admission controller sees.
  std::vector<crypto::Digest> prefetch;
  for (std::uint32_t i = 0; i < p.prefetch_blobs; ++i)
    prefetch.push_back(
        origin.push_blob("builder", "apps",
                         image::synthetic_file_content(rng, 16 * 1024))
            .value());

  // --- proxies -----------------------------------------------------------
  std::vector<std::unique_ptr<registry::PullThroughProxy>> proxies;
  for (std::uint32_t i = 0; i < p.proxies; ++i) {
    auto proxy = std::make_unique<registry::PullThroughProxy>(
        "proxy" + std::to_string(i) + ".site", &origin);
    proxy->set_fault_injector(&injector);
    proxy->set_retry_policy(fault::RetryPolicy::standard(3));
    if (resilient) {
      proxy->set_origin_breaker(fault::BreakerConfig::standard());
      proxy->set_admission(fault::AdmissionConfig::standard(5.0));
    }
    proxies.push_back(std::move(proxy));
  }

  // --- per-node clients --------------------------------------------------
  std::vector<registry::RegistryClient> clients;
  clients.reserve(p.nodes);
  for (std::uint32_t n = 0; n < p.nodes; ++n) {
    clients.emplace_back(&net, n);
    auto rp = fault::RetryPolicy::standard(4);
    if (resilient) rp.total_budget = sec(8);
    clients.back().set_retry_policy(rp);
    if (resilient) {
      clients.back().set_breaker_config(fault::BreakerConfig::standard());
      clients.back().set_hedge_policy(
          fault::HedgePolicy::at_percentile(0.95, 1.5));
    }
  }

  // --- the storm ---------------------------------------------------------
  // (time, node, attempt) min-heap: strictly increasing pop order keeps
  // the single timed plane honest and the run reproducible.
  using Job = std::tuple<SimTime, std::uint32_t, int>;
  std::priority_queue<Job, std::vector<Job>, std::greater<Job>> jobs;
  for (std::uint32_t n = 0; n < p.nodes; ++n) {
    const auto arrival = static_cast<SimTime>(
        (n * 2654435761ull) % static_cast<std::uint64_t>(p.horizon));
    jobs.emplace(arrival, n, 0);
  }

  ArmResult out;
  std::uint64_t checksum = 1469598103934665603ull;
  const auto t0 = std::chrono::steady_clock::now();
  while (!jobs.empty()) {
    const auto [t, n, attempt] = jobs.top();
    jobs.pop();
    ++out.node_attempts;
    auto& client = clients[n];
    registry::PullThroughProxy& primary = *proxies[n % p.proxies];
    registry::PullThroughProxy* secondary =
        proxies[(n + 1) % p.proxies].get();
    // Image release schedule: image k's first puller arrives around
    // k * horizon / images — the partition window hits cold images.
    const auto img = std::min<std::uint32_t>(
        p.images - 1,
        static_cast<std::uint32_t>((t * p.images) / p.horizon));
    auto pulled = client.pull_with_fallback(t, primary, origin, refs[img],
                                            nullptr, secondary);
    if (pulled.ok()) {
      const SimTime done = pulled.value().done;
      ++out.completions;
      out.makespan = std::max(out.makespan, done);
      checksum = fold(checksum, (static_cast<std::uint64_t>(n) << 32) ^
                                    static_cast<std::uint64_t>(done));
      // Lazy warm-up for a neighbour image: the shed-first traffic.
      (void)primary.fetch_blob(done, prefetch[n % p.prefetch_blobs],
                               fault::RequestClass::kPrefetch);
    } else if (attempt + 1 < p.node_attempts) {
      const SimTime failed = std::max(t, client.last_failed_at());
      jobs.emplace(failed + sec(5), n, attempt + 1);
    }
  }
  out.wall_ms = elapsed_ms(t0);

  // --- roll-up -----------------------------------------------------------
  out.checksum = checksum;
  out.wan_bytes = net.wan_bytes();
  for (auto& client : clients) {
    out.retry_ops += client.retry_stats().operations;
    out.retry_attempts += client.retry_stats().attempts;
    out.breaker_trips += client.primary_breaker().trips() +
                         client.secondary_breaker().trips() +
                         client.origin_breaker().trips();
    out.breaker_skips += client.breaker_skips();
    out.hedges_launched += client.hedges_launched();
    out.hedges_won += client.hedges_won();
    out.fallbacks += client.proxy_fallbacks();
  }
  for (const auto& proxy : proxies) {
    out.retry_ops += proxy->retry_stats().operations;
    out.retry_attempts += proxy->retry_stats().attempts;
    out.upstream_fetches += proxy->upstream_fetches();
    out.proxy_hits += proxy->cache_hits();
    out.sheds += proxy->shed_upstream();
    out.breaker_trips += proxy->origin_breaker().trips();
  }
  out.metrics = obs::metrics().snapshot();
  return out;
}

void report(const char* name, const ArmResult& r, const ChaosParams& p) {
  std::printf(
      "%s: completions=%llu/%u (%.2f%%) amplification=%.3f "
      "upstream=%llu hits=%llu sheds=%llu trips=%llu skips=%llu "
      "hedges=%llu/%llu fallbacks=%llu makespan=%.1fs wall=%.0fms\n",
      name, static_cast<unsigned long long>(r.completions), p.nodes,
      100.0 * r.completion_rate(p), r.amplification(),
      static_cast<unsigned long long>(r.upstream_fetches),
      static_cast<unsigned long long>(r.proxy_hits),
      static_cast<unsigned long long>(r.sheds),
      static_cast<unsigned long long>(r.breaker_trips),
      static_cast<unsigned long long>(r.breaker_skips),
      static_cast<unsigned long long>(r.hedges_won),
      static_cast<unsigned long long>(r.hedges_launched),
      static_cast<unsigned long long>(r.fallbacks),
      to_seconds(r.makespan), r.wall_ms);
}

void write_arm(hpcc::bench::JsonWriter& js, const char* key,
               const ArmResult& r, const ChaosParams& p) {
  js.begin_object(key)
      .field("completions", r.completions)
      .field("completion_rate", r.completion_rate(p))
      .field("node_attempts", r.node_attempts)
      .field("retry_amplification", r.amplification())
      .field("retry_ops", r.retry_ops)
      .field("retry_attempts", r.retry_attempts)
      .field("upstream_fetches", r.upstream_fetches)
      .field("proxy_hits", r.proxy_hits)
      .field("sheds", r.sheds)
      .field("breaker_trips", r.breaker_trips)
      .field("breaker_skips", r.breaker_skips)
      .field("hedges_launched", r.hedges_launched)
      .field("hedges_won", r.hedges_won)
      .field("proxy_fallbacks", r.fallbacks)
      .field("wan_bytes", r.wan_bytes)
      .field("makespan_sec", to_seconds(r.makespan))
      .field("wall_ms", r.wall_ms)
      .field("checksum", r.checksum);
  js.raw("metrics", r.metrics.to_json(static_cast<int>(2 * js.depth())));
  js.end();
}

/// The hedge counter the client publishes, as this arm's snapshot saw it.
std::uint64_t hedge_counter(const ArmResult& r) {
  const auto it = r.metrics.counters.find("fault.hedge.launched");
  return it == r.metrics.counters.end() ? 0 : it->second;
}

}  // namespace

int main(int argc, char** argv) {
  ChaosParams params;
  bool quick = false;
  std::string json_path;
  double min_complete = 0.99;
  double max_amp = 2.0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") {
      quick = true;
    } else if (arg == "--nodes" && i + 1 < argc) {
      params.nodes = static_cast<std::uint32_t>(std::atoi(argv[++i]));
    } else if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else if (arg == "--min-complete" && i + 1 < argc) {
      min_complete = std::atof(argv[++i]);
    } else if (arg == "--max-amp" && i + 1 < argc) {
      max_amp = std::atof(argv[++i]);
    } else {
      std::fprintf(stderr,
                   "usage: bench_chaos_fleet [--quick] [--nodes N] "
                   "[--json PATH] [--min-complete X] [--max-amp X]\n");
      return 2;
    }
  }
  if (!quick) params.nodes = 4096;  // full mode: a bigger storm

  LogSink::instance().set_print(false);
  hpcc::bench::configure_obs("", !json_path.empty());

  std::printf("chaos fleet: %u nodes, %u proxies, %u images, "
              "brownout [10s,40s) 0.25x / flap [20s,35s) p=0.2 / "
              "partition [45s,55s)\n",
              params.nodes, params.proxies, params.images);

  const ArmResult resilient = run_arm(/*resilient=*/true, params);
  const ArmResult rerun = run_arm(/*resilient=*/true, params);
  const ArmResult baseline = run_arm(/*resilient=*/false, params);
  report("resilient", resilient, params);
  report("baseline ", baseline, params);

  bool ok = true;
  auto gate = [&ok](bool cond, const std::string& what) {
    if (cond) return;
    std::cerr << "GATE FAILED: " << what << "\n";
    ok = false;
  };
  gate(resilient.completion_rate(params) >= min_complete,
       "resilient completion rate " +
           std::to_string(resilient.completion_rate(params)) + " < " +
           std::to_string(min_complete));
  gate(resilient.amplification() <= max_amp,
       "retry amplification " + std::to_string(resilient.amplification()) +
           " > " + std::to_string(max_amp));
  gate(resilient.upstream_fetches <= baseline.upstream_fetches,
       "cascade: resilient arm issued more origin fetches (" +
           std::to_string(resilient.upstream_fetches) + ") than baseline (" +
           std::to_string(baseline.upstream_fetches) + ")");
  gate(resilient.sheds > 0, "admission controller never shed");
  gate(resilient.breaker_trips > 0, "no breaker ever tripped");
  gate(resilient.same_simulation(rerun),
       "same-seed rerun diverged (determinism violation)");
  auto hedge_gate = [&gate](const char* name, const ArmResult& r) {
    gate(hedge_counter(r) == r.hedges_launched,
         std::string(name) + " arm: fault.hedge.launched counter " +
             std::to_string(hedge_counter(r)) + " != hedges_launched " +
             std::to_string(r.hedges_launched));
  };
  if (hpcc::obs::metrics_enabled()) {
    hedge_gate("resilient", resilient);
    hedge_gate("rerun", rerun);
    hedge_gate("baseline", baseline);
  }
  if (ok) std::printf("all gates passed\n");

  if (!json_path.empty()) {
    hpcc::bench::JsonWriter js;
    js.field("bench", "chaos_fleet")
        .field("quick", quick)
        .field("nodes", params.nodes)
        .field("proxies", params.proxies)
        .field("images", params.images)
        .field("min_complete", min_complete)
        .field("max_amp", max_amp)
        .field("gates_passed", ok);
    write_arm(js, "resilient", resilient, params);
    write_arm(js, "baseline", baseline, params);
    if (!js.write_file(json_path)) ok = false;
  }
  hpcc::bench::export_obs();
  return ok ? 0 : 1;
}
