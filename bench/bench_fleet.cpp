// bench_fleet — fleet-scale flash crowd on the DES kernel (DESIGN.md §13).
//
// The paper's §5.1.3 shape end-to-end: nodes pull one image through
// site pull-through proxies (node i -> proxy i % P), one in ten goes
// straight at the rate-limited origin and reschedules itself at
// retry_at on 429, and a quota-capped project rejects oversized pushes.
// Every stage is a completion event on sim::EventQueue. The fleet runs
// twice with the same seed. Gates: every node completes, the rate
// limiter and the quota both engage, and the two runs' results
// (counters, makespan, completion checksum) are byte-identical.
//
// Plain driver (not google-benchmark), so CI can track the summary:
//
//   bench_fleet [--quick] [--json PATH]
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <functional>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "image/build.h"
#include "registry/proxy.h"
#include "registry/registry.h"
#include "sim/event_queue.h"
#include "util/log.h"
#include "util/rng.h"

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

struct FleetParams {
  std::uint32_t nodes = 1024;
  std::uint32_t proxies = 4;
  int layers = 4;
  std::uint64_t layer_bytes = 256 * 1024;
};

struct FleetResult {
  std::uint64_t completions = 0;
  std::uint64_t throttled = 0;
  std::uint64_t quota_rejections = 0;
  std::uint64_t proxy_hits = 0;
  std::uint64_t upstream_fetches = 0;
  std::uint64_t executed = 0;
  std::uint64_t checksum = 0;
  SimTime makespan = 0;
  double wall_ms = 0;

  bool same_simulation(const FleetResult& o) const {
    return completions == o.completions && throttled == o.throttled &&
           quota_rejections == o.quota_rejections &&
           proxy_hits == o.proxy_hits &&
           upstream_fetches == o.upstream_fetches &&
           executed == o.executed && checksum == o.checksum &&
           makespan == o.makespan;
  }
};

FleetResult run_fleet(const FleetParams& p) {
  // The embedded metrics snapshot covers one run.
  obs::metrics().clear();

  registry::RegistryLimits limits;
  limits.pull_limit = 32;  // DockerHub-style cap; the crowd exhausts it
  limits.pull_window = sec(1);
  registry::OciRegistry origin("registry.example", limits);
  (void)origin.create_project("apps", "builder");
  // A quota-capped scratch project: pushes past 1 MiB must bounce.
  (void)origin.create_project("scratch", "builder",
                              /*quota_bytes=*/1ull << 20);

  Rng rng(17);
  image::OciManifest manifest;
  for (int i = 0; i < p.layers; ++i) {
    Bytes blob = image::synthetic_file_content(rng, p.layer_bytes);
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

  FleetResult out;
  for (int i = 0; i < 4; ++i) {
    if (!origin
             .push_blob("builder", "scratch",
                        image::synthetic_file_content(rng, 512 * 1024))
             .ok())
      ++out.quota_rejections;
  }

  std::vector<std::unique_ptr<registry::PullThroughProxy>> proxies;
  for (std::uint32_t i = 0; i < p.proxies; ++i)
    proxies.push_back(std::make_unique<registry::PullThroughProxy>(
        "proxy" + std::to_string(i) + ".site", &origin));

  sim::EventQueue events;
  std::uint64_t checksum = 1469598103934665603ull;
  auto complete = [&](std::uint32_t node, SimTime at) {
    ++out.completions;
    out.makespan = std::max(out.makespan, at);
    checksum = fold(checksum, (static_cast<std::uint64_t>(node) << 32) ^
                                  static_cast<std::uint64_t>(at));
  };

  // Continuations outlive the callbacks that schedule them (captured by
  // raw pointer into these keep-alive vectors — no shared_ptr cycles).
  std::vector<std::unique_ptr<std::function<void()>>> retries;
  std::vector<std::unique_ptr<std::function<void(std::size_t, SimTime)>>>
      chains;
  retries.reserve(p.nodes / 10 + 1);
  chains.reserve(p.nodes);

  const auto t0 = std::chrono::steady_clock::now();
  events.reserve(p.nodes);
  for (std::uint32_t n = 0; n < p.nodes; ++n) {
    // Flash crowd: the whole fleet arrives inside ~131ms of sim time.
    const SimTime arrival =
        static_cast<SimTime>((n * 2654435761ull) % 131072);
    if (n % 10 == 9) {
      // Direct-to-origin: admission (429 -> reschedule at retry_at),
      // then the frontend and the shared egress pipe.
      auto* attempt =
          retries.emplace_back(std::make_unique<std::function<void()>>())
              .get();
      *attempt = [&events, &origin, &manifest, &complete, n, attempt] {
        SimTime retry_at = 0;
        if (!origin.admit_pull(events.now(), &retry_at).ok()) {
          events.schedule_at(retry_at, [attempt] { (*attempt)(); });
          return;
        }
        SimTime t = origin.serve_request(events.now());
        t = origin.serve_transfer(t, manifest.total_layer_bytes());
        events.schedule_at(t, [&events, &complete, n] {
          complete(n, events.now());
        });
      };
      events.schedule_at(arrival, [attempt] { (*attempt)(); });
    } else {
      registry::PullThroughProxy* proxy = proxies[n % p.proxies].get();
      auto* chain =
          chains
              .emplace_back(
                  std::make_unique<
                      std::function<void(std::size_t, SimTime)>>())
              .get();
      *chain = [&events, &manifest, &complete, proxy, n, chain](
                   std::size_t idx, SimTime at) {
        if (idx == manifest.layer_digests.size()) {
          complete(n, at);
          return;
        }
        const auto blob =
            proxy->fetch_blob(events.now(), manifest.layer_digests[idx]);
        if (!blob.ok()) return;
        events.schedule_at(blob.value().done,
                           [chain, idx, done = blob.value().done] {
                             (*chain)(idx + 1, done);
                           });
      };
      events.schedule_at(arrival, [&events, &ref, proxy, chain] {
        const auto m = proxy->fetch_manifest(events.now(), ref);
        if (!m.ok()) return;
        events.schedule_at(m.value().done, [chain, done = m.value().done] {
          (*chain)(0, done);
        });
      });
    }
  }
  events.run();
  out.wall_ms = elapsed_ms(t0);

  out.throttled = origin.throttled();
  for (const auto& proxy : proxies) {
    out.proxy_hits += proxy->cache_hits();
    out.upstream_fetches += proxy->upstream_fetches();
  }
  out.executed = events.executed();
  out.checksum = checksum;
  events.publish_stats();
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      std::cerr << "usage: bench_fleet [--quick] [--json PATH]\n";
      return 2;
    }
  }

  LogSink::instance().set_print(false);
  bench::configure_obs("", /*want_metrics=*/!json_path.empty());

  FleetParams fp;
  fp.nodes = quick ? 1024 : 4096;
  std::printf("fleet: %u nodes, %u proxies, %d x %.0f KiB layers\n",
              fp.nodes, fp.proxies, fp.layers,
              static_cast<double>(fp.layer_bytes) / 1024.0);
  const FleetResult fleet = run_fleet(fp);
  const FleetResult rerun = run_fleet(fp);
  if (!fleet.same_simulation(rerun)) {
    std::cerr << "DETERMINISM VIOLATION: same-seed fleet runs diverged\n";
    return 1;
  }
  std::printf("completions=%llu/%u throttled=%llu quota_rejections=%llu\n",
              static_cast<unsigned long long>(fleet.completions), fp.nodes,
              static_cast<unsigned long long>(fleet.throttled),
              static_cast<unsigned long long>(fleet.quota_rejections));
  std::printf("proxy_hits=%llu upstream_fetches=%llu makespan=%lld us\n",
              static_cast<unsigned long long>(fleet.proxy_hits),
              static_cast<unsigned long long>(fleet.upstream_fetches),
              static_cast<long long>(fleet.makespan));
  std::printf("events=%llu checksum=%llu\n",
              static_cast<unsigned long long>(fleet.executed),
              static_cast<unsigned long long>(fleet.checksum));
  std::printf("wall: %.2f ms, same-seed rerun %.2f ms (identical)\n",
              fleet.wall_ms, rerun.wall_ms);

  // ----- gates
  bool ok = true;
  auto gate = [&ok](bool cond, const char* what) {
    if (!cond) {
      std::cerr << "GATE FAILED: " << what << "\n";
      ok = false;
    }
  };
  gate(fleet.completions == fp.nodes, "every node completed its pull");
  gate(fleet.throttled > 0, "origin rate limiter engaged");
  gate(fleet.quota_rejections > 0, "project quota engaged");

  if (!json_path.empty()) {
    bench::JsonWriter js;
    js.field("bench", "fleet").field("quick", quick);
    js.begin_object("fleet")
        .field("nodes", fp.nodes)
        .field("proxies", fp.proxies)
        .field("layers", fp.layers)
        .field("layer_bytes", fp.layer_bytes)
        .field("completions", fleet.completions)
        .field("throttled", fleet.throttled)
        .field("quota_rejections", fleet.quota_rejections)
        .field("proxy_hits", fleet.proxy_hits)
        .field("upstream_fetches", fleet.upstream_fetches)
        .field("makespan_us", fleet.makespan)
        .field("executed", fleet.executed)
        .field("wall_ms", fleet.wall_ms)
        .field("rerun_wall_ms", rerun.wall_ms)
        .field("checksum", fleet.checksum)
        .field("same_seed_identical", true)
        .end();
    js.field("gates_passed", ok);
    js.raw("metrics", obs::metrics().snapshot().to_json(2));
    js.write_file(json_path);
  }
  bench::export_obs();
  return ok ? 0 : 1;
}
