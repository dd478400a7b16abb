// bench_fleet — fleet-scale flash crowd on the DES kernel (DESIGN.md §13).
//
// Two arms, both gated:
//
//  1. Kernel microbench — the raw scheduling hot path. Thousands of
//     nodes arrive inside one flash window and each runs a chain of
//     self-rescheduling ticks, so the kernel holds a large pending
//     population the whole run (the regime where the heap baseline pays
//     log-depth sift swaps plus one std::function allocation per event,
//     and the calendar kernel pays a bump allocation and a bucket
//     append). Gates: calendar events/sec >= --min-ratio x heap
//     events/sec (default 5), calendar events/sec >= --min-eps, and a
//     byte-identical execution-order checksum across both kernels.
//
//  2. Fleet scenario — the paper's §5.1.3 shape end-to-end: nodes pull
//     one image through site pull-through proxies (node i -> proxy
//     i % P), one in ten goes straight at the rate-limited origin and
//     reschedules itself at retry_at on 429, and a quota-capped project
//     rejects oversized pushes. Every stage is a completion event on
//     the kernel under test. Gates: every node completes, the rate
//     limiter and the quota both engage, and the full result (counters,
//     makespan, completion checksum) is byte-identical across kernels.
//
// Plain driver (not google-benchmark), so CI can track the summary:
//
//   bench_fleet [--quick] [--reps N] [--json PATH]
//               [--min-ratio X] [--min-eps X]
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <functional>
#include <iostream>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "bench_common.h"
#include "heap_event_queue.h"
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

// --------------------------------------------------------------------------
// Arm 1: kernel microbench.
// --------------------------------------------------------------------------

/// One self-rescheduling tick chain. Deliberately larger than the
/// 16-byte small-object buffer of libstdc++'s std::function: the heap
/// baseline allocates every capture on the heap, which is exactly the
/// per-event cost the arena removes.
template <class Queue>
struct Tick {
  Queue* q;
  std::uint64_t label;
  std::uint64_t stride;
  std::uint64_t* checksum;
  std::uint32_t remaining;

  void operator()() const {
    *checksum = fold(*checksum,
                     label ^ static_cast<std::uint64_t>(q->now()));
    if (remaining == 0) return;
    Tick next = *this;
    --next.remaining;
    next.stride = stride * 6364136223846793005ull + 1442695040888963407ull;
    // Mostly dense traffic; every 16th hop parks far future so the
    // overflow wheel and batch refills are exercised under load.
    const SimDuration delay =
        next.remaining % 16 == 0
            ? static_cast<SimDuration>(next.stride % 50000000)
            : static_cast<SimDuration>(next.stride % 1000);
    q->schedule_after(delay, next);
  }
};

struct KernelResult {
  double wall_ms = 0;
  std::uint64_t executed = 0;
  std::uint64_t checksum = 0;
  double eps = 0;  ///< events per wall-clock second
  sim::EventQueueStats stats;
};

/// The heap reference publishes no obs counters; only the calendar
/// kernel's sim.events.* / sim.queue.* land in the metrics snapshot.
template <class Queue>
void publish_stats(Queue& q) {
  if constexpr (std::is_same_v<Queue, sim::EventQueue>) q.publish_stats();
}

template <class Queue>
KernelResult run_kernel(std::uint32_t nodes, std::uint32_t ticks, int reps) {
  KernelResult out;
  for (int r = 0; r < reps; ++r) {
    Queue q;
    std::uint64_t checksum = 1469598103934665603ull;
    q.reserve(nodes);
    const auto t0 = std::chrono::steady_clock::now();
    for (std::uint32_t n = 0; n < nodes; ++n) {
      // The whole fleet lands inside one ~131ms flash window.
      const SimTime arrival =
          static_cast<SimTime>((n * 2654435761ull) % 131072);
      q.schedule_at(arrival, Tick<Queue>{&q, n, n * 0x9e3779b97f4a7c15ull + 1,
                                         &checksum, ticks});
    }
    q.run();
    const double ms = elapsed_ms(t0);
    if (r == 0) {
      out.checksum = checksum;
      out.executed = q.executed();
    } else if (checksum != out.checksum || q.executed() != out.executed) {
      std::cerr << "DETERMINISM VIOLATION: kernel arm diverged across reps\n";
      std::exit(1);
    }
    if (r == 0 || ms < out.wall_ms) {
      out.wall_ms = ms;
      out.stats = q.stats();
    }
    publish_stats(q);
  }
  out.eps = out.wall_ms > 0
                ? static_cast<double>(out.executed) / (out.wall_ms / 1000.0)
                : 0;
  return out;
}

// --------------------------------------------------------------------------
// Arm 2: fleet pull scenario.
// --------------------------------------------------------------------------

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
  sim::EventQueueStats stats;

  bool same_simulation(const FleetResult& o) const {
    return completions == o.completions && throttled == o.throttled &&
           quota_rejections == o.quota_rejections &&
           proxy_hits == o.proxy_hits &&
           upstream_fetches == o.upstream_fetches &&
           executed == o.executed && checksum == o.checksum &&
           makespan == o.makespan;
  }
};

template <class Queue>
FleetResult run_fleet(const FleetParams& p) {
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

  Queue events;
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
  out.stats = events.stats();
  publish_stats(events);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  int reps = 3;
  std::string json_path;
  double min_ratio = 5.0;
  double min_eps = 1e6;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
      reps = 1;
    } else if (std::strcmp(argv[i], "--reps") == 0 && i + 1 < argc) {
      reps = std::max(1, std::atoi(argv[++i]));
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--min-ratio") == 0 && i + 1 < argc) {
      min_ratio = std::atof(argv[++i]);
    } else if (std::strcmp(argv[i], "--min-eps") == 0 && i + 1 < argc) {
      min_eps = std::atof(argv[++i]);
    } else {
      std::cerr << "usage: bench_fleet [--quick] [--reps N] [--json PATH] "
                   "[--min-ratio X] [--min-eps X]\n";
      return 2;
    }
  }

  LogSink::instance().set_print(false);
  bench::configure_obs("", /*want_metrics=*/!json_path.empty());

  // ----- arm 1: kernel
  // The heap's cost is O(log pending) comparisons over a cache-hostile
  // array; the calendar's is O(1) bucket appends. The gate therefore
  // needs fleet-scale occupancy to show the separation — a million
  // in-flight tick chains keeps ~1M events pending throughout.
  const std::uint32_t k_nodes = quick ? (1u << 21) : (1u << 22);
  const std::uint32_t k_ticks = 3;
  std::printf("kernel arm: %u nodes x %u ticks (~%.1fM events)\n", k_nodes,
              k_ticks + 1,
              static_cast<double>(k_nodes) * (k_ticks + 1) / 1e6);
  const KernelResult heap =
      run_kernel<sim::HeapEventQueue>(k_nodes, k_ticks, reps);
  const KernelResult cal = run_kernel<sim::EventQueue>(k_nodes, k_ticks, reps);
  if (cal.checksum != heap.checksum || cal.executed != heap.executed) {
    std::cerr << "PARITY VIOLATION: kernel arm execution order diverged "
                 "between calendar and heap\n";
    return 1;
  }
  const double ratio = heap.eps > 0 ? cal.eps / heap.eps : 0;
  std::printf("%-10s %12s %14s %12s\n", "kernel", "wall_ms", "events/sec",
              "peak_pend");
  std::printf("%-10s %12.2f %14.0f %12zu\n", "heap", heap.wall_ms, heap.eps,
              heap.stats.peak_pending);
  std::printf("%-10s %12.2f %14.0f %12zu\n", "calendar", cal.wall_ms, cal.eps,
              cal.stats.peak_pending);
  std::printf("calendar/heap: %.2fx (gate >= %.1fx); order byte-identical\n",
              ratio, min_ratio);

  // ----- arm 2: fleet scenario, both kernels, byte-identical results
  FleetParams fp;
  fp.nodes = quick ? 1024 : 4096;
  std::printf("\nfleet arm: %u nodes, %u proxies, %d x %.0f KiB layers\n",
              fp.nodes, fp.proxies, fp.layers,
              static_cast<double>(fp.layer_bytes) / 1024.0);
  const FleetResult fleet_cal = run_fleet<sim::EventQueue>(fp);
  const FleetResult fleet_heap = run_fleet<sim::HeapEventQueue>(fp);
  if (!fleet_cal.same_simulation(fleet_heap)) {
    std::cerr << "PARITY VIOLATION: fleet scenario diverged between "
                 "calendar and heap kernels\n";
    return 1;
  }
  std::printf("completions=%llu/%u throttled=%llu quota_rejections=%llu\n",
              static_cast<unsigned long long>(fleet_cal.completions),
              fp.nodes,
              static_cast<unsigned long long>(fleet_cal.throttled),
              static_cast<unsigned long long>(fleet_cal.quota_rejections));
  std::printf("proxy_hits=%llu upstream_fetches=%llu makespan=%lld us\n",
              static_cast<unsigned long long>(fleet_cal.proxy_hits),
              static_cast<unsigned long long>(fleet_cal.upstream_fetches),
              static_cast<long long>(fleet_cal.makespan));
  std::printf("events=%llu calendar %.2f ms, heap %.2f ms\n",
              static_cast<unsigned long long>(fleet_cal.executed),
              fleet_cal.wall_ms, fleet_heap.wall_ms);

  // ----- gates
  bool ok = true;
  auto gate = [&ok](bool cond, const char* what) {
    if (!cond) {
      std::cerr << "GATE FAILED: " << what << "\n";
      ok = false;
    }
  };
  gate(ratio >= min_ratio, "calendar/heap events-per-second ratio");
  gate(cal.eps >= min_eps, "calendar events-per-second floor");
  gate(fleet_cal.completions == fp.nodes, "every node completed its pull");
  gate(fleet_cal.throttled > 0, "origin rate limiter engaged");
  gate(fleet_cal.quota_rejections > 0, "project quota engaged");

  if (!json_path.empty()) {
    bench::JsonWriter js;
    js.field("bench", "fleet").field("quick", quick).field("reps", reps);
    js.begin_object("kernel")
        .field("nodes", k_nodes)
        .field("ticks", k_ticks + 1)
        .field("executed", cal.executed)
        .field("heap_wall_ms", heap.wall_ms)
        .field("heap_eps", heap.eps)
        .field("calendar_wall_ms", cal.wall_ms)
        .field("calendar_eps", cal.eps)
        .field("speedup", ratio)
        .field("min_ratio", min_ratio)
        .field("min_eps", min_eps)
        .field("peak_pending", cal.stats.peak_pending)
        .field("bucket_refills", cal.stats.bucket_refills)
        .field("overflow_parked", cal.stats.overflow_parked)
        .field("arena_blocks", cal.stats.arena_blocks)
        .field("order_parity", cal.checksum == heap.checksum)
        .end();
    js.begin_object("fleet")
        .field("nodes", fp.nodes)
        .field("proxies", fp.proxies)
        .field("layers", fp.layers)
        .field("layer_bytes", fp.layer_bytes)
        .field("completions", fleet_cal.completions)
        .field("throttled", fleet_cal.throttled)
        .field("quota_rejections", fleet_cal.quota_rejections)
        .field("proxy_hits", fleet_cal.proxy_hits)
        .field("upstream_fetches", fleet_cal.upstream_fetches)
        .field("makespan_us", fleet_cal.makespan)
        .field("executed", fleet_cal.executed)
        .field("calendar_wall_ms", fleet_cal.wall_ms)
        .field("heap_wall_ms", fleet_heap.wall_ms)
        .field("checksum", fleet_cal.checksum)
        .field("parity", true)
        .end();
    js.field("gates_passed", ok);
    js.raw("metrics", obs::metrics().snapshot().to_json(2));
    js.write_file(json_path);
  }
  bench::export_obs();
  return ok ? 0 : 1;
}
