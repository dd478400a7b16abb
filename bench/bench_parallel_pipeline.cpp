// bench_parallel_pipeline — sequential vs parallel pull+unpack.
//
// Measures the *wall-clock* cost of the full node-side image pipeline —
// registry pull (fetch + SHA-256 verify + layer decode + CAS insert),
// conversion to a squash image (flatten + per-block LZSS), and unpack
// (per-block decompression) — at 1/2/4/8 threads over a multi-layer
// image family, and checks the determinism contract: every thread count
// must produce byte-identical outputs (same squash digest, same layer
// digests, same CAS counters) and identical *simulated* time. One
// untimed sequential pass warms the process up first and serves as
// the byte-identity reference.
//
// A second section races the pool's work-stealing parallel_for
// (DESIGN.md §12) against a shared-index baseline on a skewed layer
// family — one layer 64× the size of its siblings, decomposed into
// per-block digest items, so one participant's static partition holds
// almost all the work. Work stealing redistributes it (steal count and
// per-worker busy fractions land in the JSON); the shared-index loop
// pays a per-iteration atomic + dispatch instead. Both must match the
// sequential checksum bit-for-bit.
//
// Unlike the google-benchmark binaries (one per paper artifact), this is
// a plain driver so it can emit the machine-readable summary CI tracks:
//
//   bench_parallel_pipeline [--quick] [--reps N]
//                           [--json PATH]   # write BENCH_parallel_pipeline.json
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <exception>
#include <functional>
#include <future>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "image/build.h"
#include "image/convert.h"
#include "registry/client.h"
#include "registry/registry.h"
#include "util/log.h"
#include "util/thread_pool.h"

namespace {

using namespace hpcc;

struct Workload {
  registry::OciRegistry reg{"registry.site"};
  sim::Network net{4};
  image::ImageReference ref;
  std::size_t num_layers = 0;
  std::uint64_t logical_bytes = 0;
};

std::unique_ptr<Workload> make_workload(bool quick) {
  auto w = std::make_unique<Workload>();
  (void)w->reg.create_project("apps", "builder");

  // A realistic image family: an OS base plus several independent
  // application/data/library layers — the per-layer work a parallel
  // pull overlaps.
  const std::uint64_t base_payload = quick ? (2ull << 20) : (12ull << 20);
  const int per_layer_files = quick ? 8 : 24;
  const std::uint64_t per_file = quick ? 48 * 1024 : 128 * 1024;

  image::ImageConfig base_cfg;
  const auto base =
      image::synthetic_base_os("hpccos", 7, 8, base_payload, &base_cfg);
  std::string containerfile = "FROM base\n";
  for (int i = 0; i < 6; ++i) {
    containerfile += "RUN install app" + std::to_string(i) + " " +
                     std::to_string(per_layer_files) + " " +
                     std::to_string(per_file) + "\n";
  }
  image::ImageBuilder builder(8);
  auto built =
      builder
          .build(image::BuildSpec::parse_containerfile(containerfile).value(),
                 base, base_cfg)
          .value();

  std::vector<vfs::Layer> layers;
  layers.push_back(vfs::Layer::from_fs(base));
  for (auto& l : built.layers) layers.push_back(std::move(l));
  w->num_layers = layers.size();
  for (const auto& l : layers) w->logical_bytes += l.content_bytes();

  registry::RegistryClient pusher(&w->net, 0);
  w->ref = image::ImageReference::parse("registry.site/apps/app:v1").value();
  auto pushed = pusher.push(0, w->reg, "builder", w->ref, built.config, layers);
  if (!pushed.ok()) {
    std::cerr << "push failed: " << pushed.error().to_string() << "\n";
    std::exit(1);
  }
  return w;
}

struct RunOutput {
  double wall_ms = 0;
  SimTime sim_done = 0;
  crypto::Digest squash_digest;
  std::string layer_digests;  // concatenated, for identity comparison
  std::uint64_t cas_stored = 0;
  std::uint64_t cas_dedup = 0;
};

/// One full pipeline run: pull into a fresh CAS, convert to squash,
/// unpack. `threads == 0` means the pure sequential path (no pool).
RunOutput run_pipeline(Workload& w, unsigned threads) {
  std::unique_ptr<util::ThreadPool> pool;
  if (threads > 0) pool = std::make_unique<util::ThreadPool>(threads);

  // Pristine copies per run: the registry and network are stateful
  // queueing models, and every run must start cold for simulated times
  // to be comparable.
  registry::OciRegistry reg = w.reg;
  sim::Network net = w.net;
  image::BlobStore local;
  registry::RegistryClient client(&net, 1, pool.get());

  const auto t0 = std::chrono::steady_clock::now();
  auto pulled = client.pull(0, reg, w.ref, &local);
  if (!pulled.ok()) {
    std::cerr << "pull failed: " << pulled.error().to_string() << "\n";
    std::exit(1);
  }
  auto squash = image::layers_to_squash(pulled.value().layers,
                                        vfs::SquashImage::kDefaultBlockSize,
                                        pool.get());
  if (!squash.ok()) {
    std::cerr << "convert failed: " << squash.error().to_string() << "\n";
    std::exit(1);
  }
  auto unpacked = squash.value().unpack(pool.get());
  if (!unpacked.ok()) {
    std::cerr << "unpack failed: " << unpacked.error().to_string() << "\n";
    std::exit(1);
  }
  const auto t1 = std::chrono::steady_clock::now();

  RunOutput out;
  out.wall_ms =
      std::chrono::duration_cast<std::chrono::duration<double, std::milli>>(
          t1 - t0)
          .count();
  out.sim_done = pulled.value().done;
  out.squash_digest = squash.value().digest();
  for (const auto& d :
       image::digest_layers(pulled.value().layers, pool.get()))
    out.layer_digests += d.hex();
  out.cas_stored = local.stored_bytes();
  out.cas_dedup = local.dedup_hits();
  return out;
}

// --------------------------------------------------------------------------
// Skewed scheduler race: stealing vs shared-index on one 64× layer.
// --------------------------------------------------------------------------

/// The shared-index baseline: the caller and every pool worker race on
/// one atomic index, one fetch_add per iteration. The index lives on the
/// heap, off the cache lines of the caller's hot stack locals.
void shared_index_for(util::ThreadPool& pool, std::size_t n,
                      const std::function<void(std::size_t)>& fn) {
  auto next = std::make_shared<std::atomic<std::size_t>>(0);
  auto run = [next, n, &fn] {
    for (;;) {
      const std::size_t i = next->fetch_add(1, std::memory_order_relaxed);
      if (i >= n) break;
      fn(i);
    }
  };
  const std::size_t helpers = std::min<std::size_t>(pool.size(), n);
  std::vector<std::future<void>> futs;
  futs.reserve(helpers);
  for (std::size_t i = 0; i < helpers; ++i) futs.push_back(pool.submit(run));
  std::exception_ptr error;
  try {
    run();
  } catch (...) {
    error = std::current_exception();
  }
  for (auto& f : futs) f.wait();  // the helpers hold `fn` by reference
  if (error) std::rethrow_exception(error);
  for (auto& f : futs) f.get();
}

std::uint64_t fnv1a(const std::uint8_t* p, std::size_t n, std::uint64_t h) {
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

struct SkewedWorkload {
  // Per-block byte payloads: blocks of the one 64× layer first (each
  // block itself 64× a small-layer block), then the small layers'.
  std::vector<std::vector<std::uint8_t>> blocks;
  std::uint64_t total_bytes = 0;
};

SkewedWorkload make_skewed(bool quick) {
  SkewedWorkload w;
  // Blocks are deliberately tiny and numerous: the race below measures
  // scheduler dispatch overhead (one locked fetch_add per *iteration*
  // for shared-index vs one deque pop per grain-sized *chunk* for
  // stealing), so the per-item work has to be small enough that the
  // dispatch cost is a visible fraction of it.
  const std::size_t small_block = 16;
  const std::size_t big_block = small_block * 64;
  const std::size_t n_small = quick ? 24576 : 98304;
  const std::size_t n_big = quick ? 24 : 96;
  w.blocks.reserve(n_big + n_small);
  std::uint64_t x = 0x9e3779b97f4a7c15ull;
  auto fill = [&x](std::vector<std::uint8_t>& b) {
    for (auto& byte : b) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      byte = static_cast<std::uint8_t>(x);
    }
  };
  // The big layer's blocks sit at the front of the index space, so a
  // static partition hands nearly all the bytes to participant 0 and
  // the rest of the pool has nothing — exactly the shape stealing
  // exists for.
  for (std::size_t i = 0; i < n_big; ++i) {
    w.blocks.emplace_back(big_block);
    fill(w.blocks.back());
  }
  for (std::size_t i = 0; i < n_small; ++i) {
    w.blocks.emplace_back(small_block);
    fill(w.blocks.back());
  }
  for (const auto& b : w.blocks) w.total_bytes += b.size();
  return w;
}

struct SkewedResult {
  double wall_ms = 0;
  std::uint64_t checksum = 0;
  std::uint64_t steals = 0;
  std::uint64_t chunks = 0;
  std::vector<double> busy_frac;  // per participant (workers + caller)
};

/// Digests every block and folds the per-block digests in index order,
/// so the checksum is a pure function of the bytes — either scheduler (or
/// no pool at all, threads == 0) must produce the same value.
SkewedResult run_skewed(const SkewedWorkload& w, unsigned threads,
                        bool shared_index, int reps) {
  std::unique_ptr<util::ThreadPool> pool;
  if (threads > 0) pool = std::make_unique<util::ThreadPool>(threads);

  const std::size_t n = w.blocks.size();
  std::vector<std::uint64_t> per_block(n);
  const std::function<void(std::size_t)> digest_block = [&](std::size_t i) {
    per_block[i] =
        fnv1a(w.blocks[i].data(), w.blocks[i].size(), 1469598103934665603ull);
  };
  SkewedResult out;
  for (int r = 0; r < reps; ++r) {
    if (pool) pool->reset_steal_stats();
    const auto t0 = std::chrono::steady_clock::now();
    if (shared_index && pool) {
      shared_index_for(*pool, n, digest_block);
    } else {
      util::parallel_for(pool.get(), n, digest_block);
    }
    const auto t1 = std::chrono::steady_clock::now();
    const double ms =
        std::chrono::duration_cast<std::chrono::duration<double, std::milli>>(
            t1 - t0)
            .count();
    std::uint64_t sum = 1469598103934665603ull;
    for (std::size_t i = 0; i < n; ++i)
      sum = fnv1a(reinterpret_cast<const std::uint8_t*>(&per_block[i]),
                  sizeof(per_block[i]), sum);
    if (r == 0) {
      out.checksum = sum;
    } else if (sum != out.checksum) {
      std::cerr << "DETERMINISM VIOLATION in skewed workload\n";
      std::exit(1);
    }
    if (r == 0 || ms < out.wall_ms) {
      out.wall_ms = ms;
      if (pool) {
        const auto stats = pool->steal_stats();
        out.steals = stats.steals;
        out.chunks = stats.chunks;
        out.busy_frac.clear();
        const double wall_ns = ms * 1e6;
        for (const auto ns : stats.busy_ns)
          out.busy_frac.push_back(
              wall_ns > 0 ? static_cast<double>(ns) / wall_ns : 0.0);
      }
    }
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  int reps = 3;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
      reps = 1;
    } else if (std::strcmp(argv[i], "--reps") == 0 && i + 1 < argc) {
      reps = std::max(1, std::atoi(argv[++i]));
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      std::cerr << "usage: bench_parallel_pipeline [--quick] [--reps N] "
                   "[--json PATH]\n";
      return 2;
    }
  }

  LogSink::instance().set_print(false);
  auto workload = make_workload(quick);
  const unsigned hardware_threads = std::thread::hardware_concurrency();
  std::printf("workload: %zu layers, %.1f MiB logical, hardware threads: %u\n",
              workload->num_layers,
              static_cast<double>(workload->logical_bytes) / (1 << 20),
              hardware_threads);

  // Untimed warm-up, so the first timed arm does not absorb cold start.
  const RunOutput reference = run_pipeline(*workload, 0);
  const std::vector<unsigned> configs = {0, 1, 2, 4, 8};
  std::vector<double> best_ms(configs.size());
  for (std::size_t c = 0; c < configs.size(); ++c) {
    double best = 0;
    for (int r = 0; r < reps; ++r) {
      RunOutput out = run_pipeline(*workload, configs[c]);
      // Determinism contract: byte-identical outputs at every thread
      // count, and simulated time never drifts with wall-clock
      // parallelism.
      if (out.squash_digest != reference.squash_digest ||
          out.layer_digests != reference.layer_digests ||
          out.sim_done != reference.sim_done ||
          out.cas_stored != reference.cas_stored ||
          out.cas_dedup != reference.cas_dedup) {
        std::cerr << "DETERMINISM VIOLATION at threads=" << configs[c] << "\n";
        return 1;
      }
      if (r == 0 || out.wall_ms < best) best = out.wall_ms;
    }
    best_ms[c] = best;
  }

  const double base_ms = best_ms[0];
  std::printf("%-12s %12s %10s\n", "threads", "wall_ms", "speedup");
  for (std::size_t c = 0; c < configs.size(); ++c) {
    const std::string label =
        configs[c] == 0 ? "sequential" : std::to_string(configs[c]);
    std::printf("%-12s %12.2f %9.2fx\n", label.c_str(), best_ms[c],
                base_ms / best_ms[c]);
  }
  std::printf("outputs byte-identical across all configurations\n");

  // Scheduler race: stealing vs shared-index on the skewed family, 8
  // threads, sequential as the byte-identity reference.
  const auto skewed = make_skewed(quick);
  const int skew_reps = std::max(reps, 3);
  const unsigned skew_threads = 8;
  const SkewedResult seq =
      run_skewed(skewed, 0, /*shared_index=*/false, skew_reps);
  const SkewedResult steal =
      run_skewed(skewed, skew_threads, /*shared_index=*/false, skew_reps);
  const SkewedResult shared =
      run_skewed(skewed, skew_threads, /*shared_index=*/true, skew_reps);
  if (steal.checksum != seq.checksum || shared.checksum != seq.checksum) {
    std::cerr << "DETERMINISM VIOLATION: skewed scheduler outputs diverge "
                 "from sequential\n";
    return 1;
  }
  const double steal_speedup =
      steal.wall_ms > 0 ? shared.wall_ms / steal.wall_ms : 0;
  std::printf("\nskewed workload (%zu blocks, %.1f KiB, one 64x layer), "
              "%u threads:\n",
              skewed.blocks.size(),
              static_cast<double>(skewed.total_bytes) / 1024.0, skew_threads);
  std::printf("%-14s %12s %10s %10s\n", "scheduler", "wall_ms", "steals",
              "chunks");
  std::printf("%-14s %12.3f %10s %10s\n", "sequential", seq.wall_ms, "-", "-");
  std::printf("%-14s %12.3f %10llu %10llu\n", "work-stealing", steal.wall_ms,
              static_cast<unsigned long long>(steal.steals),
              static_cast<unsigned long long>(steal.chunks));
  std::printf("%-14s %12.3f %10s %10s\n", "shared-index", shared.wall_ms, "-",
              "-");
  std::printf("stealing vs shared-index: %.2fx; outputs byte-identical vs "
              "sequential\n",
              steal_speedup);

  if (!json_path.empty()) {
    bench::JsonWriter js;
    js.field("bench", "parallel_pipeline")
        .field("quick", quick)
        .field("reps", reps)
        .field("hardware_concurrency", hardware_threads)
        .field("warmup_passes", 1)
        .begin_object("workload")
        .field("layers", workload->num_layers)
        .field("logical_bytes", workload->logical_bytes)
        .end()
        .field("deterministic", true);
    js.begin_array("results");
    for (std::size_t c = 0; c < configs.size(); ++c) {
      js.begin_object()
          .field("threads", configs[c])
          .field("wall_ms", best_ms[c])
          .field("speedup", base_ms / best_ms[c])
          .end();
    }
    js.end();
    js.begin_object("skewed")
        .field("blocks", skewed.blocks.size())
        .field("total_bytes", skewed.total_bytes)
        .field("threads", skew_threads)
        .field("sequential_wall_ms", seq.wall_ms)
        .field("steal_wall_ms", steal.wall_ms)
        .field("shared_wall_ms", shared.wall_ms)
        .field("steal_speedup_vs_shared", steal_speedup)
        .field("steals", steal.steals)
        .field("chunks", steal.chunks)
        .field("deterministic", true);
    js.begin_array("busy_fraction");
    for (const double f : steal.busy_frac) js.value(f);
    js.end();
    js.end();
    js.write_file(json_path);
  }
  return 0;
}
