// Tests for the execution layer (DESIGN.md §7): ThreadPool semantics,
// concurrent BlobStore exactness under racing puts/gets, and the
// determinism contract of the parallel pull/convert/unpack pipeline —
// parallel results must be byte-identical to sequential ones (same
// digests, same dedup counters, same simulated times).
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "image/build.h"
#include "image/convert.h"
#include "registry/client.h"
#include "registry/lazy.h"
#include "registry/registry.h"
#include "sim/storage.h"
#include "storage/cache_hierarchy.h"
#include "storage/tiers.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "util/work_deque.h"
#include "vfs/squash_image.h"

namespace hpcc {
namespace {

using image::BlobStore;
using util::ThreadPool;

// ------------------------------------------------------------ ThreadPool

TEST(ThreadPoolTest, SubmitReturnsFutureValues) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  auto a = pool.submit([] { return 6 * 7; });
  auto b = pool.submit([] { return std::string("layer"); });
  EXPECT_EQ(a.get(), 42);
  EXPECT_EQ(b.get(), "layer");
}

TEST(ThreadPoolTest, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  constexpr std::size_t kN = 10000;
  std::vector<std::atomic<int>> hits(kN);
  pool.parallel_for(kN, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(ThreadPoolTest, MapPreservesIndexOrder) {
  ThreadPool pool(3);
  const auto out = pool.map<std::size_t>(257, [](std::size_t i) { return i * i; });
  ASSERT_EQ(out.size(), 257u);
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], i * i);
}

TEST(ThreadPoolTest, BoundedQueueAppliesBackpressureWithoutLoss) {
  // Queue of 2 with many more submissions than capacity: submit() must
  // block rather than drop, and every task must run.
  ThreadPool pool(2, /*queue_capacity=*/2);
  std::atomic<int> ran{0};
  std::vector<std::future<void>> futs;
  futs.reserve(64);
  for (int i = 0; i < 64; ++i)
    futs.push_back(pool.submit([&ran] { ran.fetch_add(1); }));
  for (auto& f : futs) f.get();
  EXPECT_EQ(ran.load(), 64);
}

TEST(ThreadPoolTest, NestedParallelForOnWorkerRunsInline) {
  // A task running on a pool worker may itself call parallel_for; it
  // must degrade to inline execution instead of deadlocking on the
  // bounded queue.
  ThreadPool pool(2, /*queue_capacity=*/2);
  auto fut = pool.submit([&pool] {
    std::atomic<int> inner{0};
    pool.parallel_for(100, [&inner](std::size_t) { inner.fetch_add(1); });
    return inner.load();
  });
  EXPECT_EQ(fut.get(), 100);
}

TEST(ThreadPoolTest, FreeParallelForRunsInlineWithoutPool) {
  std::vector<int> hits(100, 0);
  util::parallel_for(nullptr, hits.size(), [&](std::size_t i) { hits[i] = 1; });
  for (int h : hits) EXPECT_EQ(h, 1);
}

// ------------------------------------------ work-stealing scheduler

// Skewed per-item cost: item 0 carries ~64x the work of its siblings,
// so a static partition leaves one participant grinding while the rest
// idle — the shape stealing redistributes.
std::uint64_t skewed_item(std::size_t i) {
  std::uint64_t h = 1469598103934665603ull ^ i;
  const std::size_t rounds = i == 0 ? 64 * 512 : 512;
  for (std::size_t r = 0; r < rounds; ++r) {
    h ^= r;
    h *= 1099511628211ull;
  }
  return h;
}

std::vector<std::uint64_t> run_skewed(unsigned threads) {
  constexpr std::size_t kN = 1024;
  std::vector<std::uint64_t> out(kN);
  std::unique_ptr<ThreadPool> pool;
  if (threads > 0) pool = std::make_unique<ThreadPool>(threads);
  util::parallel_for(pool.get(), kN,
                     [&](std::size_t i) { out[i] = skewed_item(i); });
  return out;
}

TEST(ThreadPoolStealTest, SkewedCostsAreByteIdenticalAcrossThreadCounts) {
  const auto reference = run_skewed(0);
  for (unsigned threads : {1u, 2u, 4u, 8u}) {
    EXPECT_EQ(run_skewed(threads), reference)
        << "stealing scheduler diverged at " << threads << " threads";
  }
}

TEST(ThreadPoolStealTest, SkewForcesSteals) {
  // The caller (participant 0) is seeded with the partition holding the
  // giant item 0; while it grinds that first chunk, the workers drain
  // their own partitions and — since deque 0 still holds ranges — must
  // steal before their victim scan can come up empty. So at least one
  // steal is guaranteed, not just likely.
  ThreadPool pool(4);
  constexpr std::size_t kN = 1024;
  std::vector<std::uint64_t> out(kN);
  pool.parallel_for(kN, [&](std::size_t i) {
    std::uint64_t h = 1469598103934665603ull ^ i;
    const std::size_t rounds = i == 0 ? 512u * 4096u : 64u;
    for (std::size_t r = 0; r < rounds; ++r) {
      h ^= r;
      h *= 1099511628211ull;
    }
    out[i] = h;
  });
  const auto stats = pool.steal_stats();
  EXPECT_GT(stats.steals, 0u);
  EXPECT_GT(stats.chunks, 0u);
  // Busy accounting covers workers + caller, and someone was busy.
  ASSERT_EQ(stats.busy_ns.size(), pool.size() + 1u);
  std::uint64_t total_busy = 0;
  for (const auto ns : stats.busy_ns) total_busy += ns;
  EXPECT_GT(total_busy, 0u);
}

TEST(ThreadPoolStealTest, StealStatsResetClearsCounters) {
  ThreadPool pool(2);
  pool.parallel_for(512, [](std::size_t) {});
  pool.reset_steal_stats();
  const auto stats = pool.steal_stats();
  EXPECT_EQ(stats.steals, 0u);
  EXPECT_EQ(stats.chunks, 0u);
  for (const auto ns : stats.busy_ns) EXPECT_EQ(ns, 0u);
}

TEST(ThreadPoolStealTest, GrainDerivesFromSizeAndParticipants) {
  // n / (participants * 8), clamped to [1, 4096].
  EXPECT_EQ(ThreadPool::grain_for(1024, 4), 1024u / 32u);
  EXPECT_EQ(ThreadPool::grain_for(7, 8), 1u);          // below → clamp up
  EXPECT_EQ(ThreadPool::grain_for(1 << 22, 2), 4096u); // above → clamp down
}

TEST(ThreadPoolStealTest, RangeDequeOwnerPopsAndThievesSplit) {
  util::RangeDeque dq;
  dq.push(util::IndexRange{0, 100});
  util::IndexRange r;
  ASSERT_TRUE(dq.pop(10, &r));  // owner carves grain off the bottom
  EXPECT_EQ(r.begin, 0u);
  EXPECT_EQ(r.end, 10u);
  ASSERT_TRUE(dq.steal(&r));  // thief takes the upper half of the rest
  EXPECT_EQ(r.begin, 10u + (100u - 10u) / 2u);
  EXPECT_EQ(r.end, 100u);
  // Drain; every index is handed out exactly once across pop/steal.
  std::vector<int> seen(100, 0);
  for (std::size_t i = r.begin; i < r.end; ++i) seen[i]++;
  for (std::size_t i = 0; i < 10; ++i) seen[i]++;
  while (dq.pop(7, &r))
    for (std::size_t i = r.begin; i < r.end; ++i) seen[i]++;
  for (std::size_t i = 0; i < 100; ++i) EXPECT_EQ(seen[i], 1) << i;
  EXPECT_FALSE(dq.steal(&r));  // empty for thieves too
}

TEST(ConcurrentBlobStoreTest, FlatMachineNeverCountsRemoteHits) {
  // One flat shard set: every store splits the digest space 16 ways.
  EXPECT_EQ(BlobStore::kNumShards, 16u);
  BlobStore store;
  EXPECT_EQ(store.num_shards(), 16u);
}

// -------------------------------------------------- concurrent BlobStore

Bytes blob_of(std::size_t id, std::size_t size) {
  Bytes b(size);
  for (std::size_t i = 0; i < size; ++i)
    b[i] = static_cast<std::uint8_t>((id * 131 + i * 7) & 0xff);
  return b;
}

TEST(ConcurrentBlobStoreTest, RacingPutsKeepCountersExact) {
  constexpr std::size_t kUnique = 24;
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kBlobSize = 4096;

  BlobStore store;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&store, t] {
      // Each thread puts every blob, starting at a different offset so
      // identical digests collide at different moments.
      for (std::size_t k = 0; k < kUnique; ++k) {
        const std::size_t id = (k + t * 3) % kUnique;
        store.put(blob_of(id, kBlobSize));
      }
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_EQ(store.num_blobs(), kUnique);
  EXPECT_EQ(store.stored_bytes(), kUnique * kBlobSize);
  EXPECT_EQ(store.logical_bytes(), kThreads * kUnique * kBlobSize);
  EXPECT_EQ(store.dedup_hits(), (kThreads - 1) * kUnique);
}

TEST(ConcurrentBlobStoreTest, RacingPutVerifiedAndGetOnOverlappingDigests) {
  constexpr std::size_t kUnique = 16;
  constexpr std::size_t kThreads = 6;
  constexpr std::size_t kBlobSize = 2048;

  // Precompute digests (and seed half the store) before racing.
  std::vector<Bytes> blobs;
  std::vector<crypto::Digest> digests;
  for (std::size_t id = 0; id < kUnique; ++id) {
    blobs.push_back(blob_of(id, kBlobSize));
    digests.push_back(crypto::Digest::of(blobs.back()));
  }
  BlobStore store;
  for (std::size_t id = 0; id < kUnique / 2; ++id) store.put(blobs[id]);

  std::atomic<int> verify_failures{0};
  std::atomic<int> get_hits{0};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t id = 0; id < kUnique; ++id) {
        if (t % 2 == 0) {
          // Writers: verified puts, including one deliberate mismatch.
          auto r = store.put_verified(blobs[id], digests[(id + 1) % kUnique]);
          if (!r.ok()) verify_failures.fetch_add(1);
          auto ok = store.put_verified(blobs[id], digests[id]);
          EXPECT_TRUE(ok.ok());
        } else {
          // Readers: gets race the inserts; a hit must return intact
          // bytes.
          auto got = store.get(digests[id]);
          if (got.ok()) {
            get_hits.fetch_add(1);
            EXPECT_EQ(got.value()->size(), kBlobSize);
          }
        }
      }
    });
  }
  for (auto& th : threads) th.join();

  // Every wrong-digest put failed without storing anything.
  EXPECT_EQ(verify_failures.load(), (kThreads / 2) * static_cast<int>(kUnique));
  EXPECT_GT(get_hits.load(), 0);
  EXPECT_EQ(store.num_blobs(), kUnique);
  EXPECT_EQ(store.stored_bytes(), kUnique * kBlobSize);
  // logical/dedup reflect only successful puts: the seed pass plus each
  // writer thread's one good put per blob.
  const std::uint64_t good_puts =
      kUnique / 2 + (kThreads / 2) * kUnique;
  EXPECT_EQ(store.logical_bytes(), good_puts * kBlobSize);
  EXPECT_EQ(store.dedup_hits(), good_puts - kUnique);
}

TEST(ConcurrentBlobStoreTest, PutManyMatchesSequentialDigests) {
  std::vector<Bytes> blobs;
  for (std::size_t id = 0; id < 12; ++id) blobs.push_back(blob_of(id, 1024));
  blobs.push_back(blob_of(0, 1024));  // duplicate content

  BlobStore seq_store;
  std::vector<crypto::Digest> want;
  for (const auto& b : blobs) want.push_back(crypto::Digest::of(b));

  ThreadPool pool(4);
  BlobStore store;
  const auto got = store.put_many(std::move(blobs), &pool);
  EXPECT_EQ(got, want);
  EXPECT_EQ(store.num_blobs(), 12u);
  EXPECT_EQ(store.dedup_hits(), 1u);
}

// ------------------------------------------- parallel pipeline determinism

class PipelineFixture : public ::testing::Test {
 protected:
  PipelineFixture() : net(4), reg("registry.site") {
    EXPECT_TRUE(reg.create_project("apps", "builder").ok());
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
    auto pushed = pusher.push(0, reg, "builder", ref, built.config, layers);
    EXPECT_TRUE(pushed.ok());
  }

  sim::Network net;
  registry::OciRegistry reg;
  image::ImageReference ref;
  std::vector<vfs::Layer> layers;
};

TEST_F(PipelineFixture, ParallelPullIsByteIdenticalToSequential) {
  ThreadPool pool(4);

  // Each run gets a pristine copy of the (stateful) registry and
  // network, so queueing stations start identically and any time drift
  // could only come from the execution layer.
  registry::OciRegistry seq_reg = reg;
  sim::Network seq_net = net;
  BlobStore seq_local;
  registry::RegistryClient seq_client(&seq_net, 1);
  const auto seq = seq_client.pull(0, seq_reg, ref, &seq_local);
  ASSERT_TRUE(seq.ok()) << seq.error().to_string();

  registry::OciRegistry par_reg = reg;
  sim::Network par_net = net;
  BlobStore par_local;
  registry::RegistryClient par_client(&par_net, 1, &pool);
  const auto par = par_client.pull(0, par_reg, ref, &par_local);
  ASSERT_TRUE(par.ok()) << par.error().to_string();

  // Simulated time and transfer accounting must not drift.
  EXPECT_EQ(par.value().done, seq.value().done);
  EXPECT_EQ(par.value().bytes_transferred, seq.value().bytes_transferred);
  EXPECT_EQ(par.value().layers_skipped, seq.value().layers_skipped);

  // Layer identity, in manifest order.
  ASSERT_EQ(par.value().layers.size(), seq.value().layers.size());
  const auto seq_digests = image::digest_layers(seq.value().layers);
  const auto par_digests = image::digest_layers(par.value().layers, &pool);
  EXPECT_EQ(par_digests, seq_digests);

  // CAS state: same blobs, same exact counters.
  EXPECT_EQ(par_local.num_blobs(), seq_local.num_blobs());
  EXPECT_EQ(par_local.stored_bytes(), seq_local.stored_bytes());
  EXPECT_EQ(par_local.logical_bytes(), seq_local.logical_bytes());
  EXPECT_EQ(par_local.dedup_hits(), seq_local.dedup_hits());
}

TEST_F(PipelineFixture, ParallelSecondPullSkipsCachedLayers) {
  ThreadPool pool(4);
  BlobStore local;
  registry::RegistryClient client(&net, 1, &pool);
  const auto first = client.pull(0, reg, ref, &local);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first.value().layers_skipped, 0u);
  const auto second = client.pull(first.value().done, reg, ref, &local);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second.value().layers_skipped, layers.size());
  const auto first_digests = image::digest_layers(first.value().layers);
  const auto second_digests = image::digest_layers(second.value().layers);
  EXPECT_EQ(second_digests, first_digests);
}

TEST_F(PipelineFixture, ParallelSquashBuildIsByteIdentical) {
  ThreadPool pool(4);
  const auto seq = image::layers_to_squash(layers, 16 * 1024);
  ASSERT_TRUE(seq.ok());
  const auto par = image::layers_to_squash(layers, 16 * 1024, &pool);
  ASSERT_TRUE(par.ok());
  EXPECT_EQ(par.value().blob(), seq.value().blob());
  EXPECT_EQ(par.value().digest(), seq.value().digest());
}

TEST_F(PipelineFixture, ParallelUnpackReproducesTheTree) {
  ThreadPool pool(4);
  const auto squash = image::layers_to_squash(layers, 16 * 1024, &pool);
  ASSERT_TRUE(squash.ok());

  const auto seq_fs = squash.value().unpack();
  ASSERT_TRUE(seq_fs.ok());
  const auto par_fs = squash.value().unpack(&pool);
  ASSERT_TRUE(par_fs.ok());

  // Identical trees serialize to identical single-layer archives.
  EXPECT_EQ(vfs::Layer::from_fs(par_fs.value()).digest(),
            vfs::Layer::from_fs(seq_fs.value()).digest());
  // Parallel unpack decompressed each block exactly once.
  EXPECT_EQ(squash.value().blocks_decompressed(),
            2 * squash.value().num_blocks());
}

// ------------------------------------------- prefetch determinism (§8)

TEST(ConcurrentPrefetchTest, PoolPrefetchStressIsRaceFreeAndDeterministic) {
  // Real decompression work races on pool workers while the test thread
  // keeps reading and draining; admissions happen only at drain, in FIFO
  // order, so the warmed state — and therefore every timed read — must
  // be identical with and without the pool.
  Rng rng(5);
  vfs::MemFs tree;
  (void)tree.mkdir("/d", {}, true);
  (void)tree.write_file("/d/big", image::synthetic_file_content(rng, 8 << 20));
  const auto squash = vfs::SquashImage::build(tree, 64 * 1024);

  auto run = [&](util::ThreadPool* pool) {
    sim::PageCacheConfig pcfg;
    pcfg.capacity_bytes = 1ull << 20;  // tight: drives evictions too
    sim::PageCache pc(pcfg);
    sim::SharedFilesystem fs;
    auto chain = std::make_shared<storage::CacheHierarchy>();
    chain->add_tier(storage::page_cache_tier(pc));
    chain->add_tier(storage::shared_fs_tier(fs));
    chain->set_prefetch_pool(pool);

    std::vector<SimTime> times;
    SimTime t = 0;
    for (int round = 0; round < 8; ++round) {
      for (int i = 0; i < 16; ++i) {
        const auto key = "blk:" + std::to_string((round * 7 + i) % 32);
        const std::uint64_t offset = static_cast<std::uint64_t>(i) * 65536;
        chain->prefetch({key, 64u << 10}, [&squash, offset] {
          (void)squash.read_range("/d/big", offset, 4096);
        });
      }
      chain->drain_prefetches();
      for (int i = 0; i < 8; ++i) {
        t = chain->read(t, {"blk:" + std::to_string((round + i) % 32),
                            64u << 10})
                .done;
        times.push_back(t);
      }
    }
    return times;
  };
  const auto seq = run(nullptr);
  util::ThreadPool pool(4);
  const auto par = run(&pool);
  EXPECT_EQ(seq, par);
}

TEST(ConcurrentPrefetchTest, LazyMountWithPoolIsByteIdenticalToInline) {
  // End-to-end over the lazy mount: prefetch decompression on the pool
  // must leave functional bytes AND simulated completion times exactly
  // as the poolless run produces them (DESIGN.md §7 contract).
  Rng rng(17);
  vfs::MemFs tree;
  (void)tree.mkdir("/opt/app", {}, true);
  (void)tree.write_file("/opt/app/a.bin",
                        image::synthetic_file_content(rng, 3 << 20));
  (void)tree.write_file("/opt/app/b.bin",
                        image::synthetic_file_content(rng, 6 << 20));
  const auto squash = vfs::SquashImage::build(tree, 128 * 1024);

  auto run = [&](util::ThreadPool* pool, Bytes* a, Bytes* b) {
    sim::Network net(4);
    registry::OciRegistry reg("registry.site");
    (void)reg.create_project("apps", "ci");
    EXPECT_TRUE(registry::publish_lazy(reg, "ci", "apps", squash).ok());
    sim::PageCache pc;
    registry::LazyMountConfig cfg;
    cfg.registry = &reg;
    cfg.network = &net;
    cfg.node = 1;
    cfg.cache = storage::page_cache_tier(pc);
    cfg.prefetch_depth = 8;
    cfg.prefetch_pool = pool;
    auto mount = registry::make_lazy_rootfs(&squash, std::move(cfg)).value();
    const SimTime ta = mount->read_file(0, "/opt/app/a.bin", a).value();
    return mount->read_file(ta, "/opt/app/b.bin", b).value();
  };

  Bytes a1, b1, a2, b2;
  const SimTime t1 = run(nullptr, &a1, &b1);
  util::ThreadPool pool(4);
  const SimTime t2 = run(&pool, &a2, &b2);
  EXPECT_EQ(a1, a2);
  EXPECT_EQ(b1, b2);
  EXPECT_EQ(t1, t2);
}

}  // namespace
}  // namespace hpcc
