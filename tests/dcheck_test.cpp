// tests/dcheck_test.cpp — the hpcc::dcheck correctness-harness suite.
//
// Covers: happens-before race detection (RACE001 on unsynchronized
// write pairs, clean under a common lock or spawn/join edges),
// lock-order cycle detection (RACE002 on an inversion, clean under a
// consistent order, shard siblings collapsing into one node), the
// determinism auditor (DET001 on order-dependent output, clean on a
// §7-honoring workload), same-seed byte-identical JSON reports, the
// off-gate byte-identity of an instrumented parallel pull, and a
// zero-findings sweep over the real data path. Suites are named
// Dcheck* so the CI TSan filter picks them up.
#include "dcheck/dcheck.h"

#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "audit/dcheck_bridge.h"
#include "audit/report.h"
#include "dcheck/determinism.h"
#include "image/build.h"
#include "image/convert.h"
#include "registry/client.h"
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

// Every test starts and ends with dcheck globally off and empty, so
// suite order and ctest sharding can never leak detector state.
class DcheckEnv : public ::testing::Test {
 protected:
  void SetUp() override { dcheck::reset(); }
  void TearDown() override { dcheck::reset(); }

  static void enable(bool perturb = false, std::uint64_t seed = 42) {
    dcheck::Config cfg;
    cfg.enabled = true;
    cfg.perturb = perturb;
    cfg.seed = seed;
    dcheck::configure(cfg);
  }
};

// ------------------------------------------------------- race detection

using DcheckRaceTest = DcheckEnv;

TEST_F(DcheckRaceTest, UnsynchronizedWritePairIsFlagged) {
  // The *annotations* declare an unordered write pair; the underlying
  // access is atomic so the fixture itself stays ThreadSanitizer-clean
  // under the CI TSan stage. dcheck must flag it anyway — the point of
  // the happens-before check is that no annotated edge orders the two
  // threads, whatever the hardware happened to do.
  enable();
  std::atomic<std::uint64_t> counter{0};
  auto bump = [&counter] {
    dcheck::access_write(&counter, "test.counter");
    counter.fetch_add(1, std::memory_order_relaxed);
  };
  std::thread t1(bump), t2(bump);
  t1.join();
  t2.join();

  const auto report = dcheck::report();
  ASSERT_TRUE(report.has("RACE001"));
  const auto* f = report.find("RACE001");
  EXPECT_EQ(f->object, "location 'test.counter'");
}

TEST_F(DcheckRaceTest, WriteReadPairWithoutEdgeIsFlagged) {
  enable();
  std::atomic<int> value{0};
  std::thread writer([&value] {
    dcheck::access_write(&value, "test.value");
    value.store(7, std::memory_order_relaxed);
  });
  std::thread reader([&value] {
    dcheck::access_read(&value, "test.value");
    (void)value.load(std::memory_order_relaxed);
  });
  writer.join();
  reader.join();
  EXPECT_TRUE(dcheck::report().has("RACE001"));
}

TEST_F(DcheckRaceTest, CommonLockOrdersTheAccesses) {
  enable();
  std::mutex mu;
  std::uint64_t counter = 0;
  auto bump = [&] {
    dcheck::AnnotatedLock lk(mu, "test.mu");
    dcheck::access_write(&counter, "test.counter");
    ++counter;
  };
  std::thread t1(bump), t2(bump);
  t1.join();
  t2.join();
  EXPECT_TRUE(dcheck::report().clean())
      << "lock-protected writes must not be flagged";
}

TEST_F(DcheckRaceTest, SpawnJoinEdgesOrderTaskWritesBeforeCallerReads) {
  enable();
  util::ThreadPool pool(4);
  std::vector<std::uint64_t> slots(64, 0);
  pool.parallel_for(slots.size(), [&](std::size_t i) {
    dcheck::access_write(&slots[i], "test.slot");
    slots[i] = i * i;
  });
  // The caller reads every slot after the join: parallel_for's
  // spawn/join annotations must make this clean.
  for (std::size_t i = 0; i < slots.size(); ++i) {
    dcheck::access_read(&slots[i], "test.slot");
    EXPECT_EQ(slots[i], i * i);
  }
  EXPECT_TRUE(dcheck::report().clean());
}

// ------------------------------------------- work-stealing transfer edges

using DcheckStealTest = DcheckEnv;

TEST_F(DcheckStealTest, AnnotatedDequeTransferOrdersVictimAndThief) {
  // A steal done right: the victim banks the range in its RangeDeque
  // (releasing the annotated "pool.deque" mutex), the thief takes it
  // via steal() (acquiring the same mutex). That release→acquire is
  // the happens-before edge that orders the victim's write of the
  // payload before the thief's — the detector must see it.
  enable();
  util::RangeDeque dq;
  std::atomic<std::uint64_t> payload{0};
  std::thread victim([&] {
    dcheck::access_write(&payload, "steal.payload");
    payload.store(41, std::memory_order_relaxed);
    dq.push(util::IndexRange{0, 8});
  });
  std::thread thief([&] {
    util::IndexRange r;
    while (!dq.steal(&r)) std::this_thread::yield();
    dcheck::access_write(&payload, "steal.payload");
    payload.store(42, std::memory_order_relaxed);
  });
  victim.join();
  thief.join();
  EXPECT_TRUE(dcheck::report().clean())
      << "deque-mediated steal must carry a happens-before edge";
}

TEST_F(DcheckStealTest, BrokenStealWithoutJoinEdgeIsFlagged) {
  // A deliberately broken steal: ownership is handed over through a
  // plain atomic flag instead of the annotated deque, so no annotated
  // edge joins the victim's clock into the thief's — exactly the bug a
  // hand-rolled lock-free deque with a missing fence would have. The
  // payload itself is atomic, so the fixture stays TSan-clean; dcheck
  // must flag the *annotation-level* race anyway.
  enable();
  std::atomic<bool> handoff{false};
  std::atomic<std::uint64_t> payload{0};
  std::thread victim([&] {
    dcheck::access_write(&payload, "steal.broken_payload");
    payload.store(41, std::memory_order_relaxed);
    handoff.store(true, std::memory_order_release);
  });
  std::thread thief([&] {
    while (!handoff.load(std::memory_order_acquire)) std::this_thread::yield();
    dcheck::access_write(&payload, "steal.broken_payload");
    payload.store(42, std::memory_order_relaxed);
  });
  victim.join();
  thief.join();
  const auto report = dcheck::report();
  ASSERT_TRUE(report.has("RACE001"));
  EXPECT_EQ(report.find("RACE001")->object,
            "location 'steal.broken_payload'");
}

TEST_F(DcheckStealTest, StealingSchedulerSweepIsClean) {
  // The real stealing scheduler under the checker, with a skew that
  // forces half-range steals: every slot write must be ordered before
  // the caller's read by the spawn/join + deque edges.
  enable();
  util::ThreadPool pool(4);
  std::vector<std::uint64_t> slots(256, 0);
  pool.parallel_for(slots.size(), [&](std::size_t i) {
    std::uint64_t h = i;
    const std::size_t rounds = i == 0 ? 1u << 18 : 16;
    for (std::size_t r = 0; r < rounds; ++r) h = h * 6364136223846793005ull + 1;
    dcheck::access_write(&slots[i], "steal.slot");
    slots[i] = h;
  });
  for (std::size_t i = 0; i < slots.size(); ++i)
    dcheck::access_read(&slots[i], "steal.slot");
  EXPECT_TRUE(dcheck::report().clean());
}

TEST_F(DcheckRaceTest, FindingsAreDedupedPerLocation) {
  enable();
  std::atomic<std::uint64_t> counter{0};
  auto hammer = [&counter] {
    for (int i = 0; i < 100; ++i) {
      dcheck::access_write(&counter, "test.counter");
      counter.fetch_add(1, std::memory_order_relaxed);
    }
  };
  std::thread t1(hammer), t2(hammer);
  t1.join();
  t2.join();
  const auto report = dcheck::report();
  int race001 = 0;
  for (const auto& f : report.findings)
    if (f.code == "RACE001") ++race001;
  EXPECT_EQ(race001, 1) << "one finding per (code, object), not per access";
}

// ---------------------------------------------------------- lock order

using DcheckLockOrderTest = DcheckEnv;

TEST_F(DcheckLockOrderTest, InversionIsFlaggedEvenSequentially) {
  // Raw annotations rather than real nested mutexes: the analysis pass
  // only sees the annotation stream, and a real inversion would (quite
  // rightly) trip ThreadSanitizer's own deadlock detector under the CI
  // TSan stage.
  enable();
  int a = 0, b = 0;
  dcheck::lock_acquire(&a, "test.lock_a");
  dcheck::lock_acquire(&b, "test.lock_b");
  dcheck::lock_release(&b);
  dcheck::lock_release(&a);
  dcheck::lock_acquire(&b, "test.lock_b");
  dcheck::lock_acquire(&a, "test.lock_a");
  dcheck::lock_release(&a);
  dcheck::lock_release(&b);
  const auto report = dcheck::report();
  ASSERT_TRUE(report.has("RACE002"));
  // The object names both locks in canonical (sorted) order, never the
  // acquisition order the run happened to see first.
  EXPECT_EQ(report.find("RACE002")->object,
            "locks 'test.lock_a' and 'test.lock_b'");
}

TEST_F(DcheckLockOrderTest, ConsistentOrderIsClean) {
  enable();
  std::mutex a_mu, b_mu;
  for (int i = 0; i < 3; ++i) {
    dcheck::AnnotatedLock la(a_mu, "test.lock_a");
    dcheck::AnnotatedLock lb(b_mu, "test.lock_b");
  }
  EXPECT_TRUE(dcheck::report().clean());
}

TEST_F(DcheckLockOrderTest, ShardSiblingsShareOneGraphNode) {
  // BlobStore holds shard A's mutex while never touching shard B's, but
  // two different instances under one logical name must not produce a
  // self-cycle when nested in opposite orders across runs — same-name
  // nestings are skipped entirely. (Raw annotations: see above.)
  enable();
  int shard0 = 0, shard1 = 0;
  dcheck::lock_acquire(&shard0, "test.shard");
  dcheck::lock_acquire(&shard1, "test.shard");
  dcheck::lock_release(&shard1);
  dcheck::lock_release(&shard0);
  dcheck::lock_acquire(&shard1, "test.shard");
  dcheck::lock_acquire(&shard0, "test.shard");
  dcheck::lock_release(&shard0);
  dcheck::lock_release(&shard1);
  EXPECT_TRUE(dcheck::report().clean());
}

// ----------------------------------------------------- determinism audit

using DcheckDeterminismTest = DcheckEnv;

TEST_F(DcheckDeterminismTest, OrderDependentOutputIsFlagged) {
  const auto outcome = dcheck::audit_determinism(
      "order-dependent",
      [] {
        std::string out;
        util::parallel_for(nullptr, 8, [&out](std::size_t i) {
          out += std::to_string(i) + ",";
        });
        return out;
      },
      /*seed=*/42);
  EXPECT_FALSE(outcome.deterministic);
  const auto report = dcheck::report();
  ASSERT_TRUE(report.has("DET001"));
  EXPECT_EQ(report.find("DET001")->object, "workload 'order-dependent'");
}

TEST_F(DcheckDeterminismTest, OrderFreeWorkloadIsClean) {
  const auto outcome = dcheck::audit_determinism(
      "order-free",
      [] {
        std::vector<std::uint64_t> out(16, 0);
        util::parallel_for(nullptr, out.size(),
                           [&out](std::size_t i) { out[i] = i * 31; });
        std::string s;
        for (auto v : out) s += std::to_string(v) + ",";
        return s;
      },
      /*seed=*/42);
  EXPECT_TRUE(outcome.deterministic);
  EXPECT_GE(outcome.runs, 2);
  EXPECT_TRUE(dcheck::report().clean());
}

TEST_F(DcheckDeterminismTest, RestoresPriorConfiguration) {
  enable(/*perturb=*/false, /*seed=*/7);
  (void)dcheck::audit_determinism(
      "probe", [] { return std::string("x"); }, 42);
  const auto cfg = dcheck::config();
  EXPECT_TRUE(cfg.enabled);
  EXPECT_FALSE(cfg.perturb);
  EXPECT_TRUE(dcheck::enabled());
}

// --------------------------------------------------- report determinism

using DcheckReportTest = DcheckEnv;

std::string fixture_report_json(std::uint64_t seed) {
  dcheck::reset();
  dcheck::Config cfg;
  cfg.enabled = true;
  cfg.seed = seed;
  dcheck::configure(cfg);

  std::atomic<std::uint64_t> counter{0};
  auto bump = [&counter] {
    dcheck::access_write(&counter, "fixture.counter");
    counter.fetch_add(1, std::memory_order_relaxed);
  };
  std::thread t1(bump), t2(bump);
  t1.join();
  t2.join();

  int lock_a = 0, lock_b = 0;
  dcheck::lock_acquire(&lock_a, "fixture.lock_a");
  dcheck::lock_acquire(&lock_b, "fixture.lock_b");
  dcheck::lock_release(&lock_b);
  dcheck::lock_release(&lock_a);
  dcheck::lock_acquire(&lock_b, "fixture.lock_b");
  dcheck::lock_acquire(&lock_a, "fixture.lock_a");
  dcheck::lock_release(&lock_a);
  dcheck::lock_release(&lock_b);

  (void)dcheck::audit_determinism(
      "fixture.order-dependent",
      [] {
        std::string out;
        util::parallel_for(nullptr, 8, [&out](std::size_t i) {
          out += std::to_string(i) + ",";
        });
        return out;
      },
      seed);

  const std::string json =
      audit::render_json(audit::report_from_dcheck(dcheck::report()));
  dcheck::reset();
  return json;
}

TEST_F(DcheckReportTest, SameSeedRunsRenderByteIdenticalJson) {
  const std::string first = fixture_report_json(1234);
  const std::string second = fixture_report_json(1234);
  EXPECT_EQ(first, second);
  // All three diagnostics made it through the audit bridge.
  EXPECT_NE(first.find("RACE001"), std::string::npos);
  EXPECT_NE(first.find("RACE002"), std::string::npos);
  EXPECT_NE(first.find("DET001"), std::string::npos);
}

TEST_F(DcheckReportTest, BridgeMapsEveryFindingToAnError) {
  dcheck::detail::add_finding("RACE001", "x", "m1");
  dcheck::detail::add_finding("DET001", "y", "m2");
  const auto report = audit::report_from_dcheck(dcheck::report());
  ASSERT_EQ(report.findings.size(), 2u);
  EXPECT_EQ(report.errors(), 2);
  EXPECT_FALSE(report.clean());
  for (const auto& f : report.findings) {
    EXPECT_FALSE(f.paper_ref.empty());
    EXPECT_FALSE(f.fix_hint.empty());
  }
}

// ------------------------------------------------- instrumented pull

// The registry fixture from concurrency_test: build an image, push it,
// and pull pristine copies — here with dcheck off/on around the pull.
class DcheckPullTest : public DcheckEnv {
 protected:
  DcheckPullTest() : net(4), reg("registry.site") {
    EXPECT_TRUE(reg.create_project("apps", "builder").ok());
    image::ImageConfig base_cfg;
    const auto base =
        image::synthetic_base_os("hpccos", 7, 6, 512 * 1024, &base_cfg);
    image::ImageBuilder builder(8);
    auto built = builder
                     .build(image::BuildSpec::parse_containerfile(
                                "FROM base\n"
                                "RUN install app 6 32768\n"
                                "RUN lib libmpi 4.1 2.30\n")
                                .value(),
                            base, base_cfg)
                     .value();
    layers.push_back(vfs::Layer::from_fs(base));
    for (auto& l : built.layers) layers.push_back(std::move(l));
    registry::RegistryClient pusher(&net, 0);
    ref = image::ImageReference::parse("registry.site/apps/app:v1").value();
    EXPECT_TRUE(pusher.push(0, reg, "builder", ref, built.config, layers).ok());
  }

  Result<registry::PullResult> pull_once(util::ThreadPool* pool,
                                         image::BlobStore* local) {
    registry::OciRegistry r = reg;
    sim::Network n = net;
    registry::RegistryClient client(&n, 1, pool);
    return client.pull(0, r, ref, local);
  }

  sim::Network net;
  registry::OciRegistry reg;
  image::ImageReference ref;
  std::vector<vfs::Layer> layers;
};

TEST_F(DcheckPullTest, CheckerOffIsByteIdenticalToCheckerOn) {
  util::ThreadPool pool(4);

  ASSERT_FALSE(dcheck::enabled());
  image::BlobStore off_local;
  const auto off = pull_once(&pool, &off_local);
  ASSERT_TRUE(off.ok());

  enable();
  image::BlobStore on_local;
  const auto on = pull_once(&pool, &on_local);
  ASSERT_TRUE(on.ok());

  // The annotations must not perturb any simulated output: times,
  // transfer accounting, layer identity, CAS counters.
  EXPECT_EQ(on.value().done, off.value().done);
  EXPECT_EQ(on.value().bytes_transferred, off.value().bytes_transferred);
  EXPECT_EQ(image::digest_layers(on.value().layers),
            image::digest_layers(off.value().layers));
  EXPECT_EQ(on_local.num_blobs(), off_local.num_blobs());
  EXPECT_EQ(on_local.dedup_hits(), off_local.dedup_hits());
}

TEST_F(DcheckPullTest, PerturbedScheduleIsByteIdenticalToo) {
  // The §7 contract, machine-checked: a shuffled parallel_for order
  // must not change a single output byte of the pull.
  util::ThreadPool pool(4);
  image::BlobStore base_local;
  const auto base = pull_once(&pool, &base_local);
  ASSERT_TRUE(base.ok());

  enable(/*perturb=*/true, /*seed=*/99);
  image::BlobStore pert_local;
  const auto pert = pull_once(&pool, &pert_local);
  ASSERT_TRUE(pert.ok());

  EXPECT_EQ(pert.value().done, base.value().done);
  EXPECT_EQ(image::digest_layers(pert.value().layers),
            image::digest_layers(base.value().layers));
  EXPECT_EQ(pert_local.num_blobs(), base_local.num_blobs());
  EXPECT_EQ(pert_local.dedup_hits(), base_local.dedup_hits());
}

TEST_F(DcheckPullTest, ZeroFindingsSweepOverTheDataPath) {
  // The shipped instrumentation must be race-free, inversion-free and
  // deterministic: parallel pull, prefetch stress, determinism audit.
  enable();
  util::ThreadPool pool(4);

  image::BlobStore local;
  ASSERT_TRUE(pull_once(&pool, &local).ok());

  Rng rng(5);
  vfs::MemFs tree;
  (void)tree.mkdir("/d", {}, true);
  (void)tree.write_file("/d/big", image::synthetic_file_content(rng, 2 << 20));
  const auto squash = vfs::SquashImage::build(tree, 64 * 1024);
  sim::PageCache pc;
  sim::SharedFilesystem fs;
  storage::CacheHierarchy chain;
  chain.add_tier(storage::page_cache_tier(pc));
  chain.add_tier(storage::shared_fs_tier(fs));
  chain.set_prefetch_pool(&pool);
  SimTime t = 0;
  for (int round = 0; round < 4; ++round) {
    for (int i = 0; i < 8; ++i) {
      chain.prefetch({"blk:" + std::to_string((round * 3 + i) % 16), 64u << 10},
                     [&squash, i] {
                       (void)squash.read_range("/d/big",
                                               static_cast<std::uint64_t>(i) *
                                                   65536,
                                               4096);
                     });
    }
    chain.drain_prefetches();
    for (int i = 0; i < 4; ++i)
      t = chain.read(t, {"blk:" + std::to_string((round + i) % 16), 64u << 10})
              .done;
  }

  const auto outcome = dcheck::audit_determinism(
      "pull",
      [&] {
        image::BlobStore l;
        auto r = pull_once(&pool, &l);
        std::string out;
        if (r.ok())
          for (const auto& d : image::digest_layers(r.value().layers, &pool))
            out += d.to_string() + "\n";
        return out;
      },
      /*seed=*/42);
  EXPECT_TRUE(outcome.deterministic);

  const auto report = dcheck::report();
  EXPECT_TRUE(report.clean()) << "sweep found:"
                              << [&report] {
                                   std::string s;
                                   for (const auto& f : report.findings)
                                     s += "\n  " + f.code + " " + f.object +
                                          ": " + f.message;
                                   return s;
                                 }();
}

// --------------------------------------------------------- config / env

using DcheckConfigTest = DcheckEnv;

TEST_F(DcheckConfigTest, OffByDefaultAndAnnotationsAreInert) {
  EXPECT_FALSE(dcheck::enabled());
  std::uint64_t x = 0;
  dcheck::access_write(&x, "inert");
  dcheck::access_read(&x, "inert");
  const std::uint64_t h = dcheck::hb_spawn();
  EXPECT_EQ(h, 0u);
  dcheck::hb_join(h);
  dcheck::event("inert");
  EXPECT_TRUE(dcheck::report().findings.empty());
  EXPECT_TRUE(dcheck::event_counts().empty());
  EXPECT_TRUE(dcheck::perturbed_order(8).empty());
}

TEST_F(DcheckConfigTest, PerturbedOrderIsASeededPermutation) {
  enable(/*perturb=*/true, /*seed=*/5);
  const auto a = dcheck::perturbed_order(16);
  ASSERT_EQ(a.size(), 16u);
  std::vector<bool> seen(16, false);
  for (auto i : a) {
    ASSERT_LT(i, 16u);
    EXPECT_FALSE(seen[i]);
    seen[i] = true;
  }
  EXPECT_EQ(a, dcheck::perturbed_order(16)) << "same seed, same n ⇒ same order";
  enable(/*perturb=*/true, /*seed=*/6);
  EXPECT_NE(a, dcheck::perturbed_order(16)) << "different seed ⇒ different order";
}

}  // namespace
}  // namespace hpcc
