// tests/obs_test.cpp — the hpcc::obs determinism and semantics suite.
//
// Covers: registry/counter/gauge/histogram semantics, span nesting and
// sim-time monotonicity, async lifecycle spans, off-by-default
// byte-identity of an instrumented pull (obs off must not perturb any
// simulated output), same-seed trace reproducibility (two identical
// runs produce byte-identical Chrome JSON), span coverage of the
// simulated pull time, config-from-env plumbing, and TSan-clean
// concurrent counter increments. Suites are named Obs* so the CI TSan
// filter (ThreadPool|Concurrent|Pipeline|Fault|Obs) picks them up.
#include "obs/obs.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "crypto/digest.h"
#include "image/build.h"
#include "image/convert.h"
#include "registry/client.h"
#include "registry/registry.h"
#include "util/thread_pool.h"
#include "vfs/layer.h"

namespace hpcc {
namespace {

using obs::Category;

// Every test starts and ends with obs globally off and empty, so suite
// order and ctest sharding can never leak state between cases.
class ObsEnv : public ::testing::Test {
 protected:
  void SetUp() override { obs::reset(); }
  void TearDown() override { obs::reset(); }
};

// ------------------------------------------------------------- metrics

using ObsMetricsTest = ObsEnv;

TEST_F(ObsMetricsTest, CounterAccumulates) {
  obs::Registry reg;
  auto& c = reg.counter("a");
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
  EXPECT_EQ(&reg.counter("a"), &c) << "same name must resolve to same counter";
}

TEST_F(ObsMetricsTest, GaugeSetsAndAdds) {
  obs::Registry reg;
  auto& g = reg.gauge("depth");
  g.set(10);
  g.add(-3);
  EXPECT_EQ(g.value(), 7);
}

TEST_F(ObsMetricsTest, HistogramBucketsObservations) {
  obs::Histogram h({10, 100, 1000});
  h.observe(5);     // <= 10
  h.observe(10);    // <= 10 (inclusive upper bound)
  h.observe(50);    // <= 100
  h.observe(1000);  // <= 1000
  h.observe(5000);  // overflow
  EXPECT_EQ(h.count(), 5u);
  EXPECT_EQ(h.sum(), 5 + 10 + 50 + 1000 + 5000);
  EXPECT_EQ(h.bucket_counts(), (std::vector<std::uint64_t>{2, 1, 1, 1}));
}

TEST_F(ObsMetricsTest, HistogramBoundsSanitizedAndChecked) {
  EXPECT_TRUE(obs::Histogram::bounds_monotonic({1, 2, 3}));
  EXPECT_FALSE(obs::Histogram::bounds_monotonic({1, 1, 3}));
  EXPECT_FALSE(obs::Histogram::bounds_monotonic({3, 2}));
  EXPECT_FALSE(obs::Histogram::bounds_monotonic({}));
  EXPECT_EQ(obs::Histogram::sanitize_bounds({30, 10, 30, 20}),
            (std::vector<std::int64_t>{10, 20, 30}));
  // A histogram constructed from malformed bounds still buckets sanely.
  obs::Histogram h({100, 10, 100});
  EXPECT_EQ(h.bounds(), (std::vector<std::int64_t>{10, 100}));
}

TEST_F(ObsMetricsTest, SnapshotIsSortedAndDeterministic) {
  obs::Registry reg;
  reg.counter("z.last").add(1);
  reg.counter("a.first").add(2);
  reg.gauge("m.mid").set(-5);
  reg.histogram("h", {10, 20}).observe(15);

  const auto snap = reg.snapshot();
  ASSERT_EQ(snap.counters.size(), 2u);
  EXPECT_EQ(snap.counters.begin()->first, "a.first");
  EXPECT_EQ(snap.gauges.at("m.mid"), -5);
  EXPECT_EQ(snap.histograms.at("h").counts,
            (std::vector<std::uint64_t>{0, 1, 0}));

  // Identical registries render byte-identical JSON and tables.
  obs::Registry reg2;
  reg2.counter("a.first").add(2);
  reg2.counter("z.last").add(1);  // different creation order
  reg2.gauge("m.mid").set(-5);
  reg2.histogram("h", {10, 20}).observe(15);
  EXPECT_EQ(reg.snapshot().to_json(), reg2.snapshot().to_json());
  EXPECT_EQ(reg.snapshot().to_table(), reg2.snapshot().to_table());
  EXPECT_FALSE(snap.empty());
  reg.clear();
  EXPECT_TRUE(reg.snapshot().empty());
}

TEST_F(ObsMetricsTest, SnapshotSubsetFiltersByPrefix) {
  // The control plane's sensor read (control::Controller hands each
  // policy only its own metric family): subset must carry exactly the
  // prefixed names, across all three metric kinds.
  obs::Registry reg;
  reg.counter("lazy.read_sequential").add(7);
  reg.counter("lazy.read_random").add(2);
  reg.counter("registry.pulls").add(9);
  reg.gauge("lazy.depth").set(4);
  reg.gauge("fault.health.latency_us").set(1000);
  reg.histogram("lazy.h", {10}).observe(5);
  reg.histogram("other.h", {10}).observe(5);

  const auto sub = reg.snapshot_subset("lazy.");
  EXPECT_EQ(sub.counters.size(), 2u);
  EXPECT_EQ(sub.counters.at("lazy.read_sequential"), 7u);
  EXPECT_EQ(sub.counters.at("lazy.read_random"), 2u);
  EXPECT_EQ(sub.gauges.size(), 1u);
  EXPECT_EQ(sub.gauges.at("lazy.depth"), 4);
  EXPECT_EQ(sub.histograms.size(), 1u);
  EXPECT_EQ(sub.histograms.at("lazy.h").count, 1u);

  // A subset is a restriction of the full snapshot, never a mutation.
  const auto full = reg.snapshot();
  EXPECT_EQ(full.counters.size(), 3u);
  for (const auto& [name, value] : sub.counters)
    EXPECT_EQ(full.counters.at(name), value);
}

TEST_F(ObsMetricsTest, SnapshotSubsetEdgeCases) {
  obs::Registry reg;
  reg.counter("a.x").add(1);
  reg.gauge("b.y").set(2);
  // No name under the prefix: an empty (but valid) snapshot.
  EXPECT_TRUE(reg.snapshot_subset("zzz.").empty());
  // The empty prefix matches everything — same view as snapshot().
  const auto all = reg.snapshot_subset("");
  EXPECT_EQ(all.counters.size(), 1u);
  EXPECT_EQ(all.gauges.size(), 1u);
  // Prefix selection is lexicographic on the full name, so "a." must
  // not leak "a-other" style siblings.
  reg.counter("a-sibling").add(5);
  EXPECT_EQ(reg.snapshot_subset("a.").counters.size(), 1u);
}

// --------------------------------------------------------------- tracer

using ObsTraceTest = ObsEnv;

TEST_F(ObsTraceTest, SpansNestViaTheSpanStack) {
  obs::Tracer t;
  const auto outer = t.begin_span(Category::kRegistry, "pull", 0);
  const auto inner = t.begin_span(Category::kStorage, "chunk", 10);
  t.end_span(inner, 20);
  t.end_span(outer, 30);

  const auto spans = t.spans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].name, "pull");
  EXPECT_EQ(spans[0].parent, 0u);
  EXPECT_EQ(spans[1].name, "chunk");
  EXPECT_EQ(spans[1].parent, outer);
  for (const auto& s : spans) EXPECT_LE(s.begin, s.end);
  EXPECT_EQ(t.open_count(), 0u);
}

TEST_F(ObsTraceTest, EventStreamIsBalancedAndMonotonicPerSpan) {
  obs::Tracer t;
  const auto a = t.begin_span(Category::kFault, "attempt:1", 100);
  t.instant(Category::kStorage, "probe-miss:pc", 110);
  t.end_span(a, 150);
  t.async_begin(Category::kWlm, "job:1:wait", 0);
  t.async_end(Category::kWlm, "job:1:wait", 500);
  t.async_end(Category::kWlm, "job:1:wait", 600);  // no-op: already closed
  t.async_end(Category::kWlm, "job:9:run", 600);   // no-op: never opened

  int b = 0, e = 0, ab = 0, ae = 0, inst = 0;
  for (const auto& ev : t.events()) {
    if (ev.phase == 'B') ++b;
    if (ev.phase == 'E') ++e;
    if (ev.phase == 'b') ++ab;
    if (ev.phase == 'e') ++ae;
    if (ev.phase == 'i') ++inst;
  }
  EXPECT_EQ(b, 1);
  EXPECT_EQ(e, 1);
  EXPECT_EQ(ab, 1);
  EXPECT_EQ(ae, 1);
  EXPECT_EQ(inst, 1);
  EXPECT_EQ(t.open_count(), 0u);
}

TEST_F(ObsTraceTest, ChromeJsonIsDeterministicAndWellFormed) {
  auto record = [](obs::Tracer& t) {
    const auto s = t.begin_span(Category::kRegistry, "pull:\"quoted\"", 0);
    t.instant(Category::kVfs, "lazy:/bin/sh", 5);
    t.end_span(s, 42);
  };
  obs::Tracer t1, t2;
  record(t1);
  record(t2);
  const std::string json = t1.chrome_trace_json();
  EXPECT_EQ(json, t2.chrome_trace_json());
  EXPECT_EQ(json.rfind("{\"traceEvents\": [", 0), 0u);
  EXPECT_NE(json.find("\\\"quoted\\\""), std::string::npos)
      << "names must be JSON-escaped";
  EXPECT_NE(json.find("\"ts\": 42"), std::string::npos);
}

TEST_F(ObsTraceTest, SpanScopeClosesOnEveryExitPath) {
  obs::configure([] {
    obs::Config c;
    c.tracing = true;
    return c;
  }());
  {
    obs::SpanScope s(Category::kRegistry, "outer", 0);
    s.stamp(25);
    // No explicit end: destructor must close at the last stamp.
  }
  {
    obs::SpanScope moved_into;
    {
      obs::SpanScope original(Category::kRegistry, "moved", 5);
      moved_into = std::move(original);
    }  // moved-from scope must not double-close
    moved_into.end(9);
    moved_into.end(99);  // idempotent
  }
  const auto spans = obs::tracer().spans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].end, 25);
  EXPECT_EQ(spans[1].end, 9);
  EXPECT_EQ(obs::tracer().open_count(), 0u);
}

// --------------------------------------------------------------- config

using ObsConfigTest = ObsEnv;

TEST_F(ObsConfigTest, OffByDefaultAndInstrumentationIsInert) {
  EXPECT_FALSE(obs::tracing_enabled());
  EXPECT_FALSE(obs::metrics_enabled());
  obs::count("should.not.appear");
  obs::SpanScope inert;  // default scope records nothing
  EXPECT_FALSE(inert.active());
  EXPECT_TRUE(obs::metrics().snapshot().empty());
  EXPECT_TRUE(obs::tracer().events().empty());
}

TEST_F(ObsConfigTest, FromEnvReadsTraceAndMetricsKnobs) {
  ::setenv("HPCC_TRACE", "/tmp/t.json", 1);
  ::unsetenv("HPCC_METRICS");
  auto cfg = obs::Config::from_env();
  EXPECT_TRUE(cfg.tracing);
  EXPECT_EQ(cfg.trace_path, "/tmp/t.json");
  EXPECT_FALSE(cfg.metrics);

  ::unsetenv("HPCC_TRACE");
  ::setenv("HPCC_METRICS", "/tmp/m.json", 1);
  cfg = obs::Config::from_env();
  EXPECT_FALSE(cfg.tracing);
  EXPECT_TRUE(cfg.metrics);
  EXPECT_EQ(cfg.metrics_path, "/tmp/m.json");
  ::unsetenv("HPCC_METRICS");
}

TEST_F(ObsConfigTest, ConfigureClearsPreviousCollections) {
  obs::Config on;
  on.tracing = true;
  on.metrics = true;
  obs::configure(on);
  obs::count("stale");
  obs::tracer().instant(Category::kPool, "stale", 1);
  obs::configure(on);  // reconfigure ⇒ fresh collections
  EXPECT_TRUE(obs::metrics().snapshot().empty());
  EXPECT_TRUE(obs::tracer().events().empty());
}

// ------------------------------------------------- instrumented pull

// The PipelineFixture shape from concurrency_test: build a layered
// image, push it, and pull pristine copies — here with obs on/off.
class ObsPullTest : public ObsEnv {
 protected:
  ObsPullTest() : net(4), reg("registry.site") {
    EXPECT_TRUE(reg.create_project("apps", "builder").ok());
    image::ImageConfig base_cfg;
    const auto base =
        image::synthetic_base_os("hpccos", 6, 5, 256 * 1024, &base_cfg);
    image::ImageBuilder builder(8);
    auto built = builder
                     .build(image::BuildSpec::parse_containerfile(
                                "FROM base\n"
                                "RUN install app 4 32768\n"
                                "RUN lib libmpi 4.1 2.30\n")
                                .value(),
                            base, base_cfg)
                     .value();
    std::vector<vfs::Layer> layers;
    layers.push_back(vfs::Layer::from_fs(base));
    for (auto& l : built.layers) layers.push_back(std::move(l));
    registry::RegistryClient pusher(&net, 0);
    ref = image::ImageReference::parse("registry.site/apps/app:v1").value();
    EXPECT_TRUE(pusher.push(0, reg, "builder", ref, built.config, layers).ok());
  }

  Result<registry::PullResult> pull_once() {
    registry::OciRegistry r = reg;
    sim::Network n = net;
    image::BlobStore local;
    registry::RegistryClient client(&n, 1);
    return client.pull(0, r, ref, &local);
  }

  sim::Network net;
  registry::OciRegistry reg;
  image::ImageReference ref;
};

TEST_F(ObsPullTest, ObservabilityOffIsByteIdenticalToObservabilityOn) {
  // Off (the default): the instrumented data path must behave exactly
  // as the uninstrumented one — this is the acceptance contract that
  // gates stay free when nobody is looking.
  obs::reset();
  const auto off = pull_once();
  ASSERT_TRUE(off.ok()) << off.error().to_string();
  EXPECT_TRUE(obs::tracer().events().empty());
  EXPECT_TRUE(obs::metrics().snapshot().empty());

  obs::Config on;
  on.tracing = true;
  on.metrics = true;
  obs::configure(on);
  const auto traced = pull_once();
  ASSERT_TRUE(traced.ok());
  EXPECT_FALSE(obs::tracer().events().empty());

  // Every simulated output must match exactly: obs reads the clock, it
  // never advances it.
  EXPECT_EQ(traced.value().done, off.value().done);
  EXPECT_EQ(traced.value().bytes_transferred, off.value().bytes_transferred);
  EXPECT_EQ(traced.value().layers_skipped, off.value().layers_skipped);
  EXPECT_EQ(image::digest_layers(traced.value().layers),
            image::digest_layers(off.value().layers));
}

TEST_F(ObsPullTest, SameSeedRunsProduceByteIdenticalChromeTraces) {
  obs::Config on;
  on.tracing = true;
  obs::configure(on);
  const auto first = pull_once();
  ASSERT_TRUE(first.ok());
  const std::string trace1 = obs::tracer().chrome_trace_json();

  obs::configure(on);  // fresh tracer, identical scenario
  const auto second = pull_once();
  ASSERT_TRUE(second.ok());
  const std::string trace2 = obs::tracer().chrome_trace_json();

  EXPECT_FALSE(trace1.empty());
  EXPECT_EQ(trace1, trace2);
}

TEST_F(ObsPullTest, TraceIsBalancedAndPoolInvariant) {
  obs::Config on;
  on.tracing = true;
  obs::configure(on);
  ASSERT_TRUE(pull_once().ok());
  const std::string sequential = obs::tracer().chrome_trace_json();
  EXPECT_EQ(obs::tracer().open_count(), 0u);

  // The same pull with a thread pool must emit the same events: trace
  // emission stays on the timed plane (DESIGN.md §7 extended to §10).
  obs::configure(on);
  {
    util::ThreadPool pool(4);
    registry::OciRegistry r = reg;
    sim::Network n = net;
    image::BlobStore local;
    registry::RegistryClient client(&n, 1, &pool);
    ASSERT_TRUE(client.pull(0, r, ref, &local).ok());
  }
  EXPECT_EQ(obs::tracer().chrome_trace_json(), sequential);
}

TEST_F(ObsPullTest, SpansCoverAtLeast95PercentOfSimulatedPullTime) {
  obs::Config on;
  on.tracing = true;
  obs::configure(on);
  const auto r = pull_once();
  ASSERT_TRUE(r.ok());
  const SimTime total = r.value().done;  // pull started at t = 0
  ASSERT_GT(total, 0);

  SimDuration covered = 0;
  for (const auto& s : obs::tracer().spans())
    if (s.parent == 0) covered += s.end - s.begin;  // root spans only
  EXPECT_GE(static_cast<double>(covered), 0.95 * static_cast<double>(total))
      << "root spans cover " << covered << " of " << total << " sim-us";
}

TEST_F(ObsPullTest, MetricsMirrorThePullCounters) {
  obs::Config on;
  on.metrics = true;
  obs::configure(on);
  const auto r = pull_once();
  ASSERT_TRUE(r.ok());
  const auto snap = obs::metrics().snapshot();
  EXPECT_EQ(snap.counters.at("registry.pulls"), 1u);
  EXPECT_EQ(snap.counters.at("registry.pull_bytes"),
            r.value().bytes_transferred);
  EXPECT_EQ(snap.counters.at("registry.layers_fetched"),
            r.value().layers.size());
  EXPECT_EQ(snap.counters.count("registry.layers_skipped"), 0u)
      << "a cold pull skips nothing, so the counter must not even exist";
}

TEST_F(ObsPullTest, BytesHashedCountsEveryDigestAndIsPoolInvariant) {
  obs::Config on;
  on.metrics = true;
  obs::configure(on);
  (void)crypto::Digest::of(Bytes(1000, 7));
  EXPECT_EQ(obs::metrics().snapshot().counters.at("crypto.bytes_hashed"),
            1000u);

  // A pull verifies every layer it receives, so it hashes at least the
  // bytes it moved; the count is the same whether the verify runs on
  // the calling thread or on pool workers.
  obs::configure(on);
  const auto r = pull_once();
  ASSERT_TRUE(r.ok());
  const auto sequential = obs::metrics().snapshot().counters;
  EXPECT_GE(sequential.at("crypto.bytes_hashed"),
            sequential.at("registry.pull_bytes"));

  obs::configure(on);
  {
    util::ThreadPool pool(4);
    registry::OciRegistry reg_copy = reg;
    sim::Network n = net;
    image::BlobStore local;
    registry::RegistryClient client(&n, 1, &pool);
    ASSERT_TRUE(client.pull(0, reg_copy, ref, &local).ok());
  }
  EXPECT_EQ(obs::metrics().snapshot().counters.at("crypto.bytes_hashed"),
            sequential.at("crypto.bytes_hashed"));
}

// --------------------------------------------------------- concurrency

using ObsConcurrencyTest = ObsEnv;

TEST_F(ObsConcurrencyTest, ConcurrentCounterIncrementsAreExact) {
  obs::Config on;
  on.metrics = true;
  obs::configure(on);
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  auto& counter = obs::metrics().counter("pool.hammer");
  auto& hist = obs::metrics().histogram("pool.hammer_us", {10, 100, 1000});
  util::ThreadPool pool(kThreads);
  pool.parallel_for(kThreads * kPerThread, [&](std::size_t i) {
    counter.add(1);
    hist.observe(static_cast<std::int64_t>(i % 2000));
    obs::metrics().counter("pool.hammer_named").add(1);  // name lookup race
  });
  const auto snap = obs::metrics().snapshot();
  EXPECT_EQ(snap.counters.at("pool.hammer"),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(snap.counters.at("pool.hammer_named"),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(snap.histograms.at("pool.hammer_us").count,
            static_cast<std::uint64_t>(kThreads) * kPerThread);
}

}  // namespace
}  // namespace hpcc
