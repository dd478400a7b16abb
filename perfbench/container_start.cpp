// container_start — Tables 1-3 as measurements: every engine's start
// pipeline (pull → convert → mount → create → run), cold and warm.
//
// Each of the nine engines gets a fresh site: a cluster of kNodes nodes,
// an origin registry and one pull-through proxy in front of it, and an
// empty engine::SiteState. Per engine, the pass pushes image v1 and
// starts it on every node, then pushes v2 (same base layer, new app
// layer) and starts that on every node. The first start of each version
// is cold: it pulls through the proxy, converts and mounts; the rest
// are warm. v2's pull skips the base layer already in the site's layer
// cache.
//
// Load: closed loop, one start after another; each start is submitted
// at the simulated time the previous one finished. One op is one start;
// its latency runs from submit to RunOutcome::create_done.
#include <memory>

#include "crypto/digest.h"
#include "engine/engine.h"
#include "image/build.h"
#include "image/convert.h"
#include "registry/client.h"
#include "registry/proxy.h"
#include "registry/registry.h"
#include "sim/cluster.h"
#include "util/rng.h"
#include "vfs/squash_image.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace hpcc;

constexpr std::uint32_t kNodes = 8;
/// The base OS layer: kBaseFiles files of about kBaseFileBytes; the seed
/// adds up to 1/32 to the file size so the simulated sizes, and with
/// them every simulated time, differ between seeds.
constexpr std::uint32_t kBaseFiles = 48;
constexpr std::uint64_t kBaseFileBytes = 24 * 1024;
constexpr const char* kAppV1 = "FROM base\nRUN install app 16 16384\n";
constexpr const char* kAppV2 =
    "FROM base\nRUN install app 16 16384\nRUN write /opt/app/VERSION 2\n";

struct Version {
  image::ImageReference ref;
  image::ImageConfig config;
  std::vector<vfs::Layer> layers;
  std::uint64_t wire_bytes = 0;       ///< config + every layer blob
  std::uint64_t base_blob_bytes = 0;  ///< the shared base layer's blob
};

struct Start {
  std::size_t engine = 0;
  bool cold = false;
  bool ok = false;
  SimTime submit = 0;
  engine::RunOutcome out;
  double wall_ms = 0;
};

class ContainerStart : public Workload {
 public:
  explicit ContainerStart(const Options& o) : seed_(o.seed) {
    // A short command that reads a few pages of its image, so the run
    // stage walks the node's artifact tiers.
    run_options_.workload = runtime::shell_workload();
    run_options_.workload.random_reads = 32;
    host_.glibc = runtime::Version::parse("2.37");
  }

  void setup() override {
    Rng rng(seed_);
    const std::uint64_t file_bytes =
        kBaseFileBytes + rng.next_below(kBaseFileBytes / 32);
    const std::string base_spec = "FROM scratch\nRUN install os " +
                                  std::to_string(kBaseFiles) + " " +
                                  std::to_string(file_bytes) + "\n";
    const auto spec = image::BuildSpec::parse_containerfile(base_spec).value();
    auto base = image::ImageBuilder(seed_).build(spec, vfs::MemFs{}).value();
    base_ = std::move(base.rootfs);
    base_config_ = std::move(base.config);
    base_config_.abi.glibc = runtime::Version::parse("2.36");
    v1_ = build(kAppV1, seed_ + 1, "registry.site/apps/app:v1");
    v2_ = build(kAppV2, seed_ + 2, "registry.site/apps/app:v2");
    build_sites();
  }

  void pass(SpanLog* spans) override {
    std::vector<Start> starts;
    starts.reserve(starts_per_pass());
    Totals totals;
    for (std::size_t k = 0; k < sites_.size(); ++k) {
      Site& site = *sites_[k];
      registry::RegistryClient pusher(&site.cluster.network(), 0);
      SimTime t = 0;
      for (const Version* v : {&v1_, &v2_}) {
        const auto t0 = std::chrono::steady_clock::now();
        Result<registry::PushResult> pushed = err_internal("not pushed");
        {
          SpanLog::Scope s(spans, "registry", "push");
          pushed = pusher.push(t, site.origin, "ci", v->ref, v->config,
                               v->layers);
        }
        totals.push_ms.push_back(seconds_since(t0) * 1e3);
        yardstick().tick();
        if (pushed.ok()) {
          t = pushed.value().done;
          totals.pushed_bytes += pushed.value().bytes_transferred;
        } else {
          ++totals.push_failures;
        }
        for (std::uint32_t n = 0; n < kNodes; ++n) {
          Start st;
          st.engine = k;
          st.cold = n == 0;
          st.submit = t;
          const auto s0 = std::chrono::steady_clock::now();
          Result<engine::RunOutcome> run = err_internal("not started");
          {
            SpanLog::Scope s(spans, "engine", "run_image", starts.size() + 1);
            run = site.engines[n]->run_image(t, v->ref, run_options_);
          }
          st.wall_ms = seconds_since(s0) * 1e3;
          yardstick().tick();
          if (run.ok()) {
            st.ok = true;
            st.out = run.value();
            t = st.out.finished;
          }
          starts.push_back(std::move(st));
        }
      }
      totals.wan_bytes += site.cluster.network().wan_bytes();
      totals.upstream_bytes += site.proxy.upstream_bytes();
      totals.proxy_hits += site.proxy.cache_hits();
      totals.proxy_fetches +=
          site.proxy.cache_hits() + site.proxy.upstream_fetches();
      totals.dedup_hits += site.origin.blobs().dedup_hits() +
                           site.state.layer_cache.dedup_hits();
    }

    std::uint64_t sum = 1469598103934665603ull;
    for (const auto& st : starts)
      for (SimTime v : {st.submit, st.out.pull_done, st.out.convert_done,
                        st.out.create_done, st.out.finished})
        sum = (sum ^ static_cast<std::uint64_t>(v)) * 1099511628211ull;
    totals.checksum = sum;
    sites_.clear();

    if (reference_.empty()) {
      reference_ = std::move(starts);
      reference_totals_ = totals;
      return;
    }
    ++passes_checked_;
    if (totals.checksum != reference_totals_.checksum) ++passes_diverged_;
    if (spans != nullptr) {
      for (const auto& st : starts)
        (st.cold ? cold_ms_ : warm_ms_)[st.engine].push_back(st.wall_ms);
      push_ms_.insert(push_ms_.end(), totals.push_ms.begin(),
                      totals.push_ms.end());
    }
  }

  void finish(Report& r, const TracedPass* traced) override {
    const auto& kinds = engine::all_engine_kinds();
    r.sizes = {"engines=9", "nodes_per_engine=" + std::to_string(kNodes),
               "versions=2",
               "starts=" + std::to_string(starts_per_pass()),
               "base_layer_blob_bytes=" + std::to_string(v1_.base_blob_bytes),
               "v1_wire_bytes=" + std::to_string(v1_.wire_bytes),
               "v2_wire_bytes=" + std::to_string(v2_.wire_bytes)};
    r.attempted = reference_.size();
    r.check(passes_checked_ > 0 && passes_diverged_ == 0,
            "same-seed passes diverged: " + std::to_string(passes_diverged_) +
                " of " + std::to_string(passes_checked_));
    r.check(reference_totals_.push_failures == 0, "a push failed");
    // Pulls happen inside run_image (through the proxy, with no fallback
    // leg) and the clients use no pool and no resilience settings.
    r.unmeasured = {"registry.pull_wall_ms.", "registry.fallbacks",
                    "registry.sim_pull_",     "fault.",
                    "util.",                  "orch.",
                    "k8s.",                   "wlm."};

    std::vector<double> latency, pull, convert, create, run;
    for (std::size_t i = 0; i < reference_.size(); ++i) {
      const Start& st = reference_[i];
      const std::string who =
          std::string(engine::to_string(kinds[st.engine])) + " start " +
          std::to_string(i);
      if (!st.ok) {
        ++r.failed;
        continue;
      }
      const auto& o = st.out;
      r.check(st.submit <= o.pull_done && o.pull_done <= o.convert_done &&
                  o.convert_done <= o.create_done &&
                  o.create_done <= o.finished,
              who + ": stages out of order");
      // Only the first start of a version pulls; the rest find it on site.
      const bool second_version = (i / kNodes) % 2 == 1;
      if (st.cold) {
        const std::uint64_t want = second_version
                                       ? v2_.wire_bytes - v2_.base_blob_bytes
                                       : v1_.wire_bytes;
        r.check(!o.pull_skipped && o.bytes_pulled == want,
                who + ": pulled " + std::to_string(o.bytes_pulled) +
                    " bytes, expected " + std::to_string(want) +
                    (second_version ? " (v2 must skip the base layer)" : ""));
      } else {
        r.check(o.pull_skipped, who + ": warm start pulled again");
      }
      latency.push_back(to_seconds(o.create_done - st.submit));
      pull.push_back(to_seconds(o.pull_done - st.submit));
      convert.push_back(to_seconds(o.convert_done - o.pull_done));
      create.push_back(to_seconds(o.create_done - o.convert_done));
      run.push_back(to_seconds(o.finished - o.create_done));
    }

    // The site's WAN carries the pushes too; only pulls count here.
    const Totals& tot = reference_totals_;
    const double wan_mib =
        static_cast<double>(tot.wan_bytes - tot.pushed_bytes +
                            tot.upstream_bytes) /
        kMiB;
    // p90 leaves fourteen of the 144 starts above it when all succeed.
    add_latency_metrics(r, "engine.sim_start", latency, 0.90);
    r.layer("registry.wan_mib", wan_mib, "MiB");
    // Stage means, not medians: most starts hit the conversion cache, so
    // the median convert gap is 0, and the means add up to the mean start.
    r.layer("engine.sim_pull_s", mean(pull), "s");
    r.layer("engine.sim_convert_s", mean(convert), "s");
    r.layer("runtime.sim_create_s", mean(create), "s");
    r.layer("runtime.sim_run_s", mean(run), "s");
    if (traced == nullptr) return;
    const obs::MetricsSnapshot& metrics = traced->metrics;

    // crypto, timed over the image's own layer blobs.
    std::vector<Bytes> blobs;
    std::uint64_t blob_bytes = 0;
    for (const auto& l : v1_.layers) {
      blobs.push_back(l.serialize());
      blob_bytes += blobs.back().size();
    }
    const double sha_ms = median_ms(3, [&] {
      for (const auto& b : blobs) (void)crypto::Digest::of(b);
    });
    const double hashed_mib = (counter(metrics, "registry.pull_bytes") +
                               static_cast<double>(tot.upstream_bytes) +
                               counter(metrics, "registry.push_bytes")) /
                              kMiB;
    r.layer("crypto.sha256_mbps",
            static_cast<double>(blob_bytes) / 1e3 / sha_ms, "MB/s");
    r.layer("crypto.hashed_mib", hashed_mib, "MiB");
    r.layer("crypto.hashed_per_wan", ratio(hashed_mib, wan_mib), "ratio");

    r.layer("registry.push_wall_ms.p50", median(push_ms_), "ms");
    r.layer("registry.proxy_hit_ratio",
            ratio(static_cast<double>(tot.proxy_hits),
                  static_cast<double>(tot.proxy_fetches)),
            "ratio");
    r.layer("registry.layers_fetched",
            counter(metrics, "registry.layers_fetched"), "count");
    r.layer("registry.layers_skipped",
            counter(metrics, "registry.layers_skipped"), "count");
    add_storage_metrics(r, metrics);

    // vfs and image, timed over this workload's image.
    const vfs::MemFs flat = image::flatten_layers(v1_.layers).value();
    vfs::SquashImage squash;
    const double squash_ms =
        median_ms(3, [&] { squash = vfs::SquashImage::build(flat); });
    const double unsquash_ms = median_ms(3, [&] { (void)squash.unpack(); });
    const double raw_mb =
        static_cast<double>(squash.uncompressed_bytes()) / 1e6;
    r.layer("vfs.lzss_mbps", raw_mb / (squash_ms / 1e3), "MB/s");
    r.layer("vfs.unsquash_mbps", raw_mb / (unsquash_ms / 1e3), "MB/s");
    r.layer("vfs.squash_ratio", squash.compression_ratio(), "ratio");
    r.layer("vfs.layer_digest_ms", median_ms(3, [&] {
              for (const auto& l : v1_.layers) (void)l.digest();
            }),
            "ms");

    r.layer("image.build_ms", median_ms(3, [&] {
              (void)image::ImageBuilder(seed_ + 1)
                  .build(image::BuildSpec::parse_containerfile(kAppV1).value(),
                         base_, base_config_);
            }),
            "ms");
    r.layer("image.convert_ms.squash", median_ms(3, [&] {
              (void)image::layers_to_squash(v1_.layers);
            }),
            "ms");
    r.layer("image.convert_ms.flat", median_ms(3, [&] {
              vfs::FlatImageInfo info;
              info.name = v1_.ref.repository;
              (void)image::layers_to_flat(v1_.layers, info);
            }),
            "ms");
    r.layer("image.convert_ms.dir", median_ms(3, [&] {
              (void)image::flatten_layers(v1_.layers);
            }),
            "ms");
    r.layer("image.dedup_hits", static_cast<double>(tot.dedup_hits), "count");

    for (std::size_t k = 0; k < kinds.size(); ++k) {
      const std::string key =
          "engine." + metric_key(engine::to_string(kinds[k]));
      r.layer(key + ".cold_wall_ms", median(cold_ms_[k]), "ms");
      r.layer(key + ".warm_wall_ms", median(warm_ms_[k]), "ms");
    }
  }

 private:
  /// Every engine starts v1 and v2 on every node.
  static std::size_t starts_per_pass() {
    return engine::all_engine_kinds().size() * 2 * kNodes;
  }

  struct Totals {
    std::uint64_t wan_bytes = 0;
    std::uint64_t pushed_bytes = 0;
    std::uint64_t upstream_bytes = 0;
    std::uint64_t proxy_hits = 0;
    std::uint64_t proxy_fetches = 0;
    std::uint64_t dedup_hits = 0;
    std::uint64_t push_failures = 0;
    std::uint64_t checksum = 0;
    std::vector<double> push_ms;
  };

  /// One engine's site: the cluster, an origin with a pull-through proxy
  /// in front of it, the shared engine state, and one engine per node.
  struct Site {
    sim::Cluster cluster;
    registry::OciRegistry origin{"registry.site"};
    registry::PullThroughProxy proxy{"proxy.site", &origin};
    engine::SiteState state;
    std::vector<std::unique_ptr<engine::ContainerEngine>> engines;

    explicit Site(const sim::ClusterConfig& cfg) : cluster(cfg) {}
  };

  void build_sites() {
    sim::ClusterConfig cfg;
    cfg.num_nodes = kNodes;
    sites_.clear();
    for (engine::EngineKind kind : engine::all_engine_kinds()) {
      auto site = std::make_unique<Site>(cfg);
      (void)site->origin.create_project("apps", "ci");
      for (std::uint32_t n = 0; n < kNodes; ++n) {
        engine::EngineContext ctx;
        ctx.cluster = &site->cluster;
        ctx.node = n;
        ctx.registry = &site->origin;
        ctx.proxy = &site->proxy;
        ctx.site = &site->state;
        ctx.host_env = host_;
        site->engines.push_back(engine::make_engine(kind, ctx));
      }
      sites_.push_back(std::move(site));
    }
  }

  Version build(const char* spec, std::uint64_t seed, const char* ref) {
    Version v;
    auto built = image::ImageBuilder(seed)
                     .build(image::BuildSpec::parse_containerfile(spec).value(),
                            base_, base_config_)
                     .value();
    built.config.entrypoint = {"/opt/app/bin/app"};
    v.ref = image::ImageReference::parse(ref).value();
    v.config = built.config;
    v.layers.push_back(vfs::Layer::from_fs(base_));
    for (auto& l : built.layers) v.layers.push_back(std::move(l));
    v.wire_bytes = v.config.serialize().size();
    for (const auto& l : v.layers) v.wire_bytes += l.serialize().size();
    v.base_blob_bytes = v.layers.front().serialize().size();
    return v;
  }

  std::uint64_t seed_;
  vfs::MemFs base_;
  image::ImageConfig base_config_;
  Version v1_;
  Version v2_;
  runtime::HostEnvironment host_;
  engine::RunOptions run_options_;
  std::vector<std::unique_ptr<Site>> sites_;

  std::vector<Start> reference_;
  Totals reference_totals_;
  std::uint64_t passes_checked_ = 0;
  std::uint64_t passes_diverged_ = 0;
  std::vector<std::vector<double>> cold_ms_ =
      std::vector<std::vector<double>>(engine::all_engine_kinds().size());
  std::vector<std::vector<double>> warm_ms_ =
      std::vector<std::vector<double>>(engine::all_engine_kinds().size());
  std::vector<double> push_ms_;
};

}  // namespace

std::unique_ptr<Workload> make_container_start(const Options& o) {
  return std::make_unique<ContainerStart>(o);
}

}  // namespace perfbench
