#include "registry/proxy.h"

#include <string_view>
#include <utility>

#include "image/reference.h"
#include "obs/obs.h"
#include "storage/tiers.h"

namespace hpcc::registry {

PullThroughProxy::PullThroughProxy(std::string host, OciRegistry* upstream,
                                   ProxyConfig config)
    : host_(std::move(host)), upstream_(upstream), config_(config),
      frontend_(host_ + "-frontend", config.limits.frontend_threads),
      egress_(host_ + "-egress", 1) {
  path_.add_tier(std::make_unique<storage::KeyedStoreTier>(
      "proxy-cache", [this](const std::string& key) {
        constexpr std::string_view kManifest = "manifest:";
        constexpr std::string_view kBlob = "blob:";
        if (key.starts_with(kManifest)) {
          return manifest_cache_.contains(key.substr(kManifest.size()));
        }
        if (key.starts_with(kBlob)) {
          const auto digest =
              crypto::Digest::parse("sha256:" + key.substr(kBlob.size()));
          return digest.ok() && cache_.contains(digest.value());
        }
        return false;
      }));
  path_.add_tier(storage::origin_tier(
      "upstream-wan", [this](SimTime t, std::uint64_t bytes) {
        return upstream_fetch(t, bytes);
      }));
}

Result<Unit> PullThroughProxy::admit_upstream(SimTime now,
                                              fault::RequestClass cls) {
  if (admission_.enabled() && !admission_.admit(cls, now)) {
    return err_exhausted(host_ + " shed " + std::string(to_string(cls)) +
                         " upstream request (admission)");
  }
  if (origin_breaker_.enabled() && !origin_breaker_.allow(now)) {
    if (cls == fault::RequestClass::kPrefetch) {
      ++breaker_sheds_;
      obs::count("fault.shed.count");
      return err_exhausted(host_ + " shed prefetch upstream request "
                           "(origin breaker open)");
    }
    return err_unavailable(host_ + " origin breaker open");
  }
  return ok_unit();
}

SimTime PullThroughProxy::upstream_fetch(SimTime now, std::uint64_t bytes) {
  // A partition window means the WAN is dark: the connect times out
  // after one RTT without the upstream frontend ever seeing the request
  // (pure window query — no draws, no upstream queue state touched).
  if (faults_ != nullptr && faults_->enabled() &&
      faults_->partition_active(fault::Domain::kWan, now)) {
    ++upstream_fetches_;
    origin_breaker_.on_failure(now + config_.upstream_rtt);
    upstream_error_ = err_unavailable("upstream WAN partitioned");
    return now + config_.upstream_rtt;
  }
  // Wait out the upstream rate limiter (the proxy is one well-behaved
  // client instead of hundreds of throttled ones).
  SimTime t = now;
  SimTime retry = 0;
  while (true) {
    auto admitted = upstream_->admit_pull(t, &retry);
    if (admitted.ok()) break;
    throttle_wait_ += retry - t;
    t = retry;
  }
  ++upstream_fetches_;
  // Each WAN crossing can fail or degrade (kWan); the proxy drives it
  // through its retry policy. With a null injector and the default
  // no-retry policy this reduces to exactly the old arithmetic.
  SimTime failed_at = t;
  auto r = fault::retry_timed(
      t, retry_, jitter_rng_,
      [&](SimTime start, SimTime* fa) -> Result<SimTime> {
        SimTime a = upstream_->serve_request(start);
        a = upstream_->serve_transfer(a, bytes);
        fault::Decision d;
        if (faults_ != nullptr && faults_->enabled())
          d = faults_->decide(fault::Domain::kWan, a);
        a += config_.upstream_rtt +
             static_cast<SimDuration>(static_cast<double>(bytes) /
                                      config_.upstream_bandwidth *
                                      d.slowdown) +
             d.extra_latency;
        if (d.fail) {
          if (fa) *fa = a;
          return err_unavailable("upstream WAN fetch failed");
        }
        return a;
      },
      &retry_stats_, &failed_at);
  if (!r.ok()) {
    origin_breaker_.on_failure(failed_at);
    upstream_error_ = r.error();
    return failed_at;
  }
  origin_breaker_.on_success(r.value(), r.value() - t);
  upstream_bytes_ += bytes;
  return r.value();
}

Result<PullThroughProxy::ManifestResult> PullThroughProxy::fetch_manifest(
    SimTime now, const image::ImageReference& ref, fault::RequestClass cls) {
  ManifestResult out;
  SimTime t = frontend_.submit(now, config_.limits.request_service);

  auto it = manifest_cache_.find(ref.to_string());
  if (it != manifest_cache_.end()) {
    HPCC_TRY(const SharedBytes blob, cache_.get(it->second));
    HPCC_TRY(out.manifest, image::OciManifest::deserialize(*blob));
    out.cache_hit = true;
    out.done =
        path_.read(t, {"manifest:" + ref.to_string(), blob->size()}).done;
    bytes_served_ += blob->size();
    return out;
  }

  HPCC_TRY_UNIT(admit_upstream(t, cls));
  HPCC_TRY(out.manifest, upstream_->get_manifest(ref));
  Bytes blob = out.manifest.serialize();
  // Charged before the cache insert so the chain sees the miss.
  upstream_error_.reset();
  t = path_.read(t, {"manifest:" + ref.to_string(), blob.size()}).done;
  if (upstream_error_) {
    // Upstream leg dead after retries: nothing is cached — the next
    // fetch gets a fresh shot at the upstream.
    return *std::exchange(upstream_error_, std::nullopt);
  }
  bytes_served_ += blob.size();
  manifest_cache_[ref.to_string()] = cache_.put(std::move(blob));
  out.done = t;
  return out;
}

Result<PullThroughProxy::BlobResult> PullThroughProxy::fetch_blob(
    SimTime now, const crypto::Digest& digest, fault::RequestClass cls) {
  BlobResult out;
  SimTime t = frontend_.submit(now, config_.limits.request_service);

  if (auto cached = cache_.get(digest); cached.ok()) {
    out.blob = std::move(cached).value();
    out.cache_hit = true;
    t = path_.read(t, {"blob:" + digest.hex(), out.blob->size()}).done;
  } else {
    HPCC_TRY_UNIT(admit_upstream(t, cls));
    HPCC_TRY(out.blob, upstream_->get_blob(digest));
    upstream_error_.reset();
    t = path_.read(t, {"blob:" + digest.hex(), out.blob->size()}).done;
    if (upstream_error_) {
      return *std::exchange(upstream_error_, std::nullopt);
    }
    // Only bytes that match the digest asked for are cached; the check
    // is the one hash the proxy pays per admitted blob.
    HPCC_TRY_UNIT(cache_.put_verified(out.blob, digest));
  }
  // Serve through the proxy's own egress (site-local, fast).
  t = egress_.submit(t, static_cast<SimDuration>(
                            static_cast<double>(out.blob->size()) /
                            config_.limits.egress_bandwidth));
  bytes_served_ += out.blob->size();
  out.done = t;
  return out;
}

Result<MirrorStats> mirror_repository(const OciRegistry& source,
                                      OciRegistry& destination,
                                      const std::string& repo_key,
                                      const std::string& dest_user) {
  MirrorStats stats;
  HPCC_TRY(const auto tags, source.list_tags(repo_key));
  for (const auto& tag : tags) {
    HPCC_TRY(const auto ref, image::ImageReference::parse(repo_key + ":" + tag));
    HPCC_TRY(const auto manifest, source.get_manifest(ref));

    const std::string project =
        ref.repository.substr(0, ref.repository.find('/'));
    // Copy config + layers, skipping blobs the destination already has.
    auto copy_blob = [&](const crypto::Digest& digest) -> Result<Unit> {
      if (destination.has_blob(digest)) {
        ++stats.blobs_skipped;
        return ok_unit();
      }
      HPCC_TRY(const SharedBytes blob, source.get_blob(digest));
      stats.bytes_copied += blob->size();
      ++stats.blobs_copied;
      HPCC_TRY(auto d, destination.push_blob(dest_user, project, *blob));
      (void)d;
      return ok_unit();
    };
    HPCC_TRY_UNIT(copy_blob(manifest.config_digest));
    for (const auto& layer : manifest.layer_digests)
      HPCC_TRY_UNIT(copy_blob(layer));

    HPCC_TRY(auto digest, destination.push_manifest(dest_user, ref, manifest));
    (void)digest;
    ++stats.manifests_copied;
  }
  return stats;
}

}  // namespace hpcc::registry
