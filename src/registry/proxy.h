// hpcc/registry/proxy.h
//
// Pull-through caching proxy and mirroring.
//
// §5.1.3: "A registry implementing proxy capabilities by means of
// transparently forwarding and caching requests in a namespace to an
// upstream registry can provide such proxy services. The advantages
// over a common HTTP(S) proxy include detailed statistics about
// upstream registry usage, required disk space, image statistics" —
// and, crucially, shielding a site with few public IPs from upstream
// rate limits. bench_registry_proxy reproduces that scenario.
#pragma once

#include <optional>
#include <string>

#include "fault/fault.h"
#include "fault/resilience.h"
#include "fault/retry.h"
#include "registry/registry.h"
#include "storage/cache_hierarchy.h"

namespace hpcc::registry {

struct ProxyConfig {
  RegistryLimits limits;             ///< the proxy's own service capacity
  SimDuration upstream_rtt = msec(40);  ///< WAN round trip to upstream
  double upstream_bandwidth = 1250.0;   ///< bytes/us from upstream (10 Gb/s)
};

class PullThroughProxy {
 public:
  PullThroughProxy(std::string host, OciRegistry* upstream,
                   ProxyConfig config = {});

  struct ManifestResult {
    SimTime done = 0;
    image::OciManifest manifest;
    bool cache_hit = false;
  };
  struct BlobResult {
    SimTime done = 0;
    /// The proxy's cached buffer, which is also the upstream's: a fetch
    /// shares the bytes and copies none.
    SharedBytes blob;
    bool cache_hit = false;
  };

  /// Fetches a manifest at `now`. Cache hit: served locally. Miss: the
  /// proxy pulls upstream (waiting out the upstream rate limiter if
  /// throttled), caches, then serves. `cls` is the request's priority
  /// class: a miss that needs the upstream goes through the admission
  /// controller and the origin breaker first — prefetch-class requests
  /// shed (kResourceExhausted) when either is unhappy, first-touch
  /// requests shed only at the token bucket and fast-fail kUnavailable
  /// on an open breaker (the client's cue to fail over). Cache hits are
  /// never shed: they cost the upstream nothing.
  Result<ManifestResult> fetch_manifest(
      SimTime now, const image::ImageReference& ref,
      fault::RequestClass cls = fault::RequestClass::kFirstTouch);

  Result<BlobResult> fetch_blob(
      SimTime now, const crypto::Digest& digest,
      fault::RequestClass cls = fault::RequestClass::kFirstTouch);

  /// Injector consulted (kWan domain) on each upstream WAN crossing, and
  /// the retry policy the proxy drives those crossings through. A cache
  /// hit never touches the upstream, so it never fails; a miss whose
  /// upstream retries are exhausted surfaces kUnavailable and is NOT
  /// cached (the next fetch retries the upstream).
  void set_fault_injector(fault::FaultInjector* injector) {
    faults_ = injector;
  }
  void set_retry_policy(const fault::RetryPolicy& policy) {
    retry_ = policy;
    jitter_rng_ = Rng(policy.jitter_seed);
  }
  const fault::RetryStats& retry_stats() const { return retry_stats_; }

  /// Circuit breaker guarding the proxy's upstream (origin) leg. Fed by
  /// upstream_fetch outcomes; when open, upstream-needing requests are
  /// refused per the fetch_* class rules above. Disabled (the default)
  /// keeps every fetch byte-identical to the breaker-less proxy.
  void set_origin_breaker(const fault::BreakerConfig& cfg) {
    origin_breaker_ = fault::CircuitBreaker(host_ + "-origin", cfg);
  }
  const fault::CircuitBreaker& origin_breaker() const {
    return origin_breaker_;
  }

  /// Token-bucket load shedding on upstream-needing requests. Disabled
  /// (the default) admits everything.
  void set_admission(const fault::AdmissionConfig& cfg) {
    admission_ = fault::AdmissionController(cfg);
  }
  const fault::AdmissionController& admission() const { return admission_; }
  std::uint64_t shed_upstream() const {
    return admission_.shed_total() + breaker_sheds_;
  }

  // ----- the "detailed statistics" a proxy registry provides (§5.1.3)
  std::uint64_t cache_hits() const { return path_.tier_stats(0).hits; }
  std::uint64_t upstream_fetches() const { return upstream_fetches_; }
  std::uint64_t upstream_bytes() const { return upstream_bytes_; }
  std::uint64_t bytes_served() const { return bytes_served_; }
  std::uint64_t cached_bytes() const { return cache_.stored_bytes(); }
  SimDuration throttle_wait_total() const { return throttle_wait_; }

 private:
  SimTime upstream_fetch(SimTime now, std::uint64_t bytes);
  // Gatekeeper for a miss that needs the upstream: token bucket first,
  // then the origin breaker. Errors are kResourceExhausted (shed) or
  // kUnavailable (first-touch on an open breaker).
  Result<Unit> admit_upstream(SimTime now, fault::RequestClass cls);

  std::string host_;
  OciRegistry* upstream_;
  ProxyConfig config_;
  image::BlobStore cache_;
  std::map<std::string, crypto::Digest> manifest_cache_;  // ref -> digest
  sim::FifoStation frontend_;
  sim::FifoStation egress_;
  // The proxy's charge path as a two-tier chain: its own store on top
  // ("manifest:<ref>" / "blob:<hex>" keys), the upstream WAN below.
  // Makes the proxy non-copyable, which it effectively already was
  // (live FifoStations).
  storage::CacheHierarchy path_;
  std::uint64_t upstream_fetches_ = 0;
  std::uint64_t upstream_bytes_ = 0;
  std::uint64_t bytes_served_ = 0;
  SimDuration throttle_wait_ = 0;

  fault::FaultInjector* faults_ = nullptr;
  fault::RetryPolicy retry_ = fault::RetryPolicy::none();
  fault::RetryStats retry_stats_;
  fault::CircuitBreaker origin_breaker_{host_ + "-origin", {}};
  fault::AdmissionController admission_;
  std::uint64_t breaker_sheds_ = 0;
  Rng jitter_rng_{0x5eedu};
  // OriginTier has no error channel: an upstream fetch whose retries
  // are exhausted raises this flag, checked after every path_.read().
  std::optional<Error> upstream_error_;
};

/// One-shot replication of a repository between registries ("Repl./
/// Mirroring", Table 4). Blobs already present at the destination are
/// skipped (CAS dedup across sites).
struct MirrorStats {
  std::uint64_t manifests_copied = 0;
  std::uint64_t blobs_copied = 0;
  std::uint64_t blobs_skipped = 0;
  std::uint64_t bytes_copied = 0;
};

Result<MirrorStats> mirror_repository(const OciRegistry& source,
                                      OciRegistry& destination,
                                      const std::string& repo_key,
                                      const std::string& dest_user);

}  // namespace hpcc::registry
