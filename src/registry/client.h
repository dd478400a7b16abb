// hpcc/registry/client.h
//
// The node-side registry client: timed, digest-verified pulls and
// pushes over the cluster network model. Every pull verifies each blob
// against its manifest digest (the integrity check content addressing
// buys, §3.1); layers already present in the local store are skipped —
// the incremental-pull behaviour layered images exist for (§4.1.4).
//
// Every pull leg runs in two phases. Phase 1 fetches: the config, the
// layer skips, every timed interaction and the layer blobs, strictly
// sequential and in manifest order. Phase 2 finishes: it verifies,
// decodes and stores the fetched layers. A hedged pull fetches on both
// legs but finishes only the one it returns. Blobs reach the node as
// the registry's and proxy's own shared buffers (SharedBytes), so no
// hop copies a layer.
//
// When constructed with a ThreadPool, phase 2 — SHA-256 verification,
// layer-archive decode, CAS insertion — runs concurrently across layers
// (they are independent by construction), and a push serializes+digests
// its layers in parallel. Phase 1 stays sequential, so simulated costs
// and all outputs are byte-identical with and without a pool (the
// determinism contract, DESIGN.md §7).
#pragma once

#include <functional>
#include <optional>

#include "fault/fault.h"
#include "fault/resilience.h"
#include "fault/retry.h"
#include "image/convert.h"
#include "image/manifest.h"
#include "image/reference.h"
#include "image/store.h"
#include "registry/proxy.h"
#include "registry/registry.h"
#include "sim/network.h"
#include "util/result.h"
#include "util/thread_pool.h"
#include "vfs/layer.h"

namespace hpcc::obs {
class SpanScope;
}

namespace hpcc::registry {

struct PullResult {
  SimTime done = 0;
  image::OciManifest manifest;
  image::ImageConfig config;
  std::vector<vfs::Layer> layers;
  std::uint64_t bytes_transferred = 0;
  std::uint64_t layers_skipped = 0;  ///< already in the local store
};

struct PushResult {
  SimTime done = 0;
  crypto::Digest manifest_digest;
  std::uint64_t bytes_transferred = 0;
};

class RegistryClient {
 public:
  /// `node` is where this client runs; transfers cross that node's NIC
  /// and the WAN uplink. `pool` (optional) parallelizes the verify/
  /// decode/store work across layers; null keeps everything sequential.
  RegistryClient(sim::Network* network, sim::NodeId node,
                 util::ThreadPool* pool = nullptr)
      : network_(network), node_(node), pool_(pool) {}

  /// Retry policy applied to every fallible timed leg of a pull (WAN
  /// transfers, registry 5xx). The default — RetryPolicy::none() — is a
  /// single attempt: byte-identical to the pre-retry client, and what
  /// audit rule ROB001 flags.
  void set_retry_policy(const fault::RetryPolicy& policy) { retry_ = policy; }

  /// Injector consulted on the pull path (kRegistry: 5xx / auth expiry
  /// at the frontend; kWan via the network's try_wan_transfer). Null or
  /// an empty plan leaves every pull byte-identical to today.
  void set_fault_injector(fault::FaultInjector* injector) {
    faults_ = injector;
  }

  const fault::RetryStats& retry_stats() const { return retry_stats_; }
  /// Sim time of the most recent exhausted-retries failure (what a
  /// caller resumes from when it falls back to another source).
  SimTime last_failed_at() const { return last_failed_at_; }
  std::uint64_t proxy_fallbacks() const { return proxy_fallbacks_; }
  std::uint64_t auth_refreshes() const { return auth_refreshes_; }

  /// Installs per-endpoint circuit breakers on the fallback legs
  /// (primary proxy, secondary proxy, origin). A leg whose breaker is
  /// open is skipped without charging any simulated time — the breaker's
  /// whole point is that known-dead endpoints cost nothing to avoid.
  /// The default (disabled) keeps every pull byte-identical to the
  /// breaker-less client.
  void set_breaker_config(const fault::BreakerConfig& cfg);
  /// Hedged pulls on the proxy leg: when the primary proxy pull runs
  /// past the policy's latency budget, a second leg is launched against
  /// the secondary proxy and the first completion wins; the loser is
  /// cancelled — it charges no bytes to the result, and its fetched
  /// layers are never verified, decoded or stored. The local store ends
  /// up as an unhedged pull leaves it (DESIGN.md §14). Disabled by
  /// default.
  void set_hedge_policy(const fault::HedgePolicy& policy) { hedge_ = policy; }

  /// Which leg pull_with_fallback tries first. kProxyFirst (default) is
  /// the classic site order: primary proxy (hedged) → secondary proxy →
  /// origin. kOriginFirst — what the control plane's RoutingPolicy
  /// installs when proxy health EWMAs degrade ahead of the breaker
  /// tripping — tries the origin first and falls back to the proxy legs
  /// on unavailability or rate-limit. The default keeps every pull
  /// byte-identical to the preference-less client.
  enum class RoutePreference : std::uint8_t { kProxyFirst = 0, kOriginFirst = 1 };

  void set_route_preference(RoutePreference pref) { route_pref_ = pref; }
  RoutePreference route_preference() const { return route_pref_; }

  const fault::CircuitBreaker& primary_breaker() const {
    return breaker_primary_;
  }
  const fault::CircuitBreaker& secondary_breaker() const {
    return breaker_secondary_;
  }
  const fault::CircuitBreaker& origin_breaker() const {
    return breaker_origin_;
  }
  std::uint64_t breaker_skips() const { return breaker_skips_; }
  std::uint64_t hedges_launched() const { return hedges_launched_; }
  std::uint64_t hedges_won() const { return hedges_won_; }

  /// Timed pull of a full image. Rate-limited upstreams surface
  /// kResourceExhausted (with the §5.1.3 "toomanyrequests" semantics);
  /// callers either back off or go through a proxy.
  Result<PullResult> pull(SimTime now, OciRegistry& reg,
                          const image::ImageReference& ref,
                          image::BlobStore* local = nullptr);

  /// Timed pull through a caching proxy (no upstream rate-limit exposure
  /// and site-local transfer speeds on hits).
  Result<PullResult> pull_via_proxy(SimTime now, PullThroughProxy& proxy,
                                    const image::ImageReference& ref,
                                    image::BlobStore* local = nullptr);

  /// Graceful degradation (§5.1.3): try the site proxy first; if the
  /// proxy path fails as unavailable (its upstream leg is down and its
  /// retries are exhausted), fail over to `secondary` (when given), then
  /// to a direct pull from the origin registry, each leg resuming at the
  /// sim time the previous attempt failed. Each leg is guarded by its
  /// breaker (open ⇒ the leg is skipped for free), and the primary leg
  /// is hedged against `secondary` under the hedge policy. With no
  /// secondary, disabled breakers and no hedging this is byte-identical
  /// to the two-leg proxy→origin fallback it grew from.
  Result<PullResult> pull_with_fallback(SimTime now, PullThroughProxy& proxy,
                                        OciRegistry& origin,
                                        const image::ImageReference& ref,
                                        image::BlobStore* local = nullptr,
                                        PullThroughProxy* secondary = nullptr);

  /// Timed push of config + layers + manifest.
  Result<PushResult> push(SimTime now, OciRegistry& reg,
                          const std::string& user,
                          const image::ImageReference& ref,
                          const image::ImageConfig& config,
                          const std::vector<vfs::Layer>& layers);

 private:
  // What phase 1 of a leg hands phase 2: `out` has everything but the
  // layers. `blobs[i]` is layer i as fetched, or null when the local
  // store holds it; `keep[i]` says whether phase 2 stores layer i
  // locally. Only the first `reached` layers were reached; `error` is
  // the fetch error phase 1 stopped at, if any.
  struct Fetched {
    PullResult out;
    std::vector<SharedBytes> blobs;
    std::vector<bool> keep;
    std::vector<SimTime> layer_done;
    std::size_t reached = 0;
    std::optional<Error> error;
  };

  // The primary-proxy leg of pull_with_fallback, hedged against the
  // secondary proxy when the policy and breakers allow it.
  Result<PullResult> hedged_proxy_pull(SimTime now, PullThroughProxy& proxy,
                                       PullThroughProxy* secondary,
                                       const image::ImageReference& ref,
                                       image::BlobStore* local);

  // Phase 1 of pull_via_proxy and of the hedge's second leg. A hedge
  // leg races a cancellable concurrent primary, so its site transfers
  // use the network's contention-free estimate (no NIC queue occupancy,
  // no kFabric draws, no retry-stats inflation) — neither racer may
  // retroactively delay the other, and launching a hedge must not shift
  // any fault stream another leg consumes.
  Result<Fetched> proxy_fetch(SimTime now, PullThroughProxy& proxy,
                              const image::ImageReference& ref,
                              image::BlobStore* local, bool hedge_leg);

  // One leg's way of bringing a blob to the node, starting at `at`. On
  // success `at` is when the blob arrived; on failure it is wherever the
  // leg charged the failed attempt up to.
  using BlobFetch = std::function<Result<SharedBytes>(
      const crypto::Digest& digest, SimTime& at)>;

  // Phase 1 of every pull once it holds `manifest` at `t`, whichever leg
  // serves it: the config, verified, read from and kept in
  // `config_store` when that is non-null; then, in manifest order, each
  // layer `local` holds is skipped and the rest come through `fetch`.
  // On a full fetch `pull_span` ends at the leg's done.
  Result<Fetched> fetch_blobs(image::OciManifest manifest, SimTime t,
                              obs::SpanScope& pull_span,
                              image::BlobStore* local,
                              image::BlobStore* config_store,
                              const BlobFetch& fetch);

  // Phase 2 of a pull: verify, decode and store in `local` the fetched
  // layer blobs concurrently, then assemble in manifest order; layers
  // phase 1 skipped are decoded from `local`. The first error in
  // manifest order wins, and a fetch error comes after every layer
  // phase 1 reached. `layer_done[i]` is the sim time layer i's fetch
  // leg completed; trace events for the (untimed) verify/decode work are
  // stamped with it, on the calling thread in manifest order, so traces
  // stay deterministic regardless of pool scheduling.
  Result<PullResult> finish_layers(Fetched& leg, image::BlobStore* local);

  sim::Network* network_;
  sim::NodeId node_;
  util::ThreadPool* pool_;
  fault::RetryPolicy retry_ = fault::RetryPolicy::none();
  fault::FaultInjector* faults_ = nullptr;
  fault::RetryStats retry_stats_;
  SimTime last_failed_at_ = 0;
  std::uint64_t proxy_fallbacks_ = 0;
  std::uint64_t auth_refreshes_ = 0;

  RoutePreference route_pref_ = RoutePreference::kProxyFirst;
  fault::HedgePolicy hedge_;
  fault::CircuitBreaker breaker_primary_{"proxy-primary", {}};
  fault::CircuitBreaker breaker_secondary_{"proxy-secondary", {}};
  fault::CircuitBreaker breaker_origin_{"origin", {}};
  std::uint64_t breaker_skips_ = 0;
  std::uint64_t hedges_launched_ = 0;
  std::uint64_t hedges_won_ = 0;
};

}  // namespace hpcc::registry
