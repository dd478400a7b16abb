#include "registry/client.h"

#include <algorithm>

#include "dcheck/dcheck.h"
#include "obs/obs.h"

namespace hpcc::registry {

// Phase 2 of a pull: the per-layer CPU work (digest verification, archive
// decode, CAS insert), parallel across layers when a pool is set. Layer
// blobs are independent, so scheduling order cannot change any output;
// results are assembled in manifest order and the first error in that
// order wins, matching the sequential pipeline.
Result<PullResult> RegistryClient::finish_layers(Fetched& leg,
                                                 image::BlobStore* local) {
  const image::OciManifest& manifest = leg.out.manifest;
  std::vector<Result<vfs::Layer>> decoded(
      leg.reached, Result<vfs::Layer>(err_internal("layer not processed")));
  util::parallel_for(pool_, leg.reached, [&](std::size_t i) {
    const crypto::Digest& digest = manifest.layer_digests[i];
    // dcheck: each slot is written by exactly one task; parallel_for's
    // spawn/join edges are what order these writes before the caller's
    // reads below. The per-layer event keys the determinism auditor.
    if (dcheck::enabled()) {
      dcheck::access_write(&decoded[i], "pull.layer.decoded");
      dcheck::event("pull.layer:" + digest.to_string());
    }
    const SharedBytes& blob = leg.blobs[i];
    if (blob == nullptr) {
      // Cache hit: decode the store's own buffer.
      auto cached = local->get(digest);
      if (!cached.ok()) {
        decoded[i] = cached.error();
        return;
      }
      decoded[i] = vfs::Layer::deserialize(*cached.value());
      return;
    }
    auto verified = crypto::verify_digest(*blob, digest);
    if (!verified.ok()) {
      decoded[i] = verified.error();
      return;
    }
    decoded[i] = vfs::Layer::deserialize(*blob);
    // The digest was verified above, so the CAS can index without
    // re-hashing; it shares the fetched buffer.
    if (decoded[i].ok() && leg.keep[i]) local->put_with_digest(blob, digest);
  });
  // Trace/metric emission happens here — after the parallel_for, on the
  // caller's thread, in manifest order — never from pool workers, so the
  // event stream is identical with and without a pool.
  if (obs::tracing_enabled()) {
    for (std::size_t i = 0; i < leg.reached; ++i) {
      const SimTime at = leg.layer_done[i];
      const std::string idx = std::to_string(i);
      if (leg.blobs[i] != nullptr) {
        obs::tracer().instant(obs::Category::kRegistry, "verify:" + idx, at);
        obs::tracer().instant(obs::Category::kRegistry, "decode:" + idx, at);
      } else {
        obs::tracer().instant(obs::Category::kRegistry, "decode-cached:" + idx,
                              at);
      }
    }
  }
  for (std::size_t i = 0; i < leg.reached; ++i) {
    if (dcheck::enabled())
      dcheck::access_read(&decoded[i], "pull.layer.decoded");
    if (!decoded[i].ok()) return decoded[i].error();
    leg.out.layers.push_back(std::move(decoded[i]).value());
  }
  if (leg.error) return *leg.error;
  return std::move(leg.out);
}

Result<RegistryClient::Fetched> RegistryClient::fetch_blobs(
    image::OciManifest manifest, SimTime t, obs::SpanScope& pull_span,
    image::BlobStore* local, image::BlobStore* config_store,
    const BlobFetch& fetch) {
  Fetched leg;
  PullResult& out = leg.out;
  out.manifest = std::move(manifest);
  const crypto::Digest& config_digest = out.manifest.config_digest;
  obs::SpanScope config_span;
  if (obs::tracing_enabled())
    config_span = obs::SpanScope(obs::Category::kRegistry, "config", t);
  if (config_store != nullptr && config_store->contains(config_digest)) {
    // Held: deserialize from the CAS, no transfer charged.
    HPCC_TRY(const SharedBytes cached, config_store->get(config_digest));
    HPCC_TRY(out.config, image::ImageConfig::deserialize(*cached));
  } else {
    auto fetched_config = fetch(config_digest, t);
    config_span.stamp(t);
    HPCC_TRY(SharedBytes config_blob, std::move(fetched_config));
    HPCC_TRY_UNIT(crypto::verify_digest(*config_blob, config_digest));
    out.bytes_transferred += config_blob->size();
    HPCC_TRY(out.config, image::ImageConfig::deserialize(*config_blob));
    if (config_store != nullptr)
      config_store->put_with_digest(std::move(config_blob), config_digest);
  }
  config_span.end(t);
  pull_span.stamp(t);

  // Strictly sequential, manifest order: layer skips, blob fetches and
  // every timed interaction of the leg. This is what keeps `done`/
  // `bytes_transferred` and the source's queueing state identical
  // whether or not phase 2 runs on a pool.
  const std::size_t n = out.manifest.layer_digests.size();
  leg.blobs.resize(n);
  leg.keep.resize(n);
  leg.layer_done.assign(n, t);
  for (std::size_t i = 0; i < n; ++i) {
    const auto& digest = out.manifest.layer_digests[i];
    obs::SpanScope layer_span;
    if (obs::tracing_enabled())
      layer_span = obs::SpanScope(obs::Category::kRegistry,
                                  "layer:" + std::to_string(i), t);
    if (local && local->contains(digest)) {
      // Held: blobs[i] stays null so phase 2 decodes from the store.
      ++out.layers_skipped;
      obs::count("registry.layers_skipped");
      leg.layer_done[i] = t;
      layer_span.end(t);
      continue;
    }
    auto blob = fetch(digest, t);
    leg.layer_done[i] = t;
    layer_span.end(t);
    pull_span.stamp(t);
    if (!blob.ok()) {
      // This layer is not part of the pull, but the time the leg spent
      // failing stays charged.
      leg.reached = i;
      leg.error = blob.error();
      return leg;
    }
    out.bytes_transferred += blob.value()->size();
    obs::count("registry.layers_fetched");
    leg.blobs[i] = std::move(blob).value();
    leg.keep[i] = local != nullptr;
  }
  leg.reached = n;
  out.done = t;
  if (obs::metrics_enabled())
    obs::metrics().counter("registry.pull_bytes").add(out.bytes_transferred);
  pull_span.end(t);
  return leg;
}

Result<PullResult> RegistryClient::pull(SimTime now, OciRegistry& reg,
                                        const image::ImageReference& ref,
                                        image::BlobStore* local) {
  SimTime retry = 0;
  auto admitted = reg.admit_pull(now, &retry);
  if (!admitted.ok()) return admitted.error();

  // Root span covers the whole pull (now → done); child spans cover the
  // manifest, config and per-layer legs, so a trace accounts for the
  // pull's entire simulated time. Error exits close open spans via the
  // SpanScope destructors — B/E events stay balanced on every path.
  obs::count("registry.pulls");
  obs::SpanScope pull_span;
  obs::SpanScope manifest_span;
  if (obs::tracing_enabled()) {
    pull_span =
        obs::SpanScope(obs::Category::kRegistry, "pull:" + ref.to_string(), now);
    manifest_span = obs::SpanScope(obs::Category::kRegistry, "manifest", now);
  }

  SimTime t = reg.serve_request(now);
  manifest_span.stamp(t);
  pull_span.stamp(t);
  HPCC_TRY(auto manifest, reg.get_manifest(ref));
  manifest_span.end(t);

  // Each blob crosses the registry frontend, its egress and the WAN
  // under the retry policy. An exhausted budget leaves `at` at the
  // failure: the failed attempts' sim time stays charged.
  Rng jitter(retry_.jitter_seed);
  const auto fetch = [&](const crypto::Digest& digest,
                         SimTime& at) -> Result<SharedBytes> {
    HPCC_TRY(SharedBytes blob, reg.get_blob(digest));
    const std::uint64_t bytes = blob->size();
    SimTime failed_at = at;
    auto r = fault::retry_timed(
        at, retry_, jitter,
        [&](SimTime start, SimTime* fa) -> Result<SimTime> {
          SimTime a = start;
          if (faults_ != nullptr && faults_->enabled()) {
            const auto d = faults_->decide(fault::Domain::kRegistry, a);
            if (d.auth_expired) {
              // Token expired mid-pull: one round-trip to notice the
              // 401, one to refresh, then the fetch proceeds.
              ++auth_refreshes_;
              obs::count("registry.auth_refreshes");
              a = reg.serve_request(a);
              a = reg.serve_request(a);
            } else if (d.fail) {
              // Frontend 5xx: the request was serviced, no bytes moved.
              a = reg.serve_request(a);
              if (fa) *fa = a;
              return err_unavailable("registry returned 5xx");
            } else if (d.degrade) {
              a += d.extra_latency;
            }
          }
          a = reg.serve_request(a);
          a = reg.serve_transfer(a, bytes);
          return network_->try_wan_transfer(a, node_, bytes, fa);
        },
        &retry_stats_, &failed_at);
    if (!r.ok()) {
      at = last_failed_at_ = failed_at;
      return r.error();
    }
    at = r.value();
    return blob;
  };
  HPCC_TRY(Fetched leg, fetch_blobs(std::move(manifest), t, pull_span, local,
                                    local, fetch));
  return finish_layers(leg, local);
}

Result<PullResult> RegistryClient::pull_via_proxy(
    SimTime now, PullThroughProxy& proxy, const image::ImageReference& ref,
    image::BlobStore* local) {
  HPCC_TRY(Fetched leg, proxy_fetch(now, proxy, ref, local,
                                    /*hedge_leg=*/false));
  return finish_layers(leg, local);
}

Result<RegistryClient::Fetched> RegistryClient::proxy_fetch(
    SimTime now, PullThroughProxy& proxy, const image::ImageReference& ref,
    image::BlobStore* local, bool hedge_leg) {
  obs::count("registry.proxy_pulls");
  obs::SpanScope pull_span;
  if (obs::tracing_enabled())
    pull_span = obs::SpanScope(obs::Category::kRegistry,
                               "pull-proxy:" + ref.to_string(), now);

  HPCC_TRY(auto mres, proxy.fetch_manifest(now, ref));
  pull_span.stamp(mres.done);

  // Each blob comes from the proxy, then crosses the site network
  // (node-to-node speed, not WAN) under the retry policy: the fabric can
  // drop a transfer (kFabric), and a pull should survive a blip without
  // abandoning the proxy path. A hedge leg instead rides the
  // contention-free estimate: it races a cancellable primary, so it must
  // not occupy NIC queues or consume kFabric draws (client.h).
  Rng jitter(retry_.jitter_seed);
  const auto fetch = [&](const crypto::Digest& digest,
                         SimTime& at) -> Result<SharedBytes> {
    HPCC_TRY(auto res, proxy.fetch_blob(at, digest));
    const std::uint64_t bytes = res.blob->size();
    if (hedge_leg) {
      at = network_->transfer_estimate(res.done, 0, node_, bytes);
      return std::move(res.blob);
    }
    SimTime failed_at = res.done;
    auto r = fault::retry_timed(
        res.done, retry_, jitter,
        [&](SimTime start, SimTime* fa) {
          return network_->try_transfer(start, 0, node_, bytes, fa);
        },
        &retry_stats_, &failed_at);
    if (!r.ok()) {
      last_failed_at_ = failed_at;
      return r.error();
    }
    at = r.value();
    return std::move(res.blob);
  };
  // The config always crosses the site network; only layers go through
  // the node's store.
  return fetch_blobs(std::move(mres.manifest), mres.done, pull_span, local,
                     nullptr, fetch);
}

void RegistryClient::set_breaker_config(const fault::BreakerConfig& cfg) {
  breaker_primary_ = fault::CircuitBreaker("proxy-primary", cfg);
  breaker_secondary_ = fault::CircuitBreaker("proxy-secondary", cfg);
  breaker_origin_ = fault::CircuitBreaker("origin", cfg);
}

// The hedge is simulated retroactively: the primary leg fetches to
// completion first, and if its duration overran the budget the second
// leg is launched at now + budget — exactly when a live client's hedge
// timer would have fired. The hedge leg fetches with a null local store,
// so it skips nothing and stores nothing. First completion wins, and
// only the winner is finished: the loser's fetched layers are never
// verified, decoded or stored, and its bytes are never charged to the
// returned result. Should the winner fail phase 2, the other leg is
// finished instead, so a leg whose pull fails never wins. Whichever leg
// is finished stores exactly the layers the primary fetched, which
// leaves the node's store as an unhedged pull would. DESIGN.md §14 has
// the determinism argument.
Result<PullResult> RegistryClient::hedged_proxy_pull(
    SimTime now, PullThroughProxy& proxy, PullThroughProxy* secondary,
    const image::ImageReference& ref, image::BlobStore* local) {
  HPCC_TRY(Fetched first,
           proxy_fetch(now, proxy, ref, local, /*hedge_leg=*/false));
  const bool can_hedge =
      hedge_.enabled() && secondary != nullptr &&
      (!breaker_secondary_.enabled() ||
       breaker_secondary_.state(now) == fault::BreakerState::kClosed);
  // A hard primary failure is the failover path's job, not the hedge's.
  if (!can_hedge || first.error) return finish_layers(first, local);
  const SimDuration budget = hedge_.launch_after(breaker_primary_.health());
  if (first.out.done - now <= budget) return finish_layers(first, local);
  ++hedges_launched_;
  obs::count("fault.hedge.launched");
  auto fetched =
      proxy_fetch(now + budget, *secondary, ref, nullptr, /*hedge_leg=*/true);
  if (!fetched.ok() || fetched.value().error)
    return finish_layers(first, local);
  Fetched& second = fetched.value();
  second.keep = first.keep;
  const auto hedge_won = [&](Result<PullResult> won) {
    ++hedges_won_;
    obs::count("fault.hedge.won");
    breaker_secondary_.on_success(won.value().done,
                                  won.value().done - (now + budget));
    return won;
  };
  if (second.out.done < first.out.done) {
    auto won = finish_layers(second, local);
    return won.ok() ? hedge_won(std::move(won)) : finish_layers(first, local);
  }
  auto primary = finish_layers(first, local);
  if (primary.ok()) return primary;
  auto won = finish_layers(second, local);
  return won.ok() ? hedge_won(std::move(won)) : primary;
}

Result<PullResult> RegistryClient::pull_with_fallback(
    SimTime now, PullThroughProxy& proxy, OciRegistry& origin,
    const image::ImageReference& ref, image::BlobStore* local,
    PullThroughProxy* secondary) {
  SimTime t = now;

  // Leg bodies shared by both route orders. Each returns a final result
  // (success, or an error that must surface to the caller) or nullopt
  // meaning "this leg is down — fall through to the next one", with `t`
  // advanced to the sim time the attempt was abandoned. An open breaker
  // skips its leg without charging any simulated time — avoiding a
  // known-dead endpoint is free.
  //
  // A proxy leg is the primary proxy, hedged against the secondary, or
  // the secondary alone. Only "unavailable" means the endpoint is down;
  // other errors (not-found, integrity) surface to the caller unchanged.
  const auto proxy_leg =
      [&](bool primary) -> std::optional<Result<PullResult>> {
    fault::CircuitBreaker& breaker =
        primary ? breaker_primary_ : breaker_secondary_;
    if (!breaker.allow(t)) {
      ++breaker_skips_;
      return std::nullopt;
    }
    auto via = primary ? hedged_proxy_pull(t, proxy, secondary, ref, local)
                       : pull_via_proxy(t, *secondary, ref, local);
    if (via.ok()) {
      breaker.on_success(via.value().done, via.value().done - t);
      return via;
    }
    if (via.error().code() != ErrorCode::kUnavailable) return via;
    breaker.on_failure(last_failed_at_);
    t = std::max(t, last_failed_at_);
    return std::nullopt;
  };

  const auto origin_leg = [&](bool last) -> std::optional<Result<PullResult>> {
    if (!breaker_origin_.allow(t)) {
      ++breaker_skips_;
      if (last)
        return Result<PullResult>(
            err_unavailable("all pull legs rejected by open circuit breakers"));
      return std::nullopt;
    }
    auto direct = pull(t, origin, ref, local);
    if (direct.ok()) {
      breaker_origin_.on_success(direct.value().done, direct.value().done - t);
      return direct;
    }
    const auto code = direct.error().code();
    if (code == ErrorCode::kUnavailable || code == ErrorCode::kResourceExhausted)
      breaker_origin_.on_failure(std::max(t, last_failed_at_));
    if (last)
      return Result<PullResult>(
          direct.error().wrap("direct pull after proxy fallback"));
    // Mid-order (origin-first), unavailability and rate-limit fall back
    // to the proxy legs; anything else surfaces unchanged.
    if (code != ErrorCode::kUnavailable && code != ErrorCode::kResourceExhausted)
      return direct;
    t = std::max(t, last_failed_at_);
    return std::nullopt;
  };

  if (route_pref_ == RoutePreference::kOriginFirst) {
    // The control plane steered this client away from degraded proxies
    // ahead of the breaker tripping (DESIGN.md §15).
    obs::count("registry.origin_first_pulls");
    if (auto r = origin_leg(/*last=*/false)) return *r;
    if (auto r = proxy_leg(/*primary=*/true)) return *r;
    if (secondary != nullptr)
      if (auto r = proxy_leg(/*primary=*/false)) return *r;
    return err_unavailable("all pull legs failed or were rejected");
  }

  // Classic order: primary proxy → secondary proxy → degrade gracefully
  // with a direct pull from the origin registry, picking up at the sim
  // time the proxy legs were abandoned.
  if (auto r = proxy_leg(/*primary=*/true)) return *r;
  if (secondary != nullptr)
    if (auto r = proxy_leg(/*primary=*/false)) return *r;
  ++proxy_fallbacks_;
  obs::count("registry.proxy_fallbacks");
  return *origin_leg(/*last=*/true);
}

Result<PushResult> RegistryClient::push(SimTime now, OciRegistry& reg,
                                        const std::string& user,
                                        const image::ImageReference& ref,
                                        const image::ImageConfig& config,
                                        const std::vector<vfs::Layer>& layers) {
  PushResult out;
  const std::string project =
      ref.repository.substr(0, ref.repository.find('/'));

  obs::count("registry.pushes");
  obs::SpanScope push_span;
  if (obs::tracing_enabled())
    push_span =
        obs::SpanScope(obs::Category::kRegistry, "push:" + ref.to_string(), now);

  SimTime t = now;
  image::OciManifest manifest;

  // Every outbound byte crosses the node's WAN uplink.
  Bytes config_blob = config.serialize();
  t = network_->wan_transfer(t, node_, config_blob.size());
  out.bytes_transferred += config_blob.size();
  HPCC_TRY(manifest.config_digest,
           reg.push_blob(user, project, std::move(config_blob)));

  // Serialize and digest the layer archives in parallel: this is the
  // push-side CPU hot path. Transfers and registry interactions below
  // stay sequential in layer order.
  struct Prepared {
    Bytes blob;
    crypto::Digest digest;
  };
  std::vector<Prepared> prepared(layers.size());
  util::parallel_for(pool_, layers.size(), [&](std::size_t i) {
    prepared[i].blob = layers[i].serialize();
    prepared[i].digest = crypto::Digest::of(prepared[i].blob);
  });

  for (std::size_t i = 0; i < prepared.size(); ++i) {
    auto& p = prepared[i];
    const std::uint64_t size = p.blob.size();
    obs::SpanScope layer_span;
    if (obs::tracing_enabled())
      layer_span = obs::SpanScope(obs::Category::kRegistry,
                                  "push-layer:" + std::to_string(i), t);
    // Existing blobs are not re-transferred (cross-user dedup on push).
    if (!reg.has_blob(p.digest)) {
      t = network_->wan_transfer(t, node_, size);
      out.bytes_transferred += size;
    }
    layer_span.end(t);
    push_span.stamp(t);
    HPCC_TRY(auto digest, reg.push_blob(user, project, std::move(p.blob)));
    manifest.layer_digests.push_back(digest);
    manifest.layer_sizes.push_back(size);
  }
  t = reg.serve_request(t);
  push_span.stamp(t);
  HPCC_TRY(out.manifest_digest, reg.push_manifest(user, ref, manifest));
  out.done = t;
  if (obs::metrics_enabled())
    obs::metrics().counter("registry.push_bytes").add(out.bytes_transferred);
  push_span.end(t);
  return out;
}

}  // namespace hpcc::registry
