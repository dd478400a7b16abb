// hpcc/storage/tiers.h
//
// Concrete ChunkSource tiers adapting the sim storage primitives and
// fetch callbacks. These are the only places in the tree (outside
// src/sim itself) allowed to touch sim::PageCache / SharedFilesystem /
// NodeLocalStorage — everything else composes them via CacheHierarchy.
#pragma once

#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>

#include "storage/chunk_source.h"
#include "util/sim_time.h"

namespace hpcc::sim {
class PageCache;
class NodeLocalStorage;
class SharedFilesystem;
}  // namespace hpcc::sim

namespace hpcc::storage {

/// Per-node DRAM page cache (LRU, bounded). Serving refreshes recency
/// through sim::PageCache::contains(), so its own hit counter keeps
/// ticking for callers that watch it directly.
class PageCacheTier : public ChunkSource {
 public:
  explicit PageCacheTier(sim::PageCache& cache) : cache_(&cache) {}

  std::string_view name() const override { return "page-cache"; }
  bool is_cache() const override { return true; }
  bool holds(const std::string& key) const override;
  SimTime serve(SimTime now, const std::string& key,
                std::uint64_t bytes) override;
  std::uint64_t admit(const std::string& key, std::uint64_t bytes) override;
  std::uint64_t capacity_bytes() const override;

 private:
  sim::PageCache* cache_;
};

/// Node-local NVMe. Two modes:
///  * resident() — terminal tier: the artifact lives on the device
///    (unpacked rootfs, converted squash), every key is present.
///  * cache() — mid-chain tier: an LRU chunk cache on the device in
///    front of shared FS or an origin, bounded by `capacity` (0 = the
///    device's free space at construction). Occupancy is reserved
///    against the device so engines still see realistic fill.
class NodeLocalTier : public ChunkSource {
 public:
  static std::unique_ptr<NodeLocalTier> resident(sim::NodeLocalStorage& dev);
  static std::unique_ptr<NodeLocalTier> cache(sim::NodeLocalStorage& dev,
                                              std::uint64_t capacity = 0);
  ~NodeLocalTier() override;

  std::string_view name() const override {
    return caching_ ? "node-local-cache" : "node-local";
  }
  bool is_cache() const override { return caching_; }
  bool holds(const std::string& key) const override;
  SimTime serve(SimTime now, const std::string& key,
                std::uint64_t bytes) override;
  std::uint64_t admit(const std::string& key, std::uint64_t bytes) override;
  std::uint64_t capacity_bytes() const override;
  SimTime meta_op(SimTime now) override;
  SimTime stream_write(SimTime now, std::uint64_t bytes) override;

 private:
  NodeLocalTier(sim::NodeLocalStorage& dev, bool caching,
                std::uint64_t capacity);

  void evict_to(std::uint64_t target, std::uint64_t* evicted);

  sim::NodeLocalStorage* dev_;
  bool caching_;
  const std::uint64_t capacity_;
  std::uint64_t used_ = 0;
  // LRU: list front = most recent (cache mode only).
  std::list<std::string> lru_;
  struct Entry {
    std::list<std::string>::iterator it;
    std::uint64_t bytes;
  };
  std::unordered_map<std::string, Entry> entries_;
};

/// Cluster shared filesystem — terminal tier. Holds everything; misses
/// cannot happen below it, contention shows up as queueing delay.
class SharedFsTier : public ChunkSource {
 public:
  explicit SharedFsTier(sim::SharedFilesystem& fs) : fs_(&fs) {}

  std::string_view name() const override { return "shared-fs"; }
  bool is_cache() const override { return false; }
  bool holds(const std::string& key) const override {
    (void)key;
    return true;
  }
  SimTime serve(SimTime now, const std::string& key,
                std::uint64_t bytes) override;
  SimTime meta_op(SimTime now) override;
  SimTime stream_write(SimTime now, std::uint64_t bytes) override;

 private:
  sim::SharedFilesystem* fs_;
};

/// Terminal fetch tier wrapping an arbitrary transfer cost function —
/// a registry over the WAN, a proxy's upstream. The callback charges
/// the full fetch path for `bytes` arriving at `now` and returns the
/// completion time.
class OriginTier : public ChunkSource {
 public:
  using OriginFn = std::function<SimTime(SimTime, std::uint64_t)>;

  OriginTier(std::string name, OriginFn fetch)
      : name_(std::move(name)), fetch_(std::move(fetch)) {}

  std::string_view name() const override { return name_; }
  bool is_cache() const override { return false; }
  bool holds(const std::string& key) const override {
    (void)key;
    return true;
  }
  SimTime serve(SimTime now, const std::string& key,
                std::uint64_t bytes) override {
    (void)key;
    return fetch_(now, bytes);
  }

 private:
  std::string name_;
  OriginFn fetch_;
};

/// Cache tier whose membership and latency are owned by an existing
/// keyed store (the proxy's blob and manifest caches). The store keeps
/// its own admission policy; the hierarchy only asks "do you hold
/// this?" and charges `serve_latency` per hit.
class KeyedStoreTier : public ChunkSource {
 public:
  using HoldsFn = std::function<bool(const std::string&)>;

  KeyedStoreTier(std::string name, HoldsFn holds,
                 SimDuration serve_latency = 0)
      : name_(std::move(name)),
        holds_(std::move(holds)),
        serve_latency_(serve_latency) {}

  std::string_view name() const override { return name_; }
  bool is_cache() const override { return true; }
  bool holds(const std::string& key) const override { return holds_(key); }
  SimTime serve(SimTime now, const std::string& key,
                std::uint64_t bytes) override {
    (void)key;
    (void)bytes;
    return now + serve_latency_;
  }
  // admit() stays the no-op default: the backing store decides what it
  // keeps (the proxy caches what it fetched upstream).

 private:
  std::string name_;
  HoldsFn holds_;
  SimDuration serve_latency_;
};

std::unique_ptr<ChunkSource> page_cache_tier(sim::PageCache& cache);
std::unique_ptr<ChunkSource> shared_fs_tier(sim::SharedFilesystem& fs);
std::unique_ptr<ChunkSource> origin_tier(std::string name,
                                         OriginTier::OriginFn fetch);

}  // namespace hpcc::storage
