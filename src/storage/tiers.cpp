#include "storage/tiers.h"

#include "sim/storage.h"

namespace hpcc::storage {

// ---------------------------------------------------------------- PageCache

bool PageCacheTier::holds(const std::string& key) const {
  return cache_->peek(key);
}

SimTime PageCacheTier::serve(SimTime now, const std::string& key,
                             std::uint64_t bytes) {
  // contains() counts the hit and refreshes LRU recency; the hierarchy
  // only calls serve() on tiers holds() said yes to, so this never
  // charges a spurious miss (streaming reads pass an absent key and eat
  // one PageCache miss tick, but no stream caller routes through DRAM).
  cache_->contains(key);
  return now + cache_->hit_cost(bytes);
}

std::uint64_t PageCacheTier::admit(const std::string& key,
                                   std::uint64_t bytes) {
  const std::uint64_t before = cache_->evictions();
  cache_->insert(key, bytes);
  return cache_->evictions() - before;
}

std::uint64_t PageCacheTier::capacity_bytes() const {
  return cache_->capacity_bytes();
}

// ---------------------------------------------------------------- NodeLocal

NodeLocalTier::NodeLocalTier(sim::NodeLocalStorage& dev, bool caching,
                             std::uint64_t capacity)
    : dev_(&dev), caching_(caching), capacity_(capacity) {}

std::unique_ptr<NodeLocalTier> NodeLocalTier::resident(
    sim::NodeLocalStorage& dev) {
  return std::unique_ptr<NodeLocalTier>(new NodeLocalTier(dev, false, 0));
}

std::unique_ptr<NodeLocalTier> NodeLocalTier::cache(sim::NodeLocalStorage& dev,
                                                    std::uint64_t capacity) {
  if (capacity == 0) capacity = dev.capacity() - dev.used();
  return std::unique_ptr<NodeLocalTier>(new NodeLocalTier(dev, true, capacity));
}

NodeLocalTier::~NodeLocalTier() {
  if (caching_) dev_->release(used_);
}

bool NodeLocalTier::holds(const std::string& key) const {
  if (!caching_) return true;  // resident artifact: everything present
  return entries_.contains(key);
}

SimTime NodeLocalTier::serve(SimTime now, const std::string& key,
                             std::uint64_t bytes) {
  if (caching_) {
    auto it = entries_.find(key);
    if (it != entries_.end()) {
      lru_.erase(it->second.it);
      lru_.push_front(key);
      it->second.it = lru_.begin();
    }
  }
  return dev_->read(now, bytes);
}

std::uint64_t NodeLocalTier::admit(const std::string& key,
                                   std::uint64_t bytes) {
  if (!caching_ || bytes > capacity_) return 0;
  std::uint64_t evicted = 0;
  auto it = entries_.find(key);
  if (it != entries_.end()) {
    used_ -= it->second.bytes;
    dev_->release(it->second.bytes);
    lru_.erase(it->second.it);
    entries_.erase(it);
  }
  evict_to(capacity_ - bytes, &evicted);
  if (!dev_->reserve(bytes)) return evicted;  // device full of other artifacts
  lru_.push_front(key);
  entries_[key] = Entry{lru_.begin(), bytes};
  used_ += bytes;
  return evicted;
}

void NodeLocalTier::evict_to(std::uint64_t target, std::uint64_t* evicted) {
  while (used_ > target && !lru_.empty()) {
    const std::string& victim = lru_.back();
    auto it = entries_.find(victim);
    used_ -= it->second.bytes;
    dev_->release(it->second.bytes);
    entries_.erase(it);
    lru_.pop_back();
    ++*evicted;
  }
}

std::uint64_t NodeLocalTier::capacity_bytes() const {
  return caching_ ? capacity_ : dev_->capacity();
}

SimTime NodeLocalTier::meta_op(SimTime now) {
  // A metadata op against local NVMe is a zero-byte device access:
  // charges the op latency and queues behind in-flight IO.
  return dev_->read(now, 0);
}

SimTime NodeLocalTier::stream_write(SimTime now, std::uint64_t bytes) {
  return dev_->write(now, bytes);
}

// ----------------------------------------------------------------- SharedFs

SimTime SharedFsTier::serve(SimTime now, const std::string& key,
                            std::uint64_t bytes) {
  (void)key;
  return fs_->read(now, bytes);
}

SimTime SharedFsTier::meta_op(SimTime now) { return fs_->metadata_op(now); }

SimTime SharedFsTier::stream_write(SimTime now, std::uint64_t bytes) {
  return fs_->write(now, bytes);
}

// ---------------------------------------------------------------- factories

std::unique_ptr<ChunkSource> page_cache_tier(sim::PageCache& cache) {
  return std::make_unique<PageCacheTier>(cache);
}

std::unique_ptr<ChunkSource> shared_fs_tier(sim::SharedFilesystem& fs) {
  return std::make_unique<SharedFsTier>(fs);
}

std::unique_ptr<ChunkSource> origin_tier(std::string name,
                                         OriginTier::OriginFn fetch) {
  return std::make_unique<OriginTier>(std::move(name), std::move(fetch));
}

}  // namespace hpcc::storage
