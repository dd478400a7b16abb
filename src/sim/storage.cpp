#include "sim/storage.h"

#include <algorithm>

namespace hpcc::sim {

SharedFilesystem::SharedFilesystem(SharedFsConfig config)
    : config_(config),
      meta_("sharedfs-meta", config.meta_servers),
      data_("sharedfs-data", config.data_movers) {}

SimDuration SharedFilesystem::transfer_service(std::uint64_t bytes) const {
  const double per_mover_bw =
      config_.aggregate_bandwidth / std::max(1u, config_.data_movers);
  return config_.data_op_latency +
         static_cast<SimDuration>(static_cast<double>(bytes) / per_mover_bw);
}

SimTime SharedFilesystem::metadata_op(SimTime now) {
  return meta_.submit(now, config_.meta_op_service);
}

SimTime SharedFilesystem::read(SimTime now, std::uint64_t bytes) {
  bytes_read_ += bytes;
  return data_.submit(now, transfer_service(bytes));
}

SimTime SharedFilesystem::write(SimTime now, std::uint64_t bytes) {
  bytes_written_ += bytes;
  return data_.submit(now, transfer_service(bytes));
}

void SharedFilesystem::reset_stats() {
  meta_.reset();
  data_.reset();
  bytes_read_ = 0;
  bytes_written_ = 0;
}

NodeLocalStorage::NodeLocalStorage(LocalStorageConfig config)
    : config_(config), dev_("local-nvme", 1) {}

SimTime NodeLocalStorage::read(SimTime now, std::uint64_t bytes) {
  const auto service =
      config_.op_latency +
      static_cast<SimDuration>(static_cast<double>(bytes) / config_.bandwidth);
  return dev_.submit(now, service);
}

SimTime NodeLocalStorage::write(SimTime now, std::uint64_t bytes) {
  return read(now, bytes);  // symmetric device model
}

bool NodeLocalStorage::reserve(std::uint64_t bytes) {
  if (used_ + bytes > config_.capacity) return false;
  used_ += bytes;
  return true;
}

void NodeLocalStorage::release(std::uint64_t bytes) {
  used_ = bytes > used_ ? 0 : used_ - bytes;
}

PageCache::PageCache(PageCacheConfig config) : config_(config) {}

bool PageCache::contains(const std::string& key) {
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    ++misses_;
    return false;
  }
  // Move to front of LRU.
  lru_.erase(it->second.it);
  lru_.push_front(key);
  it->second.it = lru_.begin();
  ++hits_;
  return true;
}

void PageCache::insert(const std::string& key, std::uint64_t bytes) {
  if (bytes > config_.capacity_bytes) return;
  auto it = entries_.find(key);
  if (it != entries_.end()) {
    used_ -= it->second.bytes;
    lru_.erase(it->second.it);
    entries_.erase(it);
  }
  evict_to(config_.capacity_bytes - bytes);
  lru_.push_front(key);
  entries_[key] = Entry{lru_.begin(), bytes};
  used_ += bytes;
}

SimDuration PageCache::hit_cost(std::uint64_t bytes) const {
  return static_cast<SimDuration>(static_cast<double>(bytes) /
                                  config_.memory_bandwidth) +
         1;  // never free: at least 1us
}

void PageCache::invalidate_all() {
  lru_.clear();
  entries_.clear();
  used_ = 0;
}

void PageCache::evict_to(std::uint64_t target) {
  while (used_ > target && !lru_.empty()) {
    const std::string& victim = lru_.back();
    auto it = entries_.find(victim);
    used_ -= it->second.bytes;
    entries_.erase(it);
    lru_.pop_back();
    ++evictions_;
  }
}

}  // namespace hpcc::sim
