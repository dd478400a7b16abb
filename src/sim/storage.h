// hpcc/sim/storage.h
//
// Storage models for the cluster simulation.
//
// The survey's performance discussion centres on storage behaviour:
// "a container image contains many small files which may be loaded from
// shared storage from many compute nodes and that put strain on the
// cluster filesystem" (§3.2); "HPC cluster filesystems are known for not
// scaling well in cases of random access with many small files" (§4.1.4);
// flattened single-file images "trade memory and CPU (decompression) for
// disk IO" (§3.2). These models make those statements measurable:
//
//  * SharedFilesystem — Lustre/GPFS-style: a metadata service (every
//    open/stat is a round trip through a small pool of metadata servers)
//    and a pool of data movers sharing aggregate bandwidth. Contention is
//    what makes 512 nodes starting Python containers slow.
//  * NodeLocalStorage — per-node NVMe: no shared contention, low latency.
//  * PageCache — per-node LRU over (file, block) keys; repeated reads of
//    hot libraries are near-free, as on a real host OS.
#pragma once

#include <cstdint>
#include <list>
#include <string>
#include <unordered_map>

#include "sim/resource.h"
#include "util/sim_time.h"

namespace hpcc::sim {

struct SharedFsConfig {
  /// Service time of one metadata op (open/stat/lookup) at the server.
  SimDuration meta_op_service = usec(150);
  /// Parallel metadata servers (Lustre MDTs).
  unsigned meta_servers = 4;
  /// Aggregate data bandwidth in bytes per microsecond (12000 = 12 GB/s).
  double aggregate_bandwidth = 12000.0;
  /// Parallel data movers (OSTs); each provides an equal bandwidth share.
  unsigned data_movers = 8;
  /// Fixed network round-trip cost per data op.
  SimDuration data_op_latency = usec(400);
};

/// A shared (cluster-wide) POSIX filesystem. All nodes funnel through the
/// same stations, so concurrency shows up as queueing delay.
class SharedFilesystem {
 public:
  explicit SharedFilesystem(SharedFsConfig config = {});

  /// One metadata operation (open, stat, readdir entry). Returns the
  /// completion time for a request arriving at `now`.
  SimTime metadata_op(SimTime now);

  /// Reads `bytes` as one streaming operation. Larger reads amortize the
  /// fixed latency — which is exactly why flattened images win.
  SimTime read(SimTime now, std::uint64_t bytes);

  /// Writes `bytes` (image conversion output, overlay upper dirs, ...).
  SimTime write(SimTime now, std::uint64_t bytes);

  const SharedFsConfig& config() const { return config_; }
  std::uint64_t metadata_ops() const { return meta_.requests(); }
  std::uint64_t bytes_read() const { return bytes_read_; }
  std::uint64_t bytes_written() const { return bytes_written_; }

  void reset_stats();

 private:
  SimDuration transfer_service(std::uint64_t bytes) const;

  SharedFsConfig config_;
  FifoStation meta_;
  FifoStation data_;
  std::uint64_t bytes_read_ = 0;
  std::uint64_t bytes_written_ = 0;
};

struct LocalStorageConfig {
  SimDuration op_latency = usec(20);        ///< NVMe access latency
  double bandwidth = 3000.0;                ///< bytes/us (3 GB/s)
  std::uint64_t capacity = 1ull << 40;      ///< 1 TiB scratch
};

/// Node-local scratch (NVMe/tmpfs). One per node; no cross-node
/// contention. Tracks used capacity so engines can fail when the
/// extracted image does not fit.
class NodeLocalStorage {
 public:
  explicit NodeLocalStorage(LocalStorageConfig config = {});

  SimTime read(SimTime now, std::uint64_t bytes);
  SimTime write(SimTime now, std::uint64_t bytes);

  /// Reserve/release capacity for stored artifacts.
  bool reserve(std::uint64_t bytes);
  void release(std::uint64_t bytes);

  std::uint64_t used() const { return used_; }
  std::uint64_t capacity() const { return config_.capacity; }

 private:
  LocalStorageConfig config_;
  FifoStation dev_;
  std::uint64_t used_ = 0;
};

struct PageCacheConfig {
  std::uint64_t capacity_bytes = 4ull << 30;  ///< 4 GiB cacheable
  double memory_bandwidth = 10000.0;          ///< bytes/us (10 GB/s)
};

/// Per-node page cache keyed by opaque strings ("img:<digest>:blk<17>").
/// lookup() returns the in-memory copy cost on hit.
class PageCache {
 public:
  explicit PageCache(PageCacheConfig config = {});

  /// True if `key` is cached; counts a hit.
  bool contains(const std::string& key);

  /// Non-mutating membership probe: no counters, no LRU touch. The
  /// tiered data path walks the hierarchy with peek() and only touches
  /// recency on the tier that actually serves.
  bool peek(const std::string& key) const { return entries_.contains(key); }

  /// Inserts `key` of `bytes` size, evicting LRU entries as needed.
  /// Entries larger than the whole cache are ignored.
  void insert(const std::string& key, std::uint64_t bytes);

  /// Cost of serving `bytes` from memory.
  SimDuration hit_cost(std::uint64_t bytes) const;

  void invalidate_all();

  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }
  std::uint64_t evictions() const { return evictions_; }
  std::uint64_t used() const { return used_; }
  std::uint64_t capacity_bytes() const { return config_.capacity_bytes; }

 private:
  void evict_to(std::uint64_t target);

  PageCacheConfig config_;
  // LRU: list front = most recent. Map stores list iterator + size.
  std::list<std::string> lru_;
  struct Entry {
    std::list<std::string>::iterator it;
    std::uint64_t bytes;
  };
  std::unordered_map<std::string, Entry> entries_;
  std::uint64_t used_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
};

}  // namespace hpcc::sim
