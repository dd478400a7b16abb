// hpcc/storage/cache_hierarchy.h
//
// CacheHierarchy composes ChunkSource tiers (top/fastest first) into the
// node data path: lookups walk top→bottom, the first tier holding the
// key serves it, and the served bytes are promoted into every cache tier
// above the serving tier. The terminal tier (shared FS, site proxy, WAN
// origin) always holds, so a fully-cold read charges the full fetch path
// exactly once and subsequent reads hit closer to the node.
//
// Cost-charging rules (DESIGN.md §8):
//  * a hit at a cache tier charges ChunkRequest::bytes (uncompressed —
//    what the consumer actually copies out);
//  * a miss serviced by the terminal tier charges wire_bytes()
//    (compressed / on-the-wire size);
//  * promotion admits cache_bytes() into each cache tier above the
//    serving tier — space accounting, never a time charge (the bytes
//    ride the same transfer);
//  * missed tiers above the serving tier each count one lookup+miss, so
//    hits + misses == lookups holds per tier.
//
// Prefetch determinism (the PR-2 contract): prefetch() queues a request
// and optionally runs real CPU work (block decompression) on the
// ThreadPool; tier admission happens only in drain_prefetches(), on the
// caller's thread, in FIFO request order. Pool-completion order can
// therefore never reorder LRU state: functional read results and the
// hit/miss pattern of subsequent timed reads are byte-identical with
// and without a pool. Prefetch only warms tiers — it never charges
// simulated time to the origin or network.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "fault/fault.h"
#include "storage/chunk_source.h"
#include "util/sim_time.h"

namespace hpcc::util {
class ThreadPool;
}

namespace hpcc::sim {
class Cluster;
class PageCache;
class NodeLocalStorage;
class SharedFilesystem;
}  // namespace hpcc::sim

namespace hpcc::storage {

class CacheHierarchy {
 public:
  CacheHierarchy() = default;
  ~CacheHierarchy();

  CacheHierarchy(const CacheHierarchy&) = delete;
  CacheHierarchy& operator=(const CacheHierarchy&) = delete;

  /// Appends a tier below the current bottom (call in top→bottom order).
  void add_tier(std::unique_ptr<ChunkSource> tier);

  /// Pool used by prefetch() for real CPU work. Null = inline.
  void set_prefetch_pool(util::ThreadPool* pool) { pool_ = pool; }

  /// Injector consulted (kStorage domain) when a cache tier is about to
  /// serve a read. Null or an empty plan restores today's walk exactly.
  void set_fault_injector(fault::FaultInjector* injector);

  /// After `threshold` storage faults at one tier, that tier is
  /// quarantined: subsequent reads skip it (counted lookup+miss) and
  /// promotions/prefetches stop admitting into it. 0 (default) disables
  /// quarantine — a faulted tier keeps being probed.
  void set_quarantine_threshold(std::uint32_t threshold);
  bool quarantined(std::size_t tier) const;
  /// Lifts every quarantine and resets per-tier fault counts (the
  /// operator replaced the flaky device).
  void clear_quarantine();

  std::size_t num_tiers() const;

  /// The timed read path: walk tiers, serve at the first holder,
  /// promote upward. An empty hierarchy completes at now + 1.
  ReadOutcome read(SimTime now, const ChunkRequest& req);

  /// True if any cache tier currently holds `key` (no counters touched).
  bool holds_cached(const std::string& key) const;

  /// Queue a background warm-up of `req`. `cpu_work` is the real
  /// (functional-plane) work needed to materialize the chunk — e.g.
  /// decompressing a squash block — and runs on the prefetch pool when
  /// one is set, inline otherwise. Admission into cache tiers is
  /// deferred to drain_prefetches().
  void prefetch(const ChunkRequest& req,
                std::function<void()> cpu_work = nullptr);

  /// Completes all queued prefetches in FIFO order: waits for their CPU
  /// work, then admits each into every cache tier (skipping keys some
  /// cache tier already holds). Called by consumers at the start of each
  /// timed entry point; also run by the destructor.
  void drain_prefetches();

  /// One metadata op against the terminal tier.
  SimTime meta_op(SimTime now);

  /// Streaming (bulk, non-chunk) IO against the terminal tier.
  SimTime stream_read(SimTime now, std::uint64_t bytes);
  SimTime stream_write(SimTime now, std::uint64_t bytes);

  TierStats tier_stats(std::size_t tier) const;
  TierStats total_stats() const;
  TierTopology topology() const;

  std::uint64_t prefetch_requests() const;
  std::uint64_t prefetched_bytes() const;

 private:
  struct Pending {
    ChunkRequest req;
    std::future<void> done;  // valid only when cpu_work ran on the pool
    std::uint64_t hb = 0;    // dcheck spawn handle; joined in drain
  };

  void admit_prefetched(const ChunkRequest& req);

  mutable std::mutex mu_;  // tiers_ + stats_ + fault/quarantine state
  std::vector<std::unique_ptr<ChunkSource>> tiers_;
  std::vector<TierStats> stats_;

  fault::FaultInjector* faults_ = nullptr;
  std::uint32_t quarantine_threshold_ = 0;  // 0 = never quarantine
  std::vector<std::uint32_t> tier_faults_;
  std::vector<bool> quarantined_;

  util::ThreadPool* pool_ = nullptr;
  mutable std::mutex pending_mu_;  // pending_ + prefetch counters
  std::deque<Pending> pending_;
  std::uint64_t prefetch_requests_ = 0;
  std::uint64_t prefetched_bytes_ = 0;
};

/// A shared hierarchy plus a key-namespace prefix — the handle byte
/// consumers (mount models, the engine, benches) actually pass around.
/// Copyable; copies share the hierarchy but may scope different key
/// prefixes onto it ("img:app" vs "img:base" over one node chain). An
/// empty path degrades to now + 1 costs, mirroring the cacheless
/// backings it replaces.
class DataPath {
 public:
  DataPath() = default;
  DataPath(std::shared_ptr<CacheHierarchy> hierarchy, std::string key_prefix)
      : hierarchy_(std::move(hierarchy)), prefix_(std::move(key_prefix)) {}

  bool empty() const { return hierarchy_ == nullptr; }
  CacheHierarchy* hierarchy() const { return hierarchy_.get(); }
  const std::string& key_prefix() const { return prefix_; }

  std::string key(const std::string& suffix) const {
    return prefix_.empty() ? suffix : prefix_ + ":" + suffix;
  }

  ReadOutcome read_chunk(SimTime now, const std::string& suffix,
                         std::uint64_t bytes, std::uint64_t transfer_bytes = 0,
                         std::uint64_t admit_bytes = 0) const;
  void prefetch_chunk(const std::string& suffix, std::uint64_t bytes,
                      std::uint64_t transfer_bytes = 0,
                      std::uint64_t admit_bytes = 0,
                      std::function<void()> cpu_work = nullptr) const;
  void drain() const;

  SimTime meta_op(SimTime now) const;
  SimTime stream_read(SimTime now, std::uint64_t bytes) const;
  SimTime stream_write(SimTime now, std::uint64_t bytes) const;

  bool has_cache_tier() const;

 private:
  std::shared_ptr<CacheHierarchy> hierarchy_;
  std::string prefix_;
};

/// Declarative chain assembly for the common node shapes. Tiers are
/// stacked in the fixed order page cache → node-local → (shared FS |
/// origin); whichever terminal is present closes the chain. A non-null
/// `local` becomes a resident terminal when nothing sits below it, and
/// an on-device chunk cache, sized to the device's free space, when
/// shared/origin does.
struct DataPathConfig {
  sim::PageCache* page_cache = nullptr;
  sim::NodeLocalStorage* local = nullptr;
  sim::SharedFilesystem* shared = nullptr;
  std::function<SimTime(SimTime, std::uint64_t)> origin;
  std::string origin_name = "origin";
  util::ThreadPool* prefetch_pool = nullptr;
  std::string key_prefix;
};

DataPath make_data_path(const DataPathConfig& config);

enum class Placement { kSharedFs, kNodeLocal };

/// The standard per-node artifact path over a cluster: page cache on
/// top, then the placement's backing store as terminal.
DataPath node_data_path(sim::Cluster& cluster, std::uint32_t node,
                        Placement placement, std::string key_prefix);

}  // namespace hpcc::storage
