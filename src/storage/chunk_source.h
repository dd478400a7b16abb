// hpcc/storage/chunk_source.h
//
// The unified node data path: every byte-moving layer of the simulator
// reads image content through a chain of ChunkSources (cache_hierarchy.h)
// instead of talking to sim::PageCache / SharedFilesystem /
// NodeLocalStorage directly.
//
// The survey's performance story is entirely about *where image bytes
// live*: shared-FS small-file strain (§3.2/§4.1.4), single-file images
// trading CPU for IO (§3.2), site registry proxies (§5.1.3) and lazy
// pulling (§7) are all placements of the same content at different tiers
// of one hierarchy — page cache → node-local NVMe → shared FS → site
// proxy → WAN origin. Modelling them as one chain gives every consumer
// (mount models, engine artifact paths, the lazy mount, the proxy) the
// same lookup/promotion/eviction semantics and uniform counters, and
// gives the audit rules a topology they can reason about.
//
// A ChunkSource is one tier. Cache tiers hold a bounded, promotable
// subset keyed by opaque chunk keys ("img:<digest>:/bin/app:3"); the
// terminal tier of a chain (a resident backing device or a fetch origin)
// holds everything and never admits.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/sim_time.h"

namespace hpcc::storage {

/// Uniform per-tier counters, maintained by CacheHierarchy (tiers stay
/// accounting-free). Conservation invariant: hits + misses == lookups.
struct TierStats {
  std::uint64_t lookups = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::uint64_t bytes_served = 0;    ///< bytes this tier delivered
  std::uint64_t bytes_admitted = 0;  ///< bytes promoted into this tier
  std::uint64_t prefetch_admits = 0; ///< admissions from the prefetch path
  /// Reads this tier held but could not serve (injected tier fault or
  /// quarantine): the walk fell through to the next holder. Each one is
  /// also counted as a miss, so the conservation invariant still holds.
  std::uint64_t degraded_reads = 0;
};

/// One chunk read. The three byte counts model compression: a squash
/// block occupies `bytes` uncompressed (what a cache hit serves),
/// `transfer_bytes` on the wire or device (what a miss moves), and
/// `admit_bytes` in the cache after decompression (usually == bytes).
/// Zero means "same as bytes".
struct ChunkRequest {
  std::string key;
  std::uint64_t bytes = 0;
  std::uint64_t transfer_bytes = 0;
  std::uint64_t admit_bytes = 0;

  std::uint64_t wire_bytes() const {
    return transfer_bytes ? transfer_bytes : bytes;
  }
  std::uint64_t cache_bytes() const {
    return admit_bytes ? admit_bytes : bytes;
  }
};

/// Where a read was served from.
struct ReadOutcome {
  SimTime done = 0;
  std::size_t tier = 0;    ///< index of the serving tier in the chain
  bool cache_hit = false;  ///< served by a cache tier (not the terminal)
};

/// One tier of the data path. Implementations adapt the sim storage
/// primitives (tiers.h) or wrap fetch callbacks (OriginTier). Methods
/// are called under the owning CacheHierarchy's lock — tiers need no
/// internal synchronization of their own.
class ChunkSource {
 public:
  virtual ~ChunkSource() = default;

  virtual std::string_view name() const = 0;

  /// Cache tiers hold a bounded subset and accept promotions; terminal
  /// tiers (resident backing devices, fetch origins) hold everything
  /// and never admit.
  virtual bool is_cache() const = 0;

  /// Membership probe. Must not mutate counters or recency state — the
  /// hierarchy walks the chain with holds() and only the serving tier's
  /// serve() touches LRU order.
  virtual bool holds(const std::string& key) const = 0;

  /// Charge delivering `bytes` of `key` from this tier at `now`. Cache
  /// tiers also refresh the key's recency here.
  virtual SimTime serve(SimTime now, const std::string& key,
                        std::uint64_t bytes) = 0;

  /// Install `key` occupying `bytes`, evicting as needed; returns the
  /// number of evictions performed. Terminal tiers ignore admissions.
  virtual std::uint64_t admit(const std::string& key, std::uint64_t bytes) {
    (void)key;
    (void)bytes;
    return 0;
  }

  /// Capacity in bytes; 0 means unbounded / not applicable.
  virtual std::uint64_t capacity_bytes() const { return 0; }

  /// One metadata operation (open/stat) against this tier.
  virtual SimTime meta_op(SimTime now) { return now + 1; }

  /// Streaming (non-chunk) IO against this tier: bulk artifact reads
  /// and writes that bypass the chunk key space.
  virtual SimTime stream_read(SimTime now, std::uint64_t bytes) {
    return serve(now, std::string(), bytes);
  }
  virtual SimTime stream_write(SimTime now, std::uint64_t bytes) {
    return stream_read(now, bytes);
  }
};

/// Value-type description of a chain, for audit rules and reports: the
/// analyzer must reason about topology without owning live tiers.
struct TierSummary {
  std::string name;
  bool cache = false;
  std::uint64_t capacity_bytes = 0;  ///< 0 = unbounded / n.a.
};

struct TierTopology {
  std::vector<TierSummary> tiers;  ///< top (fastest) first

  bool has_cache_tier() const;
  /// The highest cache tier, or nullptr if the chain has none.
  const TierSummary* top_cache() const;
  TierSummary* top_cache();
  /// "page-cache(4.0GiB) -> shared-fs" — for findings and logs.
  std::string to_string() const;
};

}  // namespace hpcc::storage
