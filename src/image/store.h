// hpcc/image/store.h
//
// Content-addressable blob storage and the engine-local image store.
//
// "Layer deduplication can be employed in registries and locally based
// on equal hashes (content-addressable storage)" (§3.1). BlobStore is
// that CAS: putting the same bytes twice stores them once and counts a
// dedup hit — bench_dedup measures the storage this saves across image
// families sharing base layers. ImageStore adds the tag→manifest
// indirection engines and registries both need.
//
// BlobStore is concurrency-safe: the map is split across mutex-guarded
// shards, so the parallel pull pipeline's concurrent put_verified calls
// (one per layer, see registry/client.h) don't serialize on a single
// lock. Digests are computed outside any lock — that is where the CPU
// time goes. Counters are exact under concurrency: stored/logical bytes
// and dedup hits are updated under the owning shard's lock or
// atomically, so a race of N identical puts stores the content once and
// counts N-1 dedup hits, same as the sequential order would. The
// digest→shard mapping is purely content-derived, so placement — and
// therefore every output byte — is independent of which thread touched
// the store first.
#pragma once

#include <atomic>
#include <memory>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "crypto/digest.h"
#include "image/manifest.h"
#include "image/reference.h"
#include "util/result.h"

namespace hpcc::util {
class ThreadPool;
}

namespace hpcc::image {

class BlobStore {
 public:
  /// Mutex shards the digest space is split across.
  static constexpr std::size_t kNumShards = 16;

  BlobStore();
  // Copy/move snapshot the source shard-by-shard. They lock the source's
  // shards but are not atomic across shards: don't copy a store while
  // another thread mutates it mid-copy and expect a point-in-time view.
  BlobStore(const BlobStore& other);
  BlobStore(BlobStore&& other) noexcept;
  BlobStore& operator=(const BlobStore& other);
  BlobStore& operator=(BlobStore&& other) noexcept;

  /// Stores `blob`; returns its digest. Identical content is stored
  /// once (dedup). Thread-safe.
  crypto::Digest put(Bytes blob);

  /// Verifying put: fails with kIntegrity if the content does not hash
  /// to `expected` (every pull does this). Hashes the content exactly
  /// once (the verification digest doubles as the storage key).
  Result<crypto::Digest> put_verified(Bytes blob, const crypto::Digest& expected);

  /// Trusting put for content whose digest the caller has already
  /// computed (e.g. verified against a manifest moments ago). Skips
  /// re-hashing; `digest` MUST be the content's true digest or the
  /// store's addressing is corrupted.
  void put_with_digest(Bytes blob, const crypto::Digest& digest);

  /// Stores many blobs, computing digests in parallel on `pool` (inline
  /// when null). Returns the digests in input order; counters are exact
  /// regardless of scheduling.
  std::vector<crypto::Digest> put_many(std::vector<Bytes> blobs,
                                       util::ThreadPool* pool = nullptr);

  /// The returned pointer stays valid across concurrent puts (node-based
  /// map) but is invalidated by remove() of the same digest.
  Result<const Bytes*> get(const crypto::Digest& digest) const;
  bool contains(const crypto::Digest& digest) const;
  Result<Unit> remove(const crypto::Digest& digest);

  /// Physical bytes stored (after dedup).
  std::uint64_t stored_bytes() const {
    return stored_bytes_.load(std::memory_order_relaxed);
  }
  /// Logical bytes put (before dedup).
  std::uint64_t logical_bytes() const {
    return logical_bytes_.load(std::memory_order_relaxed);
  }
  std::uint64_t num_blobs() const;
  std::uint64_t dedup_hits() const {
    return dedup_hits_.load(std::memory_order_relaxed);
  }
  std::size_t num_shards() const { return shards_.size(); }

 private:
  struct Shard {
    mutable std::mutex mu;
    std::unordered_map<crypto::Digest, Bytes> blobs;
  };

  // Shards sit behind pointers, so one const lookup serves the readers
  // and the writers.
  Shard& shard_for(const crypto::Digest& digest) const {
    return *shards_[std::hash<crypto::Digest>{}(digest) % kNumShards];
  }

  // unique_ptr elements keep Shard (with its mutex) at a stable address
  // while a move hands the whole set over.
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<std::uint64_t> stored_bytes_{0};
  std::atomic<std::uint64_t> logical_bytes_{0};
  std::atomic<std::uint64_t> dedup_hits_{0};
};

/// An engine-local image store: blobs + a tag table. Registries build
/// their multi-tenant stores on the same primitives (registry/). The
/// blob plane inherits BlobStore's thread-safety; the tag table is
/// single-writer (tagging happens on the control path, not in the
/// parallel pipeline).
class ImageStore {
 public:
  BlobStore& blobs() { return blobs_; }
  const BlobStore& blobs() const { return blobs_; }

  /// Stores a complete OCI image (config + layers already in blobs())
  /// under `ref`. The manifest is stored as a blob and tagged.
  Result<crypto::Digest> tag_manifest(const ImageReference& ref,
                                      const OciManifest& manifest);

  /// Resolves a reference to its manifest. Digest-pinned references
  /// bypass the tag table.
  Result<OciManifest> resolve(const ImageReference& ref) const;

  bool has(const ImageReference& ref) const { return resolve(ref).ok(); }

  Result<Unit> untag(const ImageReference& ref);

  /// All tags currently known ("registry/repo:tag" -> manifest digest).
  const std::map<std::string, crypto::Digest>& tags() const { return tags_; }

 private:
  static std::string tag_key(const ImageReference& ref);
  BlobStore blobs_;
  std::map<std::string, crypto::Digest> tags_;
};

}  // namespace hpcc::image
