#include "image/store.h"

#include "dcheck/dcheck.h"
#include "util/thread_pool.h"

namespace hpcc::image {

BlobStore::BlobStore() {
  shards_.reserve(kNumShards);
  for (std::size_t i = 0; i < kNumShards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

BlobStore::BlobStore(const BlobStore& other) : BlobStore() {
  *this = other;
}

BlobStore::BlobStore(BlobStore&& other) noexcept { *this = std::move(other); }

BlobStore& BlobStore::operator=(const BlobStore& other) {
  if (this == &other) return *this;
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    dcheck::AnnotatedLock lk(other.shards_[i]->mu, "blobstore.shard");
    if (dcheck::enabled())
      dcheck::access_read(&other.shards_[i]->blobs, "blobstore.shard.blobs");
    shards_[i]->blobs = other.shards_[i]->blobs;
  }
  stored_bytes_.store(other.stored_bytes_.load());
  logical_bytes_.store(other.logical_bytes_.load());
  dedup_hits_.store(other.dedup_hits_.load());
  return *this;
}

BlobStore& BlobStore::operator=(BlobStore&& other) noexcept {
  if (this == &other) return *this;
  shards_ = std::move(other.shards_);
  other.shards_.clear();
  for (std::size_t i = 0; i < kNumShards; ++i) {
    other.shards_.push_back(std::make_unique<Shard>());
  }
  stored_bytes_.store(other.stored_bytes_.exchange(0));
  logical_bytes_.store(other.logical_bytes_.exchange(0));
  dedup_hits_.store(other.dedup_hits_.exchange(0));
  return *this;
}

void BlobStore::put_with_digest(Bytes blob, const crypto::Digest& digest) {
  const std::uint64_t size = blob.size();
  logical_bytes_.fetch_add(size, std::memory_order_relaxed);
  Shard& shard = shard_for(digest);
  dcheck::AnnotatedLock lk(shard.mu, "blobstore.shard");
  if (dcheck::enabled()) {
    dcheck::access_write(&shard.blobs, "blobstore.shard.blobs");
    dcheck::event("blobstore.put:" + digest.to_string());
  }
  const auto [it, inserted] = shard.blobs.try_emplace(digest, std::move(blob));
  (void)it;
  if (inserted) {
    stored_bytes_.fetch_add(size, std::memory_order_relaxed);
  } else {
    dedup_hits_.fetch_add(1, std::memory_order_relaxed);
  }
}

crypto::Digest BlobStore::put(Bytes blob) {
  // Hash outside any lock: this is the CPU-heavy part parallel callers
  // want to overlap.
  const crypto::Digest digest = crypto::Digest::of(blob);
  put_with_digest(std::move(blob), digest);
  return digest;
}

Result<crypto::Digest> BlobStore::put_verified(Bytes blob,
                                               const crypto::Digest& expected) {
  HPCC_TRY_UNIT(crypto::verify_digest(blob, expected));
  // The verified digest is the storage key; no second hash pass.
  put_with_digest(std::move(blob), expected);
  return expected;
}

std::vector<crypto::Digest> BlobStore::put_many(std::vector<Bytes> blobs,
                                                util::ThreadPool* pool) {
  std::vector<crypto::Digest> out(blobs.size());
  util::parallel_for(pool, blobs.size(), [&](std::size_t i) {
    out[i] = put(std::move(blobs[i]));
  });
  return out;
}

Result<const Bytes*> BlobStore::get(const crypto::Digest& digest) const {
  const Shard& shard = shard_for(digest);
  dcheck::AnnotatedLock lk(shard.mu, "blobstore.shard");
  if (dcheck::enabled())
    dcheck::access_read(&shard.blobs, "blobstore.shard.blobs");
  auto it = shard.blobs.find(digest);
  if (it == shard.blobs.end())
    return err_not_found("no blob " + digest.to_string());
  return &it->second;
}

bool BlobStore::contains(const crypto::Digest& digest) const {
  const Shard& shard = shard_for(digest);
  dcheck::AnnotatedLock lk(shard.mu, "blobstore.shard");
  if (dcheck::enabled())
    dcheck::access_read(&shard.blobs, "blobstore.shard.blobs");
  return shard.blobs.contains(digest);
}

Result<Unit> BlobStore::remove(const crypto::Digest& digest) {
  Shard& shard = shard_for(digest);
  dcheck::AnnotatedLock lk(shard.mu, "blobstore.shard");
  if (dcheck::enabled())
    dcheck::access_write(&shard.blobs, "blobstore.shard.blobs");
  auto it = shard.blobs.find(digest);
  if (it == shard.blobs.end())
    return err_not_found("no blob " + digest.to_string());
  stored_bytes_.fetch_sub(it->second.size(), std::memory_order_relaxed);
  shard.blobs.erase(it);
  return ok_unit();
}

std::uint64_t BlobStore::num_blobs() const {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) {
    dcheck::AnnotatedLock lk(shard->mu, "blobstore.shard");
    if (dcheck::enabled())
      dcheck::access_read(&shard->blobs, "blobstore.shard.blobs");
    total += shard->blobs.size();
  }
  return total;
}

std::string ImageStore::tag_key(const ImageReference& ref) {
  return ref.repo_key() + ":" + ref.tag;
}

Result<crypto::Digest> ImageStore::tag_manifest(const ImageReference& ref,
                                                const OciManifest& manifest) {
  // The manifest must be complete: config and layers present.
  if (!blobs_.contains(manifest.config_digest))
    return err_precondition("config blob missing: " +
                            manifest.config_digest.to_string());
  for (const auto& layer : manifest.layer_digests) {
    if (!blobs_.contains(layer))
      return err_precondition("layer blob missing: " + layer.to_string());
  }
  const crypto::Digest manifest_digest = blobs_.put(manifest.serialize());
  if (!ref.tag.empty()) tags_[tag_key(ref)] = manifest_digest;
  return manifest_digest;
}

Result<OciManifest> ImageStore::resolve(const ImageReference& ref) const {
  crypto::Digest manifest_digest;
  if (ref.pinned()) {
    manifest_digest = ref.digest;
  } else {
    auto it = tags_.find(tag_key(ref));
    if (it == tags_.end())
      return err_not_found("no such image: " + ref.to_string());
    manifest_digest = it->second;
  }
  HPCC_TRY(const Bytes* blob, blobs_.get(manifest_digest));
  return OciManifest::deserialize(*blob);
}

Result<Unit> ImageStore::untag(const ImageReference& ref) {
  if (tags_.erase(tag_key(ref)) == 0)
    return err_not_found("no such tag: " + ref.to_string());
  return ok_unit();
}

}  // namespace hpcc::image
