// hpcc/registry/registry.h
//
// Container registries: the OCI distribution model (manifests, tags,
// CAS blobs) with the HPC-relevant features of Tables 4 and 5 —
// multi-tenancy ("Organization"/"Project"), per-project quotas, detached
// signature attachments (the cosign model), rate limiting (the DockerHub
// situation of §5.1.3), and a Library-API registry for flat (SIF-style)
// images.
//
// Registries are functional stores plus queueing stations; the timed
// pull/push paths live in registry/client.h and registry/proxy.h.
#pragma once

#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "crypto/keyring.h"
#include "image/manifest.h"
#include "image/reference.h"
#include "image/store.h"
#include "registry/auth.h"
#include "sim/resource.h"
#include "util/result.h"
#include "vfs/flat_image.h"

namespace hpcc::registry {

/// Service capacity and policy knobs.
struct RegistryLimits {
  /// Pulls per window per client class; 0 = unlimited. Models the
  /// DockerHub rate limit that "any site with a small number of public
  /// IP addresses for a large number of clients is quickly affected by".
  std::uint64_t pull_limit = 0;
  SimDuration pull_window = sec(21600);  ///< 6h, DockerHub-style
  unsigned frontend_threads = 8;
  SimDuration request_service = usec(500);
  /// Egress bytes/us (shared by all clients).
  double egress_bandwidth = 2500.0;
};

/// Multi-tenancy and quota policy (Table 5 columns).
struct TenancyPolicy {
  bool multi_tenant = true;
  std::string tenant_term = "Project";  ///< what the product calls it
  bool per_project_quota = true;
};

struct ProjectInfo {
  std::string name;
  std::string owner;
  std::set<std::string> members;
  std::uint64_t quota_bytes = 0;  ///< 0 = unlimited
  std::uint64_t used_bytes = 0;
};

class OciRegistry {
 public:
  explicit OciRegistry(std::string host, RegistryLimits limits = {},
                       TenancyPolicy tenancy = {});

  const std::string& host() const { return host_; }
  AuthService& auth() { return auth_; }

  // ----- tenancy
  Result<Unit> create_project(const std::string& name, const std::string& owner,
                              std::uint64_t quota_bytes = 0);
  Result<Unit> add_member(const std::string& project, const std::string& user);
  Result<const ProjectInfo*> project(const std::string& name) const;

  // ----- data plane (push)
  /// Pushes one blob into a project. Checks membership and quota; dedup
  /// means re-pushing existing content consumes no quota.
  Result<crypto::Digest> push_blob(const std::string& user,
                                   const std::string& project, Bytes blob);

  /// Tags a manifest (all referenced blobs must have been pushed).
  Result<crypto::Digest> push_manifest(const std::string& user,
                                       const image::ImageReference& ref,
                                       const image::OciManifest& manifest);

  // ----- data plane (pull)
  Result<image::OciManifest> get_manifest(const image::ImageReference& ref) const;
  /// The stored buffer itself, shared: a pull copies no bytes.
  Result<SharedBytes> get_blob(const crypto::Digest& digest) const;
  bool has_blob(const crypto::Digest& digest) const;
  Result<std::vector<std::string>> list_tags(const std::string& repo_key) const;

  // ----- signatures (detached attachments, cosign-style)
  Result<Unit> attach_signature(const crypto::Digest& manifest_digest,
                                crypto::SignatureRecord record);
  std::vector<crypto::SignatureRecord> signatures(
      const crypto::Digest& manifest_digest) const;

  // ----- timing plane
  /// Admission through the rate limiter; kResourceExhausted carries the
  /// earliest retry time in retry_at.
  Result<Unit> admit_pull(SimTime now, SimTime* retry_at = nullptr);
  /// Request handling at the frontend.
  SimTime serve_request(SimTime now);
  /// Egress of `bytes` through the shared pipe.
  SimTime serve_transfer(SimTime now, std::uint64_t bytes);

  // ----- stats
  std::uint64_t pulls() const { return pulls_; }
  std::uint64_t pushes() const { return pushes_; }
  std::uint64_t throttled() const { return limiter_.throttled(); }
  const image::BlobStore& blobs() const { return store_.blobs(); }

 private:
  static std::string project_of(const std::string& repository);

  std::string host_;
  RegistryLimits limits_;
  TenancyPolicy tenancy_;
  AuthService auth_;
  image::ImageStore store_;
  std::map<std::string, ProjectInfo> projects_;
  std::multimap<std::string, crypto::SignatureRecord> signatures_;
  sim::RateLimiter limiter_;
  sim::FifoStation frontend_;
  sim::FifoStation egress_;
  mutable std::uint64_t pulls_ = 0;
  std::uint64_t pushes_ = 0;
};

/// A Library-API registry (the Singularity ecosystem's protocol): stores
/// whole flat images under "collection/name:tag". Signatures travel
/// inside the image; encryption likewise.
class LibraryApiRegistry {
 public:
  explicit LibraryApiRegistry(std::string host) : host_(std::move(host)) {}

  const std::string& host() const { return host_; }

  Result<Unit> push(const std::string& user, const std::string& path,
                    const vfs::FlatImage& img);
  Result<vfs::FlatImage> pull(const std::string& path) const;
  std::vector<std::string> list() const;
  std::uint64_t stored_bytes() const { return stored_bytes_; }

 private:
  std::string host_;
  std::map<std::string, Bytes> images_;  // path -> serialized flat image
  std::uint64_t stored_bytes_ = 0;
};

}  // namespace hpcc::registry
