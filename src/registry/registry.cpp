#include "registry/registry.h"

#include "util/strings.h"

namespace hpcc::registry {

OciRegistry::OciRegistry(std::string host, RegistryLimits limits,
                         TenancyPolicy tenancy)
    : host_(std::move(host)), limits_(limits), tenancy_(tenancy),
      limiter_(limits.pull_limit, limits.pull_window),
      frontend_(host_ + "-frontend", limits.frontend_threads),
      egress_(host_ + "-egress", 1) {}

std::string OciRegistry::project_of(const std::string& repository) {
  const auto slash = repository.find('/');
  return slash == std::string::npos ? repository : repository.substr(0, slash);
}

Result<Unit> OciRegistry::create_project(const std::string& name,
                                         const std::string& owner,
                                         std::uint64_t quota_bytes) {
  if (!tenancy_.multi_tenant)
    return err_unsupported("registry " + host_ + " has no multi-tenancy");
  if (projects_.contains(name))
    return err_exists(tenancy_.tenant_term + " exists: " + name);
  ProjectInfo info;
  info.name = name;
  info.owner = owner;
  info.members.insert(owner);
  info.quota_bytes = tenancy_.per_project_quota ? quota_bytes : 0;
  projects_.emplace(name, std::move(info));
  return ok_unit();
}

Result<Unit> OciRegistry::add_member(const std::string& project,
                                     const std::string& user) {
  auto it = projects_.find(project);
  if (it == projects_.end())
    return err_not_found("no " + tenancy_.tenant_term + " '" + project + "'");
  it->second.members.insert(user);
  return ok_unit();
}

Result<const ProjectInfo*> OciRegistry::project(const std::string& name) const {
  auto it = projects_.find(name);
  if (it == projects_.end())
    return err_not_found("no " + tenancy_.tenant_term + " '" + name + "'");
  return &it->second;
}

Result<crypto::Digest> OciRegistry::push_blob(const std::string& user,
                                              const std::string& project,
                                              Bytes blob) {
  ProjectInfo* proj = nullptr;
  if (tenancy_.multi_tenant) {
    auto it = projects_.find(project);
    if (it == projects_.end())
      return err_not_found("no " + tenancy_.tenant_term + " '" + project + "'");
    if (!it->second.members.contains(user))
      return err_denied("user '" + user + "' is not a member of " +
                        tenancy_.tenant_term + " '" + project + "'");
    proj = &it->second;
  }
  const crypto::Digest digest = crypto::Digest::of(blob);
  const bool already = store_.blobs().contains(digest);
  if (!already && proj && proj->quota_bytes != 0 &&
      proj->used_bytes + blob.size() > proj->quota_bytes) {
    return err_exhausted(tenancy_.tenant_term + " '" + project +
                         "' quota exceeded (" +
                         strings::human_bytes(proj->quota_bytes) + ")");
  }
  if (!already && proj) proj->used_bytes += blob.size();
  ++pushes_;
  // Stored under the digest computed above: one hash per pushed blob.
  store_.blobs().put_with_digest(std::make_shared<const Bytes>(std::move(blob)),
                                 digest);
  return digest;
}

Result<crypto::Digest> OciRegistry::push_manifest(
    const std::string& user, const image::ImageReference& ref,
    const image::OciManifest& manifest) {
  if (tenancy_.multi_tenant) {
    const std::string project = project_of(ref.repository);
    auto it = projects_.find(project);
    if (it == projects_.end())
      return err_not_found("no " + tenancy_.tenant_term + " '" + project + "'");
    if (!it->second.members.contains(user))
      return err_denied("user '" + user + "' is not a member of " +
                        tenancy_.tenant_term + " '" + project + "'");
  }
  ++pushes_;
  return store_.tag_manifest(ref, manifest);
}

Result<image::OciManifest> OciRegistry::get_manifest(
    const image::ImageReference& ref) const {
  ++pulls_;
  return store_.resolve(ref);
}

Result<SharedBytes> OciRegistry::get_blob(const crypto::Digest& digest) const {
  return store_.blobs().get(digest);
}

bool OciRegistry::has_blob(const crypto::Digest& digest) const {
  return store_.blobs().contains(digest);
}

Result<std::vector<std::string>> OciRegistry::list_tags(
    const std::string& repo_key) const {
  std::vector<std::string> out;
  for (const auto& [key, digest] : store_.tags()) {
    if (strings::starts_with(key, repo_key + ":"))
      out.push_back(key.substr(repo_key.size() + 1));
  }
  if (out.empty()) return err_not_found("no repository " + repo_key);
  return out;
}

Result<Unit> OciRegistry::attach_signature(const crypto::Digest& manifest_digest,
                                           crypto::SignatureRecord record) {
  signatures_.emplace(manifest_digest.to_string(), std::move(record));
  return ok_unit();
}

std::vector<crypto::SignatureRecord> OciRegistry::signatures(
    const crypto::Digest& manifest_digest) const {
  std::vector<crypto::SignatureRecord> out;
  const auto [lo, hi] = signatures_.equal_range(manifest_digest.to_string());
  for (auto it = lo; it != hi; ++it) out.push_back(it->second);
  return out;
}

Result<Unit> OciRegistry::admit_pull(SimTime now, SimTime* retry_at) {
  if (limiter_.try_acquire(now)) return ok_unit();
  if (retry_at) *retry_at = limiter_.next_admission(now);
  return err_exhausted("registry " + host_ +
                       " rate limit exceeded (toomanyrequests)");
}

SimTime OciRegistry::serve_request(SimTime now) {
  return frontend_.submit(now, limits_.request_service);
}

SimTime OciRegistry::serve_transfer(SimTime now, std::uint64_t bytes) {
  const auto service = static_cast<SimDuration>(
      static_cast<double>(bytes) / limits_.egress_bandwidth);
  return egress_.submit(now, service);
}

Result<Unit> LibraryApiRegistry::push(const std::string& user,
                                      const std::string& path,
                                      const vfs::FlatImage& img) {
  (void)user;  // Library registries here are single-tenant (Table 5)
  Bytes blob = img.serialize();
  stored_bytes_ += blob.size();
  auto it = images_.find(path);
  if (it != images_.end()) stored_bytes_ -= it->second.size();
  images_[path] = std::move(blob);
  return ok_unit();
}

Result<vfs::FlatImage> LibraryApiRegistry::pull(const std::string& path) const {
  auto it = images_.find(path);
  if (it == images_.end())
    return err_not_found("no image at library://" + path);
  return vfs::FlatImage::deserialize(it->second);
}

std::vector<std::string> LibraryApiRegistry::list() const {
  std::vector<std::string> out;
  out.reserve(images_.size());
  for (const auto& [path, blob] : images_) out.push_back(path);
  return out;
}

}  // namespace hpcc::registry
