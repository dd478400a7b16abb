// hpcc/audit/rules.cpp
//
// The built-in rule set. Every rule cites the survey clause it
// enforces (DESIGN.md §6 maps ids to clauses); checks share the exact
// policy code the runtime enforces (runtime::authorize_mount) so the
// static analysis cannot drift from execution-time behaviour.
#include "audit/audit.h"

#include <array>

#include "runtime/rootless.h"

namespace hpcc::audit {

namespace {

using runtime::MountKind;
using runtime::MountRequest;
using runtime::MountSpec;
using runtime::RootlessMechanism;

/// Host paths whose bind-mounting is the §4.1.6 library-hookup
/// mechanism; writable versions hand the container the host's loader
/// path as an attack surface.
bool is_host_library_path(std::string_view path) {
  static constexpr std::array<std::string_view, 6> kPrefixes = {
      "/lib", "/lib64", "/usr/lib", "/usr/lib64", "/usr/local/cuda",
      "/opt/cray"};
  for (auto prefix : kPrefixes) {
    if (path == prefix) return true;
    if (path.size() > prefix.size() && path.substr(0, prefix.size()) == prefix &&
        path[prefix.size()] == '/')
      return true;
  }
  return false;
}

std::string mount_object(const MountSpec& m) {
  return "mount " + (m.source.empty() ? m.destination : m.source) + " -> " +
         m.destination;
}

/// The §4.1.2 mount-authorization request corresponding to one mount of
/// the config on this host.
MountRequest request_for(const AuditInput& in, MountKind kind) {
  MountRequest req;
  req.kind = kind;
  req.image_user_writable = in.host.image_user_writable;
  req.kernel_allows_userns_overlay = in.host.kernel_allows_userns_overlay;
  req.user_has_cap_sys_ptrace = in.host.user_has_cap_sys_ptrace;
  return req;
}

MountKind mount_kind_of(engine::MountStrategy s) {
  switch (s) {
    case engine::MountStrategy::kOverlayKernel: return MountKind::kOverlayKernel;
    case engine::MountStrategy::kOverlayFuse: return MountKind::kOverlayFuse;
    case engine::MountStrategy::kSquashFuse: return MountKind::kSquashFuse;
    case engine::MountStrategy::kSquashKernelSuid: return MountKind::kSquashKernel;
    case engine::MountStrategy::kDirExtract: return MountKind::kDirRootfs;
  }
  return MountKind::kDirRootfs;
}

/// For-each over the config's mounts of one kind, with the index bound
/// into the fix-it.
template <typename Fn>
void for_each_mount(const AuditInput& in, MountKind kind, Fn&& fn) {
  for (std::size_t i = 0; i < in.config.mounts.size(); ++i) {
    if (in.config.mounts[i].kind == kind) fn(i, in.config.mounts[i]);
  }
}

FixFn set_mount_kind(std::size_t index, MountKind kind) {
  return [index, kind](AuditInput& in) {
    if (index < in.config.mounts.size()) in.config.mounts[index].kind = kind;
  };
}

FixFn set_mechanism(RootlessMechanism m) {
  return [m](AuditInput& in) { in.mechanism = m; };
}

// ---------------------------------------------------------------------------
// SEC — security rules (§4.1, §3.2)
// ---------------------------------------------------------------------------

void sec001(const AuditInput& in, std::vector<Finding>& out) {
  if (in.mechanism != RootlessMechanism::kSetuidHelper) return;
  if (!in.host.image_user_writable) return;
  for_each_mount(in, MountKind::kSquashKernel, [&](std::size_t i,
                                                   const MountSpec& m) {
    Finding f;
    f.rule = "SEC001";
    f.object = mount_object(m);
    f.message =
        "setuid-root helper kernel-mounts a user-writeable SquashFS image: "
        "\"the resulting image must not be user-writeable\" — a writeable "
        "image lets the user feed crafted block-device data to the kernel "
        "driver (§4.1.2)";
    f.paper_ref = "§4.1.2";
    f.fix_hint = "mount the image via SquashFUSE (audited user-kernel "
                 "interface) instead of the in-kernel driver";
    f.fix = set_mount_kind(i, MountKind::kSquashFuse);
    out.push_back(std::move(f));
  });
}

void sec002(const AuditInput& in, std::vector<Finding>& out) {
  if (in.mechanism != RootlessMechanism::kUserNamespace &&
      in.mechanism != RootlessMechanism::kFakerootPreload &&
      in.mechanism != RootlessMechanism::kFakerootPtrace)
    return;
  for_each_mount(in, MountKind::kSquashKernel, [&](std::size_t i,
                                                   const MountSpec& m) {
    Finding f;
    f.rule = "SEC002";
    f.object = mount_object(m);
    f.message =
        "in-kernel SquashFS mount inside a user namespace: a UserNS \"does "
        "not permit mounting block devices or files acting as such via "
        "kernel drivers, since kernel drivers are not hardened against "
        "maliciously crafted block-device data\" (§4.1.2)";
    f.paper_ref = "§4.1.2";
    f.fix_hint = "mount via SquashFUSE, or unpack to a directory rootfs";
    f.fix = set_mount_kind(i, MountKind::kSquashFuse);
    out.push_back(std::move(f));
  });
}

void sec003(const AuditInput& in, std::vector<Finding>& out) {
  if (in.mechanism != RootlessMechanism::kFakerootPtrace) return;
  if (in.host.user_has_cap_sys_ptrace) return;
  Finding f;
  f.rule = "SEC003";
  f.object = "mechanism fakeroot (ptrace)";
  f.message =
      "ptrace-based fakeroot selected but \"the user requires access to "
      "the CAP_SYS_PTRACE capability\", which this user does not hold "
      "(§4.1.2): the container would fail to start";
  f.paper_ref = "§4.1.2";
  f.fix_hint = "fall back to a plain user namespace (no root emulation)";
  f.fix = set_mechanism(RootlessMechanism::kUserNamespace);
  out.push_back(std::move(f));
}

void sec004(const AuditInput& in, std::vector<Finding>& out) {
  for_each_mount(in, MountKind::kBind, [&](std::size_t i, const MountSpec& m) {
    if (m.read_only || !is_host_library_path(m.source)) return;
    Finding f;
    f.rule = "SEC004";
    f.object = mount_object(m);
    f.message =
        "writable bind mount of host library path '" + m.source +
        "': library hookup injects host libraries into the container "
        "(§4.1.6); a writable mapping lets container code replace loader "
        "paths every host process trusts";
    f.paper_ref = "§4.1.6";
    f.fix_hint = "bind host library paths read-only";
    f.fix = [i](AuditInput& in2) {
      if (i < in2.config.mounts.size()) in2.config.mounts[i].read_only = true;
    };
    out.push_back(std::move(f));
  });
}

void sec005(const AuditInput& in, std::vector<Finding>& out) {
  for_each_mount(in, MountKind::kOverlayKernel, [&](std::size_t i,
                                                    const MountSpec& m) {
    // Delegate to the runtime's own policy so the analyzer cannot drift.
    auto verdict = runtime::authorize_mount(
        in.mechanism, request_for(in, MountKind::kOverlayKernel));
    if (verdict.ok()) return;
    Finding f;
    f.rule = "SEC005";
    f.object = mount_object(m);
    f.message = "kernel OverlayFS mount would be refused at create time: " +
                verdict.error().message();
    f.paper_ref = "§4.1.4";
    f.fix_hint = "use fuse-overlayfs, which needs no kernel privilege";
    f.fix = set_mount_kind(i, MountKind::kOverlayFuse);
    out.push_back(std::move(f));
  });
}

void sec006(const AuditInput& in, std::vector<Finding>& out) {
  if (in.mechanism != RootlessMechanism::kFakerootPreload) return;
  if (!in.workload.has_static_binaries) return;
  Finding f;
  f.rule = "SEC006";
  f.object = "workload " + in.workload.name;
  f.message =
      "LD_PRELOAD-based fakeroot \"fails with static binaries\" (§4.1.2) "
      "and the workload declares statically linked binaries: interception "
      "silently misses their syscalls";
  f.paper_ref = "§4.1.2";
  f.fix_hint = "use ptrace-based fakeroot (if CAP_SYS_PTRACE is held) or a "
               "plain user namespace";
  const bool has_ptrace = in.host.user_has_cap_sys_ptrace;
  f.fix = set_mechanism(has_ptrace ? RootlessMechanism::kFakerootPtrace
                                   : RootlessMechanism::kUserNamespace);
  out.push_back(std::move(f));
}

void sec007(const AuditInput& in, std::vector<Finding>& out) {
  if (!in.site) return;
  if (runtime::is_rootless(in.mechanism)) return;
  if (!in.site->rootless_mandatory && in.site->allow_root_daemons) return;
  Finding f;
  f.rule = "SEC007";
  f.object = "mechanism " + std::string(runtime::to_string(in.mechanism));
  f.message =
      "site '" + in.site->site_name +
      "' mandates rootless execution (\"alternative container execution "
      "models such as rootless [are] a requirement\", §3.2) but the "
      "configuration runs through a root daemon";
  f.paper_ref = "§3.2";
  f.fix_hint = "switch to an unprivileged user namespace";
  f.fix = set_mechanism(RootlessMechanism::kUserNamespace);
  out.push_back(std::move(f));
}

void sec008(const AuditInput& in, std::vector<Finding>& out) {
  if (!in.site || in.site->allow_setuid_helpers) return;
  if (in.mechanism != RootlessMechanism::kSetuidHelper) return;
  Finding f;
  f.rule = "SEC008";
  f.object = "mechanism suid";
  f.message =
      "site '" + in.site->site_name +
      "' refuses setuid-root helper binaries, but the configuration relies "
      "on one; sites that do tolerate them accept \"shrink[ing] the attack "
      "surface debate to one audited binary\" — this site has not (§4.1.1)";
  f.paper_ref = "§4.1.1";
  f.fix_hint = "switch to an unprivileged user namespace";
  f.fix = set_mechanism(RootlessMechanism::kUserNamespace);
  out.push_back(std::move(f));
}

void sec009(const AuditInput& in, std::vector<Finding>& out) {
  if (!in.config.namespaces.has(runtime::Namespace::kUser)) return;
  if (in.config.user_mapping.has_value()) return;
  Finding f;
  f.rule = "SEC009";
  f.object = "user namespace";
  f.message =
      "user namespace configured without a uid/gid mapping: files created "
      "in the container would surface as the overflow id instead of \"the "
      "UID/GID of the user launching the job\" (§3.2)";
  f.paper_ref = "§3.2";
  f.fix_hint = "install the single-user mapping HPC engines use";
  f.fix = [](AuditInput& in2) {
    in2.config.user_mapping = runtime::UserMapping::single_user(1000, 1000);
  };
  out.push_back(std::move(f));
}

void sec010(const AuditInput& in, std::vector<Finding>& out) {
  if (!in.site || !in.site->require_signature_verification) return;
  if (!in.engine_behavior || in.engine_behavior->can_verify_signatures) return;
  Finding f;
  f.rule = "SEC010";
  f.object = in.engine_features ? "engine " + in.engine_features->name
                                : "engine";
  f.message =
      "site '" + in.site->site_name +
      "' requires signature verification before running images, but the "
      "selected engine cannot verify signatures (Table 2 'Signatures' "
      "column): unsigned images would run unchecked";
  f.paper_ref = "Table 2 / §4.1.5";
  f.fix_hint = "select an engine with signature support (Podman, Apptainer, "
               "SingularityCE, ...)";
  out.push_back(std::move(f));
}

void sec011(const AuditInput& in, std::vector<Finding>& out) {
  if (!in.site || !in.site->require_encrypted_images) return;
  if (!in.engine_behavior || in.engine_behavior->supports_encrypted_images)
    return;
  Finding f;
  f.rule = "SEC011";
  f.object = in.engine_features ? "engine " + in.engine_features->name
                                : "engine";
  f.message =
      "site '" + in.site->site_name +
      "' requires encrypted containers (restricted data on a shared "
      "system) but the selected engine has no encrypted-container support "
      "(Table 2 'Encrypted Containers' column)";
  f.paper_ref = "Table 2 / §4.1.5";
  f.fix_hint = "select an engine with encrypted-container support (Podman, "
               "Apptainer, SingularityCE)";
  out.push_back(std::move(f));
}

// ---------------------------------------------------------------------------
// PERF — performance rules (§4.1.2 [29], §3.2/§4.1.4)
// ---------------------------------------------------------------------------

void perf001(const AuditInput& in, std::vector<Finding>& out) {
  for_each_mount(in, MountKind::kSquashFuse, [&](std::size_t i,
                                                 const MountSpec& m) {
    // Only flag when the in-kernel mount would actually be authorized
    // for this mechanism on this host (setuid helper, non-writeable
    // image) — otherwise FUSE is the correct choice, not a pessimism.
    auto verdict = runtime::authorize_mount(
        in.mechanism, request_for(in, MountKind::kSquashKernel));
    if (!verdict.ok()) return;
    Finding f;
    f.rule = "PERF001";
    f.object = mount_object(m);
    f.message =
        "SquashFUSE mount where the in-kernel SquashFS driver is "
        "admissible: SquashFUSE has \"a magnitude lower IOPS for random "
        "access and much higher latency\" than the in-kernel driver "
        "(§4.1.2, [29])";
    f.paper_ref = "§4.1.2 [29]";
    f.fix_hint = "mount through the in-kernel driver via the setuid helper";
    f.fix = set_mount_kind(i, MountKind::kSquashKernel);
    out.push_back(std::move(f));
  });
}

void perf002(const AuditInput& in, std::vector<Finding>& out) {
  if (!in.site || !in.site->shared_filesystem || in.site->node_local_storage)
    return;
  if (in.workload.files_opened < 1000) return;
  for_each_mount(in, MountKind::kDirRootfs, [&](std::size_t i,
                                                const MountSpec& m) {
    Finding f;
    f.rule = "PERF002";
    f.object = mount_object(m);
    f.message =
        "directory rootfs on the shared cluster filesystem for a workload "
        "opening " + std::to_string(in.workload.files_opened) +
        " files, with no node-local storage to extract to: containers' "
        "\"many small files strain the shared cluster filesystem and slow "
        "startup\" (§3.2)";
    f.paper_ref = "§3.2 / §4.1.4";
    f.fix_hint = "serve the image as a single SquashFS file (one shared-FS "
                 "object) mounted via SquashFUSE";
    f.fix = set_mount_kind(i, MountKind::kSquashFuse);
    out.push_back(std::move(f));
  });
}

void perf003(const AuditInput& in, std::vector<Finding>& out) {
  if (in.mechanism != RootlessMechanism::kFakerootPtrace) return;
  if (in.workload.fs_syscalls() < 10000) return;
  Finding f;
  f.rule = "PERF003";
  f.object = "workload " + in.workload.name;
  f.message =
      "ptrace-based fakeroot intercepts every syscall with two context "
      "switches and this workload issues " +
      std::to_string(in.workload.fs_syscalls()) +
      " filesystem syscalls: the mechanism \"introduces a significant "
      "performance penalty\" (§4.1.2)";
  f.paper_ref = "§4.1.2";
  f.fix_hint = "if root emulation is only needed at build time, run the job "
               "itself in a plain user namespace";
  out.push_back(std::move(f));
}

void perf004(const AuditInput& in, std::vector<Finding>& out) {
  if (!in.lazy_mount) return;
  if (in.data_path && in.data_path->has_cache_tier()) return;
  Finding f;
  f.rule = "PERF004";
  f.object = in.data_path ? "data path " + in.data_path->to_string()
                          : "data path <none>";
  f.message =
      "lazy (first-touch) image mount with no cache tier in the data "
      "path: every block access pays the full registry round trip, so "
      "the \"trade memory and CPU (decompression) for disk IO\" of "
      "single-file images (§3.2) degenerates into a network storm on "
      "the lazy path (§7)";
  f.paper_ref = "§3.2 / §7";
  f.fix_hint = "put a page-cache tier in front of the registry origin";
  f.fix = [](AuditInput& in2) {
    if (!in2.data_path) in2.data_path.emplace();
    in2.data_path->tiers.insert(
        in2.data_path->tiers.begin(),
        storage::TierSummary{"page-cache", true, 4ull << 30});
  };
  out.push_back(std::move(f));
}

void perf005(const AuditInput& in, std::vector<Finding>& out) {
  if (!in.data_path || in.image_index_bytes == 0) return;
  const auto* top = in.data_path->top_cache();
  if (top == nullptr || top->capacity_bytes == 0) return;
  if (top->capacity_bytes >= in.image_index_bytes) return;
  Finding f;
  f.rule = "PERF005";
  f.object = "tier " + top->name;
  f.message =
      "top cache tier capacity (" + std::to_string(top->capacity_bytes) +
      " bytes) is smaller than the image's hot index (" +
      std::to_string(in.image_index_bytes) +
      " bytes): the working set evicts itself on every pass, so the "
      "cache never converges and random access degrades to the "
      "shared-FS small-file regime (§3.2 / §4.1.4)";
  f.paper_ref = "§3.2 / §7";
  f.fix_hint = "grow the cache tier to at least the image index size";
  f.fix = [index = in.image_index_bytes](AuditInput& in2) {
    if (!in2.data_path) return;
    if (auto* cache = in2.data_path->top_cache()) {
      cache->capacity_bytes = index;
    }
  };
  out.push_back(std::move(f));
}

// PERF006: a fleet-scale flash crowd against a rate-limited registry
// with no site proxy tier. §5.1.3: "any site with a small number of
// public IP addresses for a large number of clients is quickly affected
// by" upstream pull limits; the remedy named there is a site-local
// pull-through cache that collapses N identical node pulls into one
// upstream pull.
constexpr std::uint32_t kFleetThreshold = 256;

void perf006(const AuditInput& in, std::vector<Finding>& out) {
  if (in.fleet_nodes < kFleetThreshold) return;
  if (!in.registry_limits || in.registry_limits->pull_limit == 0) return;
  if (in.site_proxy) return;
  Finding f;
  f.rule = "PERF006";
  f.object = "fleet of " + std::to_string(in.fleet_nodes) + " nodes";
  f.message =
      "fleet-scale pull storm: " + std::to_string(in.fleet_nodes) +
      " nodes pull directly against a registry rate-limited to " +
      std::to_string(in.registry_limits->pull_limit) +
      " pulls per window with no site proxy tier in between; the "
      "flash crowd at job start exhausts the limit and every node "
      "behind it serializes on 429 retries (§5.1.3)";
  f.paper_ref = "§5.1.3";
  f.fix_hint = "front the registry with a site-local pull-through proxy";
  f.fix = [](AuditInput& in2) {
    in2.site_proxy = true;
    if (!in2.data_path) in2.data_path.emplace();
    in2.data_path->tiers.insert(
        in2.data_path->tiers.begin(),
        storage::TierSummary{"site-proxy", true, 0});
  };
  out.push_back(std::move(f));
}

// ---------------------------------------------------------------------------
// CFG — engine / registry / site consistency (Tables 1-5, §5, §6)
// ---------------------------------------------------------------------------

void cfg001(const AuditInput& in, std::vector<Finding>& out) {
  if (!in.engine_features) return;
  if (in.engine_features->hooks != engine::HookSupport::kOciManualRoot) return;
  if (in.mechanism == RootlessMechanism::kRootDaemon ||
      in.mechanism == RootlessMechanism::kSetuidHelper)
    return;
  Finding f;
  f.rule = "CFG001";
  f.object = "engine " + in.engine_features->name;
  f.message =
      "engine supports OCI hooks only \"manually, requires root\" "
      "(Table 1) but runs under mechanism " +
      std::string(runtime::to_string(in.mechanism)) +
      ": hook-based GPU/MPI/WLM integration is silently unavailable in "
      "this configuration";
  f.paper_ref = "Table 1 / §4.1.6";
  f.fix_hint = "run the engine's setuid installation, or use an engine with "
               "unprivileged OCI hook support";
  out.push_back(std::move(f));
}

void cfg002(const AuditInput& in, std::vector<Finding>& out) {
  if (!in.plan || !in.plan->gpu_hook) return;
  if (!in.engine_features || in.engine_features->gpu != engine::GpuSupport::kNo)
    return;
  Finding f;
  f.rule = "CFG002";
  f.object = "engine " + in.engine_features->name;
  f.message =
      "the plan requests GPU enablement but the selected engine's Table 3 "
      "'GPU Support' entry is 'no': the device would never appear in the "
      "container";
  f.paper_ref = "Table 3 / §4.1.6";
  f.fix_hint = "select an engine with native or hook-based GPU support";
  out.push_back(std::move(f));
}

void cfg003(const AuditInput& in, std::vector<Finding>& out) {
  if (!in.site || !in.site->need_host_interconnect) return;
  if (!in.config.namespaces.blocks_host_interconnect()) return;
  Finding f;
  f.rule = "CFG003";
  f.object = "namespaces " + in.config.namespaces.describe();
  f.message =
      "network namespace isolation configured on a site that needs direct "
      "host-interconnect access: \"strict container isolation may break "
      "access to HPC hardware such as interconnects\" (§3.2)";
  f.paper_ref = "§3.2";
  f.fix_hint = "drop the network namespace (HPC engines set up user and "
               "mount namespaces only)";
  f.fix = [](AuditInput& in2) {
    in2.config.namespaces.remove(runtime::Namespace::kNet);
  };
  out.push_back(std::move(f));
}

void cfg004(const AuditInput& in, std::vector<Finding>& out) {
  if (!in.site || !in.registry_product) return;
  if (in.site->users_bring_oci_images && !in.registry_product->supports_oci()) {
    Finding f;
    f.rule = "CFG004";
    f.object = "registry " + in.registry_product->name;
    f.message =
        "users arrive with OCI images but the site registry speaks only "
        "the Library API (Table 4 'Protocol'): standard `docker push` / "
        "OCI distribution clients cannot store images there";
    f.paper_ref = "Table 4 / §5.2";
    f.fix_hint = "deploy an OCI distribution registry (or a product "
                 "speaking both protocols)";
    out.push_back(std::move(f));
  }
  if (in.site->users_bring_sif_images &&
      !in.registry_product->supports_library_api()) {
    Finding f;
    f.rule = "CFG004";
    f.object = "registry " + in.registry_product->name;
    f.message =
        "users arrive with SIF images but the site registry has no "
        "Library API (Table 4 'Protocol'): `singularity push` has no "
        "endpoint to talk to";
    f.paper_ref = "Table 4 / §5.2";
    f.fix_hint = "add a Library-API registry (shpc, Hinkskalle) or store "
                 "SIF as ORAS artifacts where supported";
    out.push_back(std::move(f));
  }
}

void cfg005(const AuditInput& in, std::vector<Finding>& out) {
  if (!in.site || !in.site->air_gapped) return;
  if (!in.plan || in.plan->use_site_proxy) return;
  Finding f;
  f.rule = "CFG005";
  f.object = "plan for engine " +
             std::string(engine::to_string(in.plan->engine));
  f.message =
      "air-gapped site but the plan pulls directly from upstream "
      "registries: compute nodes without internet access must pull "
      "through the site's caching proxy (§5.1.3)";
  f.paper_ref = "§5.1.3";
  f.fix_hint = "route pulls through the site pull-through proxy";
  f.fix = [](AuditInput& in2) {
    if (in2.plan) in2.plan->use_site_proxy = true;
  };
  out.push_back(std::move(f));
}

void cfg006(const AuditInput& in, std::vector<Finding>& out) {
  if (!in.site || !in.site->accounting_required) return;
  if (!in.config.cgroup_path.empty()) return;
  Finding f;
  f.rule = "CFG006";
  f.object = "cgroup";
  f.message =
      "site requires WLM accounting of all compute but the container is "
      "not placed into any cgroup: its usage would escape the job's "
      "accounting (§6.5's motivation — \"Slurm accounts everything\")";
  f.paper_ref = "§6.5";
  f.fix_hint = "attach the container to the job step's delegated cgroup "
               "(e.g. /slurm/job<id>/step<n>)";
  out.push_back(std::move(f));
}

// ---------------------------------------------------------------------------
// ADAPT — admissibility of adaptive-containerizer decisions (§7)
// ---------------------------------------------------------------------------

void adapt001(const AuditInput& in, std::vector<Finding>& out) {
  if (!in.plan) return;
  const MountKind kind = mount_kind_of(in.plan->mount);
  auto verdict =
      runtime::authorize_mount(in.plan->mechanism, request_for(in, kind));
  if (verdict.ok()) return;
  Finding f;
  f.rule = "ADAPT001";
  f.object = "plan mount " + std::string(engine::to_string(in.plan->mount)) +
             " under " + std::string(runtime::to_string(in.plan->mechanism));
  f.message = "the adaptive plan's mount is not admissible under the "
              "mount-authorization policy it would face at create time: " +
              verdict.error().message();
  f.paper_ref = "§4.1.2";
  f.fix_hint = "downgrade to the FUSE variant of the chosen filesystem";
  f.fix = [](AuditInput& in2) {
    if (!in2.plan) return;
    switch (in2.plan->mount) {
      case engine::MountStrategy::kSquashKernelSuid:
        in2.plan->mount = engine::MountStrategy::kSquashFuse;
        break;
      case engine::MountStrategy::kOverlayKernel:
        in2.plan->mount = engine::MountStrategy::kOverlayFuse;
        break;
      default:
        break;
    }
  };
  out.push_back(std::move(f));
}

// ---------------------------------------------------------------------------
// ROB — robustness of the pull path (§3.2, §5.1.3)
// ---------------------------------------------------------------------------

void rob001(const AuditInput& in, std::vector<Finding>& out) {
  if (!in.has_registry_client) return;
  if (in.registry_retry && in.registry_retry->max_attempts > 1) return;
  Finding f;
  f.rule = "ROB001";
  f.object = in.registry_retry ? "registry client (single-attempt policy)"
                               : "registry client (no retry policy)";
  f.message =
      "registry client pulls with no retry budget: one WAN blip or "
      "upstream 5xx fails the whole job start, although \"image pull "
      "times may vary heavily depending on the container image size and "
      "the network connectivity\" (§5.1.3) — transient registry faults "
      "are the expected case at HPC sites behind shared uplinks, not the "
      "exception";
  f.paper_ref = "§5.1.3";
  f.fix_hint =
      "install a capped-exponential-backoff retry policy "
      "(RetryPolicy::standard())";
  f.fix = [](AuditInput& in2) {
    in2.registry_retry = fault::RetryPolicy::standard();
  };
  out.push_back(std::move(f));
}

void rob002(const AuditInput& in, std::vector<Finding>& out) {
  if (!in.registry_retry || in.registry_retry->max_attempts <= 1) return;
  const auto& p = *in.registry_retry;
  if (p.max_backoff > 0 && p.attempt_timeout > 0) return;
  Finding f;
  f.rule = "ROB002";
  f.object = "retry policy (" + std::to_string(p.max_attempts) + " attempts)";
  f.message = std::string("retry policy without ") +
              (p.max_backoff <= 0 && p.attempt_timeout <= 0
                   ? "a backoff cap or a per-attempt timeout"
                   : (p.max_backoff <= 0 ? "a backoff cap"
                                         : "a per-attempt timeout")) +
              ": uncapped exponential backoff turns a long outage into "
              "hour-long sleeps, and without an attempt timeout one "
              "degraded transfer stalls the pull indefinitely — retries "
              "must be bounded to degrade gracefully (§5.1.3)";
  f.paper_ref = "§5.1.3";
  f.fix_hint =
      "cap the backoff and set a per-attempt timeout "
      "(RetryPolicy::standard() values)";
  f.fix = [](AuditInput& in2) {
    if (!in2.registry_retry) return;
    const fault::RetryPolicy std_policy = fault::RetryPolicy::standard();
    if (in2.registry_retry->max_backoff <= 0)
      in2.registry_retry->max_backoff = std_policy.max_backoff;
    if (in2.registry_retry->attempt_timeout <= 0)
      in2.registry_retry->attempt_timeout = std_policy.attempt_timeout;
  };
  out.push_back(std::move(f));
}

void rob003(const AuditInput& in, std::vector<Finding>& out) {
  if (!in.has_registry_client) return;
  if (!in.registry_retry || in.registry_retry->max_attempts <= 3) return;
  if (in.breaker && in.breaker->enabled) return;
  Finding f;
  f.rule = "ROB003";
  f.object = "registry client (" +
             std::to_string(in.registry_retry->max_attempts) +
             " attempts, no circuit breaker)";
  f.message =
      "a deep retry budget on a WAN-facing pull leg with no circuit "
      "breaker: when the origin actually goes down, every client burns "
      "its full attempt budget against a dead endpoint and the fleet's "
      "retry amplification multiplies the outage load instead of "
      "containing it — retries handle blips, breakers handle outages "
      "(§5.1.3); a breaker also skips known-dead legs for free on the "
      "proxy→secondary→origin failover chain";
  f.paper_ref = "§5.1.3";
  f.fix_hint =
      "wire a circuit breaker on the pull legs "
      "(BreakerConfig::standard() via RegistryClient::set_breaker_config)";
  f.fix = [](AuditInput& in2) {
    in2.breaker = fault::BreakerConfig::standard();
  };
  out.push_back(std::move(f));
}

void rob004(const AuditInput& in, std::vector<Finding>& out) {
  // PERF006's flash-crowd threshold: below it, hedging's duplicate load
  // is noise; at fleet scale it needs an admission controller behind it.
  constexpr std::uint32_t kFleetThreshold = 256;
  if (in.fleet_nodes < kFleetThreshold) return;
  if (!in.hedge || !in.hedge->enabled()) return;
  if (in.admission && in.admission->enabled) return;
  Finding f;
  f.rule = "ROB004";
  f.object = "fleet of " + std::to_string(in.fleet_nodes) +
             " nodes (hedging enabled, no admission controller)";
  f.message =
      "hedged pulls at fleet scale without load shedding: every node "
      "past its latency budget launches a second leg, so exactly when "
      "the shared infrastructure is slow the offered load doubles — a "
      "token-bucket admission controller with priority classes (lazy "
      "prefetch sheds before first-touch reads) is what keeps the hedge "
      "from becoming the cascade it was meant to avoid (§5.1.3)";
  f.paper_ref = "§5.1.3";
  f.fix_hint =
      "add a token-bucket admission controller "
      "(AdmissionConfig::standard() via Proxy::set_admission)";
  f.fix = [](AuditInput& in2) {
    in2.admission = fault::AdmissionConfig::standard();
  };
  out.push_back(std::move(f));
}

// ---------------------------------------------------------------------------
// OBS — observability configuration (DESIGN.md §10)
// ---------------------------------------------------------------------------

void obs001(const AuditInput& in, std::vector<Finding>& out) {
  if (!in.obs || !in.obs->tracing) return;
  if (!in.obs->trace_path.empty()) return;
  Finding f;
  f.rule = "OBS001";
  f.object = "obs config (tracing enabled, no trace path)";
  f.message =
      "tracing is enabled but no export path is configured: every span in "
      "the run is collected and then dropped on exit — the instrumentation "
      "cost is paid with nothing to show for it. Set HPCC_TRACE or "
      "obs::Config::trace_path so the Chrome trace is written somewhere";
  f.paper_ref = "§3.2";
  f.fix_hint = "set trace_path (the HPCC_TRACE convention: trace.json)";
  f.fix = [](AuditInput& in2) {
    if (in2.obs && in2.obs->tracing && in2.obs->trace_path.empty())
      in2.obs->trace_path = "trace.json";
  };
  out.push_back(std::move(f));
}

void obs002(const AuditInput& in, std::vector<Finding>& out) {
  for (std::size_t i = 0; i < in.histograms.size(); ++i) {
    const auto& spec = in.histograms[i];
    if (obs::Histogram::bounds_monotonic(spec.bounds)) continue;
    Finding f;
    f.rule = "OBS002";
    f.object = "histogram '" + spec.name + "'";
    f.message =
        spec.bounds.empty()
            ? "histogram declared with no bucket bounds: every observation "
              "lands in the single overflow bucket and the distribution is "
              "unrecoverable"
            : "histogram bucket bounds are not strictly increasing: "
              "out-of-order or duplicate bounds mis-attribute observations "
              "to the wrong bucket and break percentile math";
    f.paper_ref = "§3.2";
    f.fix_hint = "sort and deduplicate the bucket bounds";
    if (!spec.bounds.empty()) {
      const std::size_t idx = i;
      f.fix = [idx](AuditInput& in2) {
        if (idx < in2.histograms.size())
          in2.histograms[idx].bounds =
              obs::Histogram::sanitize_bounds(in2.histograms[idx].bounds);
      };
    }
    out.push_back(std::move(f));
  }
}

void ctrl001(const AuditInput& in, std::vector<Finding>& out) {
  if (!in.control_plane || !in.control_plane->enabled) return;
  if (in.obs && in.obs->metrics) return;
  Finding f;
  f.rule = "CTRL001";
  f.object = "control plane (controller enabled, metrics gate off)";
  f.message =
      "the closed-loop controller is enabled but the obs metrics gate is "
      "off: every policy that senses through obs (prefetch pattern "
      "counters, health gauges) reads an empty snapshot each epoch and "
      "holds forever — the control loop runs with dark sensors, paying "
      "epoch overhead while adapting nothing. Enable metrics "
      "(HPCC_METRICS / obs::Config::metrics) so the policies can see";
  f.paper_ref = "§5 / §7";
  f.fix_hint = "enable the obs metrics plane (the controller's sensors)";
  f.fix = [](AuditInput& in2) {
    if (!in2.obs) in2.obs.emplace();
    in2.obs->metrics = true;
  };
  out.push_back(std::move(f));
}

void ctrl002(const AuditInput& in, std::vector<Finding>& out) {
  if (!in.control_plane || !in.control_plane->enabled) return;
  if (!in.registry_retry || in.registry_retry->max_backoff <= 0) return;
  if (in.control_plane->epoch >= in.registry_retry->max_backoff) return;
  Finding f;
  f.rule = "CTRL002";
  f.object = "control plane (epoch " +
             std::to_string(in.control_plane->epoch) + "us < backoff cap " +
             std::to_string(in.registry_retry->max_backoff) + "us)";
  f.message =
      "the control epoch is shorter than the retry layer's backoff cap: "
      "the controller re-evaluates while the retry layer is still "
      "absorbing the same transient, so one blip reads as several epochs "
      "of degraded sensors and the policies chase it — classic control "
      "thrash where two loops fight over one disturbance. The outer "
      "(adaptation) loop must run slower than the inner (retry) loop";
  f.paper_ref = "§5.1.3";
  f.fix_hint =
      "raise the control epoch (control::Config::epoch) to at least the "
      "retry backoff cap";
  f.fix = [](AuditInput& in2) {
    if (in2.control_plane && in2.registry_retry)
      in2.control_plane->epoch = in2.registry_retry->max_backoff;
  };
  out.push_back(std::move(f));
}

void adapt002(const AuditInput& in, std::vector<Finding>& out) {
  if (!in.plan || !in.plan->prefetch_node_local) return;
  if (!in.site || in.site->node_local_storage) return;
  Finding f;
  f.rule = "ADAPT002";
  f.object = "plan prefetch";
  f.message =
      "the plan stages the image to node-local storage but site '" +
      in.site->site_name +
      "' declares no node-local storage: the prefetch has nowhere to land "
      "(§4.1.4's extraction optimization requires local disks)";
  f.paper_ref = "§4.1.4";
  f.fix_hint = "serve the image from the shared filesystem instead";
  f.fix = [](AuditInput& in2) {
    if (in2.plan) in2.plan->prefetch_node_local = false;
  };
  out.push_back(std::move(f));
}

void conc002(const AuditInput& in, std::vector<Finding>& out) {
  if (in.prefetch_depth == 0 || in.pool_threads != 1) return;
  Finding f;
  f.rule = "CONC002";
  f.object = "prefetch pool";
  f.message =
      "prefetch depth " + std::to_string(in.prefetch_depth) +
      " is configured over a single-thread pool: every queued warm-up "
      "runs serially on the one worker the pull path also needs, so the "
      "background prefetch (§4.1.4) degrades to foreground latency "
      "instead of hiding it";
  f.paper_ref = "§4.1.4 / §7";
  f.fix_hint = "give the prefetch pool at least two workers";
  f.fix = [](AuditInput& in2) { in2.pool_threads = 2; };
  out.push_back(std::move(f));
}

}  // namespace

RuleRegistry RuleRegistry::builtin() {
  RuleRegistry reg;
  const auto add = [&reg](std::string id, Severity sev, std::string title,
                          std::string ref, RuleCheck check) {
    reg.add(Rule{std::move(id), sev, std::move(title), std::move(ref),
                 std::move(check)});
  };
  add("SEC001", Severity::kError,
      "user-writeable SquashFS image kernel-mounted via setuid helper",
      "§4.1.2", sec001);
  add("SEC002", Severity::kError,
      "in-kernel SquashFS mount inside a user namespace", "§4.1.2", sec002);
  add("SEC003", Severity::kError,
      "ptrace fakeroot without CAP_SYS_PTRACE", "§4.1.2", sec003);
  add("SEC004", Severity::kError,
      "writable bind mount of a host library path", "§4.1.6", sec004);
  add("SEC005", Severity::kError,
      "kernel OverlayFS in a UserNS on a kernel that forbids it", "§4.1.4",
      sec005);
  add("SEC006", Severity::kError,
      "LD_PRELOAD fakeroot with statically linked binaries", "§4.1.2",
      sec006);
  add("SEC007", Severity::kError,
      "root daemon on a rootless-mandatory site", "§3.2", sec007);
  add("SEC008", Severity::kError,
      "setuid helper on a site that refuses setuid binaries", "§4.1.1",
      sec008);
  add("SEC009", Severity::kError,
      "user namespace without a uid/gid mapping", "§3.2", sec009);
  add("SEC010", Severity::kError,
      "signature verification required but engine cannot verify",
      "Table 2 / §4.1.5", sec010);
  add("SEC011", Severity::kError,
      "encrypted images required but engine lacks support",
      "Table 2 / §4.1.5", sec011);
  add("PERF001", Severity::kWarn,
      "SquashFUSE where the in-kernel driver is admissible", "§4.1.2 [29]",
      perf001);
  add("PERF002", Severity::kWarn,
      "directory rootfs small-file storm on the shared filesystem",
      "§3.2 / §4.1.4", perf002);
  add("PERF003", Severity::kWarn,
      "ptrace fakeroot under a syscall-heavy workload", "§4.1.2", perf003);
  add("PERF004", Severity::kWarn,
      "lazy mount without a cache tier in the data path", "§3.2 / §7",
      perf004);
  add("PERF005", Severity::kWarn,
      "cache tier smaller than the image's hot index", "§3.2 / §7", perf005);
  add("PERF006", Severity::kWarn,
      "fleet-scale pull storm against a rate-limited registry without a "
      "site proxy",
      "§5.1.3", perf006);
  add("CFG001", Severity::kWarn,
      "OCI hooks require manual root but mechanism is unprivileged",
      "Table 1 / §4.1.6", cfg001);
  add("CFG002", Severity::kError,
      "GPU requested from an engine without GPU support", "Table 3 / §4.1.6",
      cfg002);
  add("CFG003", Severity::kWarn,
      "network namespace blocks the host interconnect", "§3.2", cfg003);
  add("CFG004", Severity::kError,
      "registry protocol cannot serve the users' image format",
      "Table 4 / §5.2", cfg004);
  add("CFG005", Severity::kWarn,
      "air-gapped site pulling without the site proxy", "§5.1.3", cfg005);
  add("CFG006", Severity::kWarn,
      "accounting required but container in no cgroup", "§6.5", cfg006);
  add("ROB001", Severity::kWarn,
      "registry client with no retry policy on the pull path", "§5.1.3",
      rob001);
  add("ROB002", Severity::kWarn,
      "retry policy without backoff cap or per-attempt timeout", "§5.1.3",
      rob002);
  add("ROB003", Severity::kWarn,
      "deep retry budget on a WAN-facing pull leg with no circuit breaker",
      "§5.1.3", rob003);
  add("ROB004", Severity::kWarn,
      "fleet-scale hedging without an admission controller", "§5.1.3",
      rob004);
  add("OBS001", Severity::kWarn,
      "tracing enabled but no export path configured", "§3.2", obs001);
  add("OBS002", Severity::kWarn,
      "histogram bucket bounds not monotonically increasing", "§3.2",
      obs002);
  add("CTRL001", Severity::kWarn,
      "closed-loop controller enabled but metrics gate off (sensors dark)",
      "§5 / §7", ctrl001);
  add("CTRL002", Severity::kWarn,
      "control epoch shorter than the retry backoff cap (control thrash)",
      "§5.1.3", ctrl002);
  add("ADAPT001", Severity::kError,
      "adaptive plan mount inadmissible under the mount policy", "§4.1.2",
      adapt001);
  add("ADAPT002", Severity::kError,
      "adaptive plan prefetches to nonexistent node-local storage",
      "§4.1.4", adapt002);
  add("CONC002", Severity::kWarn,
      "prefetch configured over a single-thread pool", "§4.1.4 / §7",
      conc002);
  return reg;
}

}  // namespace hpcc::audit
