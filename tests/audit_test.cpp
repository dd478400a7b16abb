// tests/audit_test.cpp — golden-finding coverage of the static analyzer.
//
// Every built-in rule has a positive case (a configuration that MUST
// trigger it) and a negative case (the minimally-changed configuration
// that must not), fix-its are verified to make their finding disappear
// on re-audit, the 9 shipped engine profiles are swept for a clean
// ground truth, and the registry/reporter plumbing is exercised.
#include "audit/audit.h"

#include <gtest/gtest.h>

#include "audit/report.h"
#include "audit/scenarios.h"

namespace hpcc::audit {
namespace {

using engine::EngineKind;
using engine::MountStrategy;
using runtime::MountKind;
using runtime::MountSpec;
using runtime::RootlessMechanism;

MountSpec mount(MountKind kind, std::string source, std::string dest,
                bool read_only = true) {
  MountSpec m;
  m.kind = kind;
  m.source = std::move(source);
  m.destination = std::move(dest);
  m.read_only = read_only;
  return m;
}

/// A well-formed rootless baseline that triggers nothing: UserNS with a
/// single-user mapping, SquashFUSE rootfs, read-only library bind, a
/// cgroup placement, and a permissive site.
AuditInput clean_input() {
  AuditInput in;
  in.mechanism = RootlessMechanism::kUserNamespace;
  in.config.namespaces = runtime::NamespaceSet::hpc();
  in.config.user_mapping = runtime::UserMapping::single_user(1000, 1000);
  in.config.cgroup_path = "/slurm/job7/step0";
  in.config.mounts.push_back(
      mount(MountKind::kSquashFuse, "/cluster/images/app.sqsh", "/"));
  in.config.mounts.push_back(
      mount(MountKind::kBind, "/usr/lib64", "/usr/lib64/host"));
  in.site = permissive_site();
  return in;
}

engine::EngineFeatures features_of(EngineKind kind) {
  return engine::make_engine(kind, engine::EngineContext{})->features();
}

engine::EngineBehavior behavior_of(EngineKind kind) {
  return engine::make_engine(kind, engine::EngineContext{})->behavior();
}

AuditReport audit(const AuditInput& in) { return Auditor().run(in); }

/// Asserts the rule fires on `positive`, does not fire on `negative`,
/// and (when the finding carries a fix-it) that applying the fix-it to
/// `positive` makes the finding disappear on re-audit.
void expect_rule(std::string_view rule, const AuditInput& positive,
                 const AuditInput& negative) {
  const AuditReport pos = audit(positive);
  ASSERT_TRUE(pos.has(rule)) << rule << " did not fire on the positive case";
  EXPECT_FALSE(audit(negative).has(rule))
      << rule << " fired on the negative case";
  const Finding* f = pos.find(rule);
  if (f->has_fix()) {
    AuditInput fixed = positive;
    f->fix(fixed);
    EXPECT_FALSE(audit(fixed).has(rule))
        << rule << "'s fix-it did not resolve the finding";
  }
}

// ---------------------------------------------------------------------------
// SEC rules
// ---------------------------------------------------------------------------

TEST(AuditRules, Sec001UserWritableSuidSquash) {
  AuditInput pos = clean_input();
  pos.mechanism = RootlessMechanism::kSetuidHelper;
  pos.config.mounts[0].kind = MountKind::kSquashKernel;
  pos.host.image_user_writable = true;
  AuditInput neg = pos;
  neg.host.image_user_writable = false;
  expect_rule("SEC001", pos, neg);
}

TEST(AuditRules, Sec002KernelSquashInUserNs) {
  AuditInput pos = clean_input();
  pos.config.mounts[0].kind = MountKind::kSquashKernel;
  AuditInput neg = pos;
  neg.mechanism = RootlessMechanism::kSetuidHelper;
  expect_rule("SEC002", pos, neg);
}

TEST(AuditRules, Sec003PtraceWithoutCapability) {
  AuditInput pos = clean_input();
  pos.mechanism = RootlessMechanism::kFakerootPtrace;
  pos.host.user_has_cap_sys_ptrace = false;
  AuditInput neg = pos;
  neg.host.user_has_cap_sys_ptrace = true;
  expect_rule("SEC003", pos, neg);
}

TEST(AuditRules, Sec004WritableLibraryBind) {
  AuditInput pos = clean_input();
  pos.config.mounts[1].read_only = false;
  AuditInput neg = clean_input();
  expect_rule("SEC004", pos, neg);

  // A writable bind of a non-library path (scratch) is fine.
  AuditInput scratch = clean_input();
  scratch.config.mounts.push_back(
      mount(MountKind::kBind, "/scratch/user", "/scratch", /*read_only=*/false));
  EXPECT_FALSE(audit(scratch).has("SEC004"));
}

TEST(AuditRules, Sec005KernelOverlayForbidden) {
  AuditInput pos = clean_input();
  pos.config.mounts[0].kind = MountKind::kOverlayKernel;
  pos.host.kernel_allows_userns_overlay = false;
  AuditInput neg = pos;
  neg.host.kernel_allows_userns_overlay = true;
  expect_rule("SEC005", pos, neg);
}

TEST(AuditRules, Sec006PreloadFakerootStaticBinaries) {
  AuditInput pos = clean_input();
  pos.mechanism = RootlessMechanism::kFakerootPreload;
  pos.workload.has_static_binaries = true;
  AuditInput neg = pos;
  neg.workload.has_static_binaries = false;
  expect_rule("SEC006", pos, neg);

  // With CAP_SYS_PTRACE held, the fix-it prefers ptrace fakeroot (root
  // emulation preserved); without it, a plain UserNS.
  AuditInput with_cap = pos;
  with_cap.host.user_has_cap_sys_ptrace = true;
  const AuditReport report = audit(with_cap);
  const Finding* f = report.find("SEC006");
  ASSERT_NE(f, nullptr);
  f->fix(with_cap);
  EXPECT_EQ(with_cap.mechanism, RootlessMechanism::kFakerootPtrace);
}

TEST(AuditRules, Sec007RootDaemonOnRootlessSite) {
  AuditInput pos = clean_input();
  pos.mechanism = RootlessMechanism::kRootDaemon;
  pos.site = adaptive::conservative_hpc_site();
  AuditInput neg = pos;
  neg.site = permissive_site();
  expect_rule("SEC007", pos, neg);
}

TEST(AuditRules, Sec008SuidHelperRefused) {
  AuditInput pos = clean_input();
  pos.mechanism = RootlessMechanism::kSetuidHelper;
  pos.site = adaptive::conservative_hpc_site();
  AuditInput neg = pos;
  neg.site = adaptive::pragmatic_hpc_site();
  expect_rule("SEC008", pos, neg);
}

TEST(AuditRules, Sec009UserNsWithoutMapping) {
  AuditInput pos = clean_input();
  pos.config.user_mapping.reset();
  AuditInput neg = clean_input();
  expect_rule("SEC009", pos, neg);
}

TEST(AuditRules, Sec010SignatureVerificationUnsupported) {
  AuditInput pos = clean_input();
  pos.site = adaptive::secure_data_site();
  pos.engine_features = features_of(EngineKind::kShifter);
  pos.engine_behavior = behavior_of(EngineKind::kShifter);
  AuditInput neg = pos;
  neg.engine_features = features_of(EngineKind::kPodman);
  neg.engine_behavior = behavior_of(EngineKind::kPodman);
  expect_rule("SEC010", pos, neg);
}

TEST(AuditRules, Sec011EncryptionUnsupported) {
  AuditInput pos = clean_input();
  pos.site = adaptive::secure_data_site();
  pos.engine_features = features_of(EngineKind::kSarus);
  pos.engine_behavior = behavior_of(EngineKind::kSarus);
  AuditInput neg = pos;
  neg.engine_features = features_of(EngineKind::kApptainer);
  neg.engine_behavior = behavior_of(EngineKind::kApptainer);
  expect_rule("SEC011", pos, neg);
}

// ---------------------------------------------------------------------------
// PERF rules
// ---------------------------------------------------------------------------

TEST(AuditRules, Perf001FuseWhereKernelAdmissible) {
  AuditInput pos = clean_input();
  pos.mechanism = RootlessMechanism::kSetuidHelper;  // kernel mount allowed
  AuditInput neg = clean_input();                    // UserNS: FUSE is correct
  expect_rule("PERF001", pos, neg);

  // A user-writeable image forbids the kernel mount, so FUSE is not a
  // pessimism there either.
  AuditInput writable = pos;
  writable.host.image_user_writable = true;
  EXPECT_FALSE(audit(writable).has("PERF001"));
}

TEST(AuditRules, Perf002SmallFileStormOnSharedFs) {
  AuditInput pos = clean_input();
  pos.config.mounts[0].kind = MountKind::kDirRootfs;
  pos.workload = runtime::python_workload();
  pos.site->shared_filesystem = true;
  pos.site->node_local_storage = false;
  AuditInput neg = pos;
  neg.site->node_local_storage = true;
  expect_rule("PERF002", pos, neg);

  // The compiled-MPI profile opens too few files to strain the FS.
  AuditInput few = pos;
  few.workload = runtime::compiled_mpi_workload();
  EXPECT_FALSE(audit(few).has("PERF002"));
}

TEST(AuditRules, Perf003PtraceSyscallHeavy) {
  AuditInput pos = clean_input();
  pos.mechanism = RootlessMechanism::kFakerootPtrace;
  pos.host.user_has_cap_sys_ptrace = true;
  pos.workload.files_opened = 20000;
  AuditInput neg = pos;
  neg.workload = runtime::shell_workload();
  expect_rule("PERF003", pos, neg);
}

TEST(AuditRules, Perf004LazyMountWithoutCacheTier) {
  AuditInput pos = clean_input();
  pos.lazy_mount = true;
  pos.data_path.emplace();
  pos.data_path->tiers.push_back(
      storage::TierSummary{"registry-wan", false, 0});
  AuditInput neg = pos;
  neg.data_path->tiers.insert(
      neg.data_path->tiers.begin(),
      storage::TierSummary{"page-cache", true, 4ull << 30});
  expect_rule("PERF004", pos, neg);

  // Non-lazy mounts don't fire even with a cacheless path.
  AuditInput eager = pos;
  eager.lazy_mount = false;
  EXPECT_FALSE(audit(eager).has("PERF004"));

  // No topology at all also counts as cacheless on a lazy mount.
  AuditInput unknown = clean_input();
  unknown.lazy_mount = true;
  EXPECT_TRUE(audit(unknown).has("PERF004"));
}

TEST(AuditRules, Perf005CacheSmallerThanImageIndex) {
  AuditInput pos = clean_input();
  pos.image_index_bytes = 256ull << 20;
  pos.data_path.emplace();
  pos.data_path->tiers.push_back(
      storage::TierSummary{"page-cache", true, 64ull << 20});
  pos.data_path->tiers.push_back(storage::TierSummary{"shared-fs", false, 0});
  AuditInput neg = pos;
  neg.data_path->tiers[0].capacity_bytes = 512ull << 20;
  expect_rule("PERF005", pos, neg);

  // Unknown index size or unbounded cache: nothing to compare.
  AuditInput no_index = pos;
  no_index.image_index_bytes = 0;
  EXPECT_FALSE(audit(no_index).has("PERF005"));
  AuditInput unbounded = pos;
  unbounded.data_path->tiers[0].capacity_bytes = 0;
  EXPECT_FALSE(audit(unbounded).has("PERF005"));
}

TEST(AuditRules, Perf006FleetPullStormWithoutSiteProxy) {
  AuditInput pos = clean_input();
  pos.fleet_nodes = 1024;
  pos.registry_limits.emplace();
  pos.registry_limits->pull_limit = 200;  // DockerHub-style window cap
  AuditInput neg = pos;
  neg.site_proxy = true;
  expect_rule("PERF006", pos, neg);

  // Below the fleet threshold the storm never materializes.
  AuditInput small = pos;
  small.fleet_nodes = 64;
  EXPECT_FALSE(audit(small).has("PERF006"));

  // An unlimited registry has nothing to exhaust.
  AuditInput unlimited = pos;
  unlimited.registry_limits->pull_limit = 0;
  EXPECT_FALSE(audit(unlimited).has("PERF006"));
  AuditInput no_registry = pos;
  no_registry.registry_limits.reset();
  EXPECT_FALSE(audit(no_registry).has("PERF006"));
}

TEST(AuditRules, Perf006FixItInsertsProxyTier) {
  AuditInput in = clean_input();
  in.fleet_nodes = 4096;
  in.registry_limits.emplace();
  in.registry_limits->pull_limit = 100;
  const AuditReport report = audit(in);
  const Finding* f = report.find("PERF006");
  ASSERT_NE(f, nullptr);
  ASSERT_TRUE(f->has_fix());
  f->fix(in);
  EXPECT_TRUE(in.site_proxy);
  ASSERT_TRUE(in.data_path.has_value());
  ASSERT_FALSE(in.data_path->tiers.empty());
  EXPECT_EQ(in.data_path->tiers.front().name, "site-proxy");
  EXPECT_TRUE(in.data_path->tiers.front().cache);
  EXPECT_FALSE(audit(in).has("PERF006"));
}

// ---------------------------------------------------------------------------
// CFG rules
// ---------------------------------------------------------------------------

TEST(AuditRules, Cfg001ManualRootHooksUnavailable) {
  AuditInput pos = clean_input();
  pos.engine_features = features_of(EngineKind::kApptainer);
  AuditInput neg = pos;
  neg.mechanism = RootlessMechanism::kSetuidHelper;
  expect_rule("CFG001", pos, neg);
}

TEST(AuditRules, Cfg002GpuWithoutSupport) {
  adaptive::ContainerizationPlan plan;
  plan.gpu_hook = true;
  AuditInput pos = clean_input();
  pos.plan = plan;
  pos.engine_features = features_of(EngineKind::kShifter);  // GPU: no
  AuditInput neg = pos;
  neg.engine_features = features_of(EngineKind::kSarus);  // GPU: native
  expect_rule("CFG002", pos, neg);
}

TEST(AuditRules, Cfg003NetNamespaceBlocksInterconnect) {
  AuditInput pos = clean_input();
  pos.config.namespaces = runtime::NamespaceSet::full();
  pos.site->need_host_interconnect = true;
  AuditInput neg = pos;
  neg.site->need_host_interconnect = false;
  expect_rule("CFG003", pos, neg);
}

TEST(AuditRules, Cfg004RegistryProtocolMismatch) {
  AuditInput pos = clean_input();
  pos.site->users_bring_oci_images = true;
  pos.registry_product = *registry::find_registry_product("shpc").value();
  AuditInput neg = pos;
  neg.registry_product = *registry::find_registry_product("Harbor").value();
  expect_rule("CFG004", pos, neg);

  // The SIF direction: OCI-only registry, Singularity-ecosystem users.
  AuditInput sif = clean_input();
  sif.site->users_bring_oci_images = false;
  sif.site->users_bring_sif_images = true;
  sif.registry_product = *registry::find_registry_product("Harbor").value();
  EXPECT_TRUE(audit(sif).has("CFG004"));
}

TEST(AuditRules, Cfg005AirGappedWithoutProxy) {
  adaptive::ContainerizationPlan plan;
  plan.use_site_proxy = false;
  AuditInput pos = clean_input();
  pos.site->air_gapped = true;
  pos.plan = plan;
  AuditInput neg = pos;
  neg.plan->use_site_proxy = true;
  expect_rule("CFG005", pos, neg);
}

TEST(AuditRules, Cfg006NoCgroupPlacement) {
  AuditInput pos = clean_input();
  pos.config.cgroup_path.clear();
  pos.site->accounting_required = true;
  AuditInput neg = clean_input();
  expect_rule("CFG006", pos, neg);
}

// ---------------------------------------------------------------------------
// ROB rules
// ---------------------------------------------------------------------------

TEST(AuditRules, Rob001ClientWithoutRetryPolicy) {
  AuditInput pos = clean_input();
  pos.has_registry_client = true;  // no registry_retry at all
  AuditInput neg = pos;
  neg.registry_retry = fault::RetryPolicy::standard();
  expect_rule("ROB001", pos, neg);
}

TEST(AuditRules, Rob001SingleAttemptPolicyStillFires) {
  AuditInput pos = clean_input();
  pos.has_registry_client = true;
  pos.registry_retry = fault::RetryPolicy::none();  // max_attempts == 1
  AuditInput neg = clean_input();  // no registry client at all: not gated
  expect_rule("ROB001", pos, neg);
}

TEST(AuditRules, Rob002UncappedBackoff) {
  AuditInput pos = clean_input();
  pos.has_registry_client = true;
  pos.registry_retry = fault::RetryPolicy::standard();
  pos.registry_retry->max_backoff = 0;  // uncapped growth
  AuditInput neg = pos;
  neg.registry_retry = fault::RetryPolicy::standard();
  expect_rule("ROB002", pos, neg);
}

TEST(AuditRules, Rob002MissingAttemptTimeout) {
  AuditInput pos = clean_input();
  pos.has_registry_client = true;
  pos.registry_retry = fault::RetryPolicy::standard();
  pos.registry_retry->attempt_timeout = 0;  // one stall blocks the pull
  // A single-attempt policy is ROB001's business, not ROB002's.
  AuditInput neg = pos;
  neg.registry_retry = fault::RetryPolicy::none();
  expect_rule("ROB002", pos, neg);
}

TEST(AuditRules, Rob003DeepRetryWithoutBreaker) {
  AuditInput pos = clean_input();
  pos.has_registry_client = true;
  pos.registry_retry = fault::RetryPolicy::standard();
  pos.registry_retry->max_attempts = 6;  // deep budget, no breaker
  AuditInput neg = pos;
  neg.breaker = fault::BreakerConfig::standard();
  expect_rule("ROB003", pos, neg);
}

TEST(AuditRules, Rob003ShallowRetryDoesNotFire) {
  AuditInput shallow = clean_input();
  shallow.has_registry_client = true;
  shallow.registry_retry = fault::RetryPolicy::standard();
  shallow.registry_retry->max_attempts = 3;  // blip-scale: breaker optional
  EXPECT_FALSE(audit(shallow).has("ROB003"));
  // A configured-but-disabled breaker is no breaker at all.
  AuditInput disabled = shallow;
  disabled.registry_retry->max_attempts = 6;
  disabled.breaker = fault::BreakerConfig{};  // enabled == false
  EXPECT_TRUE(audit(disabled).has("ROB003"));
}

TEST(AuditRules, Rob004FleetHedgingWithoutAdmission) {
  AuditInput pos = clean_input();
  pos.fleet_nodes = 512;
  pos.hedge = fault::HedgePolicy::at_percentile(0.95, 1.5);
  AuditInput neg = pos;
  neg.admission = fault::AdmissionConfig::standard();
  expect_rule("ROB004", pos, neg);
}

TEST(AuditRules, Rob004SmallFleetOrNoHedgeDoesNotFire) {
  AuditInput small = clean_input();
  small.fleet_nodes = 64;  // below the flash-crowd threshold
  small.hedge = fault::HedgePolicy::at_percentile(0.95, 1.5);
  EXPECT_FALSE(audit(small).has("ROB004"));
  AuditInput no_hedge = clean_input();
  no_hedge.fleet_nodes = 512;  // big fleet but nothing to amplify
  EXPECT_FALSE(audit(no_hedge).has("ROB004"));
}

// ---------------------------------------------------------------------------
// OBS rules
// ---------------------------------------------------------------------------

TEST(AuditRules, Obs001TracingWithoutExportPath) {
  AuditInput pos = clean_input();
  pos.obs = obs::Config{};
  pos.obs->tracing = true;  // enabled, but trace_path stays ""
  AuditInput neg = pos;
  neg.obs->trace_path = "build/trace.json";
  expect_rule("OBS001", pos, neg);
}

TEST(AuditRules, Obs001DoesNotFireWhenTracingOff) {
  AuditInput in = clean_input();
  in.obs = obs::Config{};  // metrics/tracing both off
  in.obs->metrics = true;  // metrics without a path is fine (snapshot API)
  EXPECT_FALSE(audit(in).has("OBS001"));
}

TEST(AuditRules, Obs002NonMonotonicHistogramBounds) {
  AuditInput pos = clean_input();
  pos.histograms.push_back(
      obs::HistogramSpec{"pull.latency_us", {1000, 100, 1000000}});
  AuditInput neg = clean_input();
  neg.histograms.push_back(
      obs::HistogramSpec{"pull.latency_us", {100, 1000, 1000000}});
  expect_rule("OBS002", pos, neg);
}

TEST(AuditRules, Obs002DuplicateBoundsFireAndFixSorts) {
  AuditInput pos = clean_input();
  pos.histograms.push_back(
      obs::HistogramSpec{"retry.backoff_us", {1000, 1000, 10000}});
  const AuditReport report = audit(pos);
  ASSERT_TRUE(report.has("OBS002"));
  const Finding* f = report.find("OBS002");
  ASSERT_TRUE(f->has_fix());
  f->fix(pos);
  EXPECT_EQ(pos.histograms[0].bounds, (std::vector<std::int64_t>{1000, 10000}));
  EXPECT_FALSE(audit(pos).has("OBS002"));
}

TEST(AuditRules, Obs002EmptyBoundsFireWithoutFix) {
  AuditInput pos = clean_input();
  pos.histograms.push_back(obs::HistogramSpec{"empty", {}});
  const AuditReport report = audit(pos);
  ASSERT_TRUE(report.has("OBS002"));
  EXPECT_FALSE(report.find("OBS002")->has_fix());
}

// ---------------------------------------------------------------------------
// CTRL rules
// ---------------------------------------------------------------------------

TEST(AuditRules, Ctrl001ControllerOnWithDarkSensors) {
  AuditInput pos = clean_input();
  pos.control_plane = control::Config{};
  pos.control_plane->enabled = true;  // controller on, no obs at all
  AuditInput neg = pos;
  neg.obs = obs::Config{};
  neg.obs->metrics = true;  // the sensors are lit
  expect_rule("CTRL001", pos, neg);
}

TEST(AuditRules, Ctrl001DoesNotFireWhenControllerOff) {
  AuditInput in = clean_input();
  in.control_plane = control::Config{};  // present but disabled
  EXPECT_FALSE(audit(in).has("CTRL001"));
  // Metrics off without any controller is nobody's business either.
  AuditInput bare = clean_input();
  bare.obs = obs::Config{};
  EXPECT_FALSE(audit(bare).has("CTRL001"));
}

TEST(AuditRules, Ctrl002EpochFasterThanRetryBackoffCap) {
  AuditInput pos = clean_input();
  pos.obs = obs::Config{};
  pos.obs->metrics = true;  // keep CTRL001 quiet: this is CTRL002's case
  pos.control_plane = control::Config{};
  pos.control_plane->enabled = true;
  pos.control_plane->epoch = msec(100);
  pos.has_registry_client = true;
  fault::RetryPolicy retry = fault::RetryPolicy::standard(4);
  retry.max_backoff = sec(2);  // the inner loop is slower than the outer
  pos.registry_retry = retry;
  AuditInput neg = pos;
  neg.control_plane->epoch = sec(5);
  expect_rule("CTRL002", pos, neg);
}

TEST(AuditRules, Ctrl002FixRaisesTheEpochToTheCap) {
  AuditInput in = clean_input();
  in.obs = obs::Config{};
  in.obs->metrics = true;
  in.control_plane = control::Config{};
  in.control_plane->enabled = true;
  in.control_plane->epoch = msec(50);
  fault::RetryPolicy retry = fault::RetryPolicy::standard(4);
  retry.max_backoff = sec(1);
  in.registry_retry = retry;
  const AuditReport report = audit(in);
  ASSERT_TRUE(report.has("CTRL002"));
  const Finding* f = report.find("CTRL002");
  ASSERT_TRUE(f->has_fix());
  f->fix(in);
  EXPECT_EQ(in.control_plane->epoch, sec(1));
  EXPECT_FALSE(audit(in).has("CTRL002"));
}

TEST(AuditRules, Ctrl002SilentWithoutRetryOrController) {
  AuditInput no_retry = clean_input();
  no_retry.obs = obs::Config{};
  no_retry.obs->metrics = true;
  no_retry.control_plane = control::Config{};
  no_retry.control_plane->enabled = true;
  no_retry.control_plane->epoch = usec(1);
  EXPECT_FALSE(audit(no_retry).has("CTRL002"));  // no retry policy at all

  AuditInput off = clean_input();
  off.control_plane = control::Config{};  // disabled controller
  fault::RetryPolicy retry = fault::RetryPolicy::standard(4);
  retry.max_backoff = sec(10);
  off.registry_retry = retry;
  EXPECT_FALSE(audit(off).has("CTRL002"));
}

// ---------------------------------------------------------------------------
// ADAPT rules
// ---------------------------------------------------------------------------

TEST(AuditRules, Adapt001PlanMountInadmissible) {
  adaptive::ContainerizationPlan plan;
  plan.mount = MountStrategy::kSquashKernelSuid;
  plan.mechanism = RootlessMechanism::kUserNamespace;  // contradiction
  AuditInput pos = clean_input();
  pos.plan = plan;
  AuditInput neg = pos;
  neg.plan->mechanism = RootlessMechanism::kSetuidHelper;
  expect_rule("ADAPT001", pos, neg);
}

TEST(AuditRules, Adapt002PrefetchWithoutNodeLocalStorage) {
  adaptive::ContainerizationPlan plan;
  plan.prefetch_node_local = true;
  AuditInput pos = clean_input();
  pos.plan = plan;
  pos.site->node_local_storage = false;
  AuditInput neg = pos;
  neg.site->node_local_storage = true;
  expect_rule("ADAPT002", pos, neg);
}

// ---------------------------------------------------------------------------
// CONC rules (concurrency shape)
// ---------------------------------------------------------------------------

TEST(AuditRules, Conc002PrefetchOverSingleThreadPool) {
  AuditInput pos = clean_input();
  pos.pool_threads = 1;
  pos.prefetch_depth = 8;
  AuditInput neg = clean_input();
  neg.pool_threads = 4;
  neg.prefetch_depth = 8;
  expect_rule("CONC002", pos, neg);

  // No prefetching or no pool configured at all: nothing to warn about.
  AuditInput quiet = clean_input();
  quiet.pool_threads = 1;
  EXPECT_FALSE(audit(quiet).has("CONC002"));
  quiet = clean_input();
  quiet.prefetch_depth = 8;  // pool_threads == 0 (unconfigured)
  EXPECT_FALSE(audit(quiet).has("CONC002"));
}

// ---------------------------------------------------------------------------
// Ground-truth sweep: the nine shipped engine profiles must audit clean
// (no kError) on a site without policy vetoes. Warnings are allowed —
// several engines legitimately trade performance or hook availability.
// ---------------------------------------------------------------------------

TEST(AuditSweep, AllNineEngineProfilesAuditClean) {
  for (auto kind : engine::all_engine_kinds()) {
    const AuditInput in = input_for_engine(kind);
    const AuditReport report = audit(in);
    EXPECT_EQ(report.errors(), 0)
        << "engine " << engine::to_string(kind) << " ground truth has "
        << report.errors() << " error finding(s):\n"
        << render_text(report);
  }
}

TEST(AuditSweep, K8sInSlurmScenarioAuditsClean) {
  EXPECT_TRUE(audit(k8s_in_slurm_input()).clean());
}

TEST(AuditSweep, SiteAdvisorPlansAuditClean) {
  adaptive::AppSpec app;
  app.workload = runtime::python_workload();
  app.image_files = 45000;
  for (const auto& site :
       {adaptive::conservative_hpc_site(), adaptive::pragmatic_hpc_site(),
        adaptive::cloud_leaning_site(), adaptive::secure_data_site(),
        adaptive::gpu_ai_site(), adaptive::bioinformatics_site()}) {
    auto input = input_for_plan(site, app);
    ASSERT_TRUE(input.ok()) << site.site_name << ": "
                            << input.error().to_string();
    const AuditReport report = audit(input.value());
    EXPECT_EQ(report.errors(), 0)
        << "plan for site " << site.site_name << ":\n" << render_text(report);
  }
}

// ---------------------------------------------------------------------------
// Fix-it convergence: Auditor::fix drives a badly misconfigured input to
// a clean state, cascading through rules (suid refusal -> UserNS makes
// the kernel squash mount newly inadmissible -> FUSE downgrade).
// ---------------------------------------------------------------------------

TEST(AuditFix, CascadingFixesReachAFixedPoint) {
  AuditInput in = input_for_engine(EngineKind::kSarus,
                                   adaptive::conservative_hpc_site());
  ASSERT_GT(Auditor().run(in).errors(), 0);
  const AuditReport fixed = Auditor().fix(in);
  EXPECT_EQ(fixed.errors(), 0) << render_text(fixed);
  EXPECT_EQ(in.mechanism, RootlessMechanism::kUserNamespace);
  EXPECT_EQ(in.config.mounts[0].kind, MountKind::kSquashFuse);
}

TEST(AuditFix, UnfixableFindingsSurvive) {
  // Signature requirement against a non-verifying engine has no machine
  // fix: Auditor::fix must report it still.
  AuditInput in = clean_input();
  in.site = adaptive::secure_data_site();
  in.engine_features = features_of(EngineKind::kShifter);
  in.engine_behavior = behavior_of(EngineKind::kShifter);
  const AuditReport report = Auditor().fix(in);
  EXPECT_TRUE(report.has("SEC010"));
}

// ---------------------------------------------------------------------------
// Registry configuration and reporters
// ---------------------------------------------------------------------------

TEST(AuditRegistry, DisableAndSeverityOverrides) {
  AuditInput in = clean_input();
  in.config.mounts[0].kind = MountKind::kSquashKernel;  // SEC002

  RuleRegistry reg = RuleRegistry::builtin();
  ASSERT_TRUE(reg.configure("SEC002=off").ok());
  EXPECT_FALSE(Auditor(std::move(reg)).run(in).has("SEC002"));

  RuleRegistry warn_reg = RuleRegistry::builtin();
  ASSERT_TRUE(warn_reg.configure("SEC002=warn").ok());
  const AuditReport report = Auditor(std::move(warn_reg)).run(in);
  ASSERT_TRUE(report.has("SEC002"));
  EXPECT_EQ(report.find("SEC002")->severity, Severity::kWarn);
  EXPECT_EQ(report.errors(), 0);
}

TEST(AuditRegistry, ConfigureRejectsUnknownRulesAndValues) {
  RuleRegistry reg = RuleRegistry::builtin();
  EXPECT_EQ(reg.configure("NOPE001=off").error().code(), ErrorCode::kNotFound);
  EXPECT_EQ(reg.configure("SEC001=sometimes").error().code(),
            ErrorCode::kInvalidArgument);
  EXPECT_EQ(reg.configure("SEC001").error().code(),
            ErrorCode::kInvalidArgument);
  EXPECT_TRUE(reg.configure("SEC001=error,,PERF001=info").ok());
}

TEST(AuditReportTest, OrderingAndCounts) {
  AuditInput in = clean_input();
  in.config.mounts[0].kind = MountKind::kSquashKernel;  // SEC002 (error)
  in.config.cgroup_path.clear();                        // CFG006 (warn)
  const AuditReport report = audit(in);
  ASSERT_GE(report.findings.size(), 2u);
  EXPECT_EQ(report.findings.front().severity, Severity::kError);
  EXPECT_EQ(report.errors(), 1);
  EXPECT_EQ(report.warnings(), 1);
  EXPECT_FALSE(report.clean());
}

TEST(AuditReportTest, TextAndJsonRendering) {
  AuditInput in = clean_input();
  in.config.mounts[0].kind = MountKind::kSquashKernel;
  const AuditReport report = audit(in);
  const std::string text = render_text(report);
  EXPECT_NE(text.find("SEC002"), std::string::npos);
  EXPECT_NE(text.find("1 error(s)"), std::string::npos);

  const std::string json = render_json(report);
  EXPECT_NE(json.find("\"rule\":\"SEC002\""), std::string::npos);
  EXPECT_NE(json.find("\"errors\":1"), std::string::npos);
  EXPECT_NE(json.find("\"fixable\":true"), std::string::npos);
  // The survey quotes inside messages must be escaped.
  EXPECT_NE(json.find("\\\""), std::string::npos);
  EXPECT_EQ(json.find("\n"), std::string::npos);
}

TEST(AuditReportTest, CleanInputHasNoFindings) {
  EXPECT_TRUE(audit(clean_input()).findings.empty());
}

}  // namespace
}  // namespace hpcc::audit
