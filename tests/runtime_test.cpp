// Tests for hpcc_runtime: namespace sets & uid mappings, cgroups
// (accounting, limits, v2 delegation), the §4.1.2 rootless mount policy
// (parameterized over the full mechanism × mount matrix), OCI hooks,
// ABI compatibility checks, mount cost models and container lifecycle.
#include <gtest/gtest.h>

#include "runtime/cgroup.h"
#include "runtime/container.h"
#include "runtime/hooks.h"
#include "runtime/libraries.h"
#include "runtime/mounts.h"
#include "runtime/namespaces.h"
#include "runtime/rootless.h"
#include "sim/storage.h"
#include "util/strings.h"

namespace hpcc::runtime {
namespace {

// ------------------------------------------------------------- Namespaces

TEST(NamespaceSetTest, Profiles) {
  const auto full = NamespaceSet::full();
  EXPECT_EQ(full.count(), 7u);
  EXPECT_EQ(full.describe(), "full");

  const auto hpc = NamespaceSet::hpc();
  EXPECT_EQ(hpc.count(), 2u);
  EXPECT_TRUE(hpc.has(Namespace::kUser));
  EXPECT_TRUE(hpc.has(Namespace::kMount));
  EXPECT_FALSE(hpc.has(Namespace::kNet));
  EXPECT_EQ(hpc.describe(), "user and mount NS");
}

TEST(NamespaceSetTest, HpcProfileKeepsInterconnectAccess) {
  // §3.2: network namespaces break host interconnect access.
  EXPECT_TRUE(NamespaceSet::full().blocks_host_interconnect());
  EXPECT_FALSE(NamespaceSet::hpc().blocks_host_interconnect());
}

TEST(NamespaceSetTest, SetupCostGrowsWithIsolation) {
  EXPECT_GT(NamespaceSet::full().setup_cost(), NamespaceSet::hpc().setup_cost());
  EXPECT_EQ(NamespaceSet::none().setup_cost(), 0);
}

TEST(NamespaceSetTest, AddRemoveDescribe) {
  NamespaceSet s;
  s.add(Namespace::kUser).add(Namespace::kPid);
  EXPECT_EQ(s.describe(), "user, pid NS");
  s.remove(Namespace::kPid);
  EXPECT_FALSE(s.has(Namespace::kPid));
  EXPECT_EQ(NamespaceSet::none().describe(), "none");
}

TEST(UserMappingTest, SingleUserMapsRootToUser) {
  const auto m = UserMapping::single_user(27182, 500);
  EXPECT_TRUE(m.is_single_user());
  EXPECT_EQ(m.map_uid(0).value(), 27182u);       // container root == user
  EXPECT_EQ(m.map_uid(27182).value(), 27182u);   // own uid passes through
  EXPECT_EQ(m.map_gid(0).value(), 500u);
  // Arbitrary other ids are NOT mapped — the single-user property that
  // guarantees files land with the job owner's uid (§3.2).
  EXPECT_EQ(m.map_uid(33).error().code(), ErrorCode::kPermissionDenied);
}

TEST(UserMappingTest, SubuidRangeMapsEverything) {
  const auto m = UserMapping::subuid_range(1000, 1000, 100000, 65536);
  EXPECT_FALSE(m.is_single_user());
  EXPECT_EQ(m.map_uid(0).value(), 1000u);
  EXPECT_EQ(m.map_uid(1).value(), 100000u);
  EXPECT_EQ(m.map_uid(33).value(), 100032u);
  EXPECT_EQ(m.map_uid(65536).value(), 165535u);
  EXPECT_FALSE(m.map_uid(70000).ok());
}

// ---------------------------------------------------------------- Cgroups

TEST(CgroupTest, CreateFindRemove) {
  CgroupTree tree;
  ASSERT_TRUE(tree.create("/slurm").ok());
  ASSERT_TRUE(tree.create("/slurm/job1").ok());
  EXPECT_TRUE(tree.find("/slurm/job1").ok());
  EXPECT_EQ(tree.create("/slurm/job1").error().code(),
            ErrorCode::kAlreadyExists);
  EXPECT_EQ(tree.create("/nope/child").error().code(), ErrorCode::kNotFound);
  EXPECT_EQ(tree.remove("/slurm").error().code(),
            ErrorCode::kFailedPrecondition);
  ASSERT_TRUE(tree.remove("/slurm/job1").ok());
  ASSERT_TRUE(tree.remove("/slurm").ok());
}

TEST(CgroupTest, HierarchicalCpuAccounting) {
  CgroupTree tree;
  ASSERT_TRUE(tree.create("/slurm").ok());
  Cgroup* job = tree.create("/slurm/job1").value();
  Cgroup* step = tree.create("/slurm/job1/step0").value();
  step->charge_cpu(sec(10));
  EXPECT_EQ(step->usage().cpu_time, sec(10));
  EXPECT_EQ(job->usage().cpu_time, sec(10));
  EXPECT_EQ(tree.find("/slurm").value()->usage().cpu_time, sec(10));
}

TEST(CgroupTest, MemoryLimitEnforcedHierarchically) {
  CgroupTree tree;
  CgroupLimits parent_lim;
  parent_lim.memory_limit = 1000;
  ASSERT_TRUE(tree.create("/box", parent_lim).ok());
  Cgroup* inner = tree.create("/box/inner").value();  // unlimited itself
  ASSERT_TRUE(inner->charge_memory(800).ok());
  const auto oom = inner->charge_memory(300);
  ASSERT_FALSE(oom.ok());
  EXPECT_EQ(oom.error().code(), ErrorCode::kResourceExhausted);
  inner->release_memory(500);
  EXPECT_TRUE(inner->charge_memory(300).ok());
  EXPECT_EQ(inner->usage().memory_peak, 800u);
}

TEST(CgroupTest, DelegationRequiresV2) {
  CgroupTree v1(CgroupVersion::kV1);
  ASSERT_TRUE(v1.create("/user").ok());
  EXPECT_EQ(v1.delegate("/user").error().code(), ErrorCode::kUnsupported);
  EXPECT_FALSE(v1.rootless_ready("/user"));

  CgroupTree v2(CgroupVersion::kV2);
  ASSERT_TRUE(v2.create("/user").ok());
  EXPECT_FALSE(v2.rootless_ready("/user"));
  ASSERT_TRUE(v2.delegate("/user").ok());
  EXPECT_TRUE(v2.rootless_ready("/user"));
  // Children of a delegated v2 subtree inherit delegation.
  ASSERT_TRUE(v2.create("/user/k3s").ok());
  EXPECT_TRUE(v2.rootless_ready("/user/k3s"));
}

// --------------------------------------------------- Rootless mount policy

struct PolicyCase {
  const char* name;
  RootlessMechanism mech;
  MountKind kind;
  bool user_writable;
  bool expect_ok;
};

// Without this gtest prints the raw bytes of the case, which embed the
// load address of `name` and so rename the test on every run.
void PrintTo(const PolicyCase& c, std::ostream* os) { *os << c.name; }

class MountPolicy : public ::testing::TestWithParam<PolicyCase> {};

TEST_P(MountPolicy, Matrix) {
  const auto& c = GetParam();
  MountRequest req;
  req.kind = c.kind;
  req.image_user_writable = c.user_writable;
  const auto r = authorize_mount(c.mech, req);
  EXPECT_EQ(r.ok(), c.expect_ok) << (r.ok() ? "" : r.error().to_string());
  if (!r.ok()) {
    EXPECT_EQ(r.error().code(), ErrorCode::kPermissionDenied);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Survey412, MountPolicy,
    ::testing::Values(
        // Root daemon may do anything (and that's the problem).
        PolicyCase{"daemon_squash_kernel", RootlessMechanism::kRootDaemon,
                   MountKind::kSquashKernel, true, true},
        // UserNS: kernel squash is the canonical denial.
        PolicyCase{"userns_squash_kernel", RootlessMechanism::kUserNamespace,
                   MountKind::kSquashKernel, false, false},
        PolicyCase{"userns_squash_fuse", RootlessMechanism::kUserNamespace,
                   MountKind::kSquashFuse, false, true},
        PolicyCase{"userns_dir", RootlessMechanism::kUserNamespace,
                   MountKind::kDirRootfs, false, true},
        PolicyCase{"userns_overlay_kernel", RootlessMechanism::kUserNamespace,
                   MountKind::kOverlayKernel, false, true},
        PolicyCase{"userns_overlay_fuse", RootlessMechanism::kUserNamespace,
                   MountKind::kOverlayFuse, false, true},
        PolicyCase{"userns_bind", RootlessMechanism::kUserNamespace,
                   MountKind::kBind, false, true},
        // Setuid helper: kernel squash OK only for non-writable images.
        PolicyCase{"suid_squash_ro", RootlessMechanism::kSetuidHelper,
                   MountKind::kSquashKernel, false, true},
        PolicyCase{"suid_squash_rw", RootlessMechanism::kSetuidHelper,
                   MountKind::kSquashKernel, true, false},
        // Fakeroot variants are as restricted as plain UserNS for mounts.
        PolicyCase{"preload_squash_kernel", RootlessMechanism::kFakerootPreload,
                   MountKind::kSquashKernel, false, false},
        PolicyCase{"ptrace_squash_kernel", RootlessMechanism::kFakerootPtrace,
                   MountKind::kSquashKernel, false, false}),
    [](const ::testing::TestParamInfo<PolicyCase>& info) {
      return info.param.name;
    });

TEST(MountPolicyTest, UsernsOverlayDependsOnKernel) {
  MountRequest req;
  req.kind = MountKind::kOverlayKernel;
  req.kernel_allows_userns_overlay = false;
  EXPECT_FALSE(authorize_mount(RootlessMechanism::kUserNamespace, req).ok());
  req.kernel_allows_userns_overlay = true;
  EXPECT_TRUE(authorize_mount(RootlessMechanism::kUserNamespace, req).ok());
}

TEST(RootlessTest, MechanismProperties) {
  EXPECT_FALSE(is_rootless(RootlessMechanism::kRootDaemon));
  EXPECT_TRUE(is_rootless(RootlessMechanism::kUserNamespace));
  EXPECT_FALSE(supports_static_binaries(RootlessMechanism::kFakerootPreload));
  EXPECT_TRUE(supports_static_binaries(RootlessMechanism::kFakerootPtrace));
  // ptrace is the expensive one (§4.1.2 "significant performance penalty").
  EXPECT_GT(syscall_overhead(RootlessMechanism::kFakerootPtrace),
            syscall_overhead(RootlessMechanism::kFakerootPreload));
  EXPECT_EQ(syscall_overhead(RootlessMechanism::kUserNamespace), 0);
}

// ------------------------------------------------------------------ Hooks

TEST(HookTest, PhasesRunInOrderAndCost) {
  HookRegistry reg;
  std::vector<std::string> ran;
  reg.add(Hook{"gpu", HookPhase::kPrestart,
               [&ran](HookContext&) -> Result<Unit> {
                 ran.push_back("gpu");
                 return ok_unit();
               },
               msec(2), true});
  reg.add(Hook{"mpi", HookPhase::kPrestart,
               [&ran](HookContext&) -> Result<Unit> {
                 ran.push_back("mpi");
                 return ok_unit();
               },
               0, true});
  reg.add(Hook{"cleanup", HookPhase::kPoststop,
               [&ran](HookContext&) -> Result<Unit> {
                 ran.push_back("cleanup");
                 return ok_unit();
               },
               0, true});

  RuntimeConfig cfg;
  std::map<std::string, std::string> ann;
  HookContext ctx{cfg, ann};
  const auto cost = reg.run_phase(HookPhase::kPrestart, ctx);
  ASSERT_TRUE(cost.ok());
  EXPECT_EQ(cost.value(), 2 * default_costs().hook_exec_base + msec(2));
  EXPECT_EQ(ran, (std::vector<std::string>{"gpu", "mpi"}));
  EXPECT_EQ(reg.for_phase(HookPhase::kPoststop).size(), 1u);
}

TEST(HookTest, FailingHookAbortsWithContext) {
  HookRegistry reg;
  reg.add(Hook{"broken-gpu", HookPhase::kPrestart,
               [](HookContext&) -> Result<Unit> {
                 return err_unavailable("no GPU driver on this node");
               },
               0, true});
  RuntimeConfig cfg;
  std::map<std::string, std::string> ann;
  HookContext ctx{cfg, ann};
  const auto r = reg.run_phase(HookPhase::kPrestart, ctx);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(hpcc::strings::contains(r.error().message(), "broken-gpu"));
}

TEST(HookTest, HooksCanMutateConfig) {
  HookRegistry reg;
  reg.add(Hook{"inject-libs", HookPhase::kCreateContainer,
               [](HookContext& ctx) -> Result<Unit> {
                 ctx.config.mounts.push_back(MountSpec{
                     MountKind::kBind, "/usr/lib/libcuda.so",
                     "/usr/lib/libcuda.so", true});
                 ctx.annotations["gpu"] = "enabled";
                 return ok_unit();
               },
               0, true});
  RuntimeConfig cfg;
  std::map<std::string, std::string> ann;
  HookContext ctx{cfg, ann};
  ASSERT_TRUE(reg.run_phase(HookPhase::kCreateContainer, ctx).ok());
  ASSERT_EQ(cfg.mounts.size(), 1u);
  EXPECT_EQ(cfg.mounts[0].destination, "/usr/lib/libcuda.so");
  EXPECT_EQ(ann.at("gpu"), "enabled");
}

// -------------------------------------------------------------------- ABI

TEST(AbiTest, VersionParseAndOrder) {
  EXPECT_EQ(Version::parse("2.36").to_string(), "2.36.0");
  EXPECT_EQ(Version::parse("12.2.1").to_string(), "12.2.1");
  EXPECT_LT(Version::parse("2.31"), Version::parse("2.36"));
  EXPECT_GT(Version::parse("3.0"), Version::parse("2.99.99"));
}

TEST(AbiTest, GlibcTooOldIsIncompatible) {
  ContainerEnvironment ctr;
  ctr.glibc = Version::parse("2.28");
  Library host_mpi{"libmpi", Version::parse("4.1"), Version::parse("2.34")};
  const auto report = check_injection(ctr, host_mpi);
  EXPECT_EQ(report.verdict, AbiVerdict::kIncompatible);
  ASSERT_FALSE(report.findings.empty());
  EXPECT_TRUE(hpcc::strings::contains(report.findings[0], "glibc"));
}

TEST(AbiTest, MajorMismatchIncompatibleMinorSkewRisky) {
  ContainerEnvironment ctr;
  ctr.glibc = Version::parse("2.36");
  ctr.libraries = {{"libmpi", Version::parse("4.0"), Version::parse("2.30")}};

  Library host_major{"libmpi", Version::parse("5.0"), Version::parse("2.30")};
  EXPECT_EQ(check_injection(ctr, host_major).verdict,
            AbiVerdict::kIncompatible);

  Library host_minor{"libmpi", Version::parse("4.1"), Version::parse("2.30")};
  EXPECT_EQ(check_injection(ctr, host_minor).verdict, AbiVerdict::kRisky);

  Library host_same{"libmpi", Version::parse("4.0"), Version::parse("2.30")};
  EXPECT_EQ(check_injection(ctr, host_same).verdict, AbiVerdict::kCompatible);
}

TEST(AbiTest, HookupAggregatesWorstVerdict) {
  ContainerEnvironment ctr;
  ctr.glibc = Version::parse("2.36");
  ctr.libraries = {{"libmpi", Version::parse("4.0"), {}}};
  HostEnvironment host;
  host.glibc = Version::parse("2.37");
  host.libraries = {
      {"libfabric", Version::parse("1.18"), Version::parse("2.30")},  // fine
      {"libmpi", Version::parse("4.2"), Version::parse("2.30")},      // risky
  };
  const auto report = check_hookup(ctr, host);
  EXPECT_EQ(report.verdict, AbiVerdict::kRisky);
  EXPECT_TRUE(report.ok());
}

// ----------------------------------------------------------- Mount models

class MountModelTest : public ::testing::Test {
 protected:
  MountModelTest() {
    (void)tree.mkdir("/app", {}, true);
    Bytes big(512 * 1024);
    for (std::size_t i = 0; i < big.size(); ++i)
      big[i] = static_cast<std::uint8_t>(i % 251);
    (void)tree.write_file("/app/data.bin", big);
    (void)tree.write_file("/app/run.sh", "#!/bin/sh");
    squash = std::make_unique<vfs::SquashImage>(
        vfs::SquashImage::build(tree, 64 * 1024));
  }

  storage::DataPath shared_backing(sim::PageCache* cache = nullptr) {
    storage::DataPathConfig c;
    c.page_cache = cache;
    c.shared = &shared_fs;
    c.key_prefix = "img:test";
    return storage::make_data_path(c);
  }

  vfs::MemFs tree;
  sim::SharedFilesystem shared_fs;
  std::unique_ptr<vfs::SquashImage> squash;
};

TEST_F(MountModelTest, FuseRandomReadsSlowerThanKernel) {
  // The [29] claim: SquashFUSE shows a magnitude lower random-access
  // IOPS. 1000 random 4K reads through each driver.
  auto kernel = make_squash_rootfs(squash.get(), shared_backing(), false);
  auto fuse = make_squash_rootfs(squash.get(), shared_backing(), true);

  SimTime t_kernel = 0, t_fuse = 0;
  for (int i = 0; i < 1000; ++i)
    t_kernel = kernel->charge_read(t_kernel, 4096, /*random=*/true);
  for (int i = 0; i < 1000; ++i)
    t_fuse = fuse->charge_read(t_fuse, 4096, /*random=*/true);
  EXPECT_GT(t_fuse, t_kernel);  // strictly slower
}

TEST_F(MountModelTest, FuseOpensSlowerThanKernel) {
  auto kernel = make_squash_rootfs(squash.get(), shared_backing(), false);
  auto fuse = make_squash_rootfs(squash.get(), shared_backing(), true);
  SimTime tk = 0, tf = 0;
  for (int i = 0; i < 100; ++i) tk = kernel->charge_open(tk);
  for (int i = 0; i < 100; ++i) tf = fuse->charge_open(tf);
  EXPECT_GT(tf, tk * 5);  // order-of-magnitude-ish gap
}

TEST_F(MountModelTest, DirOnSharedFsPaysMetadataPerOpen) {
  auto dir = make_dir_rootfs(&tree, shared_backing());
  auto kernel = make_squash_rootfs(squash.get(), shared_backing(), false);
  SimTime td = 0, tk = 0;
  for (int i = 0; i < 200; ++i) td = dir->charge_open(td);
  for (int i = 0; i < 200; ++i) tk = kernel->charge_open(tk);
  // Image-index opens are far cheaper than shared-FS metadata ops.
  EXPECT_GT(td, tk * 10);
}

TEST_F(MountModelTest, FunctionalReadReturnsRealData) {
  auto kernel = make_squash_rootfs(squash.get(), shared_backing(), false);
  Bytes out;
  const auto done = kernel->read_file(0, "/app/run.sh", &out);
  ASSERT_TRUE(done.ok());
  EXPECT_GT(done.value(), 0);
  EXPECT_EQ(hpcc::to_string(BytesView(out)), "#!/bin/sh");
  EXPECT_TRUE(kernel->exists("/app/data.bin"));
  EXPECT_FALSE(kernel->exists("/nope"));
}

TEST_F(MountModelTest, PageCacheMakesSecondReadCheaper) {
  sim::PageCache cache;
  auto kernel = make_squash_rootfs(squash.get(), shared_backing(&cache), false);
  const SimTime first = kernel->read_file(0, "/app/data.bin", nullptr).value();
  const SimTime second_start = first;
  const SimTime second =
      kernel->read_file(second_start, "/app/data.bin", nullptr).value();
  EXPECT_LT(second - second_start, first);
  EXPECT_GT(cache.hits(), 0u);
}

TEST_F(MountModelTest, SetupCostFuseVsKernel) {
  auto kernel = make_squash_rootfs(squash.get(), shared_backing(), false);
  auto fuse = make_squash_rootfs(squash.get(), shared_backing(), true);
  EXPECT_GT(fuse->setup_cost(), kernel->setup_cost());
}

// -------------------------------------------------------------- Container

class ContainerTest : public ::testing::Test {
 protected:
  ContainerTest() {
    (void)tree.mkdir("/bin", {}, true);
    (void)tree.write_file("/bin/app", "x");
  }

  storage::DataPath local_backing() {
    storage::DataPathConfig c;
    c.local = &local;
    return storage::make_data_path(c);
  }

  std::shared_ptr<MountedRootfs> rootfs() {
    return std::shared_ptr<MountedRootfs>(make_dir_rootfs(&tree, local_backing()));
  }

  vfs::MemFs tree;
  sim::NodeLocalStorage local;
};

TEST_F(ContainerTest, CreateRunLifecycle) {
  OciRuntime runtime(RuntimeKind::kCrun);
  auto created =
      runtime.create(0, RuntimeConfig{}, rootfs(),
                     RootlessMechanism::kUserNamespace, HostFacts{});
  ASSERT_TRUE(created.ok()) << created.error().to_string();
  EXPECT_GT(created.value().ready_at, 0);
  Container& c = *created.value().container;
  EXPECT_EQ(c.state(), ContainerState::kCreated);

  const auto done = c.run(created.value().ready_at, shell_workload());
  ASSERT_TRUE(done.ok());
  EXPECT_GT(done.value(), created.value().ready_at);
  EXPECT_EQ(c.state(), ContainerState::kStopped);
}

TEST_F(ContainerTest, RuncCreateSlowerThanCrun) {
  OciRuntime runc(RuntimeKind::kRunc);
  OciRuntime crun(RuntimeKind::kCrun);
  EXPECT_GT(runc.create_overhead(), crun.create_overhead());
  EXPECT_GT(runc.memory_footprint_kb(), crun.memory_footprint_kb());
}

TEST_F(ContainerTest, PolicyViolationFailsCreate) {
  OciRuntime runtime(RuntimeKind::kCrun);
  auto squash = vfs::SquashImage::build(tree);
  auto bad_rootfs = std::shared_ptr<MountedRootfs>(
      make_squash_rootfs(&squash, local_backing(), /*fuse=*/false));
  const auto r = runtime.create(0, RuntimeConfig{}, std::move(bad_rootfs),
                                RootlessMechanism::kUserNamespace, HostFacts{});
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code(), ErrorCode::kPermissionDenied);
}

TEST_F(ContainerTest, PtraceNeedsCapability) {
  OciRuntime runtime(RuntimeKind::kCrun);
  HostFacts no_cap;
  no_cap.user_has_cap_sys_ptrace = false;
  EXPECT_FALSE(runtime.create(0, RuntimeConfig{}, rootfs(),
                              RootlessMechanism::kFakerootPtrace, no_cap)
                   .ok());
  HostFacts with_cap;
  with_cap.user_has_cap_sys_ptrace = true;
  EXPECT_TRUE(runtime.create(0, RuntimeConfig{}, rootfs(),
                             RootlessMechanism::kFakerootPtrace, with_cap)
                  .ok());
}

TEST_F(ContainerTest, StaticBinariesBreakPreloadFakeroot) {
  OciRuntime runtime(RuntimeKind::kCrun);
  auto created = runtime.create(0, RuntimeConfig{}, rootfs(),
                                RootlessMechanism::kFakerootPreload,
                                HostFacts{});
  ASSERT_TRUE(created.ok());
  WorkloadProfile w = shell_workload();
  w.has_static_binaries = true;
  const auto r = created.value().container->run(created.value().ready_at, w);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code(), ErrorCode::kUnsupported);
  EXPECT_EQ(created.value().container->state(), ContainerState::kFailed);
}

TEST_F(ContainerTest, PtraceOverheadVisibleInRuntime) {
  OciRuntime runtime(RuntimeKind::kCrun);
  HostFacts cap;
  cap.user_has_cap_sys_ptrace = true;

  WorkloadProfile w = shell_workload();
  w.files_opened = 2000;
  w.cpu_time = 0;

  auto userns = runtime.create(0, RuntimeConfig{}, rootfs(),
                               RootlessMechanism::kUserNamespace, cap);
  auto ptrace = runtime.create(0, RuntimeConfig{}, rootfs(),
                               RootlessMechanism::kFakerootPtrace, cap);
  ASSERT_TRUE(userns.ok() && ptrace.ok());
  const SimTime t_userns =
      userns.value().container->run(0, w).value();
  const SimTime t_ptrace =
      ptrace.value().container->run(0, w).value();
  EXPECT_GT(t_ptrace, t_userns);
}

TEST_F(ContainerTest, CgroupChargedForCpu) {
  CgroupTree cgroups;
  ASSERT_TRUE(cgroups.create("/job").ok());
  Cgroup* cg = cgroups.find("/job").value();

  OciRuntime runtime(RuntimeKind::kCrun);
  auto created = runtime.create(0, RuntimeConfig{}, rootfs(),
                                RootlessMechanism::kUserNamespace, HostFacts{},
                                nullptr, cg);
  ASSERT_TRUE(created.ok());
  WorkloadProfile w = shell_workload();
  w.cpu_time = sec(3);
  ASSERT_TRUE(created.value().container->run(0, w).ok());
  EXPECT_EQ(cg->usage().cpu_time, sec(3));
}

TEST_F(ContainerTest, HooksRunDuringCreateAndRun) {
  HookRegistry hooks;
  int create_calls = 0, stop_calls = 0;
  hooks.add(Hook{"count-create", HookPhase::kCreateRuntime,
                 [&create_calls](HookContext&) -> Result<Unit> {
                   ++create_calls;
                   return ok_unit();
                 },
                 0, true});
  hooks.add(Hook{"count-stop", HookPhase::kPoststop,
                 [&stop_calls](HookContext&) -> Result<Unit> {
                   ++stop_calls;
                   return ok_unit();
                 },
                 0, true});

  OciRuntime runtime(RuntimeKind::kCrun);
  auto created = runtime.create(0, RuntimeConfig{}, rootfs(),
                                RootlessMechanism::kUserNamespace, HostFacts{},
                                &hooks);
  ASSERT_TRUE(created.ok());
  EXPECT_EQ(create_calls, 1);
  ASSERT_TRUE(created.value().container->run(0, shell_workload()).ok());
  EXPECT_EQ(stop_calls, 1);
}

TEST_F(ContainerTest, UserNsGetsDefaultSingleUserMapping) {
  OciRuntime runtime(RuntimeKind::kCrun);
  RuntimeConfig cfg;
  cfg.namespaces = NamespaceSet::hpc();
  auto created = runtime.create(0, std::move(cfg), rootfs(),
                                RootlessMechanism::kUserNamespace, HostFacts{});
  ASSERT_TRUE(created.ok());
  const auto& mapping = created.value().container->config().user_mapping;
  ASSERT_TRUE(mapping.has_value());
  EXPECT_TRUE(mapping->is_single_user());
}

TEST(WorkloadTest, CannedProfiles) {
  EXPECT_GT(python_workload().files_opened,
            compiled_mpi_workload().files_opened * 10);
  EXPECT_LT(shell_workload().cpu_time, msec(100));
}

}  // namespace
}  // namespace hpcc::runtime
