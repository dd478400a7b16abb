#include "adaptive/decision.h"

#include <algorithm>
#include <cstdio>

namespace hpcc::adaptive {

namespace {

/// Scoring helper: records the adjustment with its reason.
struct Scorer {
  ScoredOption* option;
  double weight_total = 0;
  double weight_earned = 0;

  void require(bool satisfied, const std::string& why_excluded) {
    if (!satisfied) {
      option->feasible = false;
      option->exclusions.push_back(why_excluded);
    }
  }
  void criterion(double weight, bool satisfied, const std::string& pro,
                 const std::string& con) {
    weight_total += weight;
    if (satisfied) {
      weight_earned += weight;
      if (!pro.empty()) option->pros.push_back(pro);
    } else {
      if (!con.empty()) option->cons.push_back(con);
    }
  }
  void partial(double weight, double fraction, const std::string& note) {
    weight_total += weight;
    weight_earned += weight * std::clamp(fraction, 0.0, 1.0);
    if (!note.empty()) {
      (fraction >= 0.5 ? option->pros : option->cons).push_back(note);
    }
  }
  void finish() {
    option->score = weight_total > 0 ? weight_earned / weight_total : 0;
    if (!option->feasible) option->score = 0;
  }
};

double doc_score(const std::string& grade) {
  if (grade == "+++") return 1.0;
  if (grade == "++") return 0.7;
  if (grade == "+") return 0.4;
  if (grade == "(+)") return 0.2;
  return 0.0;  // N/A
}

/// Community size normalized against the largest project (486, Docker).
double community_score(int contributors) {
  return std::min(1.0, static_cast<double>(contributors) / 150.0);
}

void sort_options(std::vector<ScoredOption>& options) {
  std::stable_sort(options.begin(), options.end(),
                   [](const ScoredOption& a, const ScoredOption& b) {
                     if (a.feasible != b.feasible) return a.feasible;
                     return a.score > b.score;
                   });
}

}  // namespace

DecisionEngine::DecisionEngine(SiteRequirements site)
    : site_(std::move(site)) {}

ScoredOption DecisionEngine::score_engine(engine::EngineKind kind) const {
  // Feature sets are intrinsic; an empty context suffices for scoring.
  auto instance = engine::make_engine(kind, engine::EngineContext{});
  const engine::EngineFeatures& f = instance->features();
  const engine::EngineBehavior& b = instance->behavior();

  ScoredOption option;
  option.name = f.name;
  Scorer s{&option};

  // ----- hard requirements (§3.2)
  if (site_.rootless_mandatory) {
    s.require(b.mechanism != runtime::RootlessMechanism::kRootDaemon ||
                  site_.allow_root_daemons,
              "runs a root daemon on compute nodes; rootless execution is "
              "mandatory (§3.2)");
    if (b.mechanism == runtime::RootlessMechanism::kSetuidHelper) {
      s.require(site_.allow_setuid_helpers,
                "relies on a setuid-root helper, which this site does not "
                "allow (§4.1.2)");
    }
  }
  if (site_.require_signature_verification) {
    s.require(b.can_verify_signatures,
              "cannot verify image signatures (Table 2)");
  }
  if (site_.require_encrypted_images) {
    s.require(b.supports_encrypted_images,
              "no encrypted-container support (Table 2)");
  }
  if (!site_.gpu_vendor.empty()) {
    s.require(f.gpu != engine::GpuSupport::kNo,
              "no GPU enablement (Table 3)");
    if (site_.gpu_vendor != "nvidia") {
      s.require(f.gpu != engine::GpuSupport::kNvidiaOnly,
                "supports only Nvidia GPUs but the site runs " +
                    site_.gpu_vendor);
    }
  }
  if (site_.need_host_interconnect) {
    s.require(!b.namespaces.blocks_host_interconnect(),
              "default network namespace isolation breaks host "
              "interconnect access (§3.2)");
  }

  // ----- soft criteria
  if (!site_.gpu_vendor.empty()) {
    s.criterion(1.5, f.gpu == engine::GpuSupport::kNative,
                "native GPU enablement",
                "GPU setup needs hooks or manual work (Table 3)");
  }
  if (site_.need_mpi_hookup) {
    s.criterion(1.5,
                f.library_hookup == "yes" || f.library_hookup == "for MPICH" ||
                    f.library_hookup == "via OCI hooks" ||
                    f.library_hookup == "via custom hooks",
                "host MPI/library hookup supported",
                "host library hookup is manual (§4.1.6)");
    s.criterion(1.0, b.abi_checks,
                "explicit ABI compatibility checks on injected libraries "
                "(the Sarus safeguard, §4.1.6)",
                "no ABI checks: host-library version skew 'may introduce "
                "subtle errors' (§4.1.6)");
  }
  if (site_.shared_filesystem) {
    s.criterion(1.5,
                b.mount == engine::MountStrategy::kSquashFuse ||
                    b.mount == engine::MountStrategy::kSquashKernelSuid,
                "flattened single-file images avoid small-file load on the "
                "cluster filesystem (§3.2)",
                "per-file access hits the shared filesystem's metadata "
                "service (§4.1.4)");
    s.criterion(1.0, b.cache_native_format,
                "converted images are cached (no repeated conversion cost)",
                "every run repeats the OCI conversion (Table 2)");
    s.criterion(0.75, b.share_native_format,
                "converted images are shared between users",
                "per-user conversion caches duplicate storage (Table 2)");
  }
  if (site_.users_bring_oci_images) {
    s.criterion(1.5, f.oci_container == engine::OciContainerSupport::kYes,
                "full OCI container compatibility",
                "partial OCI support: vanilla containers may need "
                "repackaging (§4.1.3)");
    s.criterion(0.75, b.transparent_conversion ||
                          f.oci_container == engine::OciContainerSupport::kYes,
                "OCI images run without an explicit conversion step",
                "users must convert images explicitly");
  }
  if (site_.users_bring_sif_images) {
    s.criterion(1.5, b.native_format == image::ImageFormat::kFlat,
                "native SIF/flat-image support", "no native SIF support");
  }
  if (site_.want_wlm_integration) {
    s.criterion(1.0, f.wlm_integration.rfind("yes", 0) == 0 ||
                         f.wlm_integration.rfind("partial", 0) == 0,
                "WLM integration available (" + f.wlm_integration + ")",
                "no WLM integration (Table 3)");
  }
  if (site_.need_module_integration) {
    s.criterion(0.75, f.module_integration.find("shpc") != std::string::npos,
                "module-system integration via shpc (§4.1.7)",
                "no module-system integration");
  }
  s.criterion(0.5, f.monitor != engine::MonitorKind::kPerMachineDaemon,
              "no per-machine daemon (§3.2: daemons add jitter and attack "
              "surface)",
              "per-machine daemon required");
  s.criterion(0.75, f.hooks == engine::HookSupport::kOci,
              "vendor-independent OCI hooks for extensions (§4.1.3)",
              "extensions need a custom framework or manual root steps");
  s.partial(1.0, doc_score(f.doc_user) * 0.6 + doc_score(f.doc_admin) * 0.4,
            "documentation: user " + f.doc_user + ", admin " + f.doc_admin);
  s.partial(1.0,
            community_score(f.contributors) * site_.community_risk_tolerance +
                community_score(f.contributors) *
                    (1 - site_.community_risk_tolerance),
            std::to_string(f.contributors) + " contributors (§4.1.9 risk)");

  s.finish();
  return option;
}

ScoredOption DecisionEngine::score_registry(
    const registry::RegistryProduct& product) const {
  ScoredOption option;
  option.name = product.name;
  Scorer s{&option};

  if (site_.users_bring_oci_images) {
    s.require(product.supports_oci(),
              "speaks only the Library API; users bring OCI images (§5.1.1)");
  }
  if (site_.multi_tenant_registry) {
    s.require(product.multi_tenant,
              "no multi-tenancy (" +
                  (product.tenant_term.empty() ? std::string("Table 5")
                                               : product.tenant_term) +
                  ")");
  }
  if (site_.air_gapped) {
    s.require(product.proxying != registry::ProxySupport::kNo ||
                  product.replication != registry::ReplicationSupport::kNo,
              "neither proxying nor mirroring: unusable behind an "
              "air gap (§5.1.3)");
  }

  s.criterion(1.5, product.proxying == registry::ProxySupport::kAuto,
              "transparent pull-through proxying shields the site from "
              "upstream rate limits (§5.1.3)",
              "no automatic proxying");
  s.criterion(1.0,
              product.replication == registry::ReplicationSupport::kPushPull ||
                  product.replication == registry::ReplicationSupport::kPull,
              "repository mirroring supported",
              "no replication/mirroring");
  if (site_.require_signature_verification) {
    s.criterion(1.5, product.signing, "stores and serves signatures",
                "cannot store signatures (Table 5)");
  }
  s.criterion(1.0, product.supports_user_defined_artifacts(),
              "user-defined OCI artifacts: room for adaptive-container "
              "metadata (§5.1.2)",
              "limited artifact support");
  s.criterion(0.75, !product.quota_support.empty() &&
                        product.quota_support != "no",
              "quota support: " + product.quota_support, "no quotas");
  if (site_.users_bring_sif_images) {
    s.criterion(1.0,
                std::find(product.image_formats.begin(),
                          product.image_formats.end(),
                          "SIF") != product.image_formats.end(),
                "hosts SIF images natively", "no SIF hosting");
  }
  s.criterion(0.5, product.affiliation == "CNCF",
              "foundation-governed (CNCF): lower platformization risk "
              "(§5.1.1)",
              "single-vendor governance");

  s.finish();
  return option;
}

ScoredOption DecisionEngine::score_scenario(orch::ScenarioKind kind) const {
  ScoredOption option;
  option.name = std::string(orch::to_string(kind));
  Scorer s{&option};

  using orch::ScenarioKind;
  const bool accounts_pods = kind == ScenarioKind::kK8sInWlm ||
                             kind == ScenarioKind::kBridgeOperator ||
                             kind == ScenarioKind::kKnocVirtualKubelet ||
                             kind == ScenarioKind::kKubeletInAllocation;
  if (site_.accounting_required) {
    s.require(accounts_pods,
              "pod compute is not accounted through the WLM (§6.6)");
  }

  s.criterion(1.5, kind != ScenarioKind::kK8sInWlm,
              "no per-session control-plane bring-up",
              "starting Kubernetes inside every allocation adds "
              "considerable startup overhead (§6.3)");
  s.criterion(1.0, kind != ScenarioKind::kBridgeOperator,
              "workloads run without changing workflow scripts",
              "requires explicit resource descriptions in workflows "
              "(§6.4)");
  s.criterion(1.0, kind != ScenarioKind::kOnDemandReallocation,
              "no node reprovisioning churn",
              "dynamic un-/draining is cumbersome, slow and introduces "
              "disturbances (§6.6)");
  s.criterion(1.0, kind != ScenarioKind::kStaticPartitioning,
              "capacity flows to where demand is",
              "static partitioning leads to reduced utilisation and/or "
              "load imbalance (§6.6)");
  s.criterion(1.0, kind != ScenarioKind::kWlmInK8s,
              "WLM keeps direct, unvirtualized hardware access",
              "the WLM needs privileged pods and pays a containerization "
              "overhead (§6.2)");
  s.criterion(0.75, kind == ScenarioKind::kKubeletInAllocation,
              "mainline K3s gives pods a standard execution environment "
              "(§6.5)",
              "");
  s.criterion(0.5, kind == ScenarioKind::kKubeletInAllocation ||
                       kind == ScenarioKind::kKnocVirtualKubelet,
              "pods placed inside allocations at fine granularity",
              "");

  s.finish();
  return option;
}

DecisionReport DecisionEngine::decide() const {
  DecisionReport report;
  report.site = site_;
  for (auto kind : engine::all_engine_kinds())
    report.engines.push_back(score_engine(kind));
  for (const auto& product : registry::registry_products())
    report.registries.push_back(score_registry(product));
  if (site_.kubernetes_workloads) {
    for (auto kind : orch::all_scenario_kinds())
      report.scenarios.push_back(score_scenario(kind));
  }
  sort_options(report.engines);
  sort_options(report.registries);
  sort_options(report.scenarios);
  return report;
}

const ScoredOption* DecisionReport::best_engine() const {
  return !engines.empty() && engines.front().feasible ? &engines.front()
                                                      : nullptr;
}
const ScoredOption* DecisionReport::best_registry() const {
  return !registries.empty() && registries.front().feasible
             ? &registries.front()
             : nullptr;
}
const ScoredOption* DecisionReport::best_scenario() const {
  return !scenarios.empty() && scenarios.front().feasible ? &scenarios.front()
                                                          : nullptr;
}

namespace {
void render_options(std::string& out, const std::string& heading,
                    const std::vector<ScoredOption>& options) {
  out += "## " + heading + "\n\n";
  for (const auto& option : options) {
    char line[160];
    if (option.feasible) {
      std::snprintf(line, sizeof line, "  %-24s score %.2f\n",
                    option.name.c_str(), option.score);
    } else {
      std::snprintf(line, sizeof line, "  %-24s EXCLUDED\n",
                    option.name.c_str());
    }
    out += line;
    for (const auto& e : option.exclusions) out += "      !! " + e + "\n";
    for (const auto& p : option.pros) out += "      + " + p + "\n";
    for (const auto& c : option.cons) out += "      - " + c + "\n";
  }
  out += "\n";
}
}  // namespace

std::string DecisionReport::render() const {
  std::string out;
  out += "# Adaptive containerization decision document: " + site.site_name +
         "\n\n";
  render_options(out, "Container engines (Tables 1-3)", engines);
  render_options(out, "Registries (Tables 4-5)", registries);
  if (!scenarios.empty())
    render_options(out, "Kubernetes integration (Section 6)", scenarios);
  out += "## Recommendation\n\n";
  out += "  engine:   ";
  out += best_engine() ? best_engine()->name : "NONE FEASIBLE";
  out += "\n  registry: ";
  out += best_registry() ? best_registry()->name : "NONE FEASIBLE";
  if (!scenarios.empty()) {
    out += "\n  k8s:      ";
    out += best_scenario() ? best_scenario()->name : "NONE FEASIBLE";
  }
  out += "\n";
  return out;
}

}  // namespace hpcc::adaptive
