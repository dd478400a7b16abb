// hpcc/audit/audit.h
//
// `hpcc::audit` — a static security & configuration analyzer for
// container runtime configs, engine profiles, registry products and
// adaptive-containerizer plans. It evaluates the survey's operational
// rules (§3.2 site requirements, §4.1 security mechanisms, §5
// registries, Tables 1–5) against a configuration *before* anything
// runs: the same policies `runtime::authorize_mount` and the engine
// pipeline enforce at execution time, surfaced as structured findings
// with machine-applicable fix-its.
//
// The analyzer never executes a container, touches the simulated
// cluster, or mutates its input (fix-its are applied only through
// Auditor::fix on a caller-owned copy).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "adaptive/containerize.h"
#include "adaptive/requirements.h"
#include "control/control.h"
#include "engine/engine.h"
#include "fault/resilience.h"
#include "fault/retry.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "registry/profiles.h"
#include "registry/registry.h"
#include "runtime/container.h"
#include "runtime/oci_config.h"
#include "storage/chunk_source.h"
#include "util/result.h"

namespace hpcc::audit {

enum class Severity : std::uint8_t { kInfo = 0, kWarn = 1, kError = 2 };

std::string_view to_string(Severity s) noexcept;

/// Everything the analyzer may look at. Only `config`, `mechanism` and
/// `host` are mandatory inputs; the optional members widen the rule set
/// (site-policy rules need `site`, engine-consistency rules need the
/// engine profile, plan-admissibility rules need `plan`).
struct AuditInput {
  runtime::RuntimeConfig config;
  runtime::RootlessMechanism mechanism =
      runtime::RootlessMechanism::kUserNamespace;
  runtime::HostFacts host;
  /// The workload intended to run (drives the static-binary and
  /// syscall-volume rules). Defaults to the inert shell probe.
  runtime::WorkloadProfile workload = runtime::shell_workload();

  std::optional<engine::EngineFeatures> engine_features;
  std::optional<engine::EngineBehavior> engine_behavior;
  std::optional<registry::RegistryProduct> registry_product;
  std::optional<adaptive::SiteRequirements> site;
  std::optional<adaptive::ContainerizationPlan> plan;

  /// The node data-path tier chain (storage::CacheHierarchy::topology())
  /// — drives the tiering rules PERF004/PERF005.
  std::optional<storage::TierTopology> data_path;
  /// The configuration includes a registry client doing timed pulls —
  /// gates the robustness rules ROB001/ROB002.
  bool has_registry_client = false;
  /// The retry policy that client drives its pulls through; nullopt =
  /// no policy configured at all.
  std::optional<fault::RetryPolicy> registry_retry;
  /// The image is mounted lazily (first-touch block fetches, §7).
  bool lazy_mount = false;
  /// Circuit breaker guarding the client's WAN-facing pull legs;
  /// nullopt = none configured — gates ROB003.
  std::optional<fault::BreakerConfig> breaker;
  /// Hedged-pull policy on the fallback path; nullopt = no hedging.
  std::optional<fault::HedgePolicy> hedge;
  /// Token-bucket admission controller shedding low-priority load;
  /// nullopt = none — gates ROB004 together with `hedge`.
  std::optional<fault::AdmissionConfig> admission;
  /// Fleet size: how many nodes will pull this configuration at once
  /// (a flash crowd at job start). 0 = unknown, disables PERF006.
  std::uint32_t fleet_nodes = 0;
  /// Service limits of the registry those pulls hit; nullopt = no
  /// registry in the picture.
  std::optional<registry::RegistryLimits> registry_limits;
  /// A site-local pull-through proxy tier fronts the registry (§5.1.3).
  bool site_proxy = false;
  /// Size of the mounted image's hot index/metadata region; 0 = unknown.
  std::uint64_t image_index_bytes = 0;

  /// Concurrency shape of the run — drives CONC002. 0 means "not
  /// configured / unknown", which disables the rule.
  /// Worker threads in the pull/unpack ThreadPool (HPCC_THREADS).
  unsigned pool_threads = 0;
  /// Queued-prefetch depth the consumer drives through the data path.
  unsigned prefetch_depth = 0;

  /// The observability configuration this run will install — drives the
  /// obs rules OBS001 (tracing without an export path). nullopt = obs
  /// not configured (nothing to audit).
  std::optional<obs::Config> obs;
  /// Histogram declarations the run will register — drives OBS002
  /// (bucket bounds must be strictly increasing).
  std::vector<obs::HistogramSpec> histograms;

  /// The closed-loop control-plane configuration (DESIGN.md §15) —
  /// drives CTRL001 (controller on but metrics gate off: sensors dark)
  /// and CTRL002 (control epoch shorter than the retry backoff cap:
  /// control thrash). nullopt = no controller in the picture.
  std::optional<control::Config> control_plane;
};

/// A machine-applicable remediation: mutates the offending AuditInput so
/// the finding no longer fires. Null when no safe automatic fix exists
/// (e.g. "pick a different engine").
using FixFn = std::function<void(AuditInput&)>;

struct Finding {
  std::string rule;       ///< "SEC001"
  Severity severity = Severity::kWarn;
  std::string object;     ///< the thing at fault ("mount /opt/img.sqsh")
  std::string message;    ///< quotes the survey's reasoning
  std::string paper_ref;  ///< "§4.1.2", "Table 3", ...
  std::string fix_hint;   ///< human description of the fix-it; "" if none
  FixFn fix;              ///< machine-applicable fix-it; null if none

  bool has_fix() const { return static_cast<bool>(fix); }
};

/// Emits findings for one rule. The check sets everything except
/// `severity`, which the registry fills in from the rule's (possibly
/// overridden) severity.
using RuleCheck = std::function<void(const AuditInput&, std::vector<Finding>&)>;

struct Rule {
  std::string id;
  Severity severity = Severity::kWarn;  ///< default severity
  std::string title;
  std::string paper_ref;
  RuleCheck check;
};

/// The rule set with per-rule enable/severity overrides.
class RuleRegistry {
 public:
  /// All built-in rules (audit/rules.cpp), default configuration.
  static RuleRegistry builtin();

  void add(Rule rule);
  const std::vector<Rule>& rules() const { return rules_; }
  const Rule* find(std::string_view id) const;

  void disable(std::string_view id);
  void enable(std::string_view id);
  bool enabled(std::string_view id) const;
  void set_severity(std::string_view id, Severity s);
  /// The effective severity: override if present, else the default.
  Severity effective_severity(const Rule& rule) const;

  /// Applies a comma-separated override spec:
  ///   "SEC004=off,PERF001=error,CFG005=info"
  /// Values: off | info | warn | error. kNotFound on unknown rule ids,
  /// kInvalidArgument on malformed entries.
  Result<Unit> configure(std::string_view spec);

 private:
  struct Override {
    bool disabled = false;
    std::optional<Severity> severity;
  };
  Override* find_override(std::string_view id);
  std::vector<Rule> rules_;
  std::vector<std::pair<std::string, Override>> overrides_;
};

struct AuditReport {
  std::vector<Finding> findings;  ///< severity desc, then rule id asc

  int count(Severity s) const;
  int errors() const { return count(Severity::kError); }
  int warnings() const { return count(Severity::kWarn); }
  bool clean() const { return errors() == 0; }
  bool has(std::string_view rule_id) const;
  const Finding* find(std::string_view rule_id) const;
};

class Auditor {
 public:
  Auditor() : Auditor(RuleRegistry::builtin()) {}
  explicit Auditor(RuleRegistry registry);

  const RuleRegistry& registry() const { return registry_; }
  RuleRegistry& registry() { return registry_; }

  /// Runs every enabled rule. Pure: `input` is not modified.
  AuditReport run(const AuditInput& input) const;

  /// Applies every finding's fix-it and re-audits until a fixed point
  /// (fixes can cascade: switching a setuid mechanism to a UserNS makes
  /// its kernel squash mount newly inadmissible, whose own fix-it then
  /// flips the mount to FUSE). Returns the final report; findings
  /// without fix-its survive.
  AuditReport fix(AuditInput& input, int max_passes = 8) const;

 private:
  RuleRegistry registry_;
};

}  // namespace hpcc::audit
