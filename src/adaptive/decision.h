// hpcc/adaptive/decision.h
//
// The adaptive-containerization decision engine — the paper's
// contribution operationalized. Given a SiteRequirements it scores
// every surveyed container engine (Tables 1-3), registry (Tables 4-5)
// and Kubernetes integration scenario (§6) with per-criterion
// explanations, and renders the result as the "decision document for
// supercomputer operation centers" (§7).
//
// Hard requirements exclude options outright (a rootless-mandatory site
// cannot run Docker's root daemon); soft criteria adjust a score in
// [0, 1] with a recorded pro/con so the document explains itself.
#pragma once

#include <string>
#include <vector>

#include "adaptive/requirements.h"
#include "engine/engine.h"
#include "orch/scenario.h"
#include "registry/profiles.h"
#include "util/result.h"

namespace hpcc::adaptive {

struct ScoredOption {
  std::string name;
  double score = 0;        ///< meaningful only when feasible
  bool feasible = true;
  std::vector<std::string> pros;
  std::vector<std::string> cons;
  std::vector<std::string> exclusions;  ///< hard-requirement violations
};

struct DecisionReport {
  SiteRequirements site;
  std::vector<ScoredOption> engines;    ///< sorted: feasible by score desc
  std::vector<ScoredOption> registries;
  std::vector<ScoredOption> scenarios;  ///< empty if no k8s workloads

  const ScoredOption* best_engine() const;
  const ScoredOption* best_registry() const;
  const ScoredOption* best_scenario() const;

  /// The human-readable decision document.
  std::string render() const;
};

class DecisionEngine {
 public:
  explicit DecisionEngine(SiteRequirements site);

  DecisionReport decide() const;

  ScoredOption score_engine(engine::EngineKind kind) const;
  ScoredOption score_registry(const registry::RegistryProduct& product) const;
  ScoredOption score_scenario(orch::ScenarioKind kind) const;

 private:
  SiteRequirements site_;
};

}  // namespace hpcc::adaptive
