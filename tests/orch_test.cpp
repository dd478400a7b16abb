// Tests for hpcc_orch: workload generation determinism and shape, each
// of the seven §6 scenarios completing a mixed trace, and the §6.6
// comparative claims as assertions — accounting coverage, startup
// latency orderings, reconfiguration churn, utilization of the static
// baseline under a skewed mix.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "orch/scenario.h"
#include "orch/workload.h"
#include "util/log.h"

namespace hpcc::orch {
namespace {

TraceConfig small_trace_config() {
  TraceConfig cfg;
  cfg.duration = minutes(20);
  cfg.job_rate_per_hour = 9.0;
  cfg.pod_rate_per_hour = 45.0;
  cfg.max_job_nodes = 3;
  cfg.mean_job_runtime = minutes(6);
  cfg.mean_pod_runtime = minutes(2);
  return cfg;
}

ScenarioConfig small_scenario_config() {
  ScenarioConfig cfg;
  cfg.num_nodes = 8;
  cfg.cores_per_node = 16;
  cfg.alloc_nodes = 2;
  cfg.idle_release = minutes(2);
  return cfg;
}

class OrchTest : public ::testing::Test {
 protected:
  OrchTest() { LogSink::instance().set_print(false); }
  ~OrchTest() override { LogSink::instance().set_print(true); }

  ScenarioMetrics run_kind(ScenarioKind kind) {
    auto scenario = make_scenario(kind, small_scenario_config());
    const auto trace = generate_trace(7, small_trace_config());
    auto metrics = scenario->run(trace);
    EXPECT_TRUE(metrics.ok())
        << to_string(kind) << ": "
        << (metrics.ok() ? "" : metrics.error().to_string());
    return metrics.value_or(ScenarioMetrics{});
  }
};

// --------------------------------------------------------------- Workload

TEST(WorkloadTest, DeterministicForSeed) {
  const auto a = generate_trace(42, small_trace_config());
  const auto b = generate_trace(42, small_trace_config());
  ASSERT_EQ(a.jobs.size(), b.jobs.size());
  ASSERT_EQ(a.pods.size(), b.pods.size());
  for (std::size_t i = 0; i < a.jobs.size(); ++i) {
    EXPECT_EQ(a.jobs[i].submit, b.jobs[i].submit);
    EXPECT_EQ(a.jobs[i].nodes, b.jobs[i].nodes);
  }
  const auto c = generate_trace(43, small_trace_config());
  EXPECT_TRUE(a.jobs.size() != c.jobs.size() ||
              a.jobs[0].submit != c.jobs[0].submit);
}

TEST(WorkloadTest, RatesRoughlyRespected) {
  TraceConfig cfg;
  cfg.duration = minutes(120);
  cfg.job_rate_per_hour = 30;
  cfg.pod_rate_per_hour = 120;
  const auto trace = generate_trace(1, cfg);
  EXPECT_GT(trace.jobs.size(), 30u);
  EXPECT_LT(trace.jobs.size(), 100u);
  EXPECT_GE(trace.pods.size(), 200u);
  EXPECT_LE(trace.pods.size(), 260u);
}

TEST(WorkloadTest, ArrivalsSortedAndBounded) {
  const auto trace = generate_trace(9, small_trace_config());
  for (std::size_t i = 1; i < trace.jobs.size(); ++i)
    EXPECT_LE(trace.jobs[i - 1].submit, trace.jobs[i].submit);
  for (std::size_t i = 1; i < trace.pods.size(); ++i)
    EXPECT_LE(trace.pods[i - 1].submit, trace.pods[i].submit);
  EXPECT_LE(trace.last_arrival(), small_trace_config().duration);
  EXPECT_GT(trace.demand_node_usec(16), 0.0);
}

TEST(WorkloadTest, PodBurstsPresent) {
  const auto trace = generate_trace(11, small_trace_config());
  // At least one pair of pods arriving at the same instant (a burst).
  bool burst = false;
  for (std::size_t i = 1; i < trace.pods.size(); ++i)
    if (trace.pods[i].submit == trace.pods[i - 1].submit) burst = true;
  EXPECT_TRUE(burst);
}

TEST(WorkloadTest, TiedPodsKeepEmissionOrder) {
  // Burst pods share one submit time; the trace keeps them in the order
  // they were generated, which each pod name's numeric suffix records.
  TraceConfig cfg;
  cfg.duration = minutes(240);
  cfg.job_rate_per_hour = 24;
  cfg.pod_rate_per_hour = 240;
  auto emission_index = [](const std::string& name) {
    const std::size_t digits = name.find_last_not_of("0123456789") + 1;
    return std::stoul(name.substr(digits));
  };
  for (const std::uint64_t seed : {1ull, 2ull, 104729ull}) {
    const auto trace = generate_trace(seed, cfg);
    std::size_t ties = 0;
    for (std::size_t i = 1; i < trace.pods.size(); ++i) {
      const auto& prev = trace.pods[i - 1];
      const auto& cur = trace.pods[i];
      if (prev.submit != cur.submit) continue;
      ++ties;
      EXPECT_LT(emission_index(prev.name), emission_index(cur.name))
          << "seed " << seed << ": " << prev.name << " before " << cur.name;
    }
    EXPECT_GT(ties, 0u) << "seed " << seed;
  }
}

// -------------------------------------------------- All scenarios complete

TEST_F(OrchTest, EveryScenarioCompletesTheTrace) {
  const auto trace = generate_trace(7, small_trace_config());
  for (ScenarioKind kind : all_scenario_kinds()) {
    auto scenario = make_scenario(kind, small_scenario_config());
    ASSERT_NE(scenario, nullptr);
    EXPECT_EQ(scenario->scenario_kind(), kind);
    const auto metrics = scenario->run(trace);
    ASSERT_TRUE(metrics.ok()) << to_string(kind);
    const auto& m = metrics.value();
    EXPECT_EQ(m.pods_completed, trace.pods.size()) << to_string(kind);
    EXPECT_EQ(m.pods_failed, 0u) << to_string(kind);
    EXPECT_GE(m.jobs_completed, trace.jobs.size()) << to_string(kind);
    EXPECT_GT(m.utilization, 0.0) << to_string(kind);
    EXPECT_LE(m.utilization, 1.0) << to_string(kind);
    EXPECT_GT(m.makespan, 0) << to_string(kind);
  }
}

// ------------------------------------------------------ §6.6 shape claims

TEST_F(OrchTest, AccountingCoverageSplitsAsSurveyStates) {
  // Pods-outside-WLM scenarios cannot account pod compute via the WLM;
  // allocation-based scenarios can.
  const auto static_m = run_kind(ScenarioKind::kStaticPartitioning);
  const auto ondemand_m = run_kind(ScenarioKind::kOnDemandReallocation);
  const auto wlm_in_k8s_m = run_kind(ScenarioKind::kWlmInK8s);
  const auto k8s_in_wlm_m = run_kind(ScenarioKind::kK8sInWlm);
  const auto bridge_m = run_kind(ScenarioKind::kBridgeOperator);
  const auto knoc_m = run_kind(ScenarioKind::kKnocVirtualKubelet);
  const auto proposal_m = run_kind(ScenarioKind::kKubeletInAllocation);

  EXPECT_LT(static_m.wlm_accounting_coverage, 0.999);
  EXPECT_LT(ondemand_m.wlm_accounting_coverage, 0.999);
  EXPECT_LT(wlm_in_k8s_m.wlm_accounting_coverage, 0.999);
  EXPECT_DOUBLE_EQ(k8s_in_wlm_m.wlm_accounting_coverage, 1.0);
  EXPECT_DOUBLE_EQ(bridge_m.wlm_accounting_coverage, 1.0);
  EXPECT_DOUBLE_EQ(knoc_m.wlm_accounting_coverage, 1.0);
  EXPECT_DOUBLE_EQ(proposal_m.wlm_accounting_coverage, 1.0);
}

TEST_F(OrchTest, K8sInWlmPaysStartupProposalDoesNot) {
  // "running all of Kubernetes within a WLM allocation leads to long
  // startup times" vs the standing control plane of §6.5.
  const auto k8s_in_wlm = run_kind(ScenarioKind::kK8sInWlm);
  const auto proposal = run_kind(ScenarioKind::kKubeletInAllocation);
  EXPECT_GT(k8s_in_wlm.mean_pod_start_latency,
            proposal.mean_pod_start_latency);
}

TEST_F(OrchTest, OnDemandReallocationChurns) {
  const auto ondemand = run_kind(ScenarioKind::kOnDemandReallocation);
  const auto static_m = run_kind(ScenarioKind::kStaticPartitioning);
  EXPECT_GT(ondemand.reconfigurations, 0u);
  EXPECT_EQ(static_m.reconfigurations, 0u);
}

TEST_F(OrchTest, StaticPartitioningWastesNodesUnderSkewedMix) {
  // §6.6: "static partitioning leads to reduced utilisation and/or a
  // load imbalance." Under a job-heavy mix the fenced-off K8s partition
  // idles while HPC jobs queue on the shrunken WLM side; the elastic
  // proposal gives jobs the whole machine.
  TraceConfig skew = small_trace_config();
  skew.job_rate_per_hour = 24;
  skew.pod_rate_per_hour = 6;
  skew.mean_job_runtime = minutes(10);
  const auto trace = generate_trace(13, skew);

  auto static_s = make_scenario(ScenarioKind::kStaticPartitioning,
                                small_scenario_config());
  auto proposal_s = make_scenario(ScenarioKind::kKubeletInAllocation,
                                  small_scenario_config());
  const auto sm = static_s->run(trace);
  const auto pm = proposal_s->run(trace);
  ASSERT_TRUE(sm.ok() && pm.ok());
  EXPECT_GT(sm.value().mean_job_wait, pm.value().mean_job_wait);
  EXPECT_LT(sm.value().efficiency, pm.value().efficiency);
}

TEST_F(OrchTest, ExclusiveNodePerPodHurtsTranslatingScenariosUnderBursts) {
  // Bridge/KNoC give each small pod a whole exclusive node; a workflow
  // burst of 4-core pods therefore queues node-by-node, while
  // kubelet-in-allocation packs four pods per allocation node.
  TraceConfig bursty = small_trace_config();
  bursty.pod_rate_per_hour = 150;
  bursty.job_rate_per_hour = 9;
  bursty.burst_factor = 0.9;
  const auto trace = generate_trace(17, bursty);

  auto knoc_s = make_scenario(ScenarioKind::kKnocVirtualKubelet,
                              small_scenario_config());
  auto proposal_s = make_scenario(ScenarioKind::kKubeletInAllocation,
                                  small_scenario_config());
  const auto km = knoc_s->run(trace);
  const auto pm = proposal_s->run(trace);
  ASSERT_TRUE(km.ok() && pm.ok());
  EXPECT_GT(km.value().p95_pod_start_latency,
            pm.value().p95_pod_start_latency);
}

TEST_F(OrchTest, BridgeSlowerThanKnoc) {
  const auto bridge = run_kind(ScenarioKind::kBridgeOperator);
  const auto knoc = run_kind(ScenarioKind::kKnocVirtualKubelet);
  EXPECT_GE(bridge.mean_pod_start_latency, knoc.mean_pod_start_latency);
}

// A pod cannot start before it arrives, so every scenario's mean and
// p95 pod start latency are non-negative. The dense pod stream keeps
// k8s-in-wlm sessions open long after their control plane is ready,
// and 64-core nodes leave room to start the pods that arrive after it
// at once.
class PodStartProperty : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  PodStartProperty() { LogSink::instance().set_print(false); }
  ~PodStartProperty() override { LogSink::instance().set_print(true); }
};

TEST_P(PodStartProperty, NoScenarioStartsAPodBeforeItArrives) {
  TraceConfig dense = small_trace_config();
  dense.duration = minutes(60);
  dense.pod_rate_per_hour = 240;
  const auto trace = generate_trace(GetParam(), dense);
  ScenarioConfig cfg = small_scenario_config();
  cfg.cores_per_node = 64;
  cfg.seed = GetParam();
  for (ScenarioKind kind : all_scenario_kinds()) {
    const auto m = make_scenario(kind, cfg)->run(trace);
    ASSERT_TRUE(m.ok()) << to_string(kind);
    EXPECT_GT(m.value().pods_completed, 0u) << to_string(kind);
    EXPECT_GE(m.value().mean_pod_start_latency, 0) << to_string(kind);
    EXPECT_GE(m.value().p95_pod_start_latency, 0) << to_string(kind);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, PodStartProperty, ::testing::Values(1, 2, 3),
    [](const ::testing::TestParamInfo<std::uint64_t>& info) {
      return "seed" + std::to_string(info.param);
    });

TEST_F(OrchTest, WlmInK8sJobsPayOverhead) {
  const auto m = run_kind(ScenarioKind::kWlmInK8s);
  EXPECT_GT(m.jobs_completed, 0u);
  // Notes document the §6.2 caveats.
  EXPECT_NE(m.notes.find("privileged"), std::string::npos);
}

}  // namespace
}  // namespace hpcc::orch
