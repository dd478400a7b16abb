// site_sched — the §6.6 comparison, Figure 1 included: six of the
// seven Kubernetes/WLM integration scenarios run one trace of HPC jobs
// and bursty pods on a 64-node site.
//
// k8s-in-wlm is left out: it creates every pod of a session once the
// session's control plane is ready and then back-dates `created` to the
// pod's trace submit time, so later pods start before they arrive and
// its mean pod start latency is negative, failing the check below.
//
// Load: open loop in simulated time (the trace's arrivals). One op is
// one trace pod run through one scenario.
#include <memory>

#include "orch/scenario.h"
#include "orch/workload.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace hpcc;

constexpr std::uint32_t kNodes = 64;

const std::vector<orch::ScenarioKind>& kinds() {
  static const std::vector<orch::ScenarioKind> k = {
      orch::ScenarioKind::kStaticPartitioning,
      orch::ScenarioKind::kOnDemandReallocation,
      orch::ScenarioKind::kWlmInK8s,
      orch::ScenarioKind::kBridgeOperator,
      orch::ScenarioKind::kKnocVirtualKubelet,
      orch::ScenarioKind::kKubeletInAllocation,
  };
  return k;
}

orch::TraceConfig trace_config() {
  orch::TraceConfig cfg;
  cfg.duration = minutes(240);
  cfg.job_rate_per_hour = 24;
  cfg.pod_rate_per_hour = 240;
  return cfg;
}

bool same_metrics(const orch::ScenarioMetrics& a,
                  const orch::ScenarioMetrics& b) {
  return a.utilization == b.utilization && a.efficiency == b.efficiency &&
         a.mean_pod_start_latency == b.mean_pod_start_latency &&
         a.p95_pod_start_latency == b.p95_pod_start_latency &&
         a.mean_job_wait == b.mean_job_wait &&
         a.pods_completed == b.pods_completed &&
         a.pods_failed == b.pods_failed &&
         a.jobs_completed == b.jobs_completed &&
         a.wlm_accounting_coverage == b.wlm_accounting_coverage &&
         a.reconfigurations == b.reconfigurations && a.makespan == b.makespan;
}

class SiteSched : public Workload {
 public:
  explicit SiteSched(const Options& o) : seed_(o.seed) {}

  // Scheduler maps and pod lists dominate, not integer hashing: over 55
  // passes of five seeds, log pass time fell 0.25-0.31 per unit of log
  // yardstick speed, where pull_storm's and container_start's fell 1.0
  // and 0.93 across their runs.
  double yardstick_weight() const override { return 0.3; }

  void setup() override {
    trace_ = orch::generate_trace(seed_, trace_config());
    build_scenarios();
  }

  void pass(SpanLog* spans) override {
    std::vector<orch::ScenarioMetrics> out;
    std::vector<double> wall_ms;
    std::uint64_t errors = 0;
    for (std::size_t i = 0; i < scenarios_.size(); ++i) {
      const auto t0 = std::chrono::steady_clock::now();
      Result<orch::ScenarioMetrics> m = err_internal("not run");
      {
        SpanLog::Scope s(spans, "orch", "run", i + 1);
        m = scenarios_[i]->run(trace_);
      }
      wall_ms.push_back(seconds_since(t0) * 1e3);
      yardstick().tick();
      if (m.ok()) {
        out.push_back(m.value());
      } else {
        ++errors;
        out.emplace_back();
        out.back().scenario = scenarios_[i]->name();
      }
    }
    scenarios_.clear();
    if (reference_.empty()) {
      reference_ = std::move(out);
      errors_ = errors;
      return;
    }
    ++passes_checked_;
    for (std::size_t i = 0; i < out.size(); ++i)
      if (!same_metrics(out[i], reference_[i])) {
        ++passes_diverged_;
        break;
      }
    if (spans != nullptr)
      for (std::size_t i = 0; i < wall_ms.size(); ++i)
        scenario_ms_[i].push_back(wall_ms[i]);
  }

  void finish(Report& r, const TracedPass* traced) override {
    r.sizes = {"nodes=64", "trace_hours=4", "pod_rate_per_hour=240",
               "job_rate_per_hour=24",
               "pods=" + std::to_string(trace_.pods.size()),
               "jobs=" + std::to_string(trace_.jobs.size()),
               "scenarios=6 (k8s-in-wlm excluded)"};
    r.attempted = trace_.pods.size() * kinds().size();
    r.unmeasured = {"crypto.", "registry.", "storage.", "fault.", "util.",
                    "vfs.",    "image.",    "engine.",  "runtime."};
    r.check(errors_ == 0, std::to_string(errors_) + " scenario runs failed");
    r.check(passes_checked_ > 0 && passes_diverged_ == 0,
            "same-seed passes diverged: " + std::to_string(passes_diverged_) +
                " of " + std::to_string(passes_checked_));

    double pods = 0, mean_sum = 0, p95_sum = 0, efficiency = 0;
    for (const auto& m : reference_) {
      r.failed += m.pods_failed;
      r.check(m.pods_completed + m.pods_failed == trace_.pods.size(),
              m.scenario + ": completed + failed pods != trace pods");
      r.check(m.mean_pod_start_latency >= 0,
              m.scenario + ": negative mean pod start latency");
      const double w = static_cast<double>(m.pods_completed);
      pods += w;
      mean_sum += w * to_seconds(m.mean_pod_start_latency);
      p95_sum += w * to_seconds(m.p95_pod_start_latency);
      efficiency += m.efficiency;
    }
    const double mean_s = pods > 0 ? mean_sum / pods : 0;
    const double p95_s = pods > 0 ? p95_sum / pods : 0;
    efficiency /= static_cast<double>(reference_.size());
    // orch reports a mean and a p95 per scenario; both are weighted by
    // the scenario's completed pods.
    r.layer("orch.pod_start_mean_s", mean_s, "s");
    r.layer("orch.pod_start_p95_s", p95_s, "s");
    r.layer("orch.core_efficiency", efficiency, "fraction");
    for (const auto& m : reference_) {
      const std::string key = "orch." + metric_key(m.scenario);
      r.layer(key + ".pod_start_mean_s", to_seconds(m.mean_pod_start_latency),
              "s");
      r.layer(key + ".pod_start_p95_s", to_seconds(m.p95_pod_start_latency),
              "s");
      r.layer(key + ".efficiency", m.efficiency, "fraction");
      r.layer(key + ".job_wait_s", to_seconds(m.mean_job_wait), "s");
    }
    if (traced == nullptr) return;
    const obs::MetricsSnapshot& metrics = traced->metrics;

    for (std::size_t i = 0; i < reference_.size(); ++i)
      r.layer("orch." + metric_key(reference_[i].scenario) + ".wall_ms",
              median(scenario_ms_[i]), "ms");
    r.layer("k8s.api_requests", counter(metrics, "k8s.api_requests"),
            "count");
    r.layer("k8s.pods_created", counter(metrics, "k8s.pods_created"),
            "count");
    r.layer("wlm.jobs_submitted", counter(metrics, "wlm.jobs_submitted"),
            "count");
  }

 private:
  /// The six scenarios, each with its own cluster of kNodes nodes.
  void build_scenarios() {
    scenarios_.clear();
    for (orch::ScenarioKind kind : kinds()) {
      orch::ScenarioConfig cfg;
      cfg.num_nodes = kNodes;
      cfg.seed = seed_;
      scenarios_.push_back(orch::make_scenario(kind, cfg));
    }
  }

  std::uint64_t seed_;
  orch::WorkloadTrace trace_;
  std::vector<std::unique_ptr<orch::IntegrationScenario>> scenarios_;
  std::vector<orch::ScenarioMetrics> reference_;
  std::uint64_t errors_ = 0;
  std::uint64_t passes_checked_ = 0;
  std::uint64_t passes_diverged_ = 0;
  std::vector<std::vector<double>> scenario_ms_ =
      std::vector<std::vector<double>>(kinds().size());
};

}  // namespace

std::unique_ptr<Workload> make_site_sched(const Options& o) {
  return std::make_unique<SiteSched>(o);
}

}  // namespace perfbench
