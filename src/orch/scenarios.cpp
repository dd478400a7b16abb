// Implementations of the seven §6 integration scenarios (scenario.h).
#include "orch/scenario.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <set>

#include "k8s/k8s.h"
#include "wlm/slurm.h"

namespace hpcc::orch {

std::string_view to_string(ScenarioKind k) noexcept {
  switch (k) {
    case ScenarioKind::kStaticPartitioning: return "static-partitioning";
    case ScenarioKind::kOnDemandReallocation: return "on-demand-reallocation";
    case ScenarioKind::kWlmInK8s: return "wlm-in-k8s";
    case ScenarioKind::kK8sInWlm: return "k8s-in-wlm";
    case ScenarioKind::kBridgeOperator: return "bridge-operator";
    case ScenarioKind::kKnocVirtualKubelet: return "knoc-virtual-kubelet";
    case ScenarioKind::kKubeletInAllocation: return "kubelet-in-allocation";
  }
  return "?";
}

const std::vector<ScenarioKind>& all_scenario_kinds() {
  static const std::vector<ScenarioKind> kKinds = {
      ScenarioKind::kStaticPartitioning,
      ScenarioKind::kOnDemandReallocation,
      ScenarioKind::kWlmInK8s,
      ScenarioKind::kK8sInWlm,
      ScenarioKind::kBridgeOperator,
      ScenarioKind::kKnocVirtualKubelet,
      ScenarioKind::kKubeletInAllocation};
  return kKinds;
}

namespace {

/// Ledger entry for jobs managed outside SlurmWlm (the §6.2 scenario
/// runs "jobs" as pod groups).
struct LedgerJob {
  SimTime submitted = 0;
  SimTime started = -1;
  SimTime ended = -1;
  std::uint32_t nodes = 1;
  bool done = false;
};

struct CollectOptions {
  bool pods_in_wlm = false;
  std::uint64_t reconfigurations = 0;
  std::string notes;
  /// Absolute reserved core-time on the K8s side (e.g. converted nodes
  /// in §6.1); -1 derives it from pod usage.
  double reserved_k8s_core_usec = -1.0;
  /// Whole nodes reserved for K8s for the entire run (static split);
  /// multiplied by makespan at collection time. -1 = none.
  double reserved_k8s_whole_nodes = -1.0;
  /// Useful pod core-time tracked outside the shared API server
  /// (per-session clusters, §6.3).
  double extra_useful_core_usec = 0.0;
};

/// Mean and p95 pod start latency over `latencies` (sorted in place);
/// both stay 0 when no pod started.
void set_pod_start_latency(ScenarioMetrics& m,
                           std::vector<SimDuration>& latencies) {
  if (latencies.empty()) return;
  SimDuration total = 0;
  for (auto l : latencies) total += l;
  m.mean_pod_start_latency = total / static_cast<SimDuration>(latencies.size());
  std::sort(latencies.begin(), latencies.end());
  m.p95_pod_start_latency = latencies[static_cast<std::size_t>(
      0.95 * static_cast<double>(latencies.size() - 1))];
}

class ScenarioBase : public IntegrationScenario {
 public:
  explicit ScenarioBase(ScenarioConfig config) : cfg_(config) {
    sim::ClusterConfig ccfg;
    ccfg.num_nodes = cfg_.num_nodes;
    ccfg.node_spec.cores = cfg_.cores_per_node;
    cluster_ = std::make_unique<sim::Cluster>(ccfg);
  }

 protected:
  sim::EventQueue& events() { return cluster_->events(); }

  /// The default pod runner: container cold start + compute.
  k8s::PodRunner default_runner() {
    return [this](SimTime now, const k8s::Pod& pod) -> Result<SimTime> {
      return now + cfg_.pod_cold_start + pod.spec.workload.cpu_time;
    };
  }

  /// A whole-node kubelet for sim node `node`, registered with `api` as
  /// `name` and started now. `cgroup_ready`, when set, is the §6.5
  /// delegation check its start() verifies.
  std::unique_ptr<k8s::Kubelet> start_kubelet(
      k8s::ApiServer& api, std::string name, sim::NodeId node,
      std::function<bool()> cgroup_ready = {}) {
    k8s::Kubelet::Config kc;
    kc.node_name = std::move(name);
    kc.capacity_cores = cfg_.cores_per_node;
    kc.sim_node = node;
    kc.cgroup_ready_check = std::move(cgroup_ready);
    auto kubelet = std::make_unique<k8s::Kubelet>(&api, kc, default_runner());
    (void)kubelet->start(events().now());
    return kubelet;
  }

  void submit_trace_jobs(wlm::SlurmWlm& wlm, const WorkloadTrace& trace) {
    events().reserve(trace.jobs.size());
    for (const auto& j : trace.jobs) {
      events().schedule_at(j.submit, [this, &wlm, j] {
        wlm::JobSpec spec;
        spec.name = "hpc";
        spec.user = j.user;
        spec.nodes = std::min(j.nodes, hpc_node_budget_);
        spec.run_time = j.run_time;
        spec.time_limit = j.time_limit;
        trace_job_ids_.insert(wlm.submit(spec));
      });
    }
  }

  void submit_trace_pods(k8s::ApiServer& api, const WorkloadTrace& trace) {
    events().reserve(trace.pods.size());
    for (const auto& p : trace.pods) {
      events().schedule_at(p.submit, [&api, p] {
        (void)api.create_pod(p.name, p.spec);
      });
    }
  }

  /// Drives the simulation until every trace pod/job reached a terminal
  /// state (or the horizon is hit), then calls `cleanup` (cancel agent
  /// jobs etc.) and drains remaining events.
  void drive(const WorkloadTrace& trace, k8s::ApiServer* api,
             wlm::SlurmWlm* wlm, const std::function<void()>& cleanup = {}) {
    const SimTime horizon =
        trace.last_arrival() + static_cast<SimTime>(8) * minutes(60);
    while (events().now() < horizon) {
      events().run_until(events().now() + sec(30));
      if (all_done(trace, api, wlm)) break;
      if (events().empty() && !all_done(trace, api, wlm)) break;  // stuck
    }
    if (cleanup) cleanup();
    events().run_until(events().now() + minutes(5));
  }

  bool all_done(const WorkloadTrace& trace, k8s::ApiServer* api,
                wlm::SlurmWlm* wlm) {
    if (api) {
      // Succeeded and Failed are terminal, so the pods before the cursor
      // are never looked up again.
      for (; pods_done_ < trace.pods.size(); ++pods_done_) {
        auto pod = api->pod(trace.pods[pods_done_].name);
        if (!pod.ok()) return false;  // not yet created
        if (pod.value()->phase != k8s::PodPhase::kSucceeded &&
            pod.value()->phase != k8s::PodPhase::kFailed)
          return false;
      }
    }
    if (wlm) {
      if (trace_job_ids_.size() < trace.jobs.size()) return false;
      for (auto id : trace_job_ids_) {
        const auto rec = wlm->job(id);
        if (rec.ok() && (rec.value()->state == wlm::JobState::kPending ||
                         rec.value()->state == wlm::JobState::kRunning))
          return false;
      }
    }
    for (const auto& [key, lj] : ledger_) {
      if (!lj.done) return false;
    }
    return true;
  }

  /// Shared metric assembly. `pods_in_wlm`: pod compute happens inside
  /// WLM allocations and is therefore WLM-accounted.
  ScenarioMetrics collect(const WorkloadTrace& trace, k8s::ApiServer* api,
                          wlm::SlurmWlm* wlm, bool pods_in_wlm,
                          std::uint64_t reconfigurations,
                          const std::string& notes,
                          CollectOptions options = {}) {
    ScenarioMetrics m;
    m.scenario = name();
    m.reconfigurations = reconfigurations;
    m.notes = notes;

    double pod_node_usec = 0;
    std::vector<SimDuration> latencies;
    SimTime makespan = 0;
    if (api) {
      for (const auto& p : trace.pods) {
        auto pod = api->pod(p.name);
        if (!pod.ok()) {
          ++m.pods_failed;
          continue;
        }
        const k8s::Pod& rec = *pod.value();
        if (rec.phase == k8s::PodPhase::kSucceeded) {
          ++m.pods_completed;
          latencies.push_back(rec.start_latency());
          pod_node_usec += (static_cast<double>(rec.spec.cpu_request) /
                            cfg_.cores_per_node) *
                           static_cast<double>(rec.finished - rec.started);
          makespan = std::max(makespan, rec.finished);
        } else {
          ++m.pods_failed;
        }
      }
    }

    double job_node_usec = 0;
    if (wlm) {
      SimDuration wait_total = 0;
      std::uint64_t waited = 0;
      for (auto id : trace_job_ids_) {
        const auto rec = wlm->job(id);
        if (!rec.ok()) continue;
        const auto& r = *rec.value();
        if (r.state == wlm::JobState::kCompleted) ++m.jobs_completed;
        if (r.started >= 0 && r.ended >= 0) {
          job_node_usec += static_cast<double>(r.nodes.size()) *
                           static_cast<double>(r.ended - r.started);
          wait_total += r.wait_time();
          ++waited;
          makespan = std::max(makespan, r.ended);
        }
      }
      m.mean_job_wait = waited ? wait_total / static_cast<SimDuration>(waited)
                               : 0;
    }
    for (const auto& [key, lj] : ledger_) {
      if (lj.started >= 0 && lj.ended >= 0) {
        job_node_usec += static_cast<double>(lj.nodes) *
                         static_cast<double>(lj.ended - lj.started);
        makespan = std::max(makespan, lj.ended);
        ++m.jobs_completed;
      }
    }
    if (!ledger_.empty()) {
      SimDuration wait_total = 0;
      std::uint64_t waited = 0;
      for (const auto& [key, lj] : ledger_) {
        if (lj.started >= 0) {
          wait_total += lj.started - lj.submitted;
          ++waited;
        }
      }
      if (waited) m.mean_job_wait = wait_total / static_cast<SimDuration>(waited);
    }

    m.makespan = makespan;
    set_pod_start_latency(m, latencies);

    const double useful = job_node_usec + pod_node_usec;
    if (makespan > 0) {
      m.utilization =
          useful / (static_cast<double>(cfg_.num_nodes) *
                    static_cast<double>(makespan));
    }
    const double accounted =
        job_node_usec + (pods_in_wlm ? pod_node_usec : 0.0);
    m.wlm_accounting_coverage = useful > 0 ? accounted / useful : 1.0;

    // ----- efficiency: useful core-time / reserved core-time.
    const double cores = static_cast<double>(cfg_.cores_per_node);
    const double useful_cores =
        job_node_usec * cores + pod_node_usec * cores +
        options.extra_useful_core_usec;
    // Reserved: every WLM allocation (trace jobs, agent jobs, per-pod
    // jobs) holds nodes exclusively...
    double reserved_cores = 0;
    if (wlm) {
      for (const auto* rec : wlm->all_jobs()) {
        if (rec->started >= 0 && rec->ended >= rec->started) {
          reserved_cores += static_cast<double>(rec->nodes.size()) * cores *
                            static_cast<double>(rec->ended - rec->started);
        }
      }
    } else {
      // No WLM (§6.2): ledger jobs occupy whole nodes.
      for (const auto& [key, lj] : ledger_) {
        if (lj.started >= 0 && lj.ended >= lj.started) {
          reserved_cores += static_cast<double>(lj.nodes) * cores *
                            static_cast<double>(lj.ended - lj.started);
        }
      }
    }
    // ...plus whatever the Kubernetes side holds.
    if (options.reserved_k8s_whole_nodes >= 0) {
      reserved_cores += options.reserved_k8s_whole_nodes * cores *
                        static_cast<double>(makespan);
    } else if (options.reserved_k8s_core_usec >= 0) {
      reserved_cores += options.reserved_k8s_core_usec;
    } else if (!pods_in_wlm) {
      // Shared (non-exclusive) k8s nodes: pods reserve their requests.
      reserved_cores += pod_node_usec * cores;
    }
    m.efficiency =
        reserved_cores > 0 ? std::min(1.0, useful_cores / reserved_cores) : 0;
    return m;
  }

  ScenarioConfig cfg_;
  std::unique_ptr<sim::Cluster> cluster_;
  std::set<wlm::JobId> trace_job_ids_;
  std::map<std::string, LedgerJob> ledger_;
  /// Cap applied to trace job sizes (static partitioning shrinks it).
  std::uint32_t hpc_node_budget_ = 0xffffffff;
  /// all_done's cursor: trace pods before it reached a terminal phase.
  std::size_t pods_done_ = 0;
};

// ===================================================== StaticPartitioning

class StaticPartitioningScenario final : public ScenarioBase {
 public:
  using ScenarioBase::ScenarioBase;
  ScenarioKind scenario_kind() const override {
    return ScenarioKind::kStaticPartitioning;
  }

  Result<ScenarioMetrics> run(const WorkloadTrace& trace) override {
    wlm::SlurmWlm wlm(cluster_.get());
    k8s::ControlPlane cp(&events(), k8s::ControlPlaneKind::kK3s);

    const auto hpc_nodes = static_cast<std::uint32_t>(
        std::lround(cfg_.hpc_fraction * cfg_.num_nodes));
    hpc_node_budget_ = std::max(1u, hpc_nodes);

    std::vector<std::unique_ptr<k8s::Kubelet>> kubelets;
    // Permanently fence off the Kubernetes partition.
    for (std::uint32_t n = hpc_nodes; n < cfg_.num_nodes; ++n)
      HPCC_TRY_UNIT(wlm.drain(n));

    cp.start(0, [&] {
      for (std::uint32_t n = hpc_nodes; n < cfg_.num_nodes; ++n)
        kubelets.push_back(
            start_kubelet(cp.api(), "nid" + std::to_string(n), n));
    });

    submit_trace_jobs(wlm, trace);
    submit_trace_pods(cp.api(), trace);
    drive(trace, &cp.api(), &wlm);
    CollectOptions options;
    // The whole K8s partition is reserved for the entire run whether
    // pods use it or not — the §6.6 static-partitioning waste.
    options.reserved_k8s_whole_nodes =
        static_cast<double>(cfg_.num_nodes - hpc_nodes);
    return collect(trace, &cp.api(), &wlm, /*pods_in_wlm=*/false,
                   /*reconfigurations=*/0,
                   "fixed split: " + std::to_string(hpc_nodes) + " WLM / " +
                       std::to_string(cfg_.num_nodes - hpc_nodes) + " K8s",
                   options);
  }
};

// ================================================== OnDemandReallocation

class OnDemandReallocationScenario final : public ScenarioBase {
 public:
  using ScenarioBase::ScenarioBase;
  ScenarioKind scenario_kind() const override {
    return ScenarioKind::kOnDemandReallocation;
  }

  Result<ScenarioMetrics> run(const WorkloadTrace& trace) override {
    wlm::SlurmWlm wlm(cluster_.get());
    k8s::ControlPlane cp(&events(), k8s::ControlPlaneKind::kK3s);
    cp.start(0, nullptr);

    cp.api().watch([&](const k8s::WatchEvent&) { reconcile(wlm, cp); });

    submit_trace_jobs(wlm, trace);
    submit_trace_pods(cp.api(), trace);
    drive(trace, &cp.api(), &wlm, [&] {
      // Return remaining K8s nodes to the WLM.
      std::vector<sim::NodeId> remaining;
      for (auto& [node, kubelet] : kubelets_) remaining.push_back(node);
      for (auto node : remaining) release_node(wlm, node);
    });
    CollectOptions options;
    options.reserved_k8s_core_usec =
        k8s_reserved_node_usec_ * cfg_.cores_per_node;
    return collect(trace, &cp.api(), &wlm, /*pods_in_wlm=*/false,
                   reconfigurations_,
                   "nodes drained+reprovisioned on demand; accounting "
                   "consolidated separately (survey §6.6)",
                   options);
  }

 private:
  void reconcile(wlm::SlurmWlm& wlm, k8s::ControlPlane& cp) {
    if (!cp.ready()) return;
    // Demand: pending pod cores beyond current free K8s capacity.
    std::uint64_t pending_cores = 0;
    for (const auto* pod : cp.api().pods_in_phase(k8s::PodPhase::kPending))
      pending_cores += pod->spec.cpu_request;
    std::uint64_t free_cores = 0;
    for (const auto* n : cp.api().ready_nodes()) free_cores += n->free_cores();
    if (pending_cores > free_cores) {
      const auto deficit_nodes = static_cast<std::uint32_t>(
          (pending_cores - free_cores + cfg_.cores_per_node - 1) /
          cfg_.cores_per_node);
      auto idle = wlm.idle_nodes();
      for (std::uint32_t i = 0; i < deficit_nodes && i < idle.size(); ++i) {
        const sim::NodeId node = idle[i];
        if (kubelets_.contains(node) || converting_.contains(node)) continue;
        converting_.insert(node);
        ++reconfigurations_;
        (void)wlm.drain(node, [this, &wlm, &cp, node] {
          (void)cluster_->reprovision(node, [this, &cp, node] {
            kubelets_[node] =
                start_kubelet(cp.api(), "nid" + std::to_string(node), node);
            k8s_since_[node] = events().now();
            converting_.erase(node);
          });
        });
      }
    }

    // Release: idle K8s nodes go back to the WLM after a grace period.
    for (auto& [node, kubelet] : kubelets_) {
      auto status = cp.api().node("nid" + std::to_string(node));
      if (!status.ok() || status.value()->allocated_cores > 0) continue;
      if (pending_cores > 0) continue;
      const sim::NodeId n = node;
      events().schedule_after(cfg_.idle_release, [this, &wlm, &cp, n] {
        auto it = kubelets_.find(n);
        if (it == kubelets_.end()) return;
        auto status2 = cp.api().node("nid" + std::to_string(n));
        if (status2.ok() && status2.value()->allocated_cores > 0) return;
        bool pods_waiting =
            !cp.api().pods_in_phase(k8s::PodPhase::kPending).empty();
        if (pods_waiting) return;
        release_node(wlm, n);
      });
    }
  }

  void release_node(wlm::SlurmWlm& wlm, sim::NodeId node) {
    auto it = kubelets_.find(node);
    if (it == kubelets_.end()) return;
    it->second->stop();
    kubelets_.erase(it);
    if (auto since = k8s_since_.find(node); since != k8s_since_.end()) {
      k8s_reserved_node_usec_ +=
          static_cast<double>(events().now() - since->second);
      k8s_since_.erase(since);
    }
    ++reconfigurations_;
    (void)cluster_->reprovision(node, [this, &wlm, node] {
      (void)wlm.undrain(node);
    });
  }

  std::map<sim::NodeId, std::unique_ptr<k8s::Kubelet>> kubelets_;
  std::map<sim::NodeId, SimTime> k8s_since_;
  std::set<sim::NodeId> converting_;
  std::uint64_t reconfigurations_ = 0;
  double k8s_reserved_node_usec_ = 0;
};

// ============================================================= WlmInK8s

class WlmInK8sScenario final : public ScenarioBase {
 public:
  using ScenarioBase::ScenarioBase;
  ScenarioKind scenario_kind() const override {
    return ScenarioKind::kWlmInK8s;
  }

  Result<ScenarioMetrics> run(const WorkloadTrace& trace) override {
    k8s::ControlPlane cp(&events(), k8s::ControlPlaneKind::kFullK8s);
    std::vector<std::unique_ptr<k8s::Kubelet>> kubelets;
    cp.start(0, [&] {
      // Every kubelet registration schedules one event at once.
      events().reserve(cfg_.num_nodes);
      for (std::uint32_t n = 0; n < cfg_.num_nodes; ++n)
        kubelets.push_back(
            start_kubelet(cp.api(), "nid" + std::to_string(n), n));
    });

    // HPC jobs become groups of privileged whole-node agent pods; the
    // containerized WLM pays the §6.2 overhead on every job.
    events().reserve(trace.jobs.size());
    for (std::size_t ji = 0; ji < trace.jobs.size(); ++ji) {
      const auto& j = trace.jobs[ji];
      const std::string key = "wlmjob" + std::to_string(ji);
      ledger_[key] = LedgerJob{j.submit, -1, -1, j.nodes, false};
      events().schedule_at(j.submit, [this, &cp, j, key] {
        for (std::uint32_t r = 0; r < j.nodes; ++r) {
          k8s::PodSpec spec;
          spec.cpu_request = cfg_.cores_per_node;  // exclusive node
          spec.workload.cpu_time = static_cast<SimDuration>(
              static_cast<double>(j.run_time) *
              (1.0 + cfg_.wlm_in_k8s_overhead));
          (void)cp.api().create_pod(key + "-rank" + std::to_string(r), spec);
        }
        track_job(cp, key, j.nodes);
      });
    }

    submit_trace_pods(cp.api(), trace);
    drive(trace, &cp.api(), nullptr);
    return collect(trace, &cp.api(), nullptr, /*pods_in_wlm=*/false,
                   /*reconfigurations=*/0,
                   "WLM containerized; needs privileged pods for fabric "
                   "access (survey §6.2); K8s pods unaccounted by WLM");
  }

 private:
  void track_job(k8s::ControlPlane& cp, const std::string& key,
                 std::uint32_t ranks) {
    cp.api().watch([this, &cp, key, ranks, prefix = key + "-rank"](
                       const k8s::WatchEvent& e) {
      if (e.kind != k8s::EventKind::kPodUpdated) return;
      if (!e.object_name.starts_with(prefix)) return;
      LedgerJob& lj = ledger_[key];
      if (lj.done) return;
      SimTime first_start = -1, last_end = -1;
      std::uint32_t running_or_done = 0, done = 0;
      for (std::uint32_t r = 0; r < ranks; ++r) {
        auto pod = cp.api().pod(prefix + std::to_string(r));
        if (!pod.ok()) return;
        const auto& p = *pod.value();
        if (p.started >= 0) {
          ++running_or_done;
          first_start = first_start < 0 ? p.started
                                        : std::max(first_start, p.started);
        }
        if (p.phase == k8s::PodPhase::kSucceeded) {
          ++done;
          last_end = std::max(last_end, p.finished);
        }
      }
      if (running_or_done == ranks && lj.started < 0) lj.started = first_start;
      if (done == ranks) {
        lj.ended = last_end;
        lj.done = true;
      }
    });
  }
};

// ============================================================== K8sInWlm

class K8sInWlmScenario final : public ScenarioBase {
 public:
  using ScenarioBase::ScenarioBase;
  ScenarioKind scenario_kind() const override {
    return ScenarioKind::kK8sInWlm;
  }

  Result<ScenarioMetrics> run(const WorkloadTrace& trace) override {
    wlm::SlurmWlm wlm(cluster_.get());
    submit_trace_jobs(wlm, trace);

    // Group pods into sessions (arrival gap > 1 min starts a new one):
    // each session pays a full in-allocation K3s bring-up (§6.3).
    std::vector<std::vector<PodArrival>> sessions;
    for (const auto& p : trace.pods) {
      if (sessions.empty() ||
          p.submit - sessions.back().back().submit > minutes(1)) {
        sessions.emplace_back();
      }
      sessions.back().push_back(p);
    }

    events().reserve(sessions.size());
    for (std::size_t si = 0; si < sessions.size(); ++si) {
      const auto& session = sessions[si];
      events().schedule_at(session.front().submit, [this, &wlm, session, si] {
        start_session(wlm, session, si);
      });
    }

    // Drive manually: trace pods live in per-session API servers.
    const SimTime horizon = trace.last_arrival() + 8 * minutes(60);
    while (events().now() < horizon) {
      events().run_until(events().now() + sec(30));
      if (sessions_done_ == sessions.size() &&
          all_done(trace, nullptr, &wlm))
        break;
      if (events().empty()) break;
    }
    events().run_until(events().now() + minutes(5));

    // Metrics: pods collected from the session records.
    CollectOptions options;
    options.extra_useful_core_usec = pod_core_usec_;
    ScenarioMetrics m =
        collect(trace, nullptr, &wlm, /*pods_in_wlm=*/true, 0,
                "per-session K3s inside allocations: perfect isolation, "
                "long startup (survey §6.3)", options);
    m.pods_completed = pods_completed_;
    m.pods_failed = pods_failed_;
    set_pod_start_latency(m, latencies_);
    // Pod compute ran inside the session allocations, which are WLM
    // jobs, so collect() already counted it in utilization and coverage.
    m.makespan = std::max(m.makespan, last_pod_finish_);
    return m;
  }

 private:
  struct Session {
    std::unique_ptr<k8s::ControlPlane> cp;
    std::vector<std::unique_ptr<k8s::Kubelet>> kubelets;
    std::size_t total_pods = 0;
    std::size_t done_pods = 0;
    wlm::JobId job = 0;
  };

  void start_session(wlm::SlurmWlm& wlm, std::vector<PodArrival> pods,
                     std::size_t index) {
    auto session = std::make_shared<Session>();
    session->total_pods = pods.size();

    wlm::JobSpec spec;
    spec.name = "k8s-session" + std::to_string(index);
    spec.user = "workflow-user";
    spec.nodes = cfg_.alloc_nodes;
    spec.run_time = 0;  // until cancelled
    spec.time_limit = 4 * minutes(60);
    spec.on_start = [this, &wlm, session, pods](
                        wlm::JobId id, const std::vector<sim::NodeId>& nodes) {
      session->job = id;
      session->cp = std::make_unique<k8s::ControlPlane>(
          &events(), k8s::ControlPlaneKind::kK3s);
      session->cp->start(events().now(), [this, &wlm, session, pods, nodes] {
        for (sim::NodeId n : nodes)
          session->kubelets.push_back(start_kubelet(
              session->cp->api(), "alloc-nid" + std::to_string(n), n));
        // Completion tracking. Weak capture: the watcher lives inside
        // the session's own ApiServer, so a strong capture would be a
        // reference cycle.
        std::weak_ptr<Session> weak_session = session;
        session->cp->api().watch(
            [this, &wlm, weak_session](const k8s::WatchEvent& e) {
              auto session = weak_session.lock();
              if (!session) return;
              if (e.kind != k8s::EventKind::kPodUpdated) return;
              auto pod = session->cp->api().pod(e.object_name);
              if (!pod.ok()) return;
              const auto& p = *pod.value();
              if (p.phase == k8s::PodPhase::kSucceeded ||
                  p.phase == k8s::PodPhase::kFailed) {
                if (consumed_.insert(p.name).second) {
                  ++session->done_pods;
                  if (p.phase == k8s::PodPhase::kSucceeded) {
                    ++pods_completed_;
                    latencies_.push_back(p.start_latency());
                    last_pod_finish_ = std::max(last_pod_finish_, p.finished);
                    pod_core_usec_ +=
                        static_cast<double>(p.spec.cpu_request) *
                        static_cast<double>(p.finished - p.started);
                  } else {
                    ++pods_failed_;
                  }
                  if (session->done_pods == session->total_pods) {
                    (void)wlm.cancel(session->job);
                    ++sessions_done_;
                  }
                }
              }
            });
        for (const auto& p : pods) {
          if (p.submit > events().now()) {
            events().schedule_at(p.submit, [session, p] {
              (void)session->cp->api().create_pod(p.name, p.spec);
            });
            continue;
          }
          // Pods submitted before the cluster was ready were waiting
          // on the user's side; latency counts from original submit.
          (void)session->cp->api().create_pod(p.name, p.spec);
          auto created = session->cp->api().pod(p.name);
          if (created.ok()) created.value()->created = p.submit;
        }
      });
    };
    spec.on_end = [session](wlm::JobId, wlm::JobState) {
      for (auto& k : session->kubelets) k->stop();
    };
    (void)wlm.submit(spec);
    sessions_.push_back(session);
  }

  std::vector<std::shared_ptr<Session>> sessions_;
  std::set<std::string> consumed_;
  std::vector<SimDuration> latencies_;
  std::uint64_t pods_completed_ = 0;
  std::uint64_t pods_failed_ = 0;
  std::size_t sessions_done_ = 0;
  SimTime last_pod_finish_ = 0;
  double pod_core_usec_ = 0;
};

// ====================================== BridgeOperator / KNoC (shared)

class TranslatingScenario : public ScenarioBase {
 public:
  TranslatingScenario(ScenarioConfig config, bool explicit_bridge)
      : ScenarioBase(config), explicit_bridge_(explicit_bridge) {}

  Result<ScenarioMetrics> run(const WorkloadTrace& trace) override {
    wlm::SlurmWlm wlm(cluster_.get());
    k8s::ControlPlane cp(&events(), k8s::ControlPlaneKind::kK3s);
    cp.start(0, nullptr);

    // The operator / virtual kubelet: pending pods become WLM jobs.
    cp.api().watch([this, &wlm, &cp](const k8s::WatchEvent& e) {
      if (e.kind != k8s::EventKind::kPodCreated) return;
      auto pod = cp.api().pod(e.object_name);
      if (!pod.ok()) return;
      const std::string name = pod.value()->name;
      // Explicit bridges need the user-authored resource description
      // round trip (§6.4: "the drawback of this approach is the
      // required explicit formulation").
      const SimDuration overhead = explicit_bridge_ ? sec(1) : msec(50);
      events().schedule_after(overhead, [this, &wlm, &cp, name] {
        submit_pod_job(wlm, cp, name);
      });
    });

    submit_trace_jobs(wlm, trace);
    submit_trace_pods(cp.api(), trace);
    drive(trace, &cp.api(), &wlm);
    return collect(trace, &cp.api(), &wlm, /*pods_in_wlm=*/true, 0,
                   explicit_bridge_
                       ? "explicit resource descriptions; one exclusive "
                         "node per pod"
                       : "transparent virtual kubelet (KNoC); one "
                         "exclusive node per pod");
  }

 protected:
  void submit_pod_job(wlm::SlurmWlm& wlm, k8s::ControlPlane& cp,
                      const std::string& pod_name) {
    auto pod = cp.api().pod(pod_name);
    if (!pod.ok()) return;
    wlm::JobSpec spec;
    spec.name = "pod-" + pod_name;
    spec.user = "k8s-tenant";
    spec.nodes = 1;  // exclusive allocation per pod
    spec.run_time = cfg_.pod_cold_start + pod.value()->spec.workload.cpu_time;
    spec.time_limit = spec.run_time * 2 + minutes(5);
    spec.on_start = [&cp, pod_name](wlm::JobId,
                                    const std::vector<sim::NodeId>&) {
      (void)cp.api().set_pod_phase(pod_name, k8s::PodPhase::kRunning);
    };
    spec.on_end = [&cp, pod_name](wlm::JobId, wlm::JobState state) {
      (void)cp.api().set_pod_phase(pod_name,
                                   state == wlm::JobState::kCompleted
                                       ? k8s::PodPhase::kSucceeded
                                       : k8s::PodPhase::kFailed);
    };
    (void)wlm.submit(spec);
  }

 private:
  bool explicit_bridge_;
};

class BridgeOperatorScenario final : public TranslatingScenario {
 public:
  explicit BridgeOperatorScenario(ScenarioConfig config)
      : TranslatingScenario(config, /*explicit_bridge=*/true) {}
  ScenarioKind scenario_kind() const override {
    return ScenarioKind::kBridgeOperator;
  }
};

class KnocScenario final : public TranslatingScenario {
 public:
  explicit KnocScenario(ScenarioConfig config)
      : TranslatingScenario(config, /*explicit_bridge=*/false) {}
  ScenarioKind scenario_kind() const override {
    return ScenarioKind::kKnocVirtualKubelet;
  }
};

// ================================================== KubeletInAllocation

class KubeletInAllocationScenario final : public ScenarioBase {
 public:
  using ScenarioBase::ScenarioBase;
  ScenarioKind scenario_kind() const override {
    return ScenarioKind::kKubeletInAllocation;
  }

  Result<ScenarioMetrics> run(const WorkloadTrace& trace) override {
    wlm::SlurmWlm wlm(cluster_.get());
    k8s::ControlPlane cp(&events(), k8s::ControlPlaneKind::kK3s);
    cp.start(0, nullptr);

    cp.api().watch([this, &wlm, &cp](const k8s::WatchEvent&) {
      reconcile(wlm, cp);
    });

    submit_trace_jobs(wlm, trace);
    submit_trace_pods(cp.api(), trace);
    drive(trace, &cp.api(), &wlm, [&] {
      for (auto id : agent_jobs_) (void)wlm.cancel(id);
    });
    ScenarioMetrics m =
        collect(trace, &cp.api(), &wlm, /*pods_in_wlm=*/true, 0,
                "standing K3s; rootless kubelets join from inside "
                "allocations (survey §6.5 / Figure 1); " +
                    std::to_string(allocations_) + " agent allocations");
    return m;
  }

 private:
  void reconcile(wlm::SlurmWlm& wlm, k8s::ControlPlane& cp) {
    if (!cp.ready()) return;
    std::uint64_t pending_cores = 0;
    for (const auto* pod : cp.api().pods_in_phase(k8s::PodPhase::kPending))
      pending_cores += pod->spec.cpu_request;
    std::uint64_t free_cores = 0;
    for (const auto* n : cp.api().ready_nodes()) free_cores += n->free_cores();

    if (pending_cores > free_cores && !agent_pending_ &&
        wlm.available_nodes() >= cfg_.alloc_nodes) {
      agent_pending_ = true;
      ++allocations_;
      wlm::JobSpec spec;
      spec.name = "k8s-agents";
      spec.user = "k8s-tenant";
      spec.nodes = cfg_.alloc_nodes;
      spec.run_time = 0;  // until released
      spec.time_limit = 4 * minutes(60);
      spec.on_start = [this, &wlm, &cp](wlm::JobId id,
                                        const std::vector<sim::NodeId>& nodes) {
        agent_pending_ = false;
        agent_jobs_.insert(id);
        for (sim::NodeId n : nodes) {
          // The §6.5 precondition: the job cgroup must be v2-delegated.
          kubelets_[id].push_back(start_kubelet(
              cp.api(),
              "alloc" + std::to_string(id) + "-nid" + std::to_string(n), n,
              [&wlm, n, id] {
                return wlm.node_cgroups(n).rootless_ready(
                    "/slurm/job" + std::to_string(id));
              }));
        }
        schedule_idle_check(wlm, cp, id);
      };
      spec.on_end = [this](wlm::JobId id, wlm::JobState) {
        for (auto& k : kubelets_[id]) k->stop();
        kubelets_.erase(id);
        agent_jobs_.erase(id);
      };
      (void)wlm.submit(spec);
    }
  }

  void schedule_idle_check(wlm::SlurmWlm& wlm, k8s::ControlPlane& cp,
                           wlm::JobId id) {
    events().schedule_after(cfg_.idle_release, [this, &wlm, &cp, id] {
      if (!agent_jobs_.contains(id)) return;
      const bool busy =
          !cp.api().pods_in_phase(k8s::PodPhase::kPending).empty() ||
          !cp.api().pods_in_phase(k8s::PodPhase::kScheduled).empty() ||
          !cp.api().pods_in_phase(k8s::PodPhase::kRunning).empty();
      if (busy) {
        schedule_idle_check(wlm, cp, id);
      } else {
        (void)wlm.cancel(id);
      }
    });
  }

  std::set<wlm::JobId> agent_jobs_;
  std::map<wlm::JobId, std::vector<std::unique_ptr<k8s::Kubelet>>> kubelets_;
  bool agent_pending_ = false;
  std::uint64_t allocations_ = 0;
};

}  // namespace

std::unique_ptr<IntegrationScenario> make_scenario(ScenarioKind kind,
                                                   ScenarioConfig config) {
  switch (kind) {
    case ScenarioKind::kStaticPartitioning:
      return std::make_unique<StaticPartitioningScenario>(config);
    case ScenarioKind::kOnDemandReallocation:
      return std::make_unique<OnDemandReallocationScenario>(config);
    case ScenarioKind::kWlmInK8s:
      return std::make_unique<WlmInK8sScenario>(config);
    case ScenarioKind::kK8sInWlm:
      return std::make_unique<K8sInWlmScenario>(config);
    case ScenarioKind::kBridgeOperator:
      return std::make_unique<BridgeOperatorScenario>(config);
    case ScenarioKind::kKnocVirtualKubelet:
      return std::make_unique<KnocScenario>(config);
    case ScenarioKind::kKubeletInAllocation:
      return std::make_unique<KubeletInAllocationScenario>(config);
  }
  return nullptr;
}

}  // namespace hpcc::orch
