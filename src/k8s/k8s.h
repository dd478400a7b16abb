// hpcc/k8s/k8s.h
//
// A minimal Kubernetes model: an API server holding Pods and Nodes with
// watch semantics, a scheduler binding pending pods to ready nodes, and
// kubelets that register nodes and run bound pods through an injected
// runner (the orchestration layer plugs the container-engine pipeline
// in here).
//
// This is the §6 substrate: "various distributions of Kubernetes exist,
// including K3s (lightweight Kubernetes), a fully conformant, pared
// down version packaged in a single binary" — ControlPlaneKind selects
// the bring-up cost profile, which is what makes §6.3 (Kubernetes in
// WLM) pay its "considerable startup overhead" and what the §6.5
// kubelet-in-allocation proposal avoids by keeping one control plane
// running continuously.
#pragma once

#include <array>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "runtime/container.h"
#include "sim/cluster.h"
#include "sim/resource.h"
#include "util/result.h"

namespace hpcc::k8s {

enum class PodPhase : std::uint8_t {
  kPending,    ///< accepted, not yet bound
  kScheduled,  ///< bound to a node, kubelet not yet started it
  kRunning,
  kSucceeded,
  kFailed,
};

std::string_view to_string(PodPhase p) noexcept;

struct PodSpec {
  std::string image = "registry.site/apps/app:v1";
  runtime::WorkloadProfile workload = runtime::shell_workload();
  std::uint32_t cpu_request = 1;  ///< cores
  bool gpu = false;
};

/// `phase` and `node` are written only by the ApiServer, which indexes
/// pods by both.
struct Pod {
  std::string name;
  PodSpec spec;
  PodPhase phase = PodPhase::kPending;
  std::string node;  ///< bound node name, empty while pending
  SimTime created = 0;
  SimTime started = -1;
  SimTime finished = -1;
  /// Incarnation counter: bumped each time a node failure sends the pod
  /// back to Pending. Completion events captured before the crash carry
  /// the old value and are discarded (stale-completion guard).
  std::uint32_t restarts = 0;

  /// Scheduling + startup latency (the §6 figure of merit).
  SimDuration start_latency() const {
    return started < 0 ? -1 : started - created;
  }
};

struct NodeStatus {
  std::string name;
  std::uint32_t capacity_cores = 0;
  std::uint32_t allocated_cores = 0;
  bool ready = false;
  sim::NodeId sim_node = 0;

  std::uint32_t free_cores() const {
    return allocated_cores > capacity_cores
               ? 0
               : capacity_cores - allocated_cores;
  }
};

/// Watch events the API server dispatches.
enum class EventKind : std::uint8_t { kPodCreated, kPodUpdated, kNodeUpdated };

struct WatchEvent {
  EventKind kind;
  std::string object_name;
};

/// The API server: typed object store + watches. All mutations dispatch
/// watch notifications after the API round-trip latency, to watchers in
/// registration order; a watcher registered during a dispatch sees only
/// later events. Succeeded and Failed are terminal: only an explicit
/// set_pod_phase moves a pod out of them, and no component does.
class ApiServer {
 public:
  ApiServer(sim::EventQueue* events, SimDuration api_latency = msec(5));

  // ----- pods
  Result<Unit> create_pod(const std::string& name, PodSpec spec);
  Result<Pod*> pod(const std::string& name);
  Result<Unit> bind_pod(const std::string& name, const std::string& node);
  Result<Unit> set_pod_phase(const std::string& name, PodPhase phase);
  /// Pods in `phase`, in name order.
  std::vector<Pod*> pods_in_phase(PodPhase phase);
  /// Scheduled pods bound to `node`, in name order.
  std::vector<Pod*> scheduled_on(const std::string& node);
  std::size_t num_pods() const { return pods_.size(); }

  // ----- nodes
  Result<Unit> register_node(NodeStatus status);
  Result<Unit> set_node_ready(const std::string& name, bool ready);
  Result<Unit> deregister_node(const std::string& name);
  /// Node crash: the node goes unready, and every pod bound to it
  /// (Scheduled or Running) returns to Pending with its node cleared,
  /// cores released and `restarts` bumped — the scheduler then rebinds
  /// it onto a surviving node. Pods are conserved, never dropped.
  Result<Unit> fail_node(const std::string& name);
  std::uint64_t reschedules() const { return reschedules_; }
  Result<NodeStatus*> node(const std::string& name);
  std::vector<NodeStatus*> ready_nodes();
  std::size_t num_nodes() const { return nodes_.size(); }

  /// Reserve/release cores on a node (done by the scheduler on bind and
  /// the kubelet on completion).
  Result<Unit> reserve(const std::string& node, std::uint32_t cores);
  Result<Unit> release(const std::string& node, std::uint32_t cores);

  // ----- watches
  using Watcher = std::function<void(const WatchEvent&)>;
  void watch(Watcher watcher);

  sim::EventQueue& events() { return *events_; }
  std::uint64_t api_requests() const { return requests_; }

 private:
  /// Name-ordered pod index; keys view `Pod::name`.
  using PodIndex = std::map<std::string_view, Pod*>;

  void notify(EventKind kind, const std::string& name);
  /// The one writer of `Pod::phase`: moves the pod between indexes.
  void set_phase(Pod& pod, PodPhase phase);

  sim::EventQueue* events_;
  SimDuration api_latency_;
  std::map<std::string, Pod> pods_;
  std::array<PodIndex, static_cast<std::size_t>(PodPhase::kFailed) + 1>
      by_phase_;
  /// Scheduled pods by bound node; a node with none has no entry.
  std::map<std::string, PodIndex> scheduled_by_node_;
  std::map<std::string, NodeStatus> nodes_;
  /// A deque: registering a watcher moves none of the others, so a
  /// dispatch can call them in place.
  std::deque<Watcher> watchers_;
  std::uint64_t requests_ = 0;
  std::uint64_t reschedules_ = 0;
};

/// The default scheduler: on every pod/node event, binds pending pods
/// to the ready node with the most free cores (spread).
class Scheduler {
 public:
  explicit Scheduler(ApiServer* api);
  std::uint64_t bindings() const { return bindings_; }

 private:
  void schedule_pass();
  ApiServer* api_;
  std::uint64_t bindings_ = 0;
};

/// Runs one pod's container; returns completion time. The orchestration
/// layer injects an engine-backed runner.
using PodRunner =
    std::function<Result<SimTime>(SimTime now, const Pod& pod)>;

/// A kubelet: registers its node, watches for pods bound to it, runs
/// them via the PodRunner, reports phases back.
class Kubelet {
 public:
  struct Config {
    std::string node_name;
    std::uint32_t capacity_cores = 64;
    sim::NodeId sim_node = 0;
    /// Node registration handshake cost.
    SimDuration register_latency = sec(2);
    /// Rootless kubelets require a delegated cgroups-v2 subtree (§6.5);
    /// when set, start() verifies it via this check.
    std::function<bool()> cgroup_ready_check;
  };

  Kubelet(ApiServer* api, Config config, PodRunner runner);

  /// Registers the node and starts watching. Fails (kFailedPrecondition)
  /// if the cgroup delegation check is configured and not satisfied.
  Result<Unit> start(SimTime now);

  /// Marks the node unready and abandons it (allocation ended).
  void stop();

  bool running() const { return running_; }
  std::uint64_t pods_run() const { return pods_run_; }

 private:
  void on_event(const WatchEvent& event);
  void maybe_run_pods();

  ApiServer* api_;
  Config config_;
  PodRunner runner_;
  bool running_ = false;
  std::uint64_t pods_run_ = 0;
  /// Lifetime token: API-server watchers registered by this kubelet
  /// capture a weak reference to it, so destroying the kubelet (node
  /// released back to the WLM, §6.1/§6.5) safely orphans its callbacks.
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
};

enum class ControlPlaneKind : std::uint8_t { kFullK8s, kK3s };

std::string_view to_string(ControlPlaneKind k) noexcept;

/// The control plane: API server + scheduler + bring-up cost profile.
class ControlPlane {
 public:
  ControlPlane(sim::EventQueue* events, ControlPlaneKind kind);

  /// etcd+apiserver+controller bring-up time before the API answers:
  /// the §6.3 startup overhead.
  SimDuration startup_time() const;

  /// Starts the control plane; `on_ready` fires when the API is up.
  void start(SimTime now, std::function<void()> on_ready);
  bool ready() const { return ready_; }

  ApiServer& api() { return *api_; }
  Scheduler& scheduler() { return *scheduler_; }
  ControlPlaneKind kind() const { return kind_; }

 private:
  ControlPlaneKind kind_;
  bool ready_ = false;
  std::unique_ptr<ApiServer> api_;
  std::unique_ptr<Scheduler> scheduler_;
};

}  // namespace hpcc::k8s
