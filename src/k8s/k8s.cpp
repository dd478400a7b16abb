#include "k8s/k8s.h"

#include <algorithm>

#include "obs/obs.h"
#include "util/log.h"

namespace hpcc::k8s {

namespace {
Logger log_("k8s");

// Pod lifecycles overlap (many pods in flight, arbitrary test-driven
// transitions), so they are traced as async spans keyed by name:
// "pod:<name>:pending" / ":scheduled" / ":run". A transition closes
// whatever earlier phases are still open — async_end on a closed key is
// a no-op — so any legal (or test-shortcut) phase walk stays balanced.
std::string pod_key(const std::string& name, const char* phase) {
  return "pod:" + name + ":" + phase;
}

std::size_t slot(PodPhase phase) { return static_cast<std::size_t>(phase); }
}  // namespace

std::string_view to_string(PodPhase p) noexcept {
  switch (p) {
    case PodPhase::kPending: return "Pending";
    case PodPhase::kScheduled: return "Scheduled";
    case PodPhase::kRunning: return "Running";
    case PodPhase::kSucceeded: return "Succeeded";
    case PodPhase::kFailed: return "Failed";
  }
  return "?";
}

std::string_view to_string(ControlPlaneKind k) noexcept {
  switch (k) {
    case ControlPlaneKind::kFullK8s: return "Kubernetes";
    case ControlPlaneKind::kK3s: return "K3s";
  }
  return "?";
}

// -------------------------------------------------------------- ApiServer

ApiServer::ApiServer(sim::EventQueue* events, SimDuration api_latency)
    : events_(events), api_latency_(api_latency) {}

void ApiServer::notify(EventKind kind, const std::string& name) {
  ++requests_;
  obs::count("k8s.api_requests");
  events_->schedule_after(api_latency_, [this, event = WatchEvent{kind, name}] {
    // A watcher registered while handling `event` sits past `n`, so it
    // sees only later events.
    const std::size_t n = watchers_.size();
    for (std::size_t i = 0; i < n; ++i) watchers_[i](event);
  });
}

void ApiServer::set_phase(Pod& pod, PodPhase phase) {
  by_phase_[slot(pod.phase)].erase(pod.name);
  if (pod.phase == PodPhase::kScheduled) {
    auto node = scheduled_by_node_.find(pod.node);
    node->second.erase(pod.name);
    if (node->second.empty()) scheduled_by_node_.erase(node);
  }
  pod.phase = phase;
  by_phase_[slot(phase)].emplace(pod.name, &pod);
  if (phase == PodPhase::kScheduled)
    scheduled_by_node_[pod.node].emplace(pod.name, &pod);
}

Result<Unit> ApiServer::create_pod(const std::string& name, PodSpec spec) {
  if (pods_.contains(name)) return err_exists("pod exists: " + name);
  Pod pod;
  pod.name = name;
  pod.spec = std::move(spec);
  pod.created = events_->now();
  obs::count("k8s.pods_created");
  if (obs::tracing_enabled())
    obs::tracer().async_begin(obs::Category::kK8s, pod_key(name, "pending"),
                              pod.created);
  Pod& stored = pods_.emplace(name, std::move(pod)).first->second;
  by_phase_[slot(stored.phase)].emplace(stored.name, &stored);
  notify(EventKind::kPodCreated, name);
  return ok_unit();
}

Result<Pod*> ApiServer::pod(const std::string& name) {
  auto it = pods_.find(name);
  if (it == pods_.end()) return err_not_found("no pod " + name);
  return &it->second;
}

Result<Unit> ApiServer::bind_pod(const std::string& name,
                                 const std::string& node) {
  HPCC_TRY(Pod * p, pod(name));
  if (p->phase != PodPhase::kPending)
    return err_precondition("pod " + name + " is " +
                            std::string(to_string(p->phase)));
  if (!nodes_.contains(node)) return err_not_found("no node " + node);
  p->node = node;
  set_phase(*p, PodPhase::kScheduled);
  if (obs::tracing_enabled()) {
    obs::tracer().async_end(obs::Category::kK8s, pod_key(name, "pending"),
                            events_->now());
    obs::tracer().async_begin(obs::Category::kK8s, pod_key(name, "scheduled"),
                              events_->now());
  }
  notify(EventKind::kPodUpdated, name);
  return ok_unit();
}

Result<Unit> ApiServer::set_pod_phase(const std::string& name, PodPhase phase) {
  HPCC_TRY(Pod * p, pod(name));
  const bool first_run = phase == PodPhase::kRunning && p->started < 0;
  set_phase(*p, phase);
  if (phase == PodPhase::kRunning && p->started < 0)
    p->started = events_->now();
  if ((phase == PodPhase::kSucceeded || phase == PodPhase::kFailed) &&
      p->finished < 0)
    p->finished = events_->now();
  const SimTime now = events_->now();
  if (obs::tracing_enabled()) {
    if (phase == PodPhase::kRunning) {
      obs::tracer().async_end(obs::Category::kK8s, pod_key(name, "pending"),
                              now);
      obs::tracer().async_end(obs::Category::kK8s, pod_key(name, "scheduled"),
                              now);
      obs::tracer().async_begin(obs::Category::kK8s, pod_key(name, "run"),
                                now);
    } else if (phase == PodPhase::kSucceeded || phase == PodPhase::kFailed) {
      obs::tracer().async_end(obs::Category::kK8s, pod_key(name, "pending"),
                              now);
      obs::tracer().async_end(obs::Category::kK8s, pod_key(name, "scheduled"),
                              now);
      obs::tracer().async_end(obs::Category::kK8s, pod_key(name, "run"), now);
    }
  }
  if (obs::metrics_enabled()) {
    if (first_run)
      obs::metrics()
          .histogram("k8s.start_latency_us",
                     {msec(10), msec(100), sec(1), sec(10), minutes(1)})
          .observe(now - p->created);
    if (phase == PodPhase::kSucceeded)
      obs::metrics().counter("k8s.pods_succeeded").add(1);
    if (phase == PodPhase::kFailed)
      obs::metrics().counter("k8s.pods_failed").add(1);
  }
  notify(EventKind::kPodUpdated, name);
  return ok_unit();
}

std::vector<Pod*> ApiServer::pods_in_phase(PodPhase phase) {
  const PodIndex& index = by_phase_[slot(phase)];
  std::vector<Pod*> out;
  out.reserve(index.size());
  for (const auto& [name, pod] : index) out.push_back(pod);
  return out;
}

std::vector<Pod*> ApiServer::scheduled_on(const std::string& node) {
  std::vector<Pod*> out;
  auto it = scheduled_by_node_.find(node);
  if (it == scheduled_by_node_.end()) return out;
  out.reserve(it->second.size());
  for (const auto& [name, pod] : it->second) out.push_back(pod);
  return out;
}

Result<Unit> ApiServer::register_node(NodeStatus status) {
  const std::string name = status.name;
  nodes_[name] = std::move(status);
  notify(EventKind::kNodeUpdated, name);
  return ok_unit();
}

Result<Unit> ApiServer::set_node_ready(const std::string& name, bool ready) {
  HPCC_TRY(NodeStatus * n, node(name));
  n->ready = ready;
  notify(EventKind::kNodeUpdated, name);
  return ok_unit();
}

Result<Unit> ApiServer::deregister_node(const std::string& name) {
  if (nodes_.erase(name) == 0) return err_not_found("no node " + name);
  notify(EventKind::kNodeUpdated, name);
  return ok_unit();
}

Result<Unit> ApiServer::fail_node(const std::string& name) {
  HPCC_TRY(NodeStatus * n, node(name));
  obs::count("k8s.node_failures");
  n->ready = false;
  n->allocated_cores = 0;
  std::vector<std::string> displaced;
  for (auto& [pod_name, p] : pods_) {
    if (p.node != name) continue;
    if (p.phase != PodPhase::kScheduled && p.phase != PodPhase::kRunning)
      continue;
    set_phase(p, PodPhase::kPending);  // reads the old node
    p.node.clear();
    p.started = -1;
    ++p.restarts;
    ++reschedules_;
    obs::count("k8s.reschedules");
    if (obs::tracing_enabled()) {
      const SimTime now = events_->now();
      obs::tracer().async_end(obs::Category::kK8s, pod_key(pod_name, "run"),
                              now);
      obs::tracer().async_end(obs::Category::kK8s,
                              pod_key(pod_name, "scheduled"), now);
      obs::tracer().async_begin(obs::Category::kK8s,
                                pod_key(pod_name, "pending"), now);
    }
    displaced.push_back(pod_name);
  }
  notify(EventKind::kNodeUpdated, name);
  // Re-announce each displaced pod so the scheduler rebinds it.
  for (const auto& pod_name : displaced)
    notify(EventKind::kPodCreated, pod_name);
  return ok_unit();
}

Result<NodeStatus*> ApiServer::node(const std::string& name) {
  auto it = nodes_.find(name);
  if (it == nodes_.end()) return err_not_found("no node " + name);
  return &it->second;
}

std::vector<NodeStatus*> ApiServer::ready_nodes() {
  std::vector<NodeStatus*> out;
  for (auto& [name, n] : nodes_)
    if (n.ready) out.push_back(&n);
  return out;
}

Result<Unit> ApiServer::reserve(const std::string& node_name,
                                std::uint32_t cores) {
  HPCC_TRY(NodeStatus * n, node(node_name));
  if (n->free_cores() < cores)
    return err_exhausted("node " + node_name + " has " +
                         std::to_string(n->free_cores()) + " free cores, " +
                         std::to_string(cores) + " requested");
  n->allocated_cores += cores;
  return ok_unit();
}

Result<Unit> ApiServer::release(const std::string& node_name,
                                std::uint32_t cores) {
  HPCC_TRY(NodeStatus * n, node(node_name));
  n->allocated_cores = cores > n->allocated_cores
                           ? 0
                           : n->allocated_cores - cores;
  notify(EventKind::kNodeUpdated, node_name);
  return ok_unit();
}

void ApiServer::watch(Watcher watcher) { watchers_.push_back(std::move(watcher)); }

// -------------------------------------------------------------- Scheduler

Scheduler::Scheduler(ApiServer* api) : api_(api) {
  api_->watch([this](const WatchEvent& event) {
    if (event.kind == EventKind::kPodCreated ||
        event.kind == EventKind::kNodeUpdated) {
      schedule_pass();
    }
  });
}

void Scheduler::schedule_pass() {
  for (Pod* pod : api_->pods_in_phase(PodPhase::kPending)) {
    // Spread strategy: most free cores first.
    auto nodes = api_->ready_nodes();
    std::sort(nodes.begin(), nodes.end(),
              [](const NodeStatus* a, const NodeStatus* b) {
                if (a->free_cores() != b->free_cores())
                  return a->free_cores() > b->free_cores();
                return a->name < b->name;
              });
    for (NodeStatus* n : nodes) {
      if (n->free_cores() < pod->spec.cpu_request) continue;
      if (!api_->reserve(n->name, pod->spec.cpu_request).ok()) continue;
      (void)api_->bind_pod(pod->name, n->name);
      ++bindings_;
      break;
    }
  }
}

// ---------------------------------------------------------------- Kubelet

Kubelet::Kubelet(ApiServer* api, Config config, PodRunner runner)
    : api_(api), config_(std::move(config)), runner_(std::move(runner)) {}

Result<Unit> Kubelet::start(SimTime now) {
  if (running_) return err_precondition("kubelet already running");
  if (config_.cgroup_ready_check && !config_.cgroup_ready_check()) {
    return err_precondition(
        "rootless kubelet on " + config_.node_name +
        " requires a delegated cgroups-v2 subtree (survey §6.5)");
  }
  (void)now;
  running_ = true;
  std::weak_ptr<bool> alive = alive_;
  api_->events().schedule_after(config_.register_latency, [this, alive] {
    if (alive.expired() || !running_) return;
    NodeStatus status;
    status.name = config_.node_name;
    status.capacity_cores = config_.capacity_cores;
    status.sim_node = config_.sim_node;
    status.ready = true;
    (void)api_->register_node(status);
    maybe_run_pods();
  });
  api_->watch([this, alive](const WatchEvent& event) {
    if (alive.expired()) return;
    on_event(event);
  });
  return ok_unit();
}

void Kubelet::stop() {
  if (!running_) return;
  running_ = false;
  (void)api_->deregister_node(config_.node_name);
}

void Kubelet::on_event(const WatchEvent& event) {
  if (!running_) return;
  if (event.kind == EventKind::kPodUpdated) maybe_run_pods();
}

void Kubelet::maybe_run_pods() {
  for (Pod* pod : api_->scheduled_on(config_.node_name)) {
    const std::string name = pod->name;
    (void)api_->set_pod_phase(name, PodPhase::kRunning);
    ++pods_run_;
    // Execute through the injected runner; completion lands as an event.
    auto finished = runner_(api_->events().now(), *pod);
    if (!finished.ok()) {
      log_.warn("pod " + name + " failed: " + finished.error().to_string());
      (void)api_->set_pod_phase(name, PodPhase::kFailed);
      (void)api_->release(config_.node_name, pod->spec.cpu_request);
      continue;
    }
    const std::uint32_t cores = pod->spec.cpu_request;
    // Completion outlives this kubelet if its allocation is released
    // early; capture the API server and node name by value so the event
    // stays valid (the release on a deregistered node is a benign miss).
    // The restart generation guards against the node crashing before
    // this fires: a rescheduled pod must not be marked Succeeded by its
    // dead incarnation's completion.
    ApiServer* api = api_;
    const std::string node_name = config_.node_name;
    const std::uint32_t gen = pod->restarts;
    api_->events().schedule_at(
        finished.value(), [api, name, cores, node_name, gen] {
          auto p = api->pod(name);
          if (!p.ok() || p.value()->restarts != gen ||
              p.value()->phase != PodPhase::kRunning ||
              p.value()->node != node_name)
            return;
          (void)api->set_pod_phase(name, PodPhase::kSucceeded);
          (void)api->release(node_name, cores);
        });
  }
}

// ------------------------------------------------------------ ControlPlane

ControlPlane::ControlPlane(sim::EventQueue* events, ControlPlaneKind kind)
    : kind_(kind) {
  api_ = std::make_unique<ApiServer>(events);
  scheduler_ = std::make_unique<Scheduler>(api_.get());
}

SimDuration ControlPlane::startup_time() const {
  // Calibrated to published bring-up measurements: kubeadm-style full
  // control planes take tens of seconds; K3s single-binary starts in a
  // third of that.
  return kind_ == ControlPlaneKind::kFullK8s ? sec(45) : sec(12);
}

void ControlPlane::start(SimTime now, std::function<void()> on_ready) {
  (void)now;
  api_->events().schedule_after(startup_time(),
                                [this, cb = std::move(on_ready)] {
                                  ready_ = true;
                                  if (cb) cb();
                                });
}

}  // namespace hpcc::k8s
