#include "dcheck/dcheck.h"

#include <algorithm>
#include <map>
#include <numeric>
#include <set>
#include <string>
#include <utility>

namespace hpcc::dcheck {

namespace detail {
std::atomic<bool> g_enabled{false};
}  // namespace detail

namespace {

constexpr std::uint32_t kNoTid = 0xffffffffu;

using VectorClock = std::vector<std::uint32_t>;

void vc_join(VectorClock& into, const VectorClock& from) {
  if (from.size() > into.size()) into.resize(from.size(), 0);
  for (std::size_t i = 0; i < from.size(); ++i)
    into[i] = std::max(into[i], from[i]);
}

/// epoch (tid, clk) ⊑ vc — the access is ordered before everything the
/// holder of `vc` does next.
bool epoch_before(std::uint32_t tid, std::uint32_t clk, const VectorClock& vc) {
  return tid < vc.size() && clk <= vc[tid];
}

struct ThreadState {
  VectorClock vc;
  /// Locks currently held (annotation order), for the lock-order graph.
  std::vector<std::pair<const void*, std::string>> held;
};

struct LockState {
  std::string name;
  VectorClock vc;  ///< clock of the last release
};

struct VarState {
  std::string name;
  std::uint32_t w_tid = kNoTid;  ///< last write epoch
  std::uint32_t w_clk = 0;
  /// Read epochs since the last write (small: the annotated surface is
  /// a handful of threads).
  std::vector<std::pair<std::uint32_t, std::uint32_t>> reads;
};

struct TaskEdge {
  VectorClock spawn_vc;  ///< spawner's clock at hb_spawn
  VectorClock end_vc;    ///< merged clocks of every hb_task_end
};

/// All detector state behind one mutex. The detector is a checker, not
/// a hot path: when enabled it serializes annotations globally, which
/// also makes its own bookkeeping trivially race-free.
struct Detector {
  std::mutex mu;
  Config cfg;
  std::atomic<std::uint64_t> perturb_seed{0};
  std::atomic<bool> perturb{false};

  /// Bumped by configure(); thread-local tids older than this are
  /// re-registered, so pooled threads surviving a reset start clean.
  std::uint64_t session = 1;
  std::uint32_t next_tid = 0;
  std::vector<ThreadState> threads;
  std::map<const void*, LockState> locks;
  std::map<const void*, VarState> vars;
  std::map<std::uint64_t, TaskEdge> tasks;
  std::uint64_t next_task = 1;

  /// Lock-order graph over lock *names*: edge A→B = "B acquired while
  /// A held". Name-keyed so every BlobStore shard is one node and the
  /// graph (and its findings) are address-free and deterministic.
  std::map<std::string, std::set<std::string>> lock_edges;

  /// Findings deduped by (code, object); first message wins.
  std::map<std::pair<std::string, std::string>, std::string> findings;

  std::map<std::string, std::uint64_t> events;

  void clear_state() {
    ++session;
    next_tid = 0;
    threads.clear();
    locks.clear();
    vars.clear();
    tasks.clear();
    next_task = 1;
    lock_edges.clear();
    findings.clear();
    events.clear();
  }

  void add_finding(std::string code, std::string object, std::string message) {
    findings.emplace(std::make_pair(std::move(code), std::move(object)),
                     std::move(message));
  }

  /// True when `to` is reachable from `from` in the lock-order graph.
  bool reachable(const std::string& from, const std::string& to) const {
    std::vector<const std::string*> stack{&from};
    std::set<std::string> seen{from};
    while (!stack.empty()) {
      const std::string* n = stack.back();
      stack.pop_back();
      if (*n == to) return true;
      auto it = lock_edges.find(*n);
      if (it == lock_edges.end()) continue;
      for (const auto& next : it->second) {
        if (seen.insert(next).second) stack.push_back(&next);
      }
    }
    return false;
  }
};

Detector& detector() {
  static Detector d;
  return d;
}

thread_local std::uint64_t tls_session = 0;
thread_local std::uint32_t tls_tid = 0;

/// Registers the calling thread in the current session (idempotent).
/// Caller holds d.mu.
std::uint32_t self_tid(Detector& d) {
  if (tls_session != d.session) {
    tls_tid = d.next_tid++;
    tls_session = d.session;
    d.threads.emplace_back();
    d.threads[tls_tid].vc.resize(tls_tid + 1, 0);
    d.threads[tls_tid].vc[tls_tid] = 1;  // clock 0 = "before everything"
  }
  return tls_tid;
}

void race_finding(Detector& d, const VarState& var) {
  d.add_finding(
      "RACE001", "location '" + var.name + "'",
      "annotated shared location '" + var.name +
          "' has conflicting accesses (at least one a write) with no "
          "happens-before edge between them: neither a task spawn/join "
          "edge nor a common annotated lock orders the tasks, so the "
          "outcome depends on the thread schedule");
}

}  // namespace

void configure(const Config& cfg) {
  Detector& d = detector();
  std::lock_guard<std::mutex> lock(d.mu);
  d.cfg = cfg;
  d.clear_state();
  d.perturb_seed.store(cfg.seed, std::memory_order_relaxed);
  d.perturb.store(cfg.perturb, std::memory_order_relaxed);
  detail::g_enabled.store(cfg.enabled, std::memory_order_relaxed);
}

Config config() {
  Detector& d = detector();
  std::lock_guard<std::mutex> lock(d.mu);
  Config cfg = d.cfg;
  cfg.perturb = d.perturb.load(std::memory_order_relaxed);
  cfg.seed = d.perturb_seed.load(std::memory_order_relaxed);
  return cfg;
}

void reset() { configure(Config{}); }

// --------------------------------------------------------------- HB edges

std::uint64_t hb_spawn() {
  if (!enabled()) return 0;
  Detector& d = detector();
  std::lock_guard<std::mutex> lock(d.mu);
  const std::uint32_t tid = self_tid(d);
  TaskEdge edge;
  edge.spawn_vc = d.threads[tid].vc;
  ++d.threads[tid].vc[tid];
  const std::uint64_t handle = d.next_task++;
  d.tasks.emplace(handle, std::move(edge));
  return handle;
}

void hb_task_begin(std::uint64_t handle) {
  if (!enabled() || handle == 0) return;
  Detector& d = detector();
  std::lock_guard<std::mutex> lock(d.mu);
  const std::uint32_t tid = self_tid(d);
  auto it = d.tasks.find(handle);
  if (it == d.tasks.end()) return;  // spawned in an earlier session
  vc_join(d.threads[tid].vc, it->second.spawn_vc);
}

void hb_task_end(std::uint64_t handle) {
  if (!enabled() || handle == 0) return;
  Detector& d = detector();
  std::lock_guard<std::mutex> lock(d.mu);
  const std::uint32_t tid = self_tid(d);
  auto it = d.tasks.find(handle);
  if (it == d.tasks.end()) return;
  vc_join(it->second.end_vc, d.threads[tid].vc);
  ++d.threads[tid].vc[tid];
}

void hb_join(std::uint64_t handle) {
  if (!enabled() || handle == 0) return;
  Detector& d = detector();
  std::lock_guard<std::mutex> lock(d.mu);
  const std::uint32_t tid = self_tid(d);
  auto it = d.tasks.find(handle);
  if (it == d.tasks.end()) return;
  vc_join(d.threads[tid].vc, it->second.end_vc);
}

// ------------------------------------------------------------------ locks

void lock_acquire(const void* lock, std::string_view name) {
  if (!enabled()) return;
  Detector& d = detector();
  std::lock_guard<std::mutex> guard(d.mu);
  const std::uint32_t tid = self_tid(d);
  ThreadState& t = d.threads[tid];

  auto [it, inserted] = d.locks.try_emplace(lock);
  if (inserted) it->second.name = std::string(name);
  vc_join(t.vc, it->second.vc);

  // Lock-order pass: an edge held→acquiring per currently-held lock
  // (same-name pairs skipped — shard siblings are one logical lock).
  const std::string& acquiring = it->second.name;
  for (const auto& [held_addr, held_name] : t.held) {
    (void)held_addr;
    if (held_name == acquiring) continue;
    const bool is_new = d.lock_edges[held_name].insert(acquiring).second;
    if (is_new && d.reachable(acquiring, held_name)) {
      const std::string& a = std::min(held_name, acquiring);
      const std::string& b = std::max(held_name, acquiring);
      d.add_finding(
          "RACE002", "locks '" + a + "' and '" + b + "'",
          "acquisition-order inversion: lock '" + acquiring +
              "' is acquired while '" + held_name +
              "' is held, but the lock-order graph already orders '" +
              acquiring + "' before '" + held_name +
              "' — two threads interleaving these paths deadlock");
    }
  }
  t.held.emplace_back(lock, acquiring);
}

void lock_release(const void* lock) {
  if (!enabled()) return;
  Detector& d = detector();
  std::lock_guard<std::mutex> guard(d.mu);
  const std::uint32_t tid = self_tid(d);
  ThreadState& t = d.threads[tid];
  auto it = d.locks.find(lock);
  if (it != d.locks.end()) it->second.vc = t.vc;
  ++t.vc[tid];
  for (auto held = t.held.rbegin(); held != t.held.rend(); ++held) {
    if (held->first == lock) {
      t.held.erase(std::next(held).base());
      break;
    }
  }
}

// --------------------------------------------------------------- accesses

namespace {

void do_access(const void* addr, std::string_view name, bool is_write) {
  Detector& d = detector();
  std::lock_guard<std::mutex> guard(d.mu);
  const std::uint32_t tid = self_tid(d);
  const VectorClock& vc = d.threads[tid].vc;

  auto [it, inserted] = d.vars.try_emplace(addr);
  VarState& var = it->second;
  if (inserted || var.name != name) {
    // New location, or the address was reclaimed for a different
    // logical location: start a fresh epoch history under the new name.
    var.name = std::string(name);
    if (!inserted) {
      var.w_tid = kNoTid;
      var.w_clk = 0;
      var.reads.clear();
    }
  }

  if (var.w_tid != kNoTid && !epoch_before(var.w_tid, var.w_clk, vc)) {
    race_finding(d, var);
  }
  if (is_write) {
    for (const auto& [rt, rc] : var.reads) {
      if (rt != tid && !epoch_before(rt, rc, vc)) {
        race_finding(d, var);
        break;
      }
    }
    var.w_tid = tid;
    var.w_clk = vc[tid];
    var.reads.clear();
  } else {
    for (auto& [rt, rc] : var.reads) {
      if (rt == tid) {
        rc = vc[tid];
        return;
      }
    }
    var.reads.emplace_back(tid, vc[tid]);
  }
}

}  // namespace

void access_read(const void* addr, std::string_view name) {
  if (!enabled()) return;
  do_access(addr, name, /*is_write=*/false);
}

void access_write(const void* addr, std::string_view name) {
  if (!enabled()) return;
  do_access(addr, name, /*is_write=*/true);
}

// ----------------------------------------------------------------- events

void event(std::string_view name) {
  if (!enabled()) return;
  Detector& d = detector();
  std::lock_guard<std::mutex> lock(d.mu);
  ++d.events[std::string(name)];
}

std::vector<std::pair<std::string, std::uint64_t>> event_counts() {
  Detector& d = detector();
  std::lock_guard<std::mutex> lock(d.mu);
  return {d.events.begin(), d.events.end()};
}

void clear_events() {
  Detector& d = detector();
  std::lock_guard<std::mutex> lock(d.mu);
  d.events.clear();
}

// ----------------------------------------------------------- perturbation

std::vector<std::size_t> perturbed_order(std::size_t n) {
  Detector& d = detector();
  if (!d.perturb.load(std::memory_order_relaxed) || n < 2) return {};
  // xorshift64 keyed by (seed, n): deterministic for a seed, different
  // across loop sizes so one run perturbs every parallel_for distinctly.
  std::uint64_t s = d.perturb_seed.load(std::memory_order_relaxed) ^
                    (0x9e3779b97f4a7c15ull * (n + 1));
  if (s == 0) s = 0x2545f4914f6cdd1dull;
  auto next = [&s] {
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    return s;
  };
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  for (std::size_t i = n - 1; i > 0; --i) {
    std::swap(order[i], order[next() % (i + 1)]);
  }
  return order;
}

namespace detail {

void set_perturb(bool on, std::uint64_t seed) {
  Detector& d = detector();
  d.perturb_seed.store(seed, std::memory_order_relaxed);
  d.perturb.store(on, std::memory_order_relaxed);
}

void add_finding(std::string code, std::string object, std::string message) {
  Detector& d = detector();
  std::lock_guard<std::mutex> lock(d.mu);
  d.add_finding(std::move(code), std::move(object), std::move(message));
}

}  // namespace detail

// ---------------------------------------------------------------- reports

CheckReport report() {
  Detector& d = detector();
  std::lock_guard<std::mutex> lock(d.mu);
  CheckReport out;
  out.findings.reserve(d.findings.size());
  for (const auto& [key, message] : d.findings) {
    out.findings.push_back(Finding{key.first, key.second, message});
  }
  return out;  // map order == (code, object) order
}

void clear_findings() {
  Detector& d = detector();
  std::lock_guard<std::mutex> lock(d.mu);
  d.findings.clear();
}

bool CheckReport::has(std::string_view code) const {
  return find(code) != nullptr;
}

const Finding* CheckReport::find(std::string_view code) const {
  for (const auto& f : findings) {
    if (f.code == code) return &f;
  }
  return nullptr;
}

}  // namespace hpcc::dcheck
