// hpcc/dcheck/dcheck.h
//
// `hpcc::dcheck` — the dynamic correctness harness for the parallel
// data path: a vector-clock happens-before race detector, a lock-order
// (held-while-acquiring) cycle detector, and the annotation surface the
// determinism auditor (dcheck/determinism.h) perturbs schedules
// through. Where `src/audit` proves configurations admissible before
// anything runs, dcheck proves the *execution layer* keeps its
// contracts while it runs — the byte-identical determinism guarantee of
// DESIGN.md §7 becomes an enforced, reportable invariant instead of a
// convention defended only by TSan runs.
//
// Gating mirrors obs::Config: everything is OFF until dcheck::configure
// turns it on, and every annotation site reduces to one relaxed atomic
// load when off — no allocation, no locking, no string building — so an
// instrumented build with the gate down is byte-identical to an
// uninstrumented one (test-enforced, dcheck_test.cpp).
//
// The analyses are deliberately annotation-driven, not binary
// instrumentation: call sites declare task spawn/join edges
// (util::ThreadPool::parallel_for), lock acquire/release
// (image::BlobStore shards, storage::CacheHierarchy, obs::Registry)
// and logical shared locations. The detector then checks every
// annotated access pair for a happens-before edge — which means it
// flags races the *schedule* never exhibited, unlike TSan, and its
// findings are schedule-independent and therefore reportable
// deterministically (same seed ⇒ byte-identical JSON).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string_view>
#include <vector>

#include "dcheck/report.h"

namespace hpcc::dcheck {

struct Config {
  bool enabled = false;  ///< master gate for every annotation
  bool perturb = false;  ///< schedule perturbation (determinism auditor)
  std::uint64_t seed = 0;  ///< perturbation seed
};

/// Installs `cfg` and clears all detector state (thread clocks, lock
/// vector clocks, location epochs, lock-order graph, findings, events),
/// so every configured run starts from a blank slate.
void configure(const Config& cfg);
Config config();

/// configure({}) — everything off, state cleared.
void reset();

namespace detail {
extern std::atomic<bool> g_enabled;
}  // namespace detail

/// The hot-path gate: one relaxed load.
inline bool enabled() {
  return detail::g_enabled.load(std::memory_order_relaxed);
}

// ------------------------------------------------------------------------
// Happens-before edges (task spawn/join). The spawner calls hb_spawn()
// and keeps the handle; each task brackets its body with
// hb_task_begin/hb_task_end (many tasks may share one handle — their
// end clocks merge); the joiner calls hb_join after it has observed
// completion (future.get/wait). All are no-ops (handle 0) when off.
// ------------------------------------------------------------------------

std::uint64_t hb_spawn();
void hb_task_begin(std::uint64_t handle);
void hb_task_end(std::uint64_t handle);
void hb_join(std::uint64_t handle);

// ------------------------------------------------------------------------
// Lock annotations. `lock` identifies the instance; `name` is the
// logical lock used for reporting and as the lock-order graph node
// (instances sharing a name — e.g. every BlobStore shard — collapse
// into one node, and same-name nestings are ignored rather than
// reported as self-cycles). Annotate acquire AFTER the real lock is
// held and release BEFORE it is dropped.
// ------------------------------------------------------------------------

void lock_acquire(const void* lock, std::string_view name);
void lock_release(const void* lock);

/// RAII std::mutex wrapper for the common case: locks, annotates,
/// un-annotates, unlocks. With dcheck off this is lock_guard plus one
/// relaxed load on each edge.
class AnnotatedLock {
 public:
  AnnotatedLock(std::mutex& mu, const char* name) : mu_(&mu) {
    mu_->lock();
    if (enabled()) lock_acquire(mu_, name);
  }
  ~AnnotatedLock() {
    if (enabled()) lock_release(mu_);
    mu_->unlock();
  }
  AnnotatedLock(const AnnotatedLock&) = delete;
  AnnotatedLock& operator=(const AnnotatedLock&) = delete;

 private:
  std::mutex* mu_;
};

// ------------------------------------------------------------------------
// Memory access annotations. `addr` identifies the logical location
// (the guarded structure's address); `name` is what reports show.
// Every pair of annotated accesses to one location where at least one
// is a write must be ordered by happens-before (task edges and/or a
// common lock), else RACE001.
// ------------------------------------------------------------------------

void access_read(const void* addr, std::string_view name);
void access_write(const void* addr, std::string_view name);

// ------------------------------------------------------------------------
// Determinism-audit surface.
// ------------------------------------------------------------------------

/// Records a named occurrence for divergence attribution: the auditor
/// compares per-name counts across runs (a multiset — deliberately
/// order-free, so the comparison itself is schedule-independent).
void event(std::string_view name);
/// Name → count snapshot of every event() since the last clear.
std::vector<std::pair<std::string, std::uint64_t>> event_counts();
void clear_events();

/// The seeded schedule perturbation consumed by
/// util::ThreadPool::parallel_for: a deterministic permutation of
/// 0..n-1 (Fisher–Yates over an xorshift stream keyed by seed and n),
/// or empty when perturbation is off — empty means "iterate 0..n-1",
/// the exact unperturbed path.
std::vector<std::size_t> perturbed_order(std::size_t n);

namespace detail {
/// Flips only the perturbation knobs without clearing detector state —
/// the determinism auditor toggles this between runs of one audit.
void set_perturb(bool on, std::uint64_t seed);
/// Appends a finding through the same dedupe/sort pipeline the
/// detector uses (the determinism auditor reports DET001 this way).
void add_finding(std::string code, std::string object, std::string message);
}  // namespace detail

/// Snapshot of current findings, deduplicated by (code, object) and
/// sorted by (code, object) — byte-stable for identical runs.
CheckReport report();
void clear_findings();

}  // namespace hpcc::dcheck
