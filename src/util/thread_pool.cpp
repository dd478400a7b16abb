#include "util/thread_pool.h"

#include <algorithm>
#include <chrono>
#include <memory>

#include "obs/obs.h"
#include "util/env.h"
#include "util/work_deque.h"

namespace hpcc::util {

namespace {
// Set while a thread is executing pool tasks; nested parallel_for on a
// worker runs inline instead of re-entering the (bounded) queue.
thread_local bool tls_in_pool_worker = false;
// The executing worker's index, for per-worker busy attribution in the
// stealing scheduler. kCallerSlot = "not a pool worker" (the caller).
constexpr unsigned kCallerSlot = 0xffffffffu;
thread_local unsigned tls_worker_index = kCallerSlot;

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}
}  // namespace

unsigned ThreadPool::default_threads() {
  const std::uint64_t v = env_uint("HPCC_THREADS", 0, 1, 4096);
  if (v > 0) return static_cast<unsigned>(v);
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

std::size_t ThreadPool::grain_for(std::size_t n, std::size_t participants) {
  if (participants == 0) participants = 1;
  return std::clamp<std::size_t>(n / (participants * 8), 1, 4096);
}

ThreadPool::ThreadPool(unsigned threads, std::size_t queue_capacity) {
  if (threads == 0) threads = default_threads();
  capacity_ = queue_capacity == 0 ? 2 * threads + 16 : queue_capacity;
  workers_.reserve(threads);
  busy_ns_.reserve(threads + 1);
  for (unsigned i = 0; i < threads + 1; ++i)
    busy_ns_.push_back(std::make_unique<std::atomic<std::uint64_t>>(0));
  for (unsigned i = 0; i < threads; ++i)
    workers_.emplace_back([this, i] { worker_loop(i); });
}

ThreadPool::~ThreadPool() {
  {
    std::scoped_lock lk(mu_);
    stop_ = true;
  }
  not_empty_.notify_all();
  not_full_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::enqueue(std::function<void()> task) {
  // Pool work is functional-plane only (no sim time), so the pool gets
  // counters but never spans: counts are order-free under concurrency,
  // span interleavings would not be.
  obs::count("pool.submitted");
  {
    std::unique_lock lk(mu_);
    not_full_.wait(lk, [this] { return stop_ || queue_.size() < capacity_; });
    if (stop_) return;  // shutting down; the task's future stays unready
    queue_.push_back(std::move(task));
  }
  not_empty_.notify_one();
}

void ThreadPool::worker_loop(unsigned worker_index) {
  tls_in_pool_worker = true;
  tls_worker_index = worker_index;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock lk(mu_);
      not_empty_.wait(lk, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ set and nothing left to drain
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    not_full_.notify_one();
    task();
    obs::count("pool.tasks");
  }
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  if (obs::metrics_enabled()) {
    obs::metrics().counter("pool.parallel_for").add(1);
    obs::metrics().counter("pool.parallel_for_items").add(n);
  }
  // Under the dcheck determinism auditor, iterate a seeded shuffle of
  // the index space instead of 0..n-1: a workload honoring the §7
  // contract is byte-identical either way, one that leaked iteration
  // order into its output diverges and gets flagged (DET001). An empty
  // order (dcheck off, or perturbation off) is the identity — the
  // exact pre-dcheck loop.
  std::shared_ptr<const std::vector<std::size_t>> order;
  if (dcheck::enabled()) {
    auto perm = dcheck::perturbed_order(n);
    if (!perm.empty())
      order = std::make_shared<const std::vector<std::size_t>>(std::move(perm));
  }
  if (n == 1 || workers_.empty() || tls_in_pool_worker) {
    for (std::size_t i = 0; i < n; ++i) fn(order ? (*order)[i] : i);
    return;
  }
  // One participant per worker plus the caller, each seeded with a
  // contiguous chunk of the index space in its own deque. Participants
  // pop grain-sized chunks locally and steal half-ranges from victims
  // when empty, so a straggler's untouched tail keeps getting split
  // across the idle participants instead of serializing behind it.
  //
  // Determinism: each index runs exactly once (ranges only ever
  // partition), callers assemble outputs by index, and the perturbed
  // order (when the dcheck auditor is on) is applied per-index — so the
  // steal schedule can never reach the output bytes.
  struct StealContext {
    std::vector<RangeDeque> deques;
    std::size_t parts = 0;
    std::size_t grain = 1;
  };
  const std::size_t parts = std::min<std::size_t>(workers_.size() + 1, n);
  auto ctx = std::make_shared<StealContext>();
  ctx->parts = parts;
  ctx->grain = grain_for(n, parts);
  ctx->deques = std::vector<RangeDeque>(parts);
  // Participant p is seeded with [p*n/parts, (p+1)*n/parts): the same
  // contiguous partition a static scheduler would use, but stealable.
  for (std::size_t p = 0; p < parts; ++p) {
    ctx->deques[p].push(IndexRange{p * n / parts, (p + 1) * n / parts});
  }

  const std::uint64_t hb = dcheck::enabled() ? dcheck::hb_spawn() : 0;
  auto run = [ctx, &fn, order, hb, this](std::size_t p) {
    if (hb != 0) dcheck::hb_task_begin(hb);
    std::uint64_t busy = 0, chunks = 0, steals = 0;
    IndexRange r;
    for (;;) {
      if (ctx->deques[p].pop(ctx->grain, &r)) {
        const std::uint64_t t0 = now_ns();
        for (std::size_t i = r.begin; i < r.end; ++i)
          fn(order ? (*order)[i] : i);
        busy += now_ns() - t0;
        ++chunks;
        continue;
      }
      // Deterministic victim scan: cyclically, starting just after p.
      bool stole = false;
      for (std::size_t k = 1; k < ctx->parts && !stole; ++k) {
        stole = ctx->deques[(p + k) % ctx->parts].steal(&r);
      }
      if (!stole) break;  // every deque drained; in-flight chunks finish
      ++steals;
      ctx->deques[p].push(r);
    }

    const unsigned slot = tls_worker_index == kCallerSlot
                              ? static_cast<unsigned>(workers_.size())
                              : tls_worker_index;
    busy_ns_[slot]->fetch_add(busy, std::memory_order_relaxed);
    chunks_.fetch_add(chunks, std::memory_order_relaxed);
    if (steals > 0) {
      steals_.fetch_add(steals, std::memory_order_relaxed);
      obs::count("pool.steals", steals);
    }
    if (hb != 0) dcheck::hb_task_end(hb);
  };

  std::vector<std::future<void>> futs;
  futs.reserve(parts - 1);
  for (std::size_t p = 1; p < parts; ++p)
    futs.push_back(submit([run, p] { run(p); }));

  std::exception_ptr first_error;
  try {
    run(0);  // the caller is participant 0
  } catch (...) {
    first_error = std::current_exception();
  }
  for (auto& f : futs) {
    try {
      f.get();
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
    }
  }
  if (hb != 0) dcheck::hb_join(hb);
  if (first_error) std::rethrow_exception(first_error);
}

ThreadPool::StealStats ThreadPool::steal_stats() const {
  StealStats out;
  out.steals = steals_.load(std::memory_order_relaxed);
  out.chunks = chunks_.load(std::memory_order_relaxed);
  out.busy_ns.reserve(busy_ns_.size());
  for (const auto& b : busy_ns_)
    out.busy_ns.push_back(b->load(std::memory_order_relaxed));
  return out;
}

void ThreadPool::reset_steal_stats() {
  steals_.store(0, std::memory_order_relaxed);
  chunks_.store(0, std::memory_order_relaxed);
  for (auto& b : busy_ns_) b->store(0, std::memory_order_relaxed);
}

}  // namespace hpcc::util
