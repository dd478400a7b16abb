// hpcc/util/thread_pool.h
//
// The execution layer behind hpcc's parallel pull/unpack pipeline: a
// real std::thread pool with a bounded task queue, futures, and a
// parallel_for/map helper (see DESIGN.md §7 and §12).
//
// The survey frames container startup as a CPU-vs-IO trade — single-file
// images "trade memory and CPU (decompression) for disk IO" (§3.2) — and
// the CPU side (per-layer digest verification, per-block LZSS codec
// work) is embarrassingly parallel. Call sites take a `ThreadPool*` that
// may be null: null means sequential execution, and every parallelized
// path is required to produce byte-identical results either way (the
// determinism contract; simulated SimTime costs never depend on the
// pool).
//
// parallel_for is a work-stealing scheduler (DESIGN.md §12): each
// participant (every worker plus the caller) is seeded with a
// contiguous chunk of the index space in a per-participant RangeDeque;
// participants pop grain-sized chunks from their own deque and steal
// half-ranges from victims when empty. Chunked dispatch amortizes the
// per-iteration `std::function` call; stealing keeps every core busy
// when one giant layer sits among small ones.
//
// fn(i) runs for every i exactly once, and callers assemble results by
// index, so outputs are byte-identical regardless of steal schedule or
// thread count.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

#include "dcheck/dcheck.h"

namespace hpcc::util {

class ThreadPool {
 public:
  /// Starts `threads` workers (0 = default_threads()). `queue_capacity`
  /// bounds the task queue; submit() blocks when it is full
  /// (backpressure instead of unbounded memory growth). 0 picks a
  /// capacity proportional to the worker count.
  explicit ThreadPool(unsigned threads = 0, std::size_t queue_capacity = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  unsigned size() const { return static_cast<unsigned>(workers_.size()); }

  /// Submits a task; returns its future. Blocks while the queue is at
  /// capacity. Must not be called from a pool worker whose queue may be
  /// full (use parallel_for for nested parallelism — it degrades to
  /// inline execution on worker threads instead of deadlocking).
  template <typename Fn>
  auto submit(Fn&& fn) -> std::future<std::invoke_result_t<Fn>> {
    using R = std::invoke_result_t<Fn>;
    auto task =
        std::make_shared<std::packaged_task<R()>>(std::forward<Fn>(fn));
    std::future<R> fut = task->get_future();
    enqueue([task] { (*task)(); });
    return fut;
  }

  /// Runs fn(0..n-1), blocking until all iterations complete. The
  /// calling thread participates, so throughput is size()+1 workers.
  /// Iteration order is unspecified; iterations must be independent.
  /// Safe to call from a pool worker (runs inline there).
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

  /// parallel_for that collects fn(i) into a vector in index order.
  template <typename T>
  std::vector<T> map(std::size_t n, const std::function<T(std::size_t)>& fn) {
    std::vector<T> out(n);
    parallel_for(n, [&](std::size_t i) { out[i] = fn(i); });
    return out;
  }

  /// Cumulative stealing-scheduler telemetry (wall-clock plane only —
  /// never feeds simulated time or functional outputs).
  struct StealStats {
    std::uint64_t steals = 0;  ///< successful half-range steals
    std::uint64_t chunks = 0;  ///< grain chunks executed
    /// Per-slot busy nanoseconds: slot w < size() is worker w, the last
    /// slot is the participating caller.
    std::vector<std::uint64_t> busy_ns;
  };
  StealStats steal_stats() const;
  void reset_steal_stats();

  /// HPCC_THREADS env override, else std::thread::hardware_concurrency.
  static unsigned default_threads();
  /// Chunk grain for the stealing scheduler: n / (participants * 8),
  /// clamped to [1, 4096] — small enough that a straggler's remaining
  /// work stays stealable, large enough to amortize dispatch over tiny
  /// per-block tasks.
  static std::size_t grain_for(std::size_t n, std::size_t participants);

 private:
  void enqueue(std::function<void()> task);
  void worker_loop(unsigned worker_index);

  mutable std::mutex mu_;
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
  std::deque<std::function<void()>> queue_;
  std::size_t capacity_;
  bool stop_ = false;
  std::vector<std::thread> workers_;

  std::atomic<std::uint64_t> steals_{0};
  std::atomic<std::uint64_t> chunks_{0};
  /// size()+1 slots (workers + caller); unique_ptr keeps the atomics at
  /// stable addresses.
  std::vector<std::unique_ptr<std::atomic<std::uint64_t>>> busy_ns_;
};

/// Pool-optional parallel loop: runs on `pool` when one is provided,
/// inline otherwise. This is the helper the pull/convert/squash hot
/// paths use so that a null pool means the exact sequential code path.
/// The inline path honors the dcheck schedule perturbation too, so the
/// determinism auditor exercises poolless call sites as well.
inline void parallel_for(ThreadPool* pool, std::size_t n,
                         const std::function<void(std::size_t)>& fn) {
  if (pool != nullptr && pool->size() > 0 && n > 1) {
    pool->parallel_for(n, fn);
    return;
  }
  if (dcheck::enabled()) {
    const auto order = dcheck::perturbed_order(n);
    if (!order.empty()) {
      for (std::size_t i = 0; i < n; ++i) fn(order[i]);
      return;
    }
  }
  for (std::size_t i = 0; i < n; ++i) fn(i);
}

}  // namespace hpcc::util
