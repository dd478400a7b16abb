// tests/heap_event_queue.h
//
// The binary-heap DES kernel sim::EventQueue started as, kept only as
// the reference the calendar kernel is checked against (DESIGN.md §13):
// the EventQueueParity tests, bench_fleet's events/sec ratio and
// fleet-parity gates, and the hpcc-dcheck sweep's fleet cross-check.
// No library compiles it. Same API subset and the same contract as
// sim::EventQueue: events run in (time, seq) order, ties break by
// insertion order, past times clamp to now.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <utility>
#include <vector>

#include "sim/event_queue.h"
#include "util/sim_time.h"

namespace hpcc::sim {

class HeapEventQueue {
 public:
  using Callback = std::function<void()>;

  SimTime now() const { return now_; }

  template <class F>
  void schedule_at(SimTime t, F&& fn) {
    if (t < now_) t = now_;
    // Doubling via reserve keeps scheduling bursts (a fan-out scheduling
    // hundreds of arrivals at once) from reallocating on every few
    // pushes; push_heap then only swaps Events along one root path.
    if (heap_.size() == heap_.capacity())
      heap_.reserve(heap_.empty() ? 16 : heap_.size() * 2);
    heap_.push_back(Event{t, next_seq_++, Callback(std::forward<F>(fn))});
    std::push_heap(heap_.begin(), heap_.end(), Later{});
    ++stats_.scheduled;
    if (heap_.size() > stats_.peak_pending) stats_.peak_pending = heap_.size();
  }

  template <class F>
  void schedule_after(SimDuration delay, F&& fn) {
    if (delay < 0) delay = 0;
    const SimTime t = delay > std::numeric_limits<SimTime>::max() - now_
                          ? std::numeric_limits<SimTime>::max()
                          : now_ + delay;
    schedule_at(t, std::forward<F>(fn));
  }

  void reserve(std::size_t events) { heap_.reserve(heap_.size() + events); }

  void run() {
    while (!heap_.empty()) run_next();
  }

  std::size_t run_until(SimTime t) {
    std::size_t n = 0;
    while (!heap_.empty() && heap_.front().time <= t) {
      run_next();
      ++n;
    }
    if (now_ < t) now_ = t;
    return n;
  }

  std::uint64_t executed() const { return stats_.executed; }
  /// executed, scheduled and peak_pending; the calendar-only counters
  /// stay zero.
  EventQueueStats stats() const { return stats_; }

 private:
  struct Event {
    SimTime time;
    std::uint64_t seq;
    Callback fn;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  void run_next() {
    // pop_heap parks the next event at the back, where it is ours by
    // value — the Callback moves out instead of copying.
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    Event ev = std::move(heap_.back());
    heap_.pop_back();
    now_ = ev.time;
    ++stats_.executed;
    ev.fn();
  }

  std::vector<Event> heap_;
  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  EventQueueStats stats_;
};

}  // namespace hpcc::sim
