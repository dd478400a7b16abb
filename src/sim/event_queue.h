// hpcc/sim/event_queue.h
//
// The discrete-event simulation (DES) kernel.
//
// Everything architectural in this reproduction — container cold starts,
// shared-filesystem contention, WLM scheduling, Kubernetes pod placement
// (Figure 1), fleet-scale registry pulls — runs on one logical clock
// advanced by this queue. Events are (time, sequence, callback) tuples;
// ties in time break by insertion order, which makes every simulation
// fully deterministic (DESIGN.md §5, §13).
//
// The kernel is a binary heap: a std::vector of events kept in
// (time, seq) order by std::push_heap / std::pop_heap.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "util/sim_time.h"

namespace hpcc::sim {

/// Kernel observability (surfaced through obs as sim.events.* by
/// publish_stats()).
struct EventQueueStats {
  std::uint64_t executed = 0;    ///< events run since construction
  std::uint64_t scheduled = 0;   ///< events ever scheduled
  std::size_t peak_pending = 0;  ///< high-water pending occupancy
};

class EventQueue {
 public:
  using Callback = std::function<void()>;

  EventQueue() = default;

  // Pending callbacks hold the queue's address; it stays put.
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  /// Current simulated time. Starts at 0.
  SimTime now() const { return now_; }

  /// Schedules `fn` at absolute time `t`. Scheduling in the past is an
  /// event-at-now (clamped), never time travel.
  void schedule_at(SimTime t, Callback fn);

  /// Schedules `fn` `delay` microseconds from now. A negative delay
  /// clamps to now; a delay that would overflow SimTime clamps to the
  /// far end of simulated time instead of wrapping into the past.
  void schedule_after(SimDuration delay, Callback fn);

  /// Burst pre-sizing: room for `events` more pending events without
  /// reallocating. Used ahead of wlm/k8s job-submission and trace
  /// fan-outs.
  void reserve(std::size_t events) { heap_.reserve(heap_.size() + events); }

  /// Events the heap has room for without reallocating.
  std::size_t capacity() const { return heap_.capacity(); }

  /// Runs the single next event. Returns false if the queue is empty.
  bool step();

  /// Runs events until the queue is empty.
  void run();

  /// Runs events with time <= `t`, then sets the clock to `t` (even if
  /// no event landed exactly there). Returns the number of events run.
  std::size_t run_until(SimTime t);

  bool empty() const { return heap_.empty(); }
  std::size_t pending() const { return heap_.size(); }

  /// Total events executed since construction (observability for tests).
  std::uint64_t executed() const { return stats_.executed; }

  /// Kernel counters snapshot.
  EventQueueStats stats() const { return stats_; }

  /// Pushes the counters into the global obs registry (sim.events.*)
  /// when metrics are enabled; deltas since the last publish, so
  /// repeated calls never double-count.
  void publish_stats();

 private:
  struct Event {
    SimTime time;
    std::uint64_t seq;
    Callback fn;
  };
  struct Later;

  void run_next();

  std::vector<Event> heap_;
  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  EventQueueStats stats_;
  EventQueueStats published_;
};

}  // namespace hpcc::sim
