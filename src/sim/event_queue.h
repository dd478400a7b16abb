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
// The kernel is a two-level calendar/timer wheel with arena-allocated
// events. Near-term events land in fixed-width buckets (64 simulated
// microseconds each); far-future events park in an overflow wheel
// keyed by window and refill the buckets in batches as the clock
// crosses window boundaries. Callbacks are placement-new'd into a
// bump-pointer EventArena — no per-event heap allocation, no
// std::function type erasure on the hot path. The original binary
// heap survives only as a test-side reference (tests/heap_event_queue.h)
// that the parity checks compare this kernel's (time, seq) order to.
#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/event_arena.h"
#include "util/sim_time.h"

namespace hpcc::sim {

/// Kernel observability (surfaced through obs as sim.events.* /
/// sim.queue.* by publish_stats()).
struct EventQueueStats {
  std::uint64_t executed = 0;         ///< events run since construction
  std::uint64_t scheduled = 0;        ///< events ever scheduled
  std::size_t peak_pending = 0;       ///< high-water pending occupancy
  std::uint64_t bucket_refills = 0;   ///< overflow batches wheeled in
  std::uint64_t overflow_parked = 0;  ///< events that parked far-future
  std::uint64_t wheel_rewinds = 0;    ///< wheel pulled back for an
                                      ///< insert into a skipped window
  std::uint64_t arena_blocks = 0;     ///< arena slabs ever opened
};

class EventQueue {
 public:
  /// `bucket_width` 0 means the default 64 us. Event order is identical
  /// at any width.
  explicit EventQueue(SimDuration bucket_width = 0);
  ~EventQueue();

  // Pending events point into the arena; the queue pins both.
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  SimDuration bucket_width() const { return width_; }

  /// Current simulated time. Starts at 0.
  SimTime now() const { return now_; }

  /// Schedules `fn` at absolute time `t`. Scheduling in the past is an
  /// event-at-now (clamped), never time travel. `fn` is any callable;
  /// it is stored in the arena without type erasure.
  template <class F>
  void schedule_at(SimTime t, F&& fn) {
    if (t < now_) t = now_;
    using Fn = std::decay_t<F>;
    const auto a = arena_.allocate(kPayloadOffset + sizeof(Fn));
    auto* n = new (a.ptr) EventNode{t, next_seq_++, &invoke_thunk<Fn>,
                                    &destroy_thunk<Fn>, a.block};
    new (payload_of(n)) Fn(std::forward<F>(fn));
    insert_calendar(n);
    ++stats_.scheduled;
    if (++pending_ > stats_.peak_pending) stats_.peak_pending = pending_;
  }

  /// Schedules `fn` `delay` microseconds from now. A delay that would
  /// overflow SimTime clamps to the far end of simulated time instead
  /// of wrapping into the past.
  template <class F>
  void schedule_after(SimDuration delay, F&& fn) {
    if (delay < 0) delay = 0;
    const SimTime t = delay > std::numeric_limits<SimTime>::max() - now_
                          ? std::numeric_limits<SimTime>::max()
                          : now_ + delay;
    schedule_at(t, std::forward<F>(fn));
  }

  /// Burst pre-sizing: guarantees arena capacity for `events` more
  /// typical schedules without opening new slabs. Used ahead of wlm/k8s
  /// job-submission and trace fan-outs.
  void reserve(std::size_t events);

  /// Runs the single next event. Returns false if the queue is empty.
  bool step();

  /// Runs events until the queue is empty.
  void run();

  /// Runs events with time <= `t`, then sets the clock to `t` (even if
  /// no event landed exactly there). Returns the number of events run.
  std::size_t run_until(SimTime t);

  bool empty() const { return pending_ == 0; }
  std::size_t pending() const { return pending_; }

  /// Total events executed since construction (observability for tests).
  std::uint64_t executed() const { return stats_.executed; }

  /// Kernel counters snapshot.
  EventQueueStats stats() const;

  /// Pushes the counters into the global obs registry (sim.events.*,
  /// sim.queue.*) when metrics are enabled; deltas since the last
  /// publish, so repeated calls never double-count.
  void publish_stats();

 private:
  struct EventNode {
    SimTime time;
    std::uint64_t seq;
    void (*invoke)(void*);
    void (*destroy)(void*);
    std::uint32_t block;
  };
  static constexpr std::size_t kPayloadOffset =
      (sizeof(EventNode) + alignof(std::max_align_t) - 1) &
      ~(alignof(std::max_align_t) - 1);
  static void* payload_of(EventNode* n) {
    return reinterpret_cast<std::byte*>(n) + kPayloadOffset;
  }
  template <class Fn>
  static void invoke_thunk(void* p) {
    (*static_cast<Fn*>(p))();
  }
  template <class Fn>
  static void destroy_thunk(void* p) {
    static_cast<Fn*>(p)->~Fn();
  }

  struct Bucket {
    std::vector<EventNode*> ev;
    std::size_t cursor = 0;  ///< consumed prefix
    bool sorted = false;     ///< suffix [cursor, end) in (time, seq) order
  };

  std::uint64_t abs_bucket(SimTime t) const {
    return static_cast<std::uint64_t>(t) / static_cast<std::uint64_t>(width_);
  }

  void insert_calendar(EventNode* n);
  /// Positions the wheel at the next pending event (sorting its bucket,
  /// refilling from overflow as needed) without running it.
  EventNode* locate_next();
  void load_window(std::uint64_t w);
  void rewind_to(std::uint64_t w);
  void run_event(EventNode* n);

  static constexpr std::size_t kNumBuckets = 2048;
  /// Nominal per-event arena footprint reserve() assumes (header plus a
  /// typical capture of a few words).
  static constexpr std::size_t kReservedEventBytes = 128;

  SimDuration width_;  ///< bucket width in simulated us

  // The wheel covers window `wheel_window_` (absolute
  // bucket range [w * kNumBuckets, (w+1) * kNumBuckets)); `cursor_` is
  // the scan position inside it. Everything later parks in overflow_,
  // batched per window.
  EventArena arena_;
  std::vector<Bucket> buckets_;
  std::uint64_t wheel_window_ = 0;
  std::size_t cursor_ = 0;
  std::size_t wheel_count_ = 0;
  std::map<std::uint64_t, std::vector<EventNode*>> overflow_;

  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::size_t pending_ = 0;
  EventQueueStats stats_;
  EventQueueStats published_;
};

}  // namespace hpcc::sim
