#include "sim/event_queue.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "obs/obs.h"

namespace hpcc::sim {

/// std::push_heap keeps the greatest element on top; "greater" here
/// means later, so the top is the least (time, seq).
struct EventQueue::Later {
  bool operator()(const Event& a, const Event& b) const {
    if (a.time != b.time) return a.time > b.time;
    return a.seq > b.seq;
  }
};

void EventQueue::schedule_at(SimTime t, Callback fn) {
  if (t < now_) t = now_;
  heap_.push_back(Event{t, next_seq_++, std::move(fn)});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
  ++stats_.scheduled;
  if (heap_.size() > stats_.peak_pending) stats_.peak_pending = heap_.size();
}

void EventQueue::schedule_after(SimDuration delay, Callback fn) {
  // A negative delay lands in the past and schedule_at clamps it.
  const SimTime t = delay > std::numeric_limits<SimTime>::max() - now_
                        ? std::numeric_limits<SimTime>::max()
                        : now_ + delay;
  schedule_at(t, std::move(fn));
}

void EventQueue::run_next() {
  // pop_heap parks the next event at the back, where it is ours by
  // value: the callback moves out before it runs, so it may schedule
  // (and grow the heap) freely.
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  Event ev = std::move(heap_.back());
  heap_.pop_back();
  now_ = ev.time;
  ++stats_.executed;
  ev.fn();
}

bool EventQueue::step() {
  if (heap_.empty()) return false;
  run_next();
  return true;
}

void EventQueue::run() {
  while (!heap_.empty()) run_next();
}

std::size_t EventQueue::run_until(SimTime t) {
  std::size_t n = 0;
  while (!heap_.empty() && heap_.front().time <= t) {
    run_next();
    ++n;
  }
  if (now_ < t) now_ = t;
  return n;
}

void EventQueue::publish_stats() {
  if (!obs::metrics_enabled()) return;
  auto& m = obs::metrics();
  m.counter("sim.events.executed").add(stats_.executed - published_.executed);
  m.counter("sim.events.scheduled")
      .add(stats_.scheduled - published_.scheduled);
  auto& peak = m.gauge("sim.events.peak_pending");
  if (static_cast<std::int64_t>(stats_.peak_pending) > peak.value())
    peak.set(static_cast<std::int64_t>(stats_.peak_pending));
  published_ = stats_;
}

}  // namespace hpcc::sim
