#include "sim/event_queue.h"

#include <algorithm>

#include "obs/obs.h"

namespace hpcc::sim {

namespace {
constexpr SimDuration kDefaultBucketUs = 64;
}  // namespace

EventQueue::EventQueue(SimDuration bucket_width)
    : width_(bucket_width > 0 ? bucket_width : kDefaultBucketUs),
      buckets_(kNumBuckets) {}

EventQueue::~EventQueue() {
  // Pending payloads own resources (captured shared_ptrs, strings); run
  // their destructors without invoking them.
  for (auto& b : buckets_) {
    for (std::size_t i = b.cursor; i < b.ev.size(); ++i)
      b.ev[i]->destroy(payload_of(b.ev[i]));
  }
  for (auto& [w, vec] : overflow_) {
    for (EventNode* n : vec) n->destroy(payload_of(n));
  }
}

void EventQueue::insert_calendar(EventNode* n) {
  const std::uint64_t ab = abs_bucket(n->time);
  const std::uint64_t w = ab / kNumBuckets;
  if (w > wheel_window_) {
    overflow_[w].push_back(n);
    ++stats_.overflow_parked;
    return;
  }
  if (w < wheel_window_) {
    // The wheel skipped ahead (locate_next jumped an empty gap, then
    // run_until stopped the clock inside it); pull it back so the new
    // event keeps its place in the global (time, seq) order.
    rewind_to(w);
  }
  const std::size_t b = static_cast<std::size_t>(ab % kNumBuckets);
  Bucket& bucket = buckets_[b];
  ++wheel_count_;
  if (b == cursor_ && bucket.sorted) {
    // Mid-consumption insert (an event scheduling into its own bucket):
    // keep the unconsumed suffix ordered. The new event carries the
    // largest seq, so among equal times it lands last — exactly the
    // heap's tie-break.
    const auto pos = std::lower_bound(
        bucket.ev.begin() + static_cast<std::ptrdiff_t>(bucket.cursor),
        bucket.ev.end(), n, [](const EventNode* a, const EventNode* e) {
          if (a->time != e->time) return a->time < e->time;
          return a->seq < e->seq;
        });
    bucket.ev.insert(pos, n);
  } else {
    bucket.ev.push_back(n);
    bucket.sorted = false;
    // The scan may already have walked past this (then-empty) bucket.
    if (b < cursor_) cursor_ = b;
  }
}

void EventQueue::load_window(std::uint64_t w) {
  wheel_window_ = w;
  cursor_ = 0;
  const auto it = overflow_.find(w);
  if (it == overflow_.end()) return;
  for (EventNode* n : it->second) {
    Bucket& b =
        buckets_[static_cast<std::size_t>(abs_bucket(n->time) % kNumBuckets)];
    b.ev.push_back(n);
    // A bucket the previous window consumed to the end keeps sorted=true
    // (the scan only resets buckets it advances past); refilled events
    // arrive in seq order, not (time, seq) order, so the suffix must be
    // re-sorted before consumption.
    b.sorted = false;
  }
  wheel_count_ += it->second.size();
  overflow_.erase(it);
  ++stats_.bucket_refills;
}

void EventQueue::rewind_to(std::uint64_t w) {
  if (wheel_count_ > 0) {
    auto& dst = overflow_[wheel_window_];
    for (auto& b : buckets_) {
      for (std::size_t i = b.cursor; i < b.ev.size(); ++i)
        dst.push_back(b.ev[i]);
      b.ev.clear();
      b.cursor = 0;
      b.sorted = false;
    }
    wheel_count_ = 0;
  } else {
    for (auto& b : buckets_) {
      b.ev.clear();
      b.cursor = 0;
      b.sorted = false;
    }
  }
  ++stats_.wheel_rewinds;
  load_window(w);
}

EventQueue::EventNode* EventQueue::locate_next() {
  while (true) {
    while (wheel_count_ > 0) {
      Bucket& b = buckets_[cursor_];
      if (b.cursor < b.ev.size()) {
        if (!b.sorted) {
          std::sort(b.ev.begin() + static_cast<std::ptrdiff_t>(b.cursor),
                    b.ev.end(), [](const EventNode* x, const EventNode* y) {
                      if (x->time != y->time) return x->time < y->time;
                      return x->seq < y->seq;
                    });
          b.sorted = true;
        }
        return b.ev[b.cursor];
      }
      b.ev.clear();
      b.cursor = 0;
      b.sorted = false;
      ++cursor_;
    }
    if (overflow_.empty()) return nullptr;
    load_window(overflow_.begin()->first);
  }
}

void EventQueue::run_event(EventNode* n) {
  // All pop bookkeeping happens before the callback runs: the callback
  // may schedule (growing the arena, rewinding the wheel) freely.
  Bucket& b = buckets_[cursor_];
  ++b.cursor;
  --wheel_count_;
  --pending_;
  now_ = n->time;
  ++stats_.executed;
  void* p = payload_of(n);
  n->invoke(p);
  n->destroy(p);
  arena_.release(n->block);
}

void EventQueue::reserve(std::size_t events) {
  arena_.reserve_bytes(events * kReservedEventBytes);
}

bool EventQueue::step() {
  EventNode* n = locate_next();
  if (n == nullptr) return false;
  run_event(n);
  return true;
}

void EventQueue::run() {
  while (step()) {
  }
}

std::size_t EventQueue::run_until(SimTime t) {
  std::size_t n = 0;
  while (EventNode* e = locate_next()) {
    if (e->time > t) break;
    run_event(e);
    ++n;
  }
  if (now_ < t) now_ = t;
  return n;
}

EventQueueStats EventQueue::stats() const {
  EventQueueStats s = stats_;
  s.arena_blocks = arena_.blocks_opened();
  return s;
}

void EventQueue::publish_stats() {
  if (!obs::metrics_enabled()) return;
  const EventQueueStats s = stats();
  auto& m = obs::metrics();
  m.counter("sim.events.executed").add(s.executed - published_.executed);
  m.counter("sim.events.scheduled").add(s.scheduled - published_.scheduled);
  m.counter("sim.queue.bucket_refills")
      .add(s.bucket_refills - published_.bucket_refills);
  m.counter("sim.queue.overflow_parked")
      .add(s.overflow_parked - published_.overflow_parked);
  auto& peak = m.gauge("sim.events.peak_pending");
  if (static_cast<std::int64_t>(s.peak_pending) > peak.value())
    peak.set(static_cast<std::int64_t>(s.peak_pending));
  published_ = s;
}

}  // namespace hpcc::sim
