// Unit tests for hpcc_sim: DES kernel ordering, FIFO station queueing,
// rate limiting, storage contention, page cache LRU, network transfer
// (including the §3.2 overlay-network penalty) and cluster
// reprovisioning.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "sim/cluster.h"
#include "sim/event_queue.h"
#include "sim/network.h"
#include "sim/resource.h"
#include "sim/storage.h"

namespace hpcc::sim {
namespace {

// ------------------------------------------------------------ EventQueue

TEST(EventQueueTest, RunsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule_at(30, [&] { order.push_back(3); });
  q.schedule_at(10, [&] { order.push_back(1); });
  q.schedule_at(20, [&] { order.push_back(2); });
  q.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(q.now(), 30);
  EXPECT_EQ(q.executed(), 3u);
}

TEST(EventQueueTest, TiesBreakByInsertionOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) q.schedule_at(100, [&order, i] { order.push_back(i); });
  q.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueueTest, SchedulingInThePastClampsToNow) {
  EventQueue q;
  SimTime fired_at = -1;
  q.schedule_at(50, [&] {
    q.schedule_at(10, [&] { fired_at = q.now(); });  // in the past
  });
  q.run();
  EXPECT_EQ(fired_at, 50);
}

TEST(EventQueueTest, EventsMayScheduleMoreEvents) {
  EventQueue q;
  int count = 0;
  std::function<void()> chain = [&] {
    if (++count < 10) q.schedule_after(5, chain);
  };
  q.schedule_at(0, chain);
  q.run();
  EXPECT_EQ(count, 10);
  EXPECT_EQ(q.now(), 45);
}

TEST(EventQueueTest, RunUntilAdvancesClockWithoutEvents) {
  EventQueue q;
  int fired = 0;
  q.schedule_at(10, [&] { ++fired; });
  q.schedule_at(100, [&] { ++fired; });
  const auto n = q.run_until(50);
  EXPECT_EQ(n, 1u);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(q.now(), 50);
  EXPECT_EQ(q.pending(), 1u);
}

TEST(EventQueueTest, StepReturnsFalseWhenEmpty) {
  EventQueue q;
  EXPECT_FALSE(q.step());
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueTest, BurstScheduleRunsInDeterministicOrder) {
  // A fan-out burst (the shape the heap's backing vector reserves for)
  // interleaving three time bands with same-time ties: execution must
  // be time-ascending, insertion-ordered within a tie — the exact
  // total order the priority_queue-based implementation produced.
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 300; ++i) {
    const SimTime t = (i % 3) * 100;
    q.schedule_at(t, [&order, i] { order.push_back(i); });
  }
  q.run();
  ASSERT_EQ(order.size(), 300u);
  for (std::size_t k = 1; k < order.size(); ++k) {
    const int a = order[k - 1], b = order[k];
    EXPECT_LT(a % 3, b % 3 + 1);          // time bands ascend
    if (a % 3 == b % 3) {
      EXPECT_LT(a, b);  // ties keep insertion order
    }
  }
  EXPECT_EQ(q.executed(), 300u);
}

TEST(EventQueueTest, StepMovesCallbackOutOfTheHeap) {
  // The callback owns a move-only resource; step() must move it out of
  // the heap storage rather than copy (std::function requires copyable
  // targets, so the move-only payload rides behind a shared_ptr whose
  // use_count exposes whether the heap kept a copy alive at call time).
  EventQueue q;
  auto payload = std::make_shared<int>(7);
  std::weak_ptr<int> watch = payload;
  long use_at_call = -1;
  q.schedule_at(5, [payload, &use_at_call] {
    use_at_call = payload.use_count();
  });
  payload.reset();
  EXPECT_TRUE(q.step());
  // Only the in-flight (moved-out) callback held the payload: the heap
  // slot was vacated before the call, not copied-and-kept.
  EXPECT_EQ(use_at_call, 1);
  EXPECT_TRUE(watch.expired());
}

TEST(EventQueueTest, ScheduleAfterOverflowClampsToMax) {
  EventQueue q;
  q.schedule_at(100, [] {});
  q.run();  // now = 100: any max-delay add would wrap
  SimTime fired_at = -1;
  q.schedule_after(std::numeric_limits<SimDuration>::max(),
                   [&] { fired_at = q.now(); });
  q.run();
  EXPECT_EQ(fired_at, std::numeric_limits<SimTime>::max());
}

TEST(EventQueueTest, NegativeDelayClampsToNow) {
  EventQueue q;
  q.schedule_at(50, [] {});
  q.run();
  SimTime fired_at = -1;
  q.schedule_after(-100, [&] { fired_at = q.now(); });
  q.run();
  EXPECT_EQ(fired_at, 50);
}

TEST(EventQueueTest, ReservePresizesHeapStorage) {
  EventQueue q;
  q.reserve(500);
  const std::size_t reserved = q.capacity();
  EXPECT_GE(reserved, 500u);
  std::vector<int> order;
  for (int i = 0; i < 500; ++i)
    q.schedule_at(i / 7, [&order, i] { order.push_back(i); });
  EXPECT_EQ(q.capacity(), reserved);  // filling never reallocated
  q.run();
  ASSERT_EQ(order.size(), 500u);
  for (int i = 0; i < 500; ++i) EXPECT_EQ(order[i], i);
}

TEST(EventQueueTest, InsertBehindSkippedWindowKeepsOrder) {
  // run_until() stops the clock in an empty gap before the next event;
  // an insert at `now` lands inside that gap and must still run first.
  EventQueue q;
  std::vector<int> order;
  q.schedule_at(3 * 2048, [&] { order.push_back(2); });
  q.run_until(2 * 2048 + 10);
  q.schedule_at(q.now(), [&] { order.push_back(1); });
  q.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(EventQueueTest, StatsCountSchedulingAndOverflow) {
  EventQueue q;
  q.schedule_at(10, [] {});
  q.schedule_at(3 * 64 * 2048, [] {});
  EventQueueStats s = q.stats();
  EXPECT_EQ(s.scheduled, 2u);
  EXPECT_EQ(s.peak_pending, 2u);
  q.run();
  s = q.stats();
  EXPECT_EQ(s.executed, 2u);
}

// ------------------------------------------------------ order oracle

/// xorshift64: deterministic, impl-independent schedule generator.
struct Rng {
  std::uint64_t s;
  std::uint64_t next() {
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    return s;
  }
};

/// The kernel's order contract written the slowest obvious way: pending
/// events sit in a plain vector and the least (time, seq) is found by a
/// linear scan. The clamps are EventQueue's: a past time runs at now,
/// and run_until leaves the clock at its bound.
class ReferenceQueue {
 public:
  SimTime now() const { return now_; }
  std::uint64_t executed() const { return executed_; }

  void schedule_at(SimTime t, std::function<void()> fn) {
    pending_.push_back(Event{std::max(t, now_), next_seq_++, std::move(fn)});
  }

  void run() {
    while (!pending_.empty()) run_least();
  }

  std::size_t run_until(SimTime t) {
    std::size_t n = 0;
    while (!pending_.empty() && pending_[least()].time <= t) {
      run_least();
      ++n;
    }
    if (now_ < t) now_ = t;
    return n;
  }

 private:
  struct Event {
    SimTime time;
    std::uint64_t seq;
    std::function<void()> fn;
  };

  std::size_t least() const {
    std::size_t best = 0;
    for (std::size_t i = 1; i < pending_.size(); ++i) {
      const Event& e = pending_[i];
      const Event& b = pending_[best];
      if (e.time < b.time || (e.time == b.time && e.seq < b.seq)) best = i;
    }
    return best;
  }

  void run_least() {
    const auto it = pending_.begin() + static_cast<std::ptrdiff_t>(least());
    Event ev = std::move(*it);
    pending_.erase(it);
    now_ = ev.time;
    ++executed_;
    ev.fn();
  }

  std::vector<Event> pending_;
  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
};

/// Drives `q` (the kernel or the reference) through a randomized
/// schedule — near/far/tied/past times, children scheduled from inside
/// callbacks, a run_until pause midway — and returns the labels in
/// execution order. Any departure from the (time, seq) contract
/// (DESIGN.md §13) shows up as a different sequence.
template <class Queue>
std::vector<std::uint64_t> exec_order(Queue& q, std::uint64_t seed) {
  Rng rng{seed | 1};
  std::vector<std::uint64_t> order;
  std::uint64_t next_label = 0;
  // Plain function-scope recursion: every callback drains inside this
  // frame (q.run() below), so reference captures stay valid and there
  // is no shared_ptr self-cycle to leak.
  std::function<void(int)> spawn;
  spawn = [&q, &rng, &order, &next_label, &spawn](int depth) {
    const std::uint64_t label = next_label++;
    const std::uint64_t r = rng.next();
    SimTime t = 0;
    switch (r % 5) {
      case 0: t = q.now() + static_cast<SimTime>(r % 97); break;       // near
      case 1: t = q.now(); break;                                      // tie
      case 2:                                                          // mid
        t = q.now() + static_cast<SimTime>(r % 2000000);
        break;
      case 3: t = static_cast<SimTime>(r % 50); break;                 // likely past
      default:                                                         // far future
        t = q.now() + static_cast<SimTime>(r % 500000000);
        break;
    }
    q.schedule_at(t, [&order, &rng, &spawn, label, depth] {
      order.push_back(label);
      if (depth < 2 && rng.next() % 4 == 0) {
        const int kids = 1 + static_cast<int>(rng.next() % 2);
        for (int k = 0; k < kids; ++k) spawn(depth + 1);
      }
    });
  };
  for (int i = 0; i < 400; ++i) spawn(0);
  q.run_until(1000);  // pause mid-schedule, clock pinned between events
  for (int i = 0; i < 100; ++i) spawn(0);
  q.run();
  return order;
}

TEST(EventQueueOracle, MatchesLinearScanReferenceUnderRandomizedSchedules) {
  const std::uint64_t seeds[] = {1, 7, 42, 1337, 0xdeadbeef};
  for (const std::uint64_t seed : seeds) {
    ReferenceQueue ref;
    const auto expected = exec_order(ref, seed);
    ASSERT_GE(expected.size(), 500u);
    EventQueue q;
    const auto got = exec_order(q, seed);
    ASSERT_EQ(got, expected)
        << "EventQueue diverged from the reference at seed " << seed;
    EXPECT_EQ(q.executed(), ref.executed());
    EXPECT_EQ(q.now(), ref.now());
  }
}

// ----------------------------------------------------------- FifoStation

TEST(FifoStationTest, IdleServerServesImmediately) {
  FifoStation s("x", 1);
  EXPECT_EQ(s.submit(100, 50), 150);
}

TEST(FifoStationTest, BackToBackRequestsQueue) {
  FifoStation s("x", 1);
  EXPECT_EQ(s.submit(0, 100), 100);
  EXPECT_EQ(s.submit(0, 100), 200);   // waits for first
  EXPECT_EQ(s.submit(50, 100), 300);  // still queued behind
  EXPECT_EQ(s.requests(), 3u);
  EXPECT_EQ(s.busy_time(), 300);
}

TEST(FifoStationTest, MultipleServersServeInParallel) {
  FifoStation s("x", 2);
  EXPECT_EQ(s.submit(0, 100), 100);
  EXPECT_EQ(s.submit(0, 100), 100);  // second server
  EXPECT_EQ(s.submit(0, 100), 200);  // queues
}

TEST(FifoStationTest, QueueDelayObservation) {
  FifoStation s("x", 1);
  s.submit(0, 100);
  EXPECT_EQ(s.queue_delay(0), 100);
  EXPECT_EQ(s.queue_delay(60), 40);
  EXPECT_EQ(s.queue_delay(150), 0);
}

TEST(FifoStationTest, LateArrivalDoesNotWait) {
  FifoStation s("x", 1);
  s.submit(0, 10);
  EXPECT_EQ(s.submit(1000, 10), 1010);
}

TEST(FifoStationTest, ResetClearsState) {
  FifoStation s("x", 1);
  s.submit(0, 500);
  s.reset();
  EXPECT_EQ(s.submit(0, 10), 10);
  EXPECT_EQ(s.requests(), 1u);
}

// ----------------------------------------------------------- RateLimiter

TEST(RateLimiterTest, AdmitsUpToLimit) {
  RateLimiter rl(5, sec(1));
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(rl.try_acquire(0));
  EXPECT_FALSE(rl.try_acquire(0));
  EXPECT_EQ(rl.admitted(), 5u);
  EXPECT_EQ(rl.throttled(), 1u);
}

TEST(RateLimiterTest, TokensRefillOverTime) {
  RateLimiter rl(10, sec(1));
  for (int i = 0; i < 10; ++i) EXPECT_TRUE(rl.try_acquire(0));
  EXPECT_FALSE(rl.try_acquire(0));
  // After 100ms one token (10/s) has refilled.
  EXPECT_TRUE(rl.try_acquire(msec(100)));
  EXPECT_FALSE(rl.try_acquire(msec(100)));
}

TEST(RateLimiterTest, NextAdmissionPredicts) {
  RateLimiter rl(10, sec(1));
  for (int i = 0; i < 10; ++i) rl.try_acquire(0);
  const SimTime next = rl.next_admission(0);
  EXPECT_GT(next, 0);
  EXPECT_LE(next, msec(101));
  EXPECT_TRUE(rl.try_acquire(next));
}

// Regression: floating-point refill can leave the bucket epsilon short
// of a whole token; next_admission must still return a strictly-future
// time for a throttled caller, or a reschedule-at-retry_at loop (the
// proxy's upstream wait, bench_fleet's direct-pull retries) spins at
// constant sim time.
TEST(RateLimiterTest, NextAdmissionAlwaysAdvancesWhenThrottled) {
  RateLimiter rl(32, sec(1));
  SimTime now = 0;
  std::uint64_t admitted = 0;
  // Hammer the limiter the way a flash crowd does: whenever throttled,
  // jump to the advertised retry time and try again. Sim time must make
  // strict progress on every throttle and the loop must drain.
  for (int client = 0; client < 2000; ++client) {
    while (!rl.try_acquire(now)) {
      const SimTime retry = rl.next_admission(now);
      ASSERT_GT(retry, now) << "constant-sim-time retry loop";
      now = retry;
    }
    ++admitted;
  }
  EXPECT_EQ(admitted, 2000u);
  EXPECT_EQ(rl.admitted(), 2000u);
}

TEST(RateLimiterTest, ZeroLimitMeansUnlimited) {
  RateLimiter rl(0, sec(1));
  for (int i = 0; i < 1000; ++i) EXPECT_TRUE(rl.try_acquire(0));
  EXPECT_EQ(rl.next_admission(123), 123);
}

// ---------------------------------------------------------------- Storage

TEST(SharedFsTest, MetadataContentionGrowsWithConcurrency) {
  SharedFsConfig cfg;
  cfg.meta_servers = 2;
  cfg.meta_op_service = usec(100);
  SharedFilesystem fs(cfg);
  // 10 simultaneous opens through 2 servers: last completes at 5*100.
  SimTime last = 0;
  for (int i = 0; i < 10; ++i) last = std::max(last, fs.metadata_op(0));
  EXPECT_EQ(last, 500);
  EXPECT_EQ(fs.metadata_ops(), 10u);
}

TEST(SharedFsTest, LargeReadAmortizesLatency) {
  SharedFilesystem fs;
  // Per-byte cost of one big read must be far below 4096 tiny reads.
  const SimTime big = fs.read(0, 4096 * 4096);
  SharedFilesystem fs2;
  SimTime last = 0;
  for (int i = 0; i < 64; ++i) last = std::max(last, fs2.read(0, 4096));
  const double big_per_byte = static_cast<double>(big) / (4096.0 * 4096.0);
  const double small_per_byte = static_cast<double>(last) / (64.0 * 4096.0);
  EXPECT_LT(big_per_byte * 4, small_per_byte);
}

TEST(SharedFsTest, TracksBytes) {
  SharedFilesystem fs;
  fs.read(0, 1000);
  fs.write(0, 500);
  EXPECT_EQ(fs.bytes_read(), 1000u);
  EXPECT_EQ(fs.bytes_written(), 500u);
  fs.reset_stats();
  EXPECT_EQ(fs.bytes_read(), 0u);
}

TEST(LocalStorageTest, CapacityReservation) {
  LocalStorageConfig cfg;
  cfg.capacity = 1000;
  NodeLocalStorage s(cfg);
  EXPECT_TRUE(s.reserve(600));
  EXPECT_FALSE(s.reserve(600));
  s.release(600);
  EXPECT_TRUE(s.reserve(1000));
  EXPECT_EQ(s.used(), 1000u);
}

TEST(LocalStorageTest, FasterThanSharedFsForSmallOps) {
  NodeLocalStorage local;
  SharedFilesystem shared;
  const SimTime l = local.read(0, 4096);
  // shared: metadata + data op
  const SimTime s = shared.read(shared.metadata_op(0), 4096);
  EXPECT_LT(l, s);
}

TEST(PageCacheTest, LruEviction) {
  PageCacheConfig cfg;
  cfg.capacity_bytes = 300;
  PageCache pc(cfg);
  pc.insert("a", 100);
  pc.insert("b", 100);
  pc.insert("c", 100);
  EXPECT_TRUE(pc.contains("a"));  // touch a -> b is now LRU
  pc.insert("d", 100);            // evicts b
  EXPECT_FALSE(pc.contains("b"));
  EXPECT_TRUE(pc.contains("a"));
  EXPECT_TRUE(pc.contains("c"));
  EXPECT_TRUE(pc.contains("d"));
}

TEST(PageCacheTest, OversizedEntryIgnored) {
  PageCacheConfig cfg;
  cfg.capacity_bytes = 100;
  PageCache pc(cfg);
  pc.insert("huge", 1000);
  EXPECT_FALSE(pc.contains("huge"));
  EXPECT_EQ(pc.used(), 0u);
}

TEST(PageCacheTest, HitMissCounters) {
  PageCache pc;
  EXPECT_FALSE(pc.contains("x"));
  pc.insert("x", 10);
  EXPECT_TRUE(pc.contains("x"));
  EXPECT_EQ(pc.hits(), 1u);
  EXPECT_EQ(pc.misses(), 1u);
}

TEST(PageCacheTest, ReinsertUpdatesSize) {
  PageCacheConfig cfg;
  cfg.capacity_bytes = 100;
  PageCache pc(cfg);
  pc.insert("x", 50);
  pc.insert("x", 80);
  EXPECT_EQ(pc.used(), 80u);
}

TEST(PageCacheTest, HitCostScalesWithBytes) {
  PageCache pc;
  EXPECT_LT(pc.hit_cost(4096), pc.hit_cost(4096 * 1000));
  EXPECT_GE(pc.hit_cost(0), 1);
}

// ---------------------------------------------------------------- Network

TEST(NetworkTest, TransferIncludesBothNicsAndFabric) {
  NetworkConfig cfg;
  cfg.nic_bandwidth = 1000.0;  // 1000 bytes/us
  cfg.fabric_latency = usec(5);
  Network net(4, cfg);
  // 10000 bytes: 10us out + 5us fabric + 10us in = 25us.
  EXPECT_EQ(net.transfer(0, 0, 1, 10000), 25);
}

TEST(NetworkTest, ReceiverNicContends) {
  NetworkConfig cfg;
  cfg.nic_bandwidth = 1000.0;
  cfg.fabric_latency = usec(0);
  Network net(4, cfg);
  // Two senders to the same destination: second serializes behind first
  // at the receiving NIC.
  const SimTime t1 = net.transfer(0, 0, 2, 10000);
  const SimTime t2 = net.transfer(0, 1, 2, 10000);
  EXPECT_EQ(t1, 20);
  EXPECT_EQ(t2, 30);  // 10 (own nic) .. waits, finishes at 30
}

TEST(NetworkTest, LoopbackIsCheap) {
  Network net(2);
  EXPECT_EQ(net.transfer(100, 1, 1, 1 << 20), 101);
}

TEST(NetworkTest, WanIsMuchSlowerThanFabric) {
  Network net(2);
  const std::uint64_t mb = 1 << 20;
  const SimTime hsn = net.transfer(0, 0, 1, mb);
  Network net2(2);
  const SimTime wan = net2.wan_transfer(0, 0, mb);
  EXPECT_GT(wan, hsn * 10);
  EXPECT_EQ(net2.wan_bytes(), mb);
}

// ------------------------------------------- overlay network (§3.2 cost)

TEST(OverlayNetworkTest, OverlaySlowerThanHostNetwork) {
  sim::Network net(4);
  const std::uint64_t msg = 1 << 20;
  const SimTime host = net.transfer(0, 0, 1, msg);
  sim::Network net2(4);
  const SimTime overlay = net2.overlay_transfer(0, 0, 1, msg);
  EXPECT_GT(overlay, host * 2);  // bandwidth haircut dominates large msgs
}

TEST(OverlayNetworkTest, SmallMessageLatencyPenalty) {
  sim::Network host_net(4), overlay_net(4);
  // 64-byte latency-bound message (an MPI ping): the overlay pays the
  // encapsulation latency on both ends.
  const SimTime host = host_net.transfer(0, 0, 1, 64);
  const SimTime overlay = overlay_net.overlay_transfer(0, 0, 1, 64);
  EXPECT_GT(overlay, host + usec(50));
}

TEST(OverlayNetworkTest, LoopbackStillPaysEncapsulation) {
  sim::Network net(2);
  EXPECT_GT(net.overlay_transfer(0, 1, 1, 1024), net.transfer(0, 1, 1, 1024));
}

// ---------------------------------------------------------------- Cluster

TEST(ClusterTest, ConstructsNodes) {
  ClusterConfig cfg;
  cfg.num_nodes = 8;
  cfg.node_spec.gpus = 4;
  cfg.node_spec.gpu_vendor = "nvidia";
  Cluster c(cfg);
  EXPECT_EQ(c.num_nodes(), 8u);
  EXPECT_EQ(c.node(3).spec.gpus, 4u);
  EXPECT_EQ(c.node(3).state, NodeState::kUp);
}

TEST(ClusterTest, ReprovisionTakesConfiguredTimeAndColdsCache) {
  ClusterConfig cfg;
  cfg.num_nodes = 2;
  cfg.reprovision_time = sec(10);
  Cluster c(cfg);
  c.page_cache(1).insert("warm", 100);

  bool up = false;
  ASSERT_TRUE(c.reprovision(1, [&] { up = true; }).ok());
  EXPECT_EQ(c.node(1).state, NodeState::kDown);

  c.events().run();
  EXPECT_TRUE(up);
  EXPECT_EQ(c.now(), sec(10));
  EXPECT_EQ(c.node(1).state, NodeState::kUp);
  EXPECT_FALSE(c.page_cache(1).contains("warm"));
  EXPECT_EQ(c.reprovision_count(), 1u);
}

TEST(ClusterTest, ReprovisionInvalidNode) {
  Cluster c;
  EXPECT_EQ(c.reprovision(999, nullptr).error().code(), ErrorCode::kNotFound);
}

TEST(ClusterTest, ReprovisionWhileDownFails) {
  ClusterConfig cfg;
  cfg.num_nodes = 2;
  Cluster c(cfg);
  ASSERT_TRUE(c.reprovision(0, nullptr).ok());
  EXPECT_EQ(c.reprovision(0, nullptr).error().code(),
            ErrorCode::kFailedPrecondition);
}

TEST(ClusterTest, NodeStateToString) {
  EXPECT_EQ(to_string(NodeState::kUp), "up");
  EXPECT_EQ(to_string(NodeState::kDraining), "draining");
  EXPECT_EQ(to_string(NodeState::kDown), "down");
}

}  // namespace
}  // namespace hpcc::sim
