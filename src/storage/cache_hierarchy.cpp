#include "storage/cache_hierarchy.h"

#include <cassert>
#include <utility>

#include "dcheck/dcheck.h"
#include "obs/obs.h"
#include "sim/cluster.h"
#include "storage/tiers.h"
#include "util/thread_pool.h"

namespace hpcc::storage {

CacheHierarchy::~CacheHierarchy() { drain_prefetches(); }

void CacheHierarchy::add_tier(std::unique_ptr<ChunkSource> tier) {
  dcheck::AnnotatedLock lock(mu_, "cachehierarchy.mu");
  tiers_.push_back(std::move(tier));
  stats_.emplace_back();
  tier_faults_.push_back(0);
  quarantined_.push_back(false);
}

void CacheHierarchy::set_fault_injector(fault::FaultInjector* injector) {
  dcheck::AnnotatedLock lock(mu_, "cachehierarchy.mu");
  faults_ = injector;
}

void CacheHierarchy::set_quarantine_threshold(std::uint32_t threshold) {
  dcheck::AnnotatedLock lock(mu_, "cachehierarchy.mu");
  quarantine_threshold_ = threshold;
}

bool CacheHierarchy::quarantined(std::size_t tier) const {
  dcheck::AnnotatedLock lock(mu_, "cachehierarchy.mu");
  return tier < quarantined_.size() && quarantined_[tier];
}

void CacheHierarchy::clear_quarantine() {
  dcheck::AnnotatedLock lock(mu_, "cachehierarchy.mu");
  for (std::size_t i = 0; i < quarantined_.size(); ++i) {
    quarantined_[i] = false;
    tier_faults_[i] = 0;
  }
}

std::size_t CacheHierarchy::num_tiers() const {
  dcheck::AnnotatedLock lock(mu_, "cachehierarchy.mu");
  return tiers_.size();
}

ReadOutcome CacheHierarchy::read(SimTime now, const ChunkRequest& req) {
  dcheck::AnnotatedLock lock(mu_, "cachehierarchy.mu");
  if (dcheck::enabled()) {
    dcheck::access_write(&stats_, "cachehierarchy.tier_state");
    dcheck::event("cache.read:" + req.key);
  }
  if (tiers_.empty()) return ReadOutcome{now + 1, 0, false};

  // Observability mirrors: the TierStats increments below stay the
  // source of truth for existing accessors; when obs is on the same
  // sites also feed the registry (per-tier counters) and tracer (one
  // span per read, one child per tier serve). Everything is gated so
  // the default-off path costs one relaxed load and allocates nothing.
  const bool traced = obs::tracing_enabled();
  const bool metered = obs::metrics_enabled();
  obs::SpanScope span;
  if (traced)
    span = obs::SpanScope(obs::Category::kStorage, "chunk:" + req.key, now);
  auto tier_count = [&](std::size_t i, const char* what,
                        std::uint64_t n = 1) {
    if (metered)
      obs::metrics()
          .counter("storage.tier." + std::string(tiers_[i]->name()) + "." +
                   what)
          .add(n);
  };

  // Walk top→bottom; the first holder serves. The bottom tier is
  // charged as a miss-serviced fetch even if holds() returned true —
  // terminal tiers hold everything, so reaching them *is* the miss.
  // A quarantined tier is skipped outright; a tier that holds the key
  // but draws an injected storage fault cannot serve either, and the
  // walk falls through to the next holder. Both paths count a miss and
  // a degraded read, so hits + misses == lookups survives injection.
  std::size_t serving = tiers_.size() - 1;
  bool found_above_terminal = false;
  fault::Decision serve_fault;
  for (std::size_t i = 0; i + 1 < tiers_.size(); ++i) {
    ++stats_[i].lookups;
    tier_count(i, "lookups");
    if (quarantined_[i]) {
      ++stats_[i].misses;
      ++stats_[i].degraded_reads;
      tier_count(i, "misses");
      tier_count(i, "degraded_reads");
      continue;
    }
    if (tiers_[i]->holds(req.key)) {
      fault::Decision d;
      if (faults_ != nullptr && faults_->enabled())
        d = faults_->decide(fault::Domain::kStorage, now);
      if (d.fail) {
        ++stats_[i].misses;
        ++stats_[i].degraded_reads;
        tier_count(i, "misses");
        tier_count(i, "degraded_reads");
        if (traced)
          obs::tracer().instant(
              obs::Category::kStorage,
              "fault:" + std::string(tiers_[i]->name()), now);
        if (quarantine_threshold_ > 0 &&
            ++tier_faults_[i] >= quarantine_threshold_) {
          quarantined_[i] = true;
        }
        continue;
      }
      serving = i;
      found_above_terminal = true;
      serve_fault = d;
      ++stats_[i].hits;
      tier_count(i, "hits");
      break;
    }
    ++stats_[i].misses;
    tier_count(i, "misses");
    if (traced)
      obs::tracer().instant(obs::Category::kStorage,
                            "probe-miss:" + std::string(tiers_[i]->name()),
                            now);
  }

  ReadOutcome out;
  out.tier = serving;
  obs::SpanScope serve_span;
  if (traced)
    serve_span = obs::SpanScope(
        obs::Category::kStorage,
        "serve:" + std::string(tiers_[serving]->name()), now);
  if (found_above_terminal) {
    out.cache_hit = tiers_[serving]->is_cache();
    SimTime done = tiers_[serving]->serve(now, req.key, req.bytes);
    if (serve_fault.degrade) {
      done = now + static_cast<SimDuration>(
                       static_cast<double>(done - now) * serve_fault.slowdown) +
             serve_fault.extra_latency;
    }
    out.done = done;
    stats_[serving].bytes_served += req.bytes;
    tier_count(serving, "bytes_served", req.bytes);
  } else {
    // The terminal always serves — it is the ground truth below every
    // cache, so it is never fault-checked here; its failures belong to
    // the WAN/registry domains of whoever implements it.
    auto& term = stats_[serving];
    ++term.lookups;
    ++term.misses;
    tier_count(serving, "lookups");
    tier_count(serving, "misses");
    out.cache_hit = false;
    out.done = tiers_[serving]->serve(now, req.key, req.wire_bytes());
    term.bytes_served += req.wire_bytes();
    tier_count(serving, "bytes_served", req.wire_bytes());
  }
  serve_span.end(out.done);

#ifndef NDEBUG
  for (std::size_t i = 0; i < stats_.size(); ++i) {
    assert(stats_[i].hits + stats_[i].misses == stats_[i].lookups &&
           "per-tier hit/miss conservation violated");
  }
#endif

  // Promote into every cache tier above the serving tier (quarantined
  // tiers admit nothing — they are out of the rotation). Space
  // accounting only — the bytes rode the transfer just charged.
  for (std::size_t i = 0; i < serving; ++i) {
    if (!tiers_[i]->is_cache() || quarantined_[i]) continue;
    stats_[i].evictions += tiers_[i]->admit(req.key, req.cache_bytes());
    stats_[i].bytes_admitted += req.cache_bytes();
    tier_count(i, "bytes_admitted", req.cache_bytes());
    if (traced)
      obs::tracer().instant(obs::Category::kStorage,
                            "promote:" + std::string(tiers_[i]->name()),
                            out.done);
  }
  span.end(out.done);
  return out;
}

bool CacheHierarchy::holds_cached(const std::string& key) const {
  dcheck::AnnotatedLock lock(mu_, "cachehierarchy.mu");
  for (const auto& tier : tiers_) {
    if (tier->is_cache() && tier->holds(key)) return true;
  }
  return false;
}

void CacheHierarchy::prefetch(const ChunkRequest& req,
                              std::function<void()> cpu_work) {
  Pending p;
  p.req = req;
  if (cpu_work) {
    if (pool_ != nullptr) {
      // hb_spawn here, hb_join after drain's wait(): the race pass
      // learns that prefetch CPU work is ordered before the admissions
      // that depend on it.
      p.hb = dcheck::enabled() ? dcheck::hb_spawn() : 0;
      if (p.hb != 0) {
        p.done = pool_->submit(
            [hb = p.hb, work = std::move(cpu_work)] {
              dcheck::hb_task_begin(hb);
              work();
              dcheck::hb_task_end(hb);
            });
      } else {
        p.done = pool_->submit(std::move(cpu_work));
      }
    } else {
      cpu_work();
    }
  }
  obs::count("storage.prefetch.requests");
  dcheck::AnnotatedLock lock(pending_mu_, "cachehierarchy.pending_mu");
  if (dcheck::enabled())
    dcheck::access_write(&pending_, "cachehierarchy.pending_queue");
  ++prefetch_requests_;
  pending_.push_back(std::move(p));
}

void CacheHierarchy::drain_prefetches() {
  // Admissions happen here, on the caller's thread, in FIFO request
  // order — never from pool workers — so LRU state is independent of
  // pool scheduling (the determinism contract).
  for (;;) {
    Pending p;
    {
      dcheck::AnnotatedLock lock(pending_mu_, "cachehierarchy.pending_mu");
      if (dcheck::enabled())
        dcheck::access_write(&pending_, "cachehierarchy.pending_queue");
      if (pending_.empty()) return;
      p = std::move(pending_.front());
      pending_.pop_front();
    }
    if (p.done.valid()) p.done.wait();
    if (p.hb != 0) dcheck::hb_join(p.hb);
    admit_prefetched(p.req);
  }
}

void CacheHierarchy::admit_prefetched(const ChunkRequest& req) {
  dcheck::AnnotatedLock lock(mu_, "cachehierarchy.mu");
  if (dcheck::enabled()) {
    dcheck::access_write(&stats_, "cachehierarchy.tier_state");
    dcheck::event("cache.admit:" + req.key);
  }
  // Already warm somewhere? Don't disturb recency — a later timed read
  // must observe the same LRU order whether or not this prefetch ran.
  for (const auto& tier : tiers_) {
    if (tier->is_cache() && tier->holds(req.key)) return;
  }
  bool admitted = false;
  for (std::size_t i = 0; i < tiers_.size(); ++i) {
    if (!tiers_[i]->is_cache() || quarantined_[i]) continue;
    stats_[i].evictions += tiers_[i]->admit(req.key, req.cache_bytes());
    stats_[i].bytes_admitted += req.cache_bytes();
    ++stats_[i].prefetch_admits;
    admitted = true;
  }
  if (admitted) {
    obs::count("storage.prefetch.admits");
    dcheck::AnnotatedLock plock(pending_mu_, "cachehierarchy.pending_mu");
    prefetched_bytes_ += req.wire_bytes();
  }
}

SimTime CacheHierarchy::meta_op(SimTime now) {
  dcheck::AnnotatedLock lock(mu_, "cachehierarchy.mu");
  if (tiers_.empty()) return now + 1;
  return tiers_.back()->meta_op(now);
}

SimTime CacheHierarchy::stream_read(SimTime now, std::uint64_t bytes) {
  dcheck::AnnotatedLock lock(mu_, "cachehierarchy.mu");
  if (tiers_.empty()) return now + 1;
  stats_.back().bytes_served += bytes;
  return tiers_.back()->stream_read(now, bytes);
}

SimTime CacheHierarchy::stream_write(SimTime now, std::uint64_t bytes) {
  dcheck::AnnotatedLock lock(mu_, "cachehierarchy.mu");
  if (tiers_.empty()) return now + 1;
  return tiers_.back()->stream_write(now, bytes);
}

TierStats CacheHierarchy::tier_stats(std::size_t tier) const {
  dcheck::AnnotatedLock lock(mu_, "cachehierarchy.mu");
  return stats_.at(tier);
}

TierStats CacheHierarchy::total_stats() const {
  dcheck::AnnotatedLock lock(mu_, "cachehierarchy.mu");
  TierStats total;
  for (const auto& s : stats_) {
    total.lookups += s.lookups;
    total.hits += s.hits;
    total.misses += s.misses;
    total.evictions += s.evictions;
    total.bytes_served += s.bytes_served;
    total.bytes_admitted += s.bytes_admitted;
    total.prefetch_admits += s.prefetch_admits;
    total.degraded_reads += s.degraded_reads;
  }
  return total;
}

TierTopology CacheHierarchy::topology() const {
  dcheck::AnnotatedLock lock(mu_, "cachehierarchy.mu");
  TierTopology topo;
  topo.tiers.reserve(tiers_.size());
  for (const auto& tier : tiers_) {
    topo.tiers.push_back(TierSummary{std::string(tier->name()),
                                     tier->is_cache(),
                                     tier->capacity_bytes()});
  }
  return topo;
}

std::uint64_t CacheHierarchy::prefetch_requests() const {
  dcheck::AnnotatedLock lock(pending_mu_, "cachehierarchy.pending_mu");
  return prefetch_requests_;
}

std::uint64_t CacheHierarchy::prefetched_bytes() const {
  dcheck::AnnotatedLock lock(pending_mu_, "cachehierarchy.pending_mu");
  return prefetched_bytes_;
}

// ----------------------------------------------------------------- DataPath

ReadOutcome DataPath::read_chunk(SimTime now, const std::string& suffix,
                                 std::uint64_t bytes,
                                 std::uint64_t transfer_bytes,
                                 std::uint64_t admit_bytes) const {
  if (hierarchy_ == nullptr) return ReadOutcome{now + 1, 0, false};
  return hierarchy_->read(
      now, ChunkRequest{key(suffix), bytes, transfer_bytes, admit_bytes});
}

void DataPath::prefetch_chunk(const std::string& suffix, std::uint64_t bytes,
                              std::uint64_t transfer_bytes,
                              std::uint64_t admit_bytes,
                              std::function<void()> cpu_work) const {
  if (hierarchy_ == nullptr) return;
  hierarchy_->prefetch(
      ChunkRequest{key(suffix), bytes, transfer_bytes, admit_bytes},
      std::move(cpu_work));
}

void DataPath::drain() const {
  if (hierarchy_ != nullptr) hierarchy_->drain_prefetches();
}

SimTime DataPath::meta_op(SimTime now) const {
  return hierarchy_ == nullptr ? now + 1 : hierarchy_->meta_op(now);
}

SimTime DataPath::stream_read(SimTime now, std::uint64_t bytes) const {
  return hierarchy_ == nullptr ? now + 1 : hierarchy_->stream_read(now, bytes);
}

SimTime DataPath::stream_write(SimTime now, std::uint64_t bytes) const {
  return hierarchy_ == nullptr ? now + 1 : hierarchy_->stream_write(now, bytes);
}

bool DataPath::has_cache_tier() const {
  return hierarchy_ != nullptr && hierarchy_->topology().has_cache_tier();
}

// ----------------------------------------------------------------- assembly

DataPath make_data_path(const DataPathConfig& config) {
  auto chain = std::make_shared<CacheHierarchy>();
  if (config.page_cache != nullptr) {
    chain->add_tier(page_cache_tier(*config.page_cache));
  }
  if (config.local != nullptr) {
    const bool below = config.shared != nullptr || config.origin != nullptr;
    if (below) {
      chain->add_tier(NodeLocalTier::cache(*config.local));
    } else {
      chain->add_tier(NodeLocalTier::resident(*config.local));
    }
  }
  if (config.shared != nullptr) {
    chain->add_tier(shared_fs_tier(*config.shared));
  } else if (config.origin) {
    chain->add_tier(origin_tier(config.origin_name, config.origin));
  }
  chain->set_prefetch_pool(config.prefetch_pool);
  return DataPath(std::move(chain), config.key_prefix);
}

DataPath node_data_path(sim::Cluster& cluster, std::uint32_t node,
                        Placement placement, std::string key_prefix) {
  DataPathConfig config;
  config.page_cache = &cluster.page_cache(node);
  if (placement == Placement::kNodeLocal) {
    config.local = &cluster.local_storage(node);
  } else {
    config.shared = &cluster.shared_fs();
  }
  config.key_prefix = std::move(key_prefix);
  return make_data_path(config);
}

}  // namespace hpcc::storage
