// perfbench/workloads.h — the three workloads and what they share.
#pragma once

#include <memory>

#include "harness.h"

namespace perfbench {

std::unique_ptr<Workload> make_pull_storm(const Options& o);
std::unique_ptr<Workload> make_container_start(const Options& o);
std::unique_ptr<Workload> make_site_sched(const Options& o);

/// storage.<tier>.hit_ratio and storage.<tier>.served_mib from a pass's
/// storage.tier.* counters, for the tiers the pass touched.
void add_storage_metrics(Report& r, const hpcc::obs::MetricsSnapshot& m);

}  // namespace perfbench
