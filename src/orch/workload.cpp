#include "orch/workload.h"

#include <algorithm>
#include <utility>

namespace hpcc::orch {

namespace {

/// Orders arrivals by submit time; equal times keep emission order, so
/// the trace is the same on every standard library. Sorts (submit,
/// index) keys and then moves each arrival into place once.
template <typename Arrival>
void sort_by_submit(std::vector<Arrival>& arrivals) {
  std::vector<std::pair<SimTime, std::size_t>> keys;
  keys.reserve(arrivals.size());
  for (std::size_t i = 0; i < arrivals.size(); ++i)
    keys.emplace_back(arrivals[i].submit, i);
  std::sort(keys.begin(), keys.end());
  std::vector<Arrival> sorted;
  sorted.reserve(arrivals.size());
  for (const auto& key : keys)
    sorted.push_back(std::move(arrivals[key.second]));
  arrivals = std::move(sorted);
}

}  // namespace

double WorkloadTrace::demand_node_usec(std::uint32_t cores_per_node) const {
  double total = 0;
  for (const auto& j : jobs)
    total += static_cast<double>(j.nodes) * static_cast<double>(j.run_time);
  for (const auto& p : pods)
    total += (static_cast<double>(p.spec.cpu_request) /
              static_cast<double>(cores_per_node)) *
             static_cast<double>(p.spec.workload.cpu_time);
  return total;
}

SimTime WorkloadTrace::last_arrival() const {
  SimTime last = 0;
  for (const auto& j : jobs) last = std::max(last, j.submit);
  for (const auto& p : pods) last = std::max(last, p.submit);
  return last;
}

WorkloadTrace generate_trace(std::uint64_t seed, const TraceConfig& config) {
  Rng rng(seed);
  WorkloadTrace trace;

  // ----- HPC jobs: Poisson arrivals, truncated-geometric node counts,
  // exponential runtimes (the classic batch-trace shape).
  {
    const double mean_gap_usec =
        3600.0e6 / std::max(0.001, config.job_rate_per_hour);
    double t = rng.next_exponential(mean_gap_usec);
    int i = 0;
    while (t < static_cast<double>(config.duration)) {
      HpcJobArrival job;
      job.submit = static_cast<SimTime>(t);
      job.user = "hpc-user" + std::to_string(i % 4);
      job.nodes = 1;
      while (job.nodes < config.max_job_nodes && rng.next_bool(0.45))
        ++job.nodes;
      job.run_time = std::max<SimDuration>(
          minutes(1), static_cast<SimDuration>(rng.next_exponential(
                          static_cast<double>(config.mean_job_runtime))));
      job.time_limit = job.run_time * 2;
      trace.jobs.push_back(job);
      t += rng.next_exponential(mean_gap_usec);
      ++i;
    }
  }

  // ----- pods: a uniform trickle plus workflow bursts.
  {
    const double expected_pods = config.pod_rate_per_hour *
                                 (static_cast<double>(config.duration) / 3600.0e6);
    const auto total_pods =
        static_cast<std::size_t>(std::max(1.0, expected_pods));
    const auto burst_pods =
        static_cast<std::size_t>(expected_pods * config.burst_factor);
    std::size_t emitted = 0;
    int burst_id = 0;

    auto make_pod = [&](SimTime at, const std::string& label) {
      PodArrival pod;
      pod.submit = at;
      pod.name = label + std::to_string(emitted);
      pod.spec.cpu_request = config.pod_cores;
      pod.spec.workload.name = pod.name;
      pod.spec.workload.cpu_time = std::max<SimDuration>(
          sec(20), static_cast<SimDuration>(rng.next_exponential(
                       static_cast<double>(config.mean_pod_runtime))));
      ++emitted;
      trace.pods.push_back(std::move(pod));
    };

    // Bursts: workflow stages of 4-10 pods at one instant.
    while (emitted < burst_pods) {
      const SimTime at = static_cast<SimTime>(
          rng.next_double() * static_cast<double>(config.duration));
      const std::size_t size = 4 + rng.next_below(7);
      for (std::size_t k = 0; k < size && emitted < burst_pods; ++k)
        make_pod(at, "wf" + std::to_string(burst_id) + "-");
      ++burst_id;
    }
    // Trickle for the rest.
    while (emitted < total_pods) {
      make_pod(static_cast<SimTime>(rng.next_double() *
                                    static_cast<double>(config.duration)),
               "pod");
    }
  }

  sort_by_submit(trace.jobs);
  sort_by_submit(trace.pods);
  return trace;
}

}  // namespace hpcc::orch
