// hpcc_bench — the repository's benchmark: three workloads driven
// through hpcc's public APIs, their outputs checked, every metric
// printed by name and unit.
//
//   hpcc_bench --workload pull_storm|container_start|site_sched
//              --seed N --seconds S --trace 0|1
//              [--rev TEXT] [--trace-out PATH]
//
// --trace 0 reports the end-to-end metrics of untraced passes;
// --trace 1 alternates untraced and traced passes and reports the
// per-layer metrics, the tracing overhead and the per-layer self time
// of the benchmark's spans. The last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...},
//    "unmeasured": [per-layer name prefixes the workload does not measure]}
// perfbench/run.py builds this binary and narrows that line to the
// metrics BENCHMARK.json names.
#include <sched.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>

#include "util/log.h"
#include "workloads.h"

extern char** environ;

namespace {

using perfbench::Metric;
using perfbench::Options;
using perfbench::Report;

// The pool pull_storm's traced run times for util.*: the caller and one
// worker. Wider pools measured noisier on shared 4-vCPU hosts, and a
// fixed width keeps results comparable between machines with different
// core counts.
constexpr unsigned kPoolThreads = 2;

unsigned online_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) return CPU_COUNT(&set);
  return std::max(1u, std::thread::hardware_concurrency());
}

std::string number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// The machine, build and settings a result was measured on.
std::string self_description(const Options& o, const std::string& rev,
                             const Report& r) {
  std::string cpu = "unknown";
  std::string flags;
  std::ifstream info("/proc/cpuinfo");
  for (std::string line; std::getline(info, line);) {
    if (cpu == "unknown" && line.rfind("model name", 0) == 0)
      cpu = line.substr(line.find(':') + 2);
    if (flags.empty() && line.rfind("flags", 0) == 0) flags = line + " ";
  }
  const auto has = [&](const char* f) {
    return flags.find(std::string(" ") + f + " ") != std::string::npos
               ? "true"
               : "false";
  };
  std::string out = "{\"rev\": " + perfbench::json_string(rev);
  out += ", \"build_type\": \"" PERFBENCH_BUILD_TYPE "\"";
  out += ", \"compiler\": \"" PERFBENCH_COMPILER "\"";
  out += ", \"cpu\": " + perfbench::json_string(cpu);
  out += std::string(", \"sha_ni\": ") + has("sha_ni");
  out += std::string(", \"avx2\": ") + has("avx2");
  out += std::string(", \"avx512f\": ") + has("avx512f");
  out += ", \"nproc\": " + std::to_string(online_cpus());
  out += ", \"pool_threads\": " + std::to_string(o.pool_threads);
  out += ", \"workload\": \"" + o.workload + "\"";
  out += ", \"seed\": " + std::to_string(o.seed);
  out += ", \"seconds\": " + number(o.seconds);
  out += std::string(", \"trace\": ") + (o.trace ? "1" : "0");
  out += ", \"sizes\": {";
  for (std::size_t i = 0; i < r.sizes.size(); ++i) {
    const auto& kv = r.sizes[i];
    const auto eq = kv.find('=');
    out += (i ? ", " : "") + perfbench::json_string(kv.substr(0, eq)) + ": " +
           perfbench::json_string(kv.substr(eq + 1));
  }
  return out + "}}";
}

void print_metrics(const char* title, const std::vector<Metric>& ms) {
  std::printf("%s\n", title);
  for (const auto& m : ms)
    std::printf("  %-44s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
}

int usage() {
  std::fprintf(stderr,
               "usage: hpcc_bench --workload pull_storm|container_start|"
               "site_sched --seed N --seconds S --trace 0|1 [--rev TEXT] "
               "[--trace-out PATH]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  std::string rev = "unknown";
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* val = argv[i + 1];
    if (key == "--workload") o.workload = val;
    else if (key == "--seed") o.seed = std::strtoull(val, nullptr, 10);
    else if (key == "--seconds") o.seconds = std::atof(val);
    else if (key == "--trace") o.trace = std::strcmp(val, "0") != 0;
    else if (key == "--rev") rev = val;
    else if (key == "--trace-out") o.trace_out = val;
    else return usage();
  }
  if (argc % 2 == 0 || o.seconds <= 0) return usage();

  // HPCC_* variables select kernels, schedulers, thread counts and obs
  // exports; any of them changes what is measured.
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "HPCC_", 5) == 0) {
      std::fprintf(stderr, "refusing to run with %s set: HPCC_* settings "
                           "change what the benchmark measures\n", *e);
      return 2;
    }
  }
  hpcc::LogSink::instance().set_print(false);
  o.pool_threads = std::min(online_cpus(), kPoolThreads);

  std::unique_ptr<perfbench::Workload> w;
  if (o.workload == "pull_storm")
    w = perfbench::make_pull_storm(o);
  else if (o.workload == "container_start")
    w = perfbench::make_container_start(o);
  else if (o.workload == "site_sched")
    w = perfbench::make_site_sched(o);
  else
    return usage();

  const Report r = perfbench::run_workload(*w, o);

  std::printf("env: %s\n", self_description(o, rev, r).c_str());
  for (const auto& f : r.failures) std::printf("CHECK FAILED: %s\n", f.c_str());
  std::printf("ops: attempted %llu, failed %llu, error_rate %.6f\n",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed),
              r.attempted ? static_cast<double>(r.failed) /
                                static_cast<double>(r.attempted)
                          : 0.0);
  print_metrics("end-to-end (untraced passes):", r.end_to_end);
  print_metrics(o.trace ? "per-layer (simulated: reference pass; wall time "
                          "and counters: traced passes):"
                        : "per-layer, simulated (reference pass):",
                r.per_layer);
  print_metrics("detail:", r.detail);
  std::printf("not measured on this workload:");
  for (const auto& p : r.unmeasured) std::printf(" %s*", p.c_str());
  std::printf("\n");
  const auto print_series = [](const char* title,
                                const std::vector<double>& v) {
    if (v.empty()) return;
    std::printf("%s:", title);
    for (double x : v) std::printf(" %.4f", x);
    std::printf("\n");
  };
  print_series("plain pass wall s", r.plain_pass_s);
  print_series("plain pass yardstick MB/s", r.plain_pass_mbps);
  print_series("traced pass wall s", r.traced_pass_s);
  if (o.trace) {
    std::printf("trace summary (benchmark spans, last traced pass):\n");
    for (const auto& t : r.trace_summary)
      std::printf("  %-12s self %12.3f ms  calls %8llu\n", t.layer.c_str(),
                  t.self_ms, static_cast<unsigned long long>(t.calls));
  }

  const auto& metrics = o.trace ? r.per_layer : r.end_to_end;
  std::string line = std::string("{\"correct\": ") +
                     (r.correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(r.attempted) +
                     ", \"failed\": " + std::to_string(r.failed) +
                     ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    line += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
            number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
            "\"}";
  }
  line += "}, \"unmeasured\": [";
  for (std::size_t i = 0; i < r.unmeasured.size(); ++i)
    line += (i ? ", " : "") + perfbench::json_string(r.unmeasured[i]);
  std::printf("%s]}\n", line.c_str());
  return 0;
}
