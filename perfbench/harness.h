// perfbench/harness.h
//
// Plumbing shared by the three benchmark workloads: the Workload
// interface, the pass loop that times them, the benchmark's own
// wall-clock spans around calls into hpcc's layers, and small
// statistics helpers.
//
// Two clocks run through every workload. Simulated time is the model's
// answer and repeats exactly for a seed; wall time is what computing
// that answer costs. Spans here are wall-clock only: they are recorded
// by the benchmark around public calls, never inside the program.
#pragma once

#include <chrono>
#include <cmath>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Threads of the pool pull_storm's traced run times (util.*): the
  /// caller plus pool workers. The timed passes run on one thread.
  unsigned pool_threads = 1;
  std::string trace_out;  ///< Chrome trace destination ("" = none)
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

// ------------------------------------------------------------------ spans

/// The benchmark's span log: one record per call into a layer's public
/// function, kept in memory and written once as a Chrome trace that
/// Perfetto loads. Every span carries its parent and the id of the op
/// (pull, start, scenario run) it belongs to; 0 means pass-level work.
class SpanLog {
 public:
  struct Span {
    std::uint64_t id = 0;
    std::uint64_t parent = 0;
    std::uint64_t op = 0;
    std::string layer;
    std::string name;
    double begin_us = 0;  ///< wall microseconds since the log's epoch
    double end_us = 0;
  };

  /// RAII span. A scope over a null log records nothing, so untraced
  /// passes pay one branch per call site.
  class Scope {
   public:
    Scope(SpanLog* log, const char* layer, std::string name,
          std::uint64_t op = 0);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanLog* log_;
    std::size_t index_ = 0;
  };

  SpanLog();
  void clear();
  const std::vector<Span>& spans() const { return spans_; }

  struct LayerTime {
    std::string layer;
    double self_ms = 0;  ///< span time minus the time of child spans
    std::uint64_t calls = 0;
  };
  /// Per-layer self time and call count, sorted by layer name.
  std::vector<LayerTime> self_times() const;

  /// {"traceEvents": [...]} with one complete ("X") event per span.
  bool write_chrome_trace(const std::string& path) const;

 private:
  double now_us() const;

  std::chrono::steady_clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;  ///< indices of open spans, innermost last
};

// -------------------------------------------------------------- yardstick

/// The host's speed, measured beside the program. The benchmark's cores
/// are shared with other tenants, and the speed one thread gets for
/// integer work swings by 20-45% over seconds to minutes while CPU time
/// stays equal to wall time (no steal): runs of the same code minutes
/// apart differ by that much. The yardstick is a fixed software SHA-256
/// compression over a 16 KiB buffer, the benchmark's own code (never
/// hpcc's, so no change to hpcc moves it) and the kind of integer work
/// that dominates pull_storm's and container_start's wall time.
/// Workloads call tick() at op boundaries; it hashes until the yardstick
/// has taken kShare of the section so far, so the host is sampled
/// throughout a pass, at the moments the program ran. A workload's
/// weight is how strongly its wall time follows the yardstick.
class Yardstick {
 public:
  /// The yardstick's share of a timed section.
  static constexpr double kShare = 0.04;
  /// The speed that defines a reference second: about what the
  /// yardstick hashes on an idle core of a 4-vCPU Xeon VM.
  static constexpr double kReferenceMBps = 200.0;

  Yardstick();
  /// The exponent of the speed ratio in reference_s(). At 0 the
  /// yardstick is off: tick() and stop() hash nothing.
  void set_weight(double w) { weight_ = w; }
  double weight() const { return weight_; }
  /// Starts a timed section.
  void start();
  /// At an op boundary: hashes until the section's share is met.
  void tick();
  /// Ends the section with a last tick. Returns the section's wall
  /// seconds without the yardstick's own, and sets mbps().
  double stop();
  /// The yardstick's speed over the last section.
  double mbps() const { return mbps_; }
  /// `wall_s` of the last section in reference seconds: scaled by how
  /// much faster or slower than kReferenceMBps the host ran, to the
  /// power of the weight.
  double reference_s(double wall_s) const {
    return weight_ > 0 ? wall_s * std::pow(mbps_ / kReferenceMBps, weight_)
                       : wall_s;
  }

 private:
  void hash_chunk();

  double weight_ = 1;
  std::chrono::steady_clock::time_point start_;
  double own_s_ = 0;          ///< yardstick time in the current section
  std::uint64_t hashed_ = 0;  ///< bytes hashed in the current section
  double mbps_ = 0;
  std::vector<unsigned char> chunk_;
  std::uint32_t state_[8] = {};
};

/// The yardstick run_workload starts and stops around every timed
/// section (set-up slices and passes), and workloads tick.
Yardstick& yardstick();

/// What one run of a workload reports.
struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> end_to_end;  ///< measured untraced
  /// The simulated results of the reference pass, in every run, and in
  /// a traced run also the wall-time and counter metrics of the layers.
  std::vector<Metric> per_layer;
  /// Prefixes of per-layer metric names the workload does not measure
  /// (layers it never calls, figures it cannot see from outside); those
  /// read 0 in the result. Any other missing metric is an error.
  std::vector<std::string> unmeasured;
  /// Figures printed beside the metrics and kept out of the result line
  /// (tail sample counts, makespan, set-up count).
  std::vector<Metric> detail;
  std::vector<std::string> sizes;     ///< "key=value" workload sizes
  std::vector<std::string> failures;  ///< failed output checks
  std::vector<double> plain_pass_s;   ///< wall seconds of each plain pass
  std::vector<double> plain_pass_mbps;  ///< the yardstick's speed in each
  std::vector<double> traced_pass_s;  ///< wall seconds of each traced pass
  /// Self time per layer over the last traced pass.
  std::vector<SpanLog::LayerTime> trace_summary;

  void check(bool ok, const std::string& what) {
    if (ok) return;
    correct = false;
    failures.push_back(what);
  }
  void e2e(std::string name, double v, std::string unit) {
    end_to_end.push_back({std::move(name), v, std::move(unit)});
  }
  void layer(std::string name, double v, std::string unit) {
    per_layer.push_back({std::move(name), v, std::move(unit)});
  }
  void info(std::string name, double v, std::string unit) {
    detail.push_back({std::move(name), v, std::move(unit)});
  }
};

// --------------------------------------------------------------- workload

/// What the last traced pass of a run leaves for the per-layer metrics.
struct TracedPass {
  hpcc::obs::MetricsSnapshot metrics;  ///< that pass's obs counters
  const SpanLog* spans = nullptr;
};

/// One benchmark workload. run_workload calls setup() and pass() once as
/// the warm-up and reference simulation, then, for each timed pass,
/// setup() (timed: setup_s) followed by pass(). ops_per_s counts the
/// ops the reference pass completed: Report::attempted - Report::failed.
/// A workload that follows the yardstick calls yardstick().tick() after
/// each op in pass(), outside its spans.
class Workload {
 public:
  virtual ~Workload() = default;

  /// How strongly the workload's wall time follows the yardstick: the
  /// slope of log pass time on log yardstick speed, measured over runs.
  virtual double yardstick_weight() const { return 1; }

  /// Builds the inputs from the seed.
  virtual void setup() = 0;
  /// One pass over the inputs. A pass consumes them (registry queues,
  /// caches, one-shot scenarios) and releases them at its end, so every
  /// pass runs on fresh ones. `spans` is null in untraced passes.
  virtual void pass(SpanLog* spans) = 0;
  /// Op counts, output checks, simulated results and sizes; in a traced run
  /// (`traced` non-null) also the per-layer metrics, whose
  /// microbenchmarks run here.
  virtual void finish(Report& report, const TracedPass* traced) = 0;
};

/// Times setup, the warm-up and the passes of `w`; fills the wall-time
/// metrics (ops_per_s, setup_s, peak_rss_mib, or the traced run's
/// obs.trace_overhead_pct) and whatever w.finish() adds. Every timed
/// section counts in reference seconds (Yardstick::reference_s).
Report run_workload(Workload& w, const Options& options);

// ------------------------------------------------------------------ stats

double seconds_since(std::chrono::steady_clock::time_point t0);
double median(std::vector<double> v);
double mean(const std::vector<double>& v);

/// Nearest-rank percentile q in (0, 1] of `v`.
double percentile(std::vector<double> v, double q);

/// <prefix>_mean_s, <prefix>_p50_s and <prefix>_pNN_s (NN = 100 *
/// tail_q) of simulated latencies in seconds, as per-layer metrics. The
/// sample count and the number above the tail's rank are printed: a
/// workload picks the highest percentile that leaves at least ten when
/// every op completes.
void add_latency_metrics(Report& r, const std::string& prefix,
                         const std::vector<double>& latency_s, double tail_q);

/// Median wall milliseconds of `reps` calls of `fn`.
template <typename Fn>
double median_ms(int reps, Fn&& fn) {
  std::vector<double> ms;
  for (int i = 0; i < reps; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    ms.push_back(seconds_since(t0) * 1e3);
  }
  return median(std::move(ms));
}

constexpr double kMiB = 1024.0 * 1024.0;

/// The counter `name` in `m`; 0 when the pass never bumped it.
double counter(const hpcc::obs::MetricsSnapshot& m, const std::string& name);

/// a / b, or 0 when b is 0.
inline double ratio(double a, double b) { return b > 0 ? a / b : 0.0; }

/// `s` as a quoted JSON string.
std::string json_string(std::string_view s);

/// Lowercase, with characters outside [a-z0-9_.-] replaced by '-'
/// (engine and scenario names become metric-name components).
std::string metric_key(std::string_view s);

}  // namespace perfbench
