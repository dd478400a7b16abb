#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>

#include "obs/obs.h"
#include "workloads.h"

namespace perfbench {

namespace {

// Before every pass the inputs are built afresh in a timed slice:
// setup() repeats until kSetupSliceS is spent, and the slice's mean is
// one sample. A sub-millisecond set-up is thus timed over a hundred
// milliseconds of work, not call by call near the timer's resolution;
// setup_s is the median of the run's samples. Each run times at least
// kMinPasses passes per kind (plain, traced) for its medians.
constexpr double kSetupSliceS = 0.1;
constexpr std::size_t kMinPasses = 3;

// The yardstick hashes kChunkBytes at a time (about 80 us at 200 MB/s).
constexpr std::size_t kChunkBytes = 16 * 1024;

constexpr std::uint32_t kSha256K[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

inline std::uint32_t rotr(std::uint32_t x, int n) {
  return (x >> n) | (x << (32 - n));
}

/// The SHA-256 compression function over one 64-byte block.
void sha256_block(std::uint32_t* h, const unsigned char* p) {
  std::uint32_t w[64];
  for (int i = 0; i < 16; ++i)
    w[i] = (std::uint32_t{p[4 * i]} << 24) |
           (std::uint32_t{p[4 * i + 1]} << 16) |
           (std::uint32_t{p[4 * i + 2]} << 8) | p[4 * i + 3];
  for (int i = 16; i < 64; ++i) {
    const std::uint32_t s0 =
        rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
    const std::uint32_t s1 =
        rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
    w[i] = w[i - 16] + s0 + w[i - 7] + s1;
  }
  std::uint32_t a = h[0], b = h[1], c = h[2], d = h[3], e = h[4], f = h[5],
                g = h[6], k = h[7];
  for (int i = 0; i < 64; ++i) {
    const std::uint32_t t1 = k + (rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25)) +
                             ((e & f) ^ (~e & g)) + kSha256K[i] + w[i];
    const std::uint32_t t2 = (rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22)) +
                             ((a & b) ^ (a & c) ^ (b & c));
    k = g;
    g = f;
    f = e;
    e = d + t1;
    d = c;
    c = b;
    b = a;
    a = t1 + t2;
  }
  h[0] += a;
  h[1] += b;
  h[2] += c;
  h[3] += d;
  h[4] += e;
  h[5] += f;
  h[6] += g;
  h[7] += k;
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace

// ------------------------------------------------------------------ spans

SpanLog::SpanLog() : epoch_(std::chrono::steady_clock::now()) {}

double SpanLog::now_us() const {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

void SpanLog::clear() {
  spans_.clear();
  open_.clear();
}

SpanLog::Scope::Scope(SpanLog* log, const char* layer, std::string name,
                      std::uint64_t op)
    : log_(log) {
  if (log_ == nullptr) return;
  Span s;
  s.id = log_->spans_.size() + 1;
  s.parent = log_->open_.empty() ? 0 : log_->spans_[log_->open_.back()].id;
  s.op = op;
  s.layer = layer;
  s.name = std::move(name);
  s.begin_us = log_->now_us();
  index_ = log_->spans_.size();
  log_->spans_.push_back(std::move(s));
  log_->open_.push_back(index_);
}

SpanLog::Scope::~Scope() {
  if (log_ == nullptr) return;
  log_->spans_[index_].end_us = log_->now_us();
  log_->open_.pop_back();
}

std::vector<SpanLog::LayerTime> SpanLog::self_times() const {
  // Spans nest on one thread, so a span's children never overlap and
  // their durations subtract directly. Ids are 1-based indices.
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i)
    self[i] = spans_[i].end_us - spans_[i].begin_us;
  for (const auto& s : spans_)
    if (s.parent != 0) self[s.parent - 1] -= s.end_us - s.begin_us;
  std::map<std::string, LayerTime> by_layer;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    auto& t = by_layer[spans_[i].layer];
    t.layer = spans_[i].layer;
    t.self_ms += self[i] / 1e3;
    ++t.calls;
  }
  std::vector<LayerTime> out;
  for (auto& [_, t] : by_layer) out.push_back(t);
  return out;
}

bool SpanLog::write_chrome_trace(const std::string& path) const {
  std::string out = "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
  char num[160];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out += i == 0 ? "\n" : ",\n";
    out += "{\"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"cat\": ";
    out += json_string(s.layer);
    out += ", \"name\": ";
    out += json_string(s.layer + "." + s.name);
    std::snprintf(num, sizeof num,
                  ", \"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %llu, "
                  "\"parent\": %llu, \"op\": %llu}}",
                  s.begin_us, s.end_us - s.begin_us,
                  static_cast<unsigned long long>(s.id),
                  static_cast<unsigned long long>(s.parent),
                  static_cast<unsigned long long>(s.op));
    out += num;
  }
  out += "\n]}\n";
  std::ofstream f(path, std::ios::trunc);
  f << out;
  return static_cast<bool>(f);
}

// -------------------------------------------------------------- yardstick

Yardstick::Yardstick() : chunk_(kChunkBytes) {
  for (std::size_t i = 0; i < chunk_.size(); ++i)
    chunk_[i] = static_cast<unsigned char>(i * 131 + 7);
  start();
}

void Yardstick::start() {
  own_s_ = 0;
  hashed_ = 0;
  start_ = std::chrono::steady_clock::now();
}

void Yardstick::hash_chunk() {
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t off = 0; off < chunk_.size(); off += 64)
    sha256_block(state_, chunk_.data() + off);
  own_s_ += seconds_since(t0);
  hashed_ += chunk_.size();
}

void Yardstick::tick() {
  if (weight_ == 0) return;
  while (own_s_ < kShare * seconds_since(start_)) hash_chunk();
}

double Yardstick::stop() {
  if (weight_ == 0) return seconds_since(start_);
  tick();
  if (hashed_ == 0) hash_chunk();
  mbps_ = static_cast<double>(hashed_) / 1e6 / own_s_;
  return seconds_since(start_) - own_s_;
}

Yardstick& yardstick() {
  static Yardstick y;
  return y;
}

// ------------------------------------------------------------------ stats

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double mean(const std::vector<double>& v) {
  double sum = 0;
  for (double x : v) sum += x;
  return v.empty() ? 0 : sum / static_cast<double>(v.size());
}

namespace {
std::size_t rank_index(std::size_t n, double q) {
  const auto rank =
      static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  return std::clamp<std::size_t>(rank, 1, n) - 1;
}
}  // namespace

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  return v[rank_index(v.size(), q)];
}

void add_latency_metrics(Report& r, const std::string& prefix,
                         const std::vector<double>& latency_s, double tail_q) {
  const std::size_t n = latency_s.size();
  const std::string tail =
      prefix + "_p" + std::to_string(static_cast<int>(tail_q * 100 + 0.5)) +
      "_s";
  r.layer(prefix + "_mean_s", mean(latency_s), "s");
  r.layer(prefix + "_p50_s", percentile(latency_s, 0.5), "s");
  r.layer(tail, percentile(latency_s, tail_q), "s");
  r.info(prefix + ".samples", static_cast<double>(n), "count");
  r.info(tail + ".samples_beyond",
         n == 0 ? 0.0 : static_cast<double>(n - 1 - rank_index(n, tail_q)),
         "count");
}

std::string json_string(std::string_view s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += static_cast<unsigned char>(c) < 0x20 ? ' ' : c;
  }
  return out + '"';
}

std::string metric_key(std::string_view s) {
  std::string out;
  for (char c : s) {
    if (c >= 'A' && c <= 'Z') c = static_cast<char>(c - 'A' + 'a');
    const bool ok = (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
                    c == '_' || c == '.' || c == '-';
    out += ok ? c : '-';
  }
  return out;
}

// ------------------------------------------------------------ pass loop

Report run_workload(Workload& w, const Options& options) {
  Report report;

  // Warm-up: fills allocator pools and page mappings, and is the
  // reference simulation every timed pass must reproduce.
  Yardstick& ys = yardstick();
  ys.set_weight(w.yardstick_weight());
  ys.start();
  w.setup();
  w.pass(nullptr);
  ys.stop();

  // Timed passes. A traced run alternates plain and traced passes so
  // both see the same machine state; the difference of their medians is
  // the tracing overhead.
  SpanLog spans;
  TracedPass last_traced;
  last_traced.spans = &spans;
  // Set-up and pass times, in reference seconds and in wall seconds.
  std::vector<double> setup_ref, setup_wall;
  std::size_t setups = 0;
  std::vector<double> plain_ref, traced_ref;
  double spent = 0;
  for (int i = 0;; ++i) {
    if (spent >= options.seconds && plain_ref.size() >= kMinPasses &&
        (!options.trace || traced_ref.size() >= kMinPasses))
      break;
    const bool tracing = options.trace && i % 2 == 1;
    // Set-up is timed between the passes, so setup_s sees the machine
    // over the same stretch of the run as ops_per_s. The last build's
    // inputs feed the pass.
    {
      ys.start();
      const auto t0 = std::chrono::steady_clock::now();
      int builds = 0;
      while (seconds_since(t0) < kSetupSliceS) {
        w.setup();
        ++builds;
        ys.tick();
      }
      const double per_build = ys.stop() / builds;
      setup_wall.push_back(per_build);
      setup_ref.push_back(ys.reference_s(per_build));
      setups += builds;
    }
    if (tracing) {
      // Counters and spans are scoped to one pass: configure() clears
      // the registry, and the span log keeps the last traced pass.
      spans.clear();
      hpcc::obs::Config cfg;
      cfg.metrics = true;
      hpcc::obs::configure(cfg);
    }
    ys.start();
    {
      SpanLog::Scope pass_span(tracing ? &spans : nullptr, "bench", "pass");
      w.pass(tracing ? &spans : nullptr);
    }
    const double s = ys.stop();
    if (tracing) {
      last_traced.metrics = hpcc::obs::metrics().snapshot();
      hpcc::obs::reset();
      report.traced_pass_s.push_back(s);
      traced_ref.push_back(ys.reference_s(s));
    } else {
      report.plain_pass_s.push_back(s);
      if (ys.weight() > 0) report.plain_pass_mbps.push_back(ys.mbps());
      plain_ref.push_back(ys.reference_s(s));
    }
    spent += s;
  }

  w.finish(report, options.trace ? &last_traced : nullptr);

  const auto completed = static_cast<double>(report.attempted - report.failed);
  const double pass_s = median(plain_ref);
  report.e2e("ops_per_s", completed / pass_s, "op/s");
  report.e2e("setup_s", median(setup_ref), "s");
  report.e2e("peak_rss_mib", peak_rss_mib(), "MiB");
  if (ys.weight() > 0) {
    report.info("ops_per_wall_s", completed / median(report.plain_pass_s),
                "op/s");
    report.info("setup_wall_s", median(setup_wall), "s");
    report.info("yardstick_mbps", median(report.plain_pass_mbps), "MB/s");
  }
  report.info("setups", static_cast<double>(setups), "count");
  if (options.trace) {
    const double traced_s = median(traced_ref);
    report.layer("obs.trace_overhead_pct", 100.0 * (traced_s - pass_s) / pass_s,
                 "%");
    report.trace_summary = spans.self_times();
    if (!options.trace_out.empty() &&
        !spans.write_chrome_trace(options.trace_out))
      std::fprintf(stderr, "could not write %s\n", options.trace_out.c_str());
  }
  return report;
}

// ----------------------------------------------------------- hpcc counters

double counter(const hpcc::obs::MetricsSnapshot& m, const std::string& name) {
  const auto it = m.counters.find(name);
  return it == m.counters.end() ? 0.0 : static_cast<double>(it->second);
}

void add_storage_metrics(Report& r, const hpcc::obs::MetricsSnapshot& m) {
  // Terminal tiers (the upstream WAN, the shared FS, a resident
  // node-local device) serve every miss, so only caches get a hit ratio.
  for (const char* tier : {"proxy-cache", "upstream-wan", "page-cache",
                           "shared-fs", "node-local"}) {
    const std::string base = std::string("storage.tier.") + tier + ".";
    const double lookups = counter(m, base + "lookups");
    if (lookups == 0) continue;
    const std::string key = std::string("storage.") + tier;
    if (std::string_view(tier) == "proxy-cache" ||
        std::string_view(tier) == "page-cache")
      r.layer(key + ".hit_ratio", counter(m, base + "hits") / lookups, "ratio");
    r.layer(key + ".served_mib", counter(m, base + "bytes_served") / kMiB,
            "MiB");
  }
}

}  // namespace perfbench
