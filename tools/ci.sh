#!/usr/bin/env bash
# Local CI entry point: builds the normal and sanitizer configurations
# and runs the full test suite under both, plus a ThreadSanitizer pass
# over the concurrency tests, quick bench smokes and a one-second run of
# each perfbench workload, untraced and traced. The normal configuration
# treats every compiler warning as an error, so the build stays
# warning-free.
#
#   tools/ci.sh              # build + ctest, ASan/UBSan, TSan, bench smoke
#   SKIP_SAN=1 tools/ci.sh   # skip the ASan/UBSan configuration
#   SKIP_TSAN=1 tools/ci.sh  # skip the ThreadSanitizer configuration
#   SKIP_BENCH=1 tools/ci.sh # skip the bench and perfbench smokes
#   SKIP_CHAOS=1 tools/ci.sh # skip the chaos-fleet resilience gate
#   SKIP_CONTROL=1 tools/ci.sh # skip the closed-loop control smoke
#   SKIP_OBS=1 tools/ci.sh   # skip the observability trace validation
#   SKIP_DCHECK=1 tools/ci.sh # skip the dcheck sweep/fixtures stage
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
jobs="$(nproc 2>/dev/null || echo 4)"

run_config() {
  local build_dir="$1"; shift
  echo "== configure $build_dir ($*)"
  cmake -B "$build_dir" -S "$repo_root" -DCMAKE_EXPORT_COMPILE_COMMANDS=ON "$@"
  echo "== build $build_dir"
  cmake --build "$build_dir" -j "$jobs"
  echo "== test $build_dir"
  ctest --test-dir "$build_dir" --output-on-failure -j "$jobs"
}

# Data-path layering (DESIGN.md §8): the sim storage primitives (page
# cache, shared FS, node-local NVMe) are reached only through the
# storage tiers that a storage::CacheHierarchy composes — no direct use
# outside src/sim (the models) and src/storage (the tiers).
echo "== layering check (sim storage primitives only behind src/storage)"
if grep -rnE '\b(PageCache|SharedFilesystem|NodeLocalStorage)\b' \
     "$repo_root/src" \
     --include='*.h' --include='*.cpp' \
     | grep -vE "^$repo_root/src/(sim|storage)/"; then
  echo "layering violation: sim storage primitive referenced outside" \
       "src/sim and src/storage (route it through storage::CacheHierarchy)"
  exit 1
fi

# Knob inventory: the HPCC_* variables read under src/ (the names passed
# to getenv / env_uint) must be exactly the ones README's
# environment-knob list documents.
echo "== knob check (HPCC_* read under src/ vs README knob list)"
knobs_src="$(grep -rhozP '(getenv|env_uint)\(\s*"\KHPCC_[A-Z0-9_]+' \
               "$repo_root/src" --include='*.h' --include='*.cpp' \
             | tr '\0' '\n' | sort -u)"
knobs_doc="$(sed -n '/^Environment knobs/,/^The numeric knobs/p' \
               "$repo_root/README.md" | grep -oE 'HPCC_[A-Z0-9_]+' | sort -u)"
if [[ "$knobs_src" != "$knobs_doc" ]]; then
  echo "knob list mismatch (< read under src/ only, > in README only):"
  diff <(echo "$knobs_src") <(echo "$knobs_doc") || true
  exit 1
fi
echo "knob check: $(echo "$knobs_src" | wc -l) knobs, README agrees"

run_config "$repo_root/build" -DCMAKE_COMPILE_WARNING_AS_ERROR=ON

if [[ "${SKIP_SAN:-}" != "1" ]]; then
  run_config "$repo_root/build-asan" -DHPCC_SANITIZE=address,undefined
fi

# ThreadSanitizer over the execution-layer tests only: TSan is ~5-15x
# slower than native, and the sequential suites exercise no cross-thread
# interleavings TSan could observe.
if [[ "${SKIP_TSAN:-}" != "1" ]]; then
  tsan_dir="$repo_root/build-tsan"
  echo "== configure $tsan_dir (-DHPCC_SANITIZE=thread)"
  cmake -B "$tsan_dir" -S "$repo_root" -DHPCC_SANITIZE=thread
  echo "== build $tsan_dir (concurrency_test fault_test obs_test dcheck_test" \
       "resilience_test)"
  cmake --build "$tsan_dir" -j "$jobs" --target concurrency_test fault_test \
    obs_test dcheck_test resilience_test control_test
  echo "== test $tsan_dir" \
       "(ThreadPool|Concurrent|Pipeline|Fault|Obs|Dcheck|Resil|Ctrl)"
  ctest --test-dir "$tsan_dir" --output-on-failure -j "$jobs" \
    -R 'ThreadPool|Concurrent|Pipeline|Fault|Obs|Dcheck|Resil|Ctrl'
fi

# Quick smoke of the sequential-vs-parallel pipeline bench, including
# the skewed work-stealing vs shared-index scheduler race; fails the
# run on any determinism violation and leaves a machine-readable
# summary at BENCH_parallel_pipeline.json in the repo root (committed,
# so scheduler regressions show up in review).
if [[ "${SKIP_BENCH:-}" != "1" ]]; then
  echo "== bench smoke (bench_parallel_pipeline --quick, skewed scheduler race)"
  cmake --build "$repo_root/build" -j "$jobs" --target bench_parallel_pipeline
  "$repo_root/build/bench/bench_parallel_pipeline" --quick \
    --json "$repo_root/BENCH_parallel_pipeline.json"
  echo "== bench smoke (bench_cache_hierarchy --quick)"
  cmake --build "$repo_root/build" -j "$jobs" --target bench_cache_hierarchy
  "$repo_root/build/bench/bench_cache_hierarchy" --quick \
    --json "$repo_root/build/BENCH_cache_hierarchy.json"
fi

# Benchmark smoke: one second of each perfbench workload at seed 1,
# untraced and traced. A workload checks itself (same-seed passes
# identical, no negative mean pod start, no failed ops); its last line
# must report "correct": true and "failed": 0. The traced run also fails
# when a per-layer metric BENCHMARK.json names goes unmeasured.
if [[ "${SKIP_BENCH:-}" != "1" ]]; then
  for workload in pull_storm container_start site_sched; do
    for trace in 0 1; do
      echo "== perfbench smoke ($workload, seed 1, 1 s, trace $trace)"
      result="$(cd "$repo_root" && python3 perfbench/run.py \
        --workload "$workload" --seed 1 --seconds 1 --trace "$trace" \
        | tail -n 1)"
      python3 - "$workload $trace" "$result" <<'EOF'
import json, sys

run, result = sys.argv[1], json.loads(sys.argv[2])
if result["correct"] is not True or result["failed"] != 0:
    sys.exit(f"perfbench {run}: correct={result['correct']} "
             f"failed={result['failed']} of {result['attempted']}")
print(f"perfbench {run}: correct, {result['attempted']} ops, 0 failed, "
      f"{len(result['metrics'])} metrics")
EOF
    done
  done
fi

# Chaos smoke: seeded WAN fault plans at up to 10% per-transfer rate
# against the pull and lazy-mount paths. The bench exits non-zero on
# any lost operation (completion < 100%), any fault surviving the retry
# budget, or any same-seed reproducibility violation. Pinned seed so
# every CI run replays the identical fault schedule.
if [[ "${SKIP_BENCH:-}" != "1" ]]; then
  echo "== chaos smoke (bench_fault_recovery --quick)"
  cmake --build "$repo_root/build" -j "$jobs" --target bench_fault_recovery
  HPCC_FAULT_SEED="${HPCC_FAULT_SEED:-12648430}" \
    "$repo_root/build/bench/bench_fault_recovery" --quick \
    --json "$repo_root/build/BENCH_fault_recovery.json"
fi

# Fleet smoke (DESIGN.md §13): the §5.1.3 proxy/rate-limit/quota pull
# scenario on the DES kernel, run twice with the same seed. The bench
# exits non-zero when any node fails to complete its pull, when the
# rate limiter or the quota never engages, or when the two runs'
# results are not byte-identical. Summary committed at BENCH_fleet.json
# in the repo root, so kernel regressions show up in review.
if [[ "${SKIP_BENCH:-}" != "1" ]]; then
  echo "== fleet smoke (bench_fleet --quick, same-seed identity)"
  cmake --build "$repo_root/build" -j "$jobs" --target bench_fleet
  "$repo_root/build/bench/bench_fleet" --quick \
    --json "$repo_root/BENCH_fleet.json"
fi

# Chaos-fleet resilience gate: a 4096-node pull storm through
# overlapping brownout / proxy-flap / partition windows, resilient arm
# vs baseline arm over the same seeded plan. The bench exits non-zero
# when the resilient fleet completes < 99% of pulls, retry
# amplification exceeds 2x, the resilient arm puts more fetches on the
# origin than the baseline (a cascade), the breakers/shedding never
# engage, or a same-seed rerun diverges. Summary committed at
# BENCH_chaos_fleet.json in the repo root, so resilience regressions
# show up in review. It runs at full size: with the SHA-NI kernel it
# takes less wall time than the 1024-node --quick run did on the scalar
# one.
if [[ "${SKIP_CHAOS:-}" != "1" ]]; then
  echo "== chaos fleet (bench_chaos_fleet, 4096 nodes, resilient vs baseline)"
  cmake --build "$repo_root/build" -j "$jobs" --target bench_chaos_fleet
  HPCC_FAULT_SEED="${HPCC_FAULT_SEED:-805381}" \
    "$repo_root/build/bench/bench_chaos_fleet" \
    --json "$repo_root/BENCH_chaos_fleet.json"
fi

# Closed-loop control smoke (ISSUE 10, DESIGN.md §15): the adaptive
# controller against the static (route, prefetch-depth) grid on a
# drifting workload whose best configuration changes mid-run. The
# bench exits non-zero when the closed-loop arm fails to beat the
# worst static by 1.3x mean pull latency, misses the static oracle by
# more than 10%, never actuates, when the controller-off arm is not
# byte-identical to the static it shadows, or when a same-seed rerun
# diverges in simulation bytes or decision log. Summary committed at
# BENCH_adaptive_control.json in the repo root, so control-plane
# regressions show up in review.
if [[ "${SKIP_CONTROL:-}" != "1" ]]; then
  echo "== control smoke (bench_adaptive_control --quick, closed loop vs statics)"
  cmake --build "$repo_root/build" -j "$jobs" --target bench_adaptive_control
  "$repo_root/build/bench/bench_adaptive_control" --quick \
    --json "$repo_root/BENCH_adaptive_control.json"
fi

# Observability smoke (DESIGN.md §10): run an instrumented scenario
# with HPCC_TRACE/HPCC_METRICS exports and validate that the Chrome
# trace is well-formed JSON with balanced begin/end events (every 'B'
# closed by an 'E', every async 'b' by an 'e') and that the metrics
# snapshot parses. Needs python3 for the JSON checks.
if [[ "${SKIP_OBS:-}" != "1" ]]; then
  if command -v python3 >/dev/null 2>&1; then
    echo "== obs smoke (instrumented bench_cache_hierarchy --trace)"
    cmake --build "$repo_root/build" -j "$jobs" --target bench_cache_hierarchy
    HPCC_METRICS="$repo_root/build/obs_metrics.json" \
      "$repo_root/build/bench/bench_cache_hierarchy" --quick \
      --trace "$repo_root/build/obs_trace.json"
    python3 - "$repo_root/build/obs_trace.json" \
      "$repo_root/build/obs_metrics.json" <<'EOF'
import json, sys

with open(sys.argv[1]) as f:
    trace = json.load(f)
events = trace["traceEvents"]
assert events, "trace has no events"
open_sync, open_async = 0, {}
for ev in events:
    ph = ev["ph"]
    if ph == "B":
        open_sync += 1
    elif ph == "E":
        open_sync -= 1
        assert open_sync >= 0, "E without matching B"
    elif ph == "b":
        key = (ev["cat"], ev["name"], ev["id"])
        assert key not in open_async, f"duplicate async begin {key}"
        open_async[key] = True
    elif ph == "e":
        key = (ev["cat"], ev["name"], ev["id"])
        assert open_async.pop(key, None), f"async end without begin {key}"
    assert ev["ts"] >= 0, "negative sim-time stamp"
assert open_sync == 0, f"{open_sync} unclosed spans"
assert not open_async, f"unclosed async spans: {list(open_async)}"

with open(sys.argv[2]) as f:
    metrics = json.load(f)
assert metrics["counters"], "metrics snapshot has no counters"
print(f"obs smoke: {len(events)} events balanced, "
      f"{len(metrics['counters'])} counters exported")
EOF
  else
    echo "== obs smoke skipped (python3 not found)"
  fi
fi

# dcheck stage (DESIGN.md §11): the dynamic correctness harness over
# the real data path. `sweep` must come back clean; `fixtures` runs the
# deliberately broken workloads and must flag all three diagnostics
# (RACE001 race, RACE002 lock-order inversion, DET001 schedule-dependent
# output) with a non-zero exit — the self-test that the detector
# detects. Same seed twice must render byte-identical JSON.
if [[ "${SKIP_DCHECK:-}" != "1" ]]; then
  echo "== dcheck sweep (instrumented data path must be clean)"
  cmake --build "$repo_root/build" -j "$jobs" --target hpcc-dcheck
  "$repo_root/build/tools/hpcc-dcheck" sweep --json --seed 42 \
    > "$repo_root/build/dcheck_sweep.json"

  echo "== dcheck fixtures (broken workloads must be flagged)"
  if "$repo_root/build/tools/hpcc-dcheck" fixtures --json --seed 42 \
       > "$repo_root/build/dcheck_fixtures.json"; then
    echo "dcheck fixtures exited 0 — the detector missed its fixtures"
    exit 1
  fi
  for code in RACE001 RACE002 DET001; do
    if ! grep -q "$code" "$repo_root/build/dcheck_fixtures.json"; then
      echo "dcheck fixtures report is missing $code"
      exit 1
    fi
  done

  echo "== dcheck report determinism (same seed => identical JSON)"
  "$repo_root/build/tools/hpcc-dcheck" fixtures --json --seed 42 \
    > "$repo_root/build/dcheck_fixtures2.json" || true
  cmp "$repo_root/build/dcheck_fixtures.json" \
      "$repo_root/build/dcheck_fixtures2.json"
fi

echo "== ci.sh: all configurations passed"
