#!/usr/bin/env python3
"""Build and run the hpcc benchmark.

    python3 perfbench/run.py --workload pull_storm --seed 1 --seconds 10 --trace 0

Run from the repository root. The first run configures and builds
perfbench/ (and the hpcc libraries it links) into .bench_build/; later
runs only re-check the build. The benchmark's report goes to stdout, and
its last line is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

holding the end-to-end metrics BENCHMARK.json names (--trace 0) or its
per-layer metrics (--trace 1). A per-layer metric reads 0 only when the
workload declares it unmeasured (a layer it never calls); any other
missing metric is an error. --trace 1 also writes the benchmark's
spans to .bench_build/traces/<workload>-seed<seed>.json, a Chrome trace
that Perfetto loads.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
BINARY = BUILD / "hpcc_bench"
RUN_TIMEOUT_S = 170


def fail(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    jobs = str(min(os.cpu_count() or 1, 8))
    # Compiler temporaries stay inside the checkout too.
    tmp = BUILD / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "hpcc_bench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          env=env).returncode:
            fail("build failed: " + " ".join(cmd))


def revision():
    """The git revision when there is one, and always a digest of the
    sources the binary is built from (a benchmark checkout has no .git)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file():
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    rev = "src-sha256:" + h.hexdigest()[:16]
    try:
        git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if git.returncode == 0:
            rev = "git:" + git.stdout.strip()[:12] + " " + rev
    except (OSError, subprocess.TimeoutExpired):
        pass
    return rev


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload!r}", 2)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    build()
    cmd = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--rev", revision()]
    if args.trace:
        traces = BUILD / "traces"
        traces.mkdir(exist_ok=True)
        cmd += ["--trace-out",
                str(traces / f"{args.workload}-seed{args.seed}.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"no result within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines[-1].startswith("{"):
        sys.stderr.write(proc.stdout)
        fail(f"hpcc_bench exited with {proc.returncode} and no result")
    result = json.loads(lines[-1])
    print("\n".join(lines[:-1]))

    measured = result["metrics"]
    unmeasured = tuple(result["unmeasured"]) if args.trace else ()
    metrics = {}
    for m in wanted:
        got = measured.get(m["name"])
        if got is None:
            if not m["name"].startswith(unmeasured):
                fail(f"metric {m['name']} was not measured")
            got = {"value": 0, "unit": m["unit"]}
        if got["unit"] != m["unit"]:
            fail(f"{m['name']} measured in {got['unit']}, "
                 f"BENCHMARK.json says {m['unit']}")
        metrics[m["name"]] = got
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
