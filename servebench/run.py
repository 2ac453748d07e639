#!/usr/bin/env python3
"""Entry point of the serving benchmark.

Run from the repository root:

    python3 servebench/run.py --workload cold_batch --seed 1 --seconds 20 --trace 0

Builds the benchmark package (servebench/CMakeLists.txt, which builds the
library with the repository's own CMakeLists.txt) into $CARGO_TARGET_DIR or
.bench_build, writes the workload's seeded input graph there, and runs
serve_bench. Everything it reads or writes stays inside the repository
checkout. The last line of
standard output is the run's JSON result; with --trace 1 the spans are
written to <build dir>/traces/. BENCHMARK.json lists the workloads and
metrics; servebench/facts.json records each workload's setting.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("cold_batch", "heavy_enum", "live_stream", "sharded")
BUILD_TIMEOUT_S = 840
RUN_BUDGET_S = 175


def log(msg):
    print(f"servebench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    d = os.path.realpath(os.path.join(ROOT, d))
    if os.path.commonpath([d, os.path.realpath(ROOT)]) != os.path.realpath(ROOT):
        raise SystemExit(f"servebench: build dir {d} is outside the checkout")
    return d


def run_quiet(cmd, timeout):
    """Runs cmd with its output sent to stderr; returns its exit code."""
    try:
        return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout, check=False).returncode
    except subprocess.TimeoutExpired:
        log(f"timed out: {' '.join(cmd)}")
        return 124


def build(out):
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "path_enum.h")):
        log("library sources (src/) not found; nothing to benchmark")
        return None
    cmake = shutil.which("cmake")
    if cmake is None:
        log("cmake not found")
        return None
    pkg = os.path.join(out, "servebench")
    configure = [cmake, "-S", HERE, "-B", pkg, "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not os.path.isfile(os.path.join(pkg, "Makefile")):
        configure += ["-G", "Ninja"]
    start = time.monotonic()
    if run_quiet(configure, BUILD_TIMEOUT_S) != 0:
        return None
    left = BUILD_TIMEOUT_S - (time.monotonic() - start)
    jobs = str(os.cpu_count() or 2)
    if run_quiet([cmake, "--build", pkg, "-j", jobs, "--target", "serve_bench"],
                 left) != 0:
        return None
    binary = os.path.join(pkg, "serve_bench")
    return binary if os.access(binary, os.X_OK) else None


def expected_metrics(trace):
    """Metric names BENCHMARK.json promises for this kind of run."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    with open(path, encoding="utf-8") as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 60:
        p.error("--seed must be >= 0 and --seconds in 1..60")

    out = build_dir()
    binary = build(out)
    if binary is None:
        log("build failed")
        return 1
    started = time.monotonic()

    data = os.path.join(out, "data")
    os.makedirs(data, exist_ok=True)
    graph = os.path.join(data, f"{args.workload}-{args.seed}-{os.getpid()}.bin")
    try:
        return measure(args, binary, graph, out, started)
    finally:
        if os.path.exists(graph):
            os.remove(graph)


def measure(args, binary, graph, out, started):
    """Writes the seeded input graph, then runs and validates one measurement."""
    if run_quiet([binary, "--make-graph", "--workload", args.workload,
                  "--seed", str(args.seed), "--graph", graph], 120) != 0:
        log("input generation failed")
        return 1

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--graph", graph]
    if args.trace:
        traces = os.path.join(out, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--spans", os.path.join(
            traces, f"{args.workload}-seed{args.seed}.json")]
    budget = RUN_BUDGET_S - (time.monotonic() - started)
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=budget, check=False)
    except subprocess.TimeoutExpired as e:
        partial = e.stdout.decode() if isinstance(e.stdout, bytes) else e.stdout
        log(f"benchmark run timed out; its output so far:\n{partial or ''}")
        return 124
    lines = proc.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    if proc.returncode not in (0, 1):
        print(lines[-1])
        log(f"serve_bench exited with {proc.returncode}")
        return proc.returncode

    result = json.loads(lines[-1])
    missing = expected_metrics(args.trace) ^ set(result["metrics"])
    if missing:
        log(f"metrics differ from BENCHMARK.json: {sorted(missing)}")
        return 1
    print(lines[-1], flush=True)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
