#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark of the reconciliation system.

    python3 perfbench/run.py --workload batch_paper|batch_1m|serve_mixed \
        --seed N --seconds S --trace 0|1

Run it from the root of a source tree. The first call configures and builds
perfbench/ (which compiles the repository's libraries from src/) into
.bench_build/perfbench; later calls only re-check the build. Build output goes
to stderr. The benchmark binary's output is passed through: human-readable
progress, a `context` line, an `info` line, and as the last line the result
object {"correct", "attempted", "failed", "metrics"}. The metric names are
checked against BENCHMARK.json: --trace 0 reports exactly its end_to_end
metrics, --trace 1 exactly its per_layer metrics, where a layer the workload
does not exercise reads 0. The exit status is 0 only when the run completed
and every correctness check passed.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(BUILD_ROOT, "perfbench")
WORKLOADS = ("batch_paper", "batch_1m", "serve_mixed")
RUN_TIMEOUT_S = 170


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no src/CMakeLists.txt next to perfbench/; "
                 "run from a full source tree")
    os.makedirs(BUILD_ROOT, exist_ok=True)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                   stdout=sys.stderr, check=True)
    return os.path.join(BUILD, "perfbench")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def complete(result, expected, trace):
    """Checks the result's metrics against BENCHMARK.json; with --trace 1
    adds the per-layer metrics this workload does not measure, as 0."""
    metrics = result["metrics"]
    for name, entry in metrics.items():
        if expected.get(name) != entry.get("unit"):
            return f"metric {name} ({entry.get('unit')}) not in BENCHMARK.json"
    for name, unit in expected.items():
        if name not in metrics:
            if not trace:
                return f"end-to-end metric {name} missing"
            metrics[name] = {"value": 0, "unit": unit}
    result["metrics"] = {name: metrics[name] for name in expected}
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as err:
        sys.exit(f"perfbench: build failed: {err}")

    scratch = tempfile.mkdtemp(prefix="run-", dir=BUILD_ROOT)
    try:
        proc = subprocess.run(
            [binary, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", repr(args.seconds), "--trace", str(args.trace),
             "--scratch", scratch],
            stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: run exceeded {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
        error = None
        if set(result) != {"correct", "attempted", "failed", "metrics"}:
            error = "malformed result line"
    except (ValueError, TypeError):
        result, error = None, "no result line"
    if error is None:
        error = complete(result, expected_metrics(args.trace), args.trace)
    if error is not None:
        sys.stderr.write(proc.stdout)
        sys.exit(f"perfbench: {error}")
    print("\n".join(lines[:-1]))
    print(json.dumps(result), flush=True)
    if proc.returncode != 0:
        sys.exit(f"perfbench: a correctness check failed "
                 f"(exit {proc.returncode})")


if __name__ == "__main__":
    main()
