#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload des-sweep --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test

The first call configures the repository's own CMake project in
Release under .bench_build/ (the benchmark is attached to it through
CMAKE_PROJECT_INCLUDE, see perfbench.cmake) and builds the benchmark
binary; later calls rebuild incrementally. The binary's standard output
is passed through unchanged: its last line is the JSON result.

--self-test builds and runs the benchmark's own tests, then runs every
workload (des-sweep too, which BENCHMARK.json leaves out) on tiny
inputs in both modes and checks the reported metric names against
BENCHMARK.json.

Exit codes: 0 run completed (correctness is in the JSON), 1 self-test
failed, 2 the benchmark could not be built or run.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Every workload the binary runs. BENCHMARK.json lists the ones steady
# enough to gate on; des-sweep is left out of it (see README.md).
WORKLOADS = ("des-sweep", "des-machine", "host-infer")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def configured_source(out):
    """The source directory recorded in @out's CMake cache, or None."""
    cache = out / "CMakeCache.txt"
    if not cache.is_file():
        return None
    for line in cache.read_text(errors="replace").splitlines():
        if line.startswith("CMAKE_HOME_DIRECTORY:"):
            return Path(line.split("=", 1)[1]).resolve()
    return None


def run_logged(cmd, log):
    with open(log, "a") as out:
        out.write("$ " + " ".join(str(c) for c in cmd) + "\n")
        out.flush()
        return subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode


def build(targets):
    """Configure (once) and build @targets; returns the build directory."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no repository sources next to {HERE.name}/ (looked in {ROOT})")
    # The tree always lives inside this checkout. A tree configured from
    # another source directory (a copied or moved checkout) would build
    # that directory's sources, so it is wiped and configured afresh.
    out = ROOT / ".bench_build" / "perfbench"
    source = configured_source(out)
    if source is not None and source != ROOT:
        shutil.rmtree(out)
        source = None
    out.mkdir(parents=True, exist_ok=True)
    log = out / "build.log"
    if source is None:
        rc = run_logged(
            [
                "cmake", "-S", ROOT, "-B", out,
                "-DCMAKE_BUILD_TYPE=Release",
                f"-DCMAKE_PROJECT_INCLUDE={HERE / 'perfbench.cmake'}",
                "-DPGCN_WERROR=OFF",
            ],
            log,
        )
        if rc != 0:
            (out / "CMakeCache.txt").unlink(missing_ok=True)
            fail(f"cmake configure failed, see {log}")
    jobs = str(os.cpu_count() or 1)
    for target in targets:
        rc = run_logged(
            ["cmake", "--build", out, "--target", target, "-j", jobs], log
        )
        if rc != 0:
            fail(f"building {target} failed, see {log}")
    return out


def benchmark_json():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def self_test(out):
    """Unit tests, then a tiny run of every workload in both modes."""
    failures = []
    if subprocess.run([out / "perfbench_tests"], cwd=out).returncode != 0:
        failures.append("perfbench_tests failed")
    spec = benchmark_json()
    expected = {
        0: [m["name"] for m in spec["end_to_end"]],
        1: [m["name"] for m in spec["per_layer"]],
    }
    listed = [w["name"] for w in spec["workloads"]]
    if not set(listed) <= set(WORKLOADS):
        failures.append(f"BENCHMARK.json names unknown workloads: {listed}")
    for workload in WORKLOADS:
        for trace in (0, 1):
            cmd = [
                out / "pgcn_perfbench", "--workload", workload, "--seed", "5",
                "--seconds", "0.5", "--trace", str(trace), "--tiny",
                "--trace-dir", out / "traces",
            ]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            label = f"{workload} trace={trace}"
            if proc.returncode != 0:
                failures.append(f"{label}: exit {proc.returncode}: {proc.stderr}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                failures.append(f"{label}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                failures.append(f"{label}: not correct: {proc.stdout}")
            if list(result["metrics"]) != expected[trace]:
                failures.append(f"{label}: metrics {list(result['metrics'])}")
            print(f"self-test {label}: {result['attempted']} requests ok")
    for failure in failures:
        print("FAILED:", failure, file=sys.stderr)
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    if args.self_test:
        sys.exit(self_test(build(["perfbench_tests", "pgcn_perfbench"])))
    if not args.workload:
        fail("--workload is required")
    out = build(["pgcn_perfbench"])
    cmd = [
        out / "pgcn_perfbench",
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--trace-dir", out / "traces",
    ]
    sys.stdout.flush()
    sys.exit(subprocess.run(cmd).returncode)


if __name__ == "__main__":
    main()
