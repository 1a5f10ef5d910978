#!/usr/bin/env python3
"""Sharded-event-domain gate: bit-identity plus an events/sec record.

Runs the fig8 strong-scaling sweep at --domains 1, 2 and 4 (the PR 9
sharded DES core, sim/domain.hpp) and distils the result into
BENCH_PR9.json:

  1. GATE — bit-identity: the checkpoint JSONL and consolidated sweep
     JSON of every sharded run must be byte-identical to the
     --domains 1 run. This is the sharded engine's entire contract:
     `--domains N` may only change how the event calendar is
     partitioned, never a single output byte.

  2. RECORD — events/sec per domain count, from the simulator
     throughput JSON each run writes. Deliberately *not* gated on a
     speedup, only because CI runners are too core-starved and noisy
     for wall-clock assertions. The PIUMA model itself has a positive
     conservative lookahead (bandwidth resolves on the memory response
     path, DESIGN.md §15), so the auto plan runs its larger points on
     threaded Parallel domains; the numbers are recorded so a host
     with spare cores can compare domain counts.

Usage: bench_pr9.py --fig8 <fig8_strong_scaling binary>
                    --out <BENCH_PR9.json>
                    [--domains 1 2 4] [--workdir DIR]
"""

import argparse
import filecmp
import json
import os
import subprocess
import sys


def run_fig8(binary, workdir, domains):
    """Run one fig8 sweep; return its per-file output paths."""
    tag = f"pr9_d{domains}"
    paths = {
        "throughput": os.path.join(workdir, f"{tag}_throughput.json"),
        "checkpoint": os.path.join(workdir, f"{tag}.jsonl"),
        "sweep": os.path.join(workdir, f"{tag}.json"),
    }
    # The CSV positional must stay a bare leaf name: the bench prefixes
    # it per table ("left_<csv>"), so a path would break. Run from the
    # workdir instead.
    cmd = [
        os.path.abspath(binary),
        f"{tag}.csv",
        f"{tag}_throughput.json",
        f"--domains={domains}",
        f"--checkpoint={tag}.jsonl",
        f"--sweep-json={tag}.json",
    ]
    print(f"+ (cd {workdir}) {' '.join(cmd)}", flush=True)
    subprocess.run(cmd, check=True, cwd=workdir)
    return paths


def main(argv):
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--fig8", required=True,
                        help="fig8_strong_scaling binary (Release)")
    parser.add_argument("--out", required=True,
                        help="BENCH_PR9.json output path")
    parser.add_argument("--domains", type=int, nargs="+",
                        default=[1, 2, 4],
                        help="domain counts to sweep (first is the "
                             "serial reference)")
    parser.add_argument("--workdir", default=".",
                        help="where the per-run artefacts land")
    args = parser.parse_args(argv[1:])

    os.makedirs(args.workdir, exist_ok=True)
    failures = []
    record = {}
    reference = None
    for domains in args.domains:
        paths = run_fig8(args.fig8, args.workdir, domains)
        with open(paths["throughput"]) as f:
            throughput = json.load(f)
        record[str(domains)] = {
            "events": throughput["events"],
            "wall_seconds": throughput["wall_seconds"],
            "events_per_sec": throughput["events_per_sec"],
            "peak_queue_depth": throughput["peak_queue_depth"],
            "runs": throughput["runs"],
        }
        if reference is None:
            reference = paths
            continue
        for kind in ("checkpoint", "sweep"):
            if not filecmp.cmp(reference[kind], paths[kind],
                               shallow=False):
                failures.append(
                    f"--domains {domains}: {kind} file differs from "
                    f"--domains {args.domains[0]} "
                    f"({paths[kind]} vs {reference[kind]})")

    base = record[str(args.domains[0])]["events_per_sec"]
    speedup = {d: (v["events_per_sec"] / base if base > 0.0 else 0.0)
               for d, v in record.items()}
    # Simulated events must agree exactly across domain counts — the
    # same property as the file compare, visible in the record too.
    events = {v["events"] for v in record.values()}
    if len(events) != 1:
        failures.append(f"event counts diverge across domain counts: "
                        f"{sorted(events)}")

    report = {
        "bit_identical": not any("differs" in f for f in failures),
        "domains": record,
        "speedup_vs_serial": speedup,
        "gate": "bit-identity (hard); events/sec recorded, not gated "
                "because CI cores are scarce — see DESIGN.md §15",
        "pass": not failures,
    }
    with open(args.out, "w") as f:
        json.dump(report, f, indent=2, sort_keys=True)
        f.write("\n")

    for d in sorted(record, key=int):
        v = record[d]
        print(f"--domains {d}: {v['events_per_sec'] / 1e6:.2f} M "
              f"events/s ({v['events']} events, "
              f"{v['wall_seconds']:.2f} s, {speedup[d]:.2f}x vs serial)")
    if failures:
        print("\ngate FAILED:", file=sys.stderr)
        for msg in failures:
            print(f"  {msg}", file=sys.stderr)
        sys.exit(1)
    print("\ngate passed: sharded runs byte-identical to serial")


if __name__ == "__main__":
    main(sys.argv)
