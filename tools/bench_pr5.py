#!/usr/bin/env python3
"""Distil micro_kernels google-benchmark JSON into BENCH_PR5.json.

Pairs the pre-existing baseline kernels against the vectorized
replacements and records items/s plus the speedup ratio for each pair:

  spmm:  BM_SpmmReference/14/128      vs  BM_SpmmNnzBalanced/14/128/real_time
  gemm:  BM_DenseMmBlockedScalar/256  vs  BM_DenseMmBlocked/256

The pooled SpMM is timed by wall clock (its run name carries the
/real_time suffix), the single-thread reference by CPU time, which on
one thread is the same clock. Median aggregates are preferred when the
run used repetitions; the plain iteration entry is used otherwise.

Usage: bench_pr5.py <benchmark_out.json> <BENCH_PR5.json>
"""

import json
import sys

PAIRS = {
    "spmm_scale14_k128": ("BM_SpmmReference/14/128",
                          "BM_SpmmNnzBalanced/14/128/real_time"),
    "gemm_256cubed": ("BM_DenseMmBlockedScalar/256",
                      "BM_DenseMmBlocked/256"),
}


def items_per_second(benchmarks, name):
    """items/s for `name`, preferring the median aggregate."""
    plain = None
    for b in benchmarks:
        if b.get("run_name", b["name"]) != name:
            continue
        if b.get("aggregate_name") == "median":
            return b["items_per_second"]
        if b.get("run_type") != "aggregate":
            plain = b["items_per_second"]
    if plain is None:
        raise KeyError(f"benchmark {name!r} missing from input")
    return plain


def main(argv):
    if len(argv) != 3:
        sys.exit(__doc__)
    with open(argv[1]) as f:
        data = json.load(f)

    ctx = data["context"]
    out = {
        "build_assertions": ctx.get("build_assertions", "unknown"),
        "simd_tier": ctx.get("simd_tier", "unknown"),
        "num_cpus": ctx.get("num_cpus"),
        "pairs": {},
    }
    for key, (old, new) in PAIRS.items():
        old_ips = items_per_second(data["benchmarks"], old)
        new_ips = items_per_second(data["benchmarks"], new)
        out["pairs"][key] = {
            "old": old,
            "new": new,
            "old_items_per_second": old_ips,
            "new_items_per_second": new_ips,
            "speedup": new_ips / old_ips,
        }

    with open(argv[2], "w") as f:
        json.dump(out, f, indent=2)
        f.write("\n")
    for key, p in out["pairs"].items():
        print(f"{key}: {p['old_items_per_second']:.3e} -> "
              f"{p['new_items_per_second']:.3e} items/s "
              f"({p['speedup']:.2f}x)")


if __name__ == "__main__":
    main(sys.argv)
