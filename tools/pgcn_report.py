#!/usr/bin/env python3
"""Fold results/history.jsonl run manifests into reports and CI gates.

Every bench invoked with --history=<jsonl> appends one RunManifest
line (provenance + per-point metrics, see src/common/manifest.hpp).
This tool is the consumer:

  report  render a markdown scalability report from the newest
          manifest of a bench: provenance header, strong-scaling
          table with stall attribution and critical-path columns,
          and (with --occupancy) a per-core-count occupancy heatmap.

  diff    compare the two newest manifests of a bench metric by
          metric, flagging provenance changes (git SHA, SIMD tier,
          build type) alongside the numeric drift.

  check   CI regression gate: compare the newest manifest against a
          committed baseline (results/BENCH_PR7.json). Deterministic
          simulation metrics (gflops, makespans, stall counters) must
          stay within --tolerance (default 10%); the host-dependent
          events/sec throughput within --events-tolerance (default
          60%, machines differ). Writes the gate verdict JSON, exits
          non-zero on failure. --update-baseline rewrites the
          baseline from the newest manifest instead of checking.

  gate    CI gates over bench outputs; each writes a verdict JSON
          and exits 1 on any failure:
            kernels  record micro_kernels' old-vs-new items/s pairs
            reorder  reorder_sweep: island/RCM beat the shuffled order
            faults   fault_envelope: clean baselines, live injection,
                     positive goodput, a 2x inflation knee
            domains  run fig8 over the domain matrix (domain counts x
                     modes x monitors, plus a 1024-core pair) and
                     byte-compare the outputs; the monitored
                     --domains=1 run writes history.jsonl and
                     fig8_occupancy.csv for report/check

Usage:
  pgcn_report.py report <history.jsonl> [--bench B] [--occupancy CSV]
                 [--out report.md]
  pgcn_report.py diff <history.jsonl> [--bench B]
  pgcn_report.py check <history.jsonl> --baseline BASE.json
                 [--bench B] [--out GATE.json] [--tolerance 0.10]
                 [--events-tolerance 0.60] [--update-baseline]
  pgcn_report.py gate kernels <micro_kernels.json> [--out GATE.json]
  pgcn_report.py gate reorder <sweep.json> [--out GATE.json]
  pgcn_report.py gate faults <sweep.json> [--out GATE.json]
  pgcn_report.py gate domains --fig8 <binary> [--out GATE.json]
"""

import argparse
import csv
import filecmp
import json
import os
import subprocess
import sys

HEAT_BLOCKS = " ▁▂▃▄▅▆▇█"


def load_history(path, bench=None):
    """All manifests in file order, optionally filtered by bench name.

    Degrades gracefully on the failure modes a crash-interrupted bench
    leaves behind: a missing or empty history file reads as "no runs
    recorded", and a torn (or otherwise unparsable) record — most
    commonly the last line of a run killed mid-append — is skipped
    with a warning instead of aborting the whole report.
    """
    entries = []
    try:
        f = open(path)
    except OSError:
        sys.exit(f"{path}: no runs recorded (history file missing)")
    with f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            try:
                entry = json.loads(line)
            except json.JSONDecodeError:
                print(f"warning: {path}:{lineno}: skipping torn/invalid "
                      f"record", file=sys.stderr)
                continue
            missing = [field for field in
                       ("bench", "git_sha", "metrics", "counter_digest")
                       if field not in entry]
            if missing:
                print(f"warning: {path}:{lineno}: skipping manifest "
                      f"missing {missing} (schema drift?)",
                      file=sys.stderr)
                continue
            if bench is None or entry["bench"] == bench:
                entries.append(entry)
    if not entries:
        target = f"bench '{bench}'" if bench else "any bench"
        sys.exit(f"{path}: no runs recorded for {target}")
    return entries


def split_metrics(metrics):
    """Group 'point/metric' keys: point -> {metric: value}."""
    points = {}
    for key, value in metrics.items():
        point, _, metric = key.rpartition("/")
        if not point:
            point = "(run)"
        points.setdefault(point, {})[metric] = value
    return points


def point_sort_key(point):
    """Order sweep points numerically on their k=v suffixes."""
    parts = []
    for part in point.split("/"):
        if "=" in part:
            name, _, val = part.partition("=")
            try:
                parts.append((name, float(val)))
                continue
            except ValueError:
                pass
        parts.append((part, 0.0))
    return parts


def is_deterministic(name):
    """Host-independent metric? Mirrors bench_util's manifest digest."""
    return not any(s in name for s in ("wall", "per_sec", "host"))


def run_domains(entry):
    """Event-domain count a manifest's run was sharded into.

    Recorded in the manifest's "extra" section (bench_util). Manifests
    predating the sharded engine carry no record and ran serially.
    """
    return str(entry.get("extra", {}).get("domains", "1"))


def fmt(value):
    if value is None:
        return "-"
    if abs(value) >= 1e6 or (value != 0 and abs(value) < 1e-3):
        return f"{value:.3e}"
    return f"{value:.3f}".rstrip("0").rstrip(".")


def finish(report, failures, out, lines, passed=""):
    """The one pass/fail reporter of `check` and every gate: write the
    verdict JSON, print the per-item lines, exit 1 on any failure."""
    report["pass"] = not failures
    if out:
        with open(out, "w") as f:
            json.dump(report, f, indent=2, sort_keys=True)
            f.write("\n")
        print(f"gate verdict written to {out}")
    for line in lines:
        print(line)
    if failures:
        print("\ngate FAILED:", file=sys.stderr)
        for msg in failures:
            print(f"  {msg}", file=sys.stderr)
        sys.exit(1)
    print(f"\ngate passed{passed}")


# ---------------------------------------------------------------- report

def load_occupancy(path):
    """occ.csv -> point -> core index -> list of (bucket, busy_frac)."""
    heat = {}
    with open(path) as f:
        for row in csv.DictReader(f):
            if row["kind"] != "issue":
                continue
            bucket_ns = float(row["bucket_ns"])
            frac = float(row["busy_ns"]) / bucket_ns if bucket_ns else 0.0
            heat.setdefault(row["point"], {}).setdefault(
                int(row["index"]), []).append((int(row["bucket"]), frac))
    return heat


def heat_line(buckets, width=64):
    """Render sparse (bucket, frac) samples as a block-char strip."""
    if not buckets:
        return ""
    n = max(b for b, _ in buckets) + 1
    dense = [0.0] * n
    for b, frac in buckets:
        dense[b] = frac
    peak = max(dense) or 1.0
    cells = dense[:width]
    return "".join(
        HEAT_BLOCKS[min(len(HEAT_BLOCKS) - 1,
                        int(f / peak * (len(HEAT_BLOCKS) - 1) + 0.5))]
        for f in cells)


def md_table(headers, rows):
    out = ["| " + " | ".join(headers) + " |",
           "|" + "|".join("---" for _ in headers) + "|"]
    for row in rows:
        out.append("| " + " | ".join(row) + " |")
    return "\n".join(out)


def cmd_report(args):
    entry = load_history(args.history, args.bench)[-1]
    points = split_metrics(entry["metrics"])
    lines = [f"# Scalability report: {entry['bench']}", ""]

    prov = [("timestamp", entry.get("timestamp", "-")),
            ("git", entry["git_sha"] +
             (" (dirty)" if entry.get("git_dirty") else "")),
            ("build", f"{entry.get('build_type', '-')} / "
                      f"{entry.get('compiler', '-')}"),
            ("simd tier", entry.get("simd_tier", "-")),
            ("numa nodes / host threads",
             f"{entry.get('numa_nodes', '-')} / "
             f"{entry.get('host_threads', '-')}"),
            ("config / graph hash",
             f"{entry.get('config_hash', '-')} / "
             f"{entry.get('graph_hash', '-')}"),
            ("sweep jobs / event domains",
             f"{entry.get('extra', {}).get('jobs', '-')} / "
             f"{run_domains(entry)}"),
            ("counter digest", entry["counter_digest"])]
    lines.append(md_table(["provenance", "value"],
                          [[k, str(v)] for k, v in prov]))
    lines += ["", "## Sweep points", ""]

    # Columns: union of per-point metric names, scaling ones first.
    preferred = ["gflops", "issue_util", "stall_mem_ns", "stall_net_ns",
                 "latency_hiding", "exposed_stall_ns", "cp_parallelism",
                 "cp_events", "makespan_ns"]
    names = sorted({n for vals in points.values() for n in vals})
    cols = [n for n in preferred if n in names] + \
           [n for n in names if n not in preferred]
    rows = []
    for point in sorted(points, key=point_sort_key):
        rows.append([point] +
                    [fmt(points[point].get(n)) for n in cols])
    lines.append(md_table(["point"] + cols, rows))

    # Stall-attribution shares, where the fig8-style counters exist.
    stall_rows = []
    for point in sorted(points, key=point_sort_key):
        vals = points[point]
        mem = vals.get("stall_mem_ns")
        net = vals.get("stall_net_ns")
        if mem is None or net is None:
            continue
        total = mem + net
        stall_rows.append(
            [point,
             fmt(100.0 * mem / total if total else 0.0),
             fmt(100.0 * net / total if total else 0.0),
             fmt(vals.get("latency_hiding")),
             fmt(vals.get("cp_parallelism"))])
    if stall_rows:
        lines += ["", "## Stall attribution", "",
                  md_table(["point", "memory wait %", "network wait %",
                            "latency hiding", "critical-path parallelism"],
                           stall_rows)]

    if args.occupancy:
        heat = load_occupancy(args.occupancy)
        lines += ["", "## Issue-slot occupancy heatmap",
                  "", "One strip per core; darker = busier bucket "
                      "(normalised per point).", ""]
        for point in sorted(heat, key=point_sort_key):
            lines.append(f"### {point}")
            lines.append("```")
            for core in sorted(heat[point]):
                lines.append(f"core {core:3d} "
                             f"|{heat_line(heat[point][core])}|")
            lines.append("```")

    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as f:
            f.write(text)
        print(f"report written to {args.out}")
    else:
        print(text, end="")


# ------------------------------------------------------------------ diff

def cmd_diff(args):
    entries = load_history(args.history, args.bench)
    if len(entries) < 2:
        sys.exit("diff needs at least two manifests for the bench")
    old, new = entries[-2], entries[-1]

    for field in ("git_sha", "build_type", "compiler", "simd_tier",
                  "config_hash", "graph_hash", "counter_digest"):
        if old.get(field) != new.get(field):
            print(f"{field}: {old.get(field)} -> {new.get(field)}")

    names = sorted(set(old["metrics"]) | set(new["metrics"]))
    changed = 0
    for name in names:
        a, b = old["metrics"].get(name), new["metrics"].get(name)
        if a is None or b is None:
            print(f"{name}: {'added' if a is None else 'removed'} "
                  f"({fmt(b if a is None else a)})")
            changed += 1
        elif a != b:
            pct = (b - a) / a * 100.0 if a else float("inf")
            print(f"{name}: {fmt(a)} -> {fmt(b)} ({pct:+.2f}%)")
            changed += 1
    if not changed:
        print("metrics identical "
              f"(counter digest {new['counter_digest']})")


# ----------------------------------------------------------------- check

def cmd_check(args):
    entry = load_history(args.history, args.bench)[-1]

    if args.update_baseline:
        with open(args.baseline, "w") as f:
            json.dump({"bench": entry["bench"],
                       "git_sha": entry["git_sha"],
                       "config_hash": entry.get("config_hash", ""),
                       "graph_hash": entry.get("graph_hash", ""),
                       "domains": run_domains(entry),
                       "counter_digest": entry["counter_digest"],
                       "metrics": entry["metrics"]}, f, indent=2,
                      sort_keys=True)
            f.write("\n")
        print(f"baseline updated from {entry['git_sha']} "
              f"-> {args.baseline}")
        return

    try:
        with open(args.baseline) as f:
            base = json.load(f)
    except OSError:
        print(f"{args.baseline}: baseline not found — record one with "
              f"--update-baseline before gating", file=sys.stderr)
        sys.exit(2)
    except json.JSONDecodeError as e:
        print(f"{args.baseline}: baseline is not valid JSON ({e})",
              file=sys.stderr)
        sys.exit(2)

    digest_match = base["counter_digest"] == entry["counter_digest"]

    # Cross-domain-count throughput comparisons are suspect: sharding
    # changes host events/sec (never simulated output), so a baseline
    # recorded at one --domains count doesn't trivially gate a run at
    # another. But the domain count is only a *proxy* for "same
    # simulated work" — the counter digest is the ground truth. If the
    # digests match, the two runs simulated bit-identical results and
    # the loose events-tolerance already absorbs the host-side skew,
    # so warn and proceed. Only refuse (exit 2, like a missing
    # baseline) when the digests differ too: then we can't tell
    # model drift from sharding skew.
    base_domains = str(base.get("domains", "1"))
    entry_domains = run_domains(entry)
    if base_domains != entry_domains:
        if digest_match:
            print(f"warning: baseline recorded at --domains "
                  f"{base_domains}, this run used --domains "
                  f"{entry_domains}; counter digests match, so the "
                  f"simulated results are identical — gating anyway "
                  f"(events/sec floors may be skewed by sharding).",
                  file=sys.stderr)
        else:
            print(f"{args.baseline}: baseline was recorded at "
                  f"--domains {base_domains} but this run used "
                  f"--domains {entry_domains} and the counter digests "
                  f"differ; host-throughput floors are not comparable "
                  f"across event-domain counts. Re-run with "
                  f"--domains {base_domains}, or refresh the "
                  f"baseline with --update-baseline.", file=sys.stderr)
            sys.exit(2)

    failures, checks = [], []
    if base.get("config_hash") and entry.get("config_hash") and \
            base["config_hash"] != entry["config_hash"]:
        print(f"note: config hash changed "
              f"({base['config_hash']} -> {entry['config_hash']}); "
              f"comparing the overlapping metrics")

    lines = []
    for name, ref in sorted(base["metrics"].items()):
        now = entry["metrics"].get(name)
        deterministic = is_deterministic(name)
        # Gate throughputs (bigger = better): simulated GF/s strictly,
        # host events/sec loosely. Other counters are informational —
        # the digest plus the gflops gate already catch drift, and
        # "stall ns went down" must not fail CI.
        gated = name.endswith("gflops") or name.endswith("per_sec")
        if not gated:
            continue
        tol = args.tolerance if deterministic else args.events_tolerance
        if now is None:
            failures.append(f"{name}: missing from current run")
            checks.append({"metric": name, "baseline": ref,
                           "current": None, "pass": False})
            continue
        ok = now >= ref * (1.0 - tol)
        checks.append({"metric": name, "baseline": ref, "current": now,
                       "tolerance": tol, "pass": ok})
        verdict = "ok" if ok else "FAIL"
        lines.append(f"{name}: {fmt(ref)} -> {fmt(now)} "
                     f"(floor {fmt(ref * (1.0 - tol))}) [{verdict}]")
        if not ok:
            failures.append(
                f"{name}: {fmt(now)} below baseline {fmt(ref)} "
                f"- {tol:.0%} tolerance")

    if not digest_match:
        lines.append(
            f"note: counter digest changed "
            f"({base['counter_digest']} -> {entry['counter_digest']})"
            f" — simulated numerics moved; refresh the baseline if "
            f"intentional")

    finish({"bench": entry["bench"],
            "baseline_sha": base.get("git_sha", ""),
            "current_sha": entry["git_sha"],
            "digest_match": digest_match,
            "checks": checks}, failures, args.out, lines)


# ------------------------------------------------------------------ gate
#
# A failed sweep point is quarantined and the bench still exits 0, so
# every gate fails on a "quarantined" entry. The one exception is the
# fault gate's retry-budget exhaustion (sim::SimFaultError): that is
# the edge of the envelope the fault sweep exists to find.

FAULT_CAUSE = "unrecoverable fault at"  # SimFaultError's message prefix


def parse_key(key):
    """Split 'a/b/k=v/k2=v2' into (prefix parts, {k: v})."""
    parts = key.split("/")
    fixed = [p for p in parts if "=" not in p]
    kv = dict(p.split("=", 1) for p in parts if "=" in p)
    return fixed, kv


def load_json(path):
    with open(path) as f:
        return json.load(f)


def quarantine_failures(sweep, label="", allowed=None):
    """One failure per quarantined point whose cause is not allowed."""
    return [f"{label}{key}: point quarantined ({cause.splitlines()[0]})"
            for key, cause in sorted(sweep.get("quarantined", {}).items())
            if allowed is None or not cause.startswith(allowed)]


def ratio(num, den):
    return num / den if den > 0.0 else 0.0


# Old vs new kernel per pair. The pooled SpMM is timed by wall clock
# (its run name carries /real_time), the single-thread reference by CPU
# time, which on one thread is the same clock.
KERNEL_PAIRS = {
    "spmm_scale14_k128": ("BM_SpmmReference/14/128",
                          "BM_SpmmNnzBalanced/14/128/real_time"),
    "gemm_256cubed": ("BM_DenseMmBlockedScalar/256",
                      "BM_DenseMmBlocked/256"),
}


def items_per_second(benchmarks, name):
    """items/s for `name`, preferring the median aggregate; None when
    the benchmark is missing."""
    plain = None
    for b in benchmarks:
        if b.get("run_name", b["name"]) != name:
            continue
        if b.get("aggregate_name") == "median":
            return b["items_per_second"]
        if b.get("run_type") != "aggregate":
            plain = b["items_per_second"]
    return plain


def gate_kernels(args):
    """Record items/s and the speedup of each KERNEL_PAIRS pair."""
    data = load_json(args.input)
    ctx = data["context"]
    report = {"build_assertions": ctx.get("build_assertions", "unknown"),
              "simd_tier": ctx.get("simd_tier", "unknown"),
              "num_cpus": ctx.get("num_cpus"),
              "pairs": {}}
    failures, lines = [], []
    for key, (old, new) in KERNEL_PAIRS.items():
        old_ips = items_per_second(data["benchmarks"], old)
        new_ips = items_per_second(data["benchmarks"], new)
        missing = [n for n, v in ((old, old_ips), (new, new_ips))
                   if v is None]
        if missing:
            failures += [f"{key}: benchmark {n!r} missing from input"
                         for n in missing]
            continue
        report["pairs"][key] = {"old": old, "new": new,
                                "old_items_per_second": old_ips,
                                "new_items_per_second": new_ips,
                                "speedup": new_ips / old_ips}
        lines.append(f"{key}: {old_ips:.3e} -> {new_ips:.3e} items/s "
                     f"({new_ips / old_ips:.2f}x)")
    finish(report, failures, args.out, lines)


REORDER_CANDIDATES = ("island", "rcm")
REORDER_BASELINE = "shuffle"


def gate_reorder(args):
    """Per graph: the best of island/RCM beats the shuffled order on
    host GF/s for each kernel, and on the modeled remote-access
    fraction under blocked placement. Hashed placement is order-blind
    by design, so it is recorded, not gated."""
    sweep = load_json(args.input)
    data = {"host": {}, "locality": {}, "sim": {}}
    for key, values in sweep["points"].items():
        fixed, kv = parse_key(key)
        kind, graph = fixed[0], fixed[1]
        node = data[kind].setdefault(graph, {}).setdefault(kv["order"], {})
        if kind == "host":
            node[kv["kernel"]] = values
        elif kind == "sim":
            node[kv["placement"]] = values
        else:
            node.update(values)

    failures = quarantine_failures(sweep)
    report = {"graphs": {}, "gate": {}}
    for graph in sorted(set(data["sim"]) | set(data["host"])):
        host = data["host"].get(graph, {})
        sim = data["sim"].get(graph, {})
        report["graphs"][graph] = {
            "host": host, "sim": sim,
            "locality": data["locality"].get(graph, {})}

        if host:
            for kernel in ("tiled", "nnz"):
                base = host[REORDER_BASELINE][kernel]["gflops"]
                best_order, best = max(
                    ((o, host[o][kernel]["gflops"])
                     for o in REORDER_CANDIDATES if o in host),
                    key=lambda p: p[1])
                ok = best > base
                report["gate"][f"{graph}/{kernel}"] = {
                    "baseline_gflops": base, "best_order": best_order,
                    "best_gflops": best, "speedup": best / base,
                    "pass": ok}
                if not ok:
                    failures.append(
                        f"{graph}/{kernel}: best reorder ({best_order}, "
                        f"{best:.2f} GF/s) does not beat {REORDER_BASELINE} "
                        f"({base:.2f} GF/s)")

        if sim:
            base = sim[REORDER_BASELINE]["blocked"]["remote_access_fraction"]
            best_order, best = min(
                ((o, sim[o]["blocked"]["remote_access_fraction"])
                 for o in REORDER_CANDIDATES if o in sim),
                key=lambda p: p[1])
            ok = best < base
            report["gate"][f"{graph}/remote_fraction"] = {
                "baseline": base, "best_order": best_order, "best": best,
                "reduction": 1.0 - best / base if base else 0.0,
                "pass": ok}
            if not ok:
                failures.append(
                    f"{graph}: best blocked remote fraction "
                    f"({best_order}, {best:.3f}) not below {REORDER_BASELINE} "
                    f"({base:.3f})")

    lines = []
    for name, g in sorted(report["gate"].items()):
        verdict = "ok" if g["pass"] else "FAIL"
        if "best_gflops" in g:
            lines.append(
                f"{name}: {g['baseline_gflops']:.2f} -> "
                f"{g['best_gflops']:.2f} GF/s via {g['best_order']} "
                f"({g['speedup']:.2f}x) [{verdict}]")
        else:
            lines.append(
                f"{name}: remote {g['baseline']:.3f} -> {g['best']:.3f} "
                f"via {g['best_order']} (-{100 * g['reduction']:.1f}%) "
                f"[{verdict}]")
    finish(report, failures, args.out, lines)


KNEE_INFLATION = 2.0


def gate_faults(args):
    """Per (graph, policy) of a fault_envelope sweep: the fault-free
    baseline delivers goodput and fires no timeout or retry, every
    point delivers goodput, every point with rate > 0 records retries
    (injection is live); and at least one (graph, policy) reaches the
    2x makespan-inflation knee. Slice-traffic conservation is checked
    inside the simulator (piuma::checkRunStats): a point that breaks
    it is quarantined, and so fails here."""
    sweep = load_json(args.input)
    data = {}
    for key, values in sweep["points"].items():
        fixed, kv = parse_key(key)
        if fixed[0] == "poison":
            continue  # poisoned points never succeed; see quarantined
        data.setdefault(fixed[0], {}).setdefault(fixed[1], {})[
            float(kv["rate"])] = values
    quarantined = sweep.get("quarantined", {})

    failures = quarantine_failures(sweep, allowed=FAULT_CAUSE)
    if not sweep["points"]:
        failures.append("the sweep has no points")
    knees = {}
    report = {"graphs": {}, "gate": {}, "knees": knees,
              "quarantined": quarantined}
    for graph, policies in sorted(data.items()):
        report["graphs"][graph] = policies
        for policy, by_rate in sorted(policies.items()):
            name = f"{graph}/{policy}"
            if 0.0 not in by_rate:
                failures.append(f"{name}: no fault-free baseline point")
                continue
            base = by_rate[0.0]
            base_makespan = base["makespan_ns"]
            entry = {"baseline_goodput_gbs":
                     ratio(base["goodput_bytes"], base_makespan),
                     "baseline_timeouts": base["timeouts"],
                     "points": len(by_rate)}
            report["gate"][name] = entry
            errors = []
            if entry["baseline_goodput_gbs"] <= 0.0:
                errors.append(f"{name}: baseline goodput is zero")
            if base["timeouts"] != 0 or base["retries"] != 0:
                errors.append(
                    f"{name}: fault-free baseline fired "
                    f"{base['timeouts']:.0f} timeouts / "
                    f"{base['retries']:.0f} retries")
            knee = None
            for rate in sorted(by_rate):
                v = by_rate[rate]
                if v["goodput_bytes"] <= 0.0:
                    errors.append(f"{name}/rate={rate:g}: zero goodput")
                if rate > 0.0 and v["retries"] <= 0:
                    errors.append(
                        f"{name}/rate={rate:g}: rate > 0 but zero "
                        f"retries recorded — injection inactive?")
                inflation = ratio(v["makespan_ns"], base_makespan)
                if knee is None and rate > 0.0 and \
                        inflation > KNEE_INFLATION:
                    knee = {"rate": rate, "inflation": inflation}
            knees[name] = knee
            entry["pass"] = not errors
            failures += errors

    if not any(k is not None for k in knees.values()):
        failures.append(
            f"no (graph, policy) reached the {KNEE_INFLATION:g}x "
            f"makespan-inflation knee in the swept range")

    lines = []
    for name, g in sorted(report["gate"].items()):
        knee = knees.get(name)
        where = (f"knee at rate {knee['rate']:g} "
                 f"({knee['inflation']:.2f}x)" if knee
                 else "knee not reached")
        lines.append(f"{name}: baseline {g['baseline_goodput_gbs']:.2f} "
                     f"GB/s, {g['points']} rates, {where} "
                     f"[{'ok' if g['pass'] else 'FAIL'}]")
    lines += [f"{key}: quarantined ({cause.splitlines()[0]})"
              for key, cause in sorted(quarantined.items())]
    finish(report, failures, args.out, lines)


MEGA_CORES, MEGA_DOMAINS = 1024, 16

# The fig8 domain matrix: report field -> [(run name, flags)].
DOMAIN_MATRIX = {
    # Monitors attached (the default), so the plan is sequenced. The
    # first run is also the scalability report's run.
    "domains": [("1", ["--domains=1", "--history=history.jsonl",
                       "--occupancy=fig8_occupancy.csv"]),
                ("2", ["--domains=2"]),
                ("4", ["--domains=4"])],
    # An attached MonitorHub downgrades parallel to sequenced, so the
    # mode comparison runs without monitors.
    "runs": [(f"{mode}_d{d}", [f"--domain-mode={mode}", f"--domains={d}",
                               "--no-monitors"])
             for d in (1, 2, 4) for mode in ("sequenced", "parallel")],
    # One full-machine-scale point: its calendars hold millions of
    # events, which is where the execution mode matters.
    "mega": [(mode, [f"--mega={MEGA_CORES}", f"--domains={MEGA_DOMAINS}",
                     f"--domain-mode={mode}", "--no-monitors"])
             for mode in ("sequenced", "parallel")],
}


def run_fig8(binary, tag, flags):
    """Run one fig8 sweep in the working directory; return the paths
    of its outputs. The CSV positional stays a bare file name: the
    bench prefixes it per table ("left_<csv>")."""
    cmd = [os.path.abspath(binary), f"{tag}.csv", f"{tag}_throughput.json",
           f"--checkpoint={tag}.jsonl", f"--sweep-json={tag}.json", *flags]
    print("+ " + " ".join(cmd), flush=True)
    subprocess.run(cmd, check=True)
    return {"throughput": f"{tag}_throughput.json",
            "checkpoint": f"{tag}.jsonl", "sweep": f"{tag}.json"}


def gate_domains(args):
    """Within each DOMAIN_MATRIX group, every run's checkpoint JSONL
    and sweep JSON equal the group's first run byte for byte, and
    every run executes the same number of events: domain count and
    mode may change only the wall clock. Events/sec is recorded, not
    gated, because the parallel win needs one host core per domain
    (DESIGN.md §15)."""
    failures = []
    report = {"bit_identical": True,
              "gate": "byte-identity across domain counts and modes "
                      "(hard); events/sec recorded, not gated: the "
                      "parallel win needs one host core per domain — "
                      "see DESIGN.md §15"}
    for group, runs in DOMAIN_MATRIX.items():
        record, reference, events = {}, None, set()
        for name, flags in runs:
            label = f"fig8 {group} {name}"
            paths = run_fig8(args.fig8, f"fig8_{group}_{name}", flags)
            tp = load_json(paths["throughput"])
            record[name] = {k: tp[k] for k in (
                "events", "wall_seconds", "events_per_sec",
                "peak_queue_depth", "runs")}
            events.add(tp["events"])
            failures += quarantine_failures(load_json(paths["sweep"]),
                                            f"{label}: ")
            if reference is None:
                reference = (name, paths)
                continue
            for kind in ("checkpoint", "sweep"):
                if not filecmp.cmp(reference[1][kind], paths[kind],
                                   shallow=False):
                    report["bit_identical"] = False
                    failures.append(
                        f"{label}: {kind} file differs from "
                        f"{reference[0]} ({paths[kind]} vs "
                        f"{reference[1][kind]})")
        if len(events) != 1:
            failures.append(f"fig8 {group}: event counts diverge: "
                            f"{sorted(events)}")
        report[group] = record

    eps = {g: {n: r["events_per_sec"] for n, r in report[g].items()}
           for g in ("domains", "runs", "mega")}
    report["speedup_vs_serial"] = {
        d: ratio(v, eps["domains"]["1"])
        for d, v in eps["domains"].items()}
    report["parallel_speedup_vs_sequenced"] = {
        d: ratio(eps["runs"][f"parallel_d{d}"],
                 eps["runs"][f"sequenced_d{d}"])
        for d in eps["domains"]}
    report["mega"].update(
        cores=MEGA_CORES, domains=MEGA_DOMAINS,
        parallel_speedup=ratio(eps["mega"]["parallel"],
                               eps["mega"]["sequenced"]))

    lines = [f"--domains {d}: {v / 1e6:.2f} M events/s "
             f"({report['speedup_vs_serial'][d]:.2f}x vs --domains 1)"
             for d, v in eps["domains"].items()]
    lines += [f"--no-monitors --domains {d}: sequenced "
              f"{eps['runs'][f'sequenced_d{d}'] / 1e6:.2f} M ev/s, "
              f"parallel {eps['runs'][f'parallel_d{d}'] / 1e6:.2f} M ev/s "
              f"({s:.2f}x)"
              for d, s in report["parallel_speedup_vs_sequenced"].items()]
    lines.append(f"--mega={MEGA_CORES} --domains {MEGA_DOMAINS}: "
                 f"sequenced {eps['mega']['sequenced'] / 1e6:.2f} M ev/s, "
                 f"parallel {eps['mega']['parallel'] / 1e6:.2f} M ev/s "
                 f"({report['mega']['parallel_speedup']:.2f}x)")
    finish(report, failures, args.out, lines,
           ": every domain count and mode byte-identical")


def main(argv):
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("report")
    p.set_defaults(run=cmd_report)
    p.add_argument("history")
    p.add_argument("--bench")
    p.add_argument("--occupancy")
    p.add_argument("--out")

    p = sub.add_parser("diff")
    p.set_defaults(run=cmd_diff)
    p.add_argument("history")
    p.add_argument("--bench")

    p = sub.add_parser("check")
    p.set_defaults(run=cmd_check)
    p.add_argument("history")
    p.add_argument("--baseline", required=True)
    p.add_argument("--bench")
    p.add_argument("--out")
    p.add_argument("--tolerance", type=float, default=0.10)
    p.add_argument("--events-tolerance", type=float, default=0.60)
    p.add_argument("--update-baseline", action="store_true")

    p = sub.add_parser("gate")
    gates = p.add_subparsers(dest="gate", required=True)
    for name, run in (("kernels", gate_kernels), ("reorder", gate_reorder),
                      ("faults", gate_faults), ("domains", gate_domains)):
        g = gates.add_parser(name)
        g.set_defaults(run=run)
        if name == "domains":
            g.add_argument("--fig8", required=True,
                           help="fig8_strong_scaling binary (Release)")
        else:
            g.add_argument("input")
        g.add_argument("--out")

    args = parser.parse_args(argv[1:])
    args.run(args)


if __name__ == "__main__":
    main(sys.argv)
