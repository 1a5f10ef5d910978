#!/usr/bin/env python3
"""Fixture tests for the `pgcn_report.py gate` subcommands.

Each test writes a tiny bench output into a temporary directory, runs
one gate on it, and checks the exit code, the failure message and the
verdict JSON. Every gate has one passing input and one failing input
per failure branch. `gate domains` runs a stand-in fig8 (a Python
script the test writes) that can be told to corrupt one output of one
run of the domain matrix.

Usage: test_gate.py [kernels|reorder|faults|domains ...]
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

REPORT = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      os.pardir, "tools", "pgcn_report.py")

# The library's conservation failure, as the sweep quarantines it.
CONSERVATION_CAUSE = ("SpMM run breaks slice-traffic conservation: "
                      "bytesServed 1064 != goodputBytes + retriedBytes 1000")
FAULT_CAUSE = ("unrecoverable fault at t=2.2e+06 ns: core4 dma write on "
               "slice 3 failed after 13 attempt(s); retry budget exhausted")


class GateCase(unittest.TestCase):
    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory()
        self.dir = self._tmp.name

    def tearDown(self):
        self._tmp.cleanup()

    def gate(self, name, *args):
        """Run one gate in the temp dir; return (exit code, output,
        verdict JSON or None)."""
        out = os.path.join(self.dir, "verdict.json")
        if os.path.exists(out):
            os.remove(out)
        proc = subprocess.run(
            [sys.executable, REPORT, "gate", name, *args, "--out", out],
            cwd=self.dir, capture_output=True, text=True)
        verdict = None
        if os.path.exists(out):
            with open(out) as f:
                verdict = json.load(f)
        return proc.returncode, proc.stdout + proc.stderr, verdict

    def gate_json(self, name, doc):
        path = os.path.join(self.dir, "input.json")
        with open(path, "w") as f:
            json.dump(doc, f)
        return self.gate(name, path)

    def assert_passes(self, name, doc):
        code, output, verdict = self.gate_json(name, doc)
        self.assertEqual(code, 0, output)
        self.assertIn("gate passed", output)
        self.assertTrue(verdict["pass"])
        return verdict

    def assert_fails(self, name, doc, message):
        code, output, verdict = self.gate_json(name, doc)
        self.assertEqual(code, 1, output)
        self.assertIn("gate FAILED", output)
        self.assertIn(message, output)
        self.assertFalse(verdict["pass"])
        return verdict


# ---------------------------------------------------------------- kernels

def kernel_bench(drop=None):
    """A micro_kernels JSON: median aggregates plus plain entries that
    the median must win over."""
    rows = []
    for name, ips in (("BM_SpmmReference/14/128", 1e7),
                      ("BM_SpmmNnzBalanced/14/128/real_time", 5e7),
                      ("BM_DenseMmBlockedScalar/256", 1e9),
                      ("BM_DenseMmBlocked/256", 1.5e10)):
        if name == drop:
            continue
        rows.append({"name": name, "run_name": name,
                     "run_type": "iteration", "items_per_second": 1.0})
        rows.append({"name": name + "_median", "run_name": name,
                     "run_type": "aggregate", "aggregate_name": "median",
                     "items_per_second": ips})
    return {"context": {"build_assertions": False, "simd_tier": "avx512",
                        "num_cpus": 4},
            "benchmarks": rows}


class Kernels(GateCase):
    def test_pass_records_median_speedups(self):
        verdict = self.assert_passes("kernels", kernel_bench())
        self.assertEqual(verdict["simd_tier"], "avx512")
        self.assertEqual(verdict["num_cpus"], 4)
        self.assertEqual(verdict["build_assertions"], False)
        self.assertAlmostEqual(
            verdict["pairs"]["spmm_scale14_k128"]["speedup"], 5.0)
        self.assertAlmostEqual(
            verdict["pairs"]["gemm_256cubed"]["speedup"], 15.0)

    def test_fail_missing_benchmark(self):
        self.assert_fails("kernels",
                          kernel_bench(drop="BM_DenseMmBlocked/256"),
                          "'BM_DenseMmBlocked/256' missing")


# ---------------------------------------------------------------- reorder

def reorder_sweep():
    points = {}
    for order, (tiled, nnz, remote) in {"shuffle": (10.0, 10.0, 0.8),
                                        "island": (12.0, 9.0, 0.5),
                                        "rcm": (11.0, 11.0, 0.6)}.items():
        for kernel, gf in (("tiled", tiled), ("nnz", nnz)):
            points[f"host/g/order={order}/kernel={kernel}"] = {
                "gflops": gf, "seconds": 1.0 / gf}
        points[f"locality/g/order={order}"] = {
            "avg_neighbor_distance": 100.0}
        for placement in ("blocked", "hashed"):
            points[f"sim/g/order={order}/placement={placement}"] = {
                "remote_access_fraction": remote}
    return {"points": points}


class Reorder(GateCase):
    def test_pass(self):
        verdict = self.assert_passes("reorder", reorder_sweep())
        self.assertEqual(verdict["gate"]["g/tiled"]["best_order"], "island")
        self.assertEqual(verdict["gate"]["g/nnz"]["best_order"], "rcm")
        self.assertEqual(verdict["gate"]["g/remote_fraction"]["best_order"],
                         "island")
        self.assertIn("locality", verdict["graphs"]["g"])

    def test_fail_host_gflops_not_above_shuffle(self):
        doc = reorder_sweep()
        for order in ("island", "rcm"):
            doc["points"][f"host/g/order={order}/kernel=nnz"]["gflops"] = 9.0
        verdict = self.assert_fails("reorder", doc,
                                    "g/nnz: best reorder (island, 9.00 GF/s) "
                                    "does not beat shuffle")
        self.assertFalse(verdict["gate"]["g/nnz"]["pass"])
        self.assertTrue(verdict["gate"]["g/tiled"]["pass"])

    def test_fail_remote_fraction_not_below_shuffle(self):
        doc = reorder_sweep()
        for order in ("island", "rcm"):
            doc["points"][f"sim/g/order={order}/placement=blocked"][
                "remote_access_fraction"] = 0.8
        self.assert_fails("reorder", doc, "best blocked remote fraction")

    def test_hashed_placement_is_not_gated(self):
        doc = reorder_sweep()
        doc["points"]["sim/g/order=island/placement=hashed"][
            "remote_access_fraction"] = 0.9
        self.assert_passes("reorder", doc)

    def test_fail_quarantined_point(self):
        doc = reorder_sweep()
        doc["quarantined"] = {"sim/g/order=rcm/placement=hashed":
                              "simulated deadlock"}
        self.assert_fails("reorder", doc, "point quarantined")


# ----------------------------------------------------------------- faults

def fault_sweep():
    """One (graph, policy) with a clean baseline and a knee at 0.1,
    plus the envelope edge quarantined by retry-budget exhaustion."""
    points = {}
    for rate, makespan, retries in (("0", 1000.0, 0.0),
                                    ("1e-2", 1500.0, 10.0),
                                    ("1e-1", 3000.0, 90.0)):
        points[f"g/p/rate={rate}"] = {
            "makespan_ns": makespan, "goodput_bytes": 1e6,
            "retried_bytes": 64.0 * retries,
            "bytes_served": 1e6 + 64.0 * retries, "retries": retries,
            "timeouts": retries, "stuck_resets": 0.0, "recovery_ns": 0.0,
            "latency_hiding": -1.0, "exposed_stall_ns": 0.0}
    return {"points": points, "quarantined": {"g/p/rate=1": FAULT_CAUSE}}


class Faults(GateCase):
    def test_pass_accepts_retry_budget_exhaustion(self):
        verdict = self.assert_passes("faults", fault_sweep())
        self.assertEqual(verdict["knees"]["g/p"],
                         {"rate": 0.1, "inflation": 3.0})
        self.assertEqual(verdict["gate"]["g/p"]["points"], 3)
        self.assertAlmostEqual(
            verdict["gate"]["g/p"]["baseline_goodput_gbs"], 1000.0)
        self.assertEqual(verdict["quarantined"], {"g/p/rate=1": FAULT_CAUSE})

    def test_fail_no_baseline_point(self):
        doc = fault_sweep()
        del doc["points"]["g/p/rate=0"]
        self.assert_fails("faults", doc, "g/p: no fault-free baseline point")

    def test_fail_baseline_goodput_zero(self):
        doc = fault_sweep()
        doc["points"]["g/p/rate=0"]["goodput_bytes"] = 0.0
        self.assert_fails("faults", doc, "g/p: baseline goodput is zero")

    def test_fail_baseline_timeouts(self):
        doc = fault_sweep()
        doc["points"]["g/p/rate=0"]["timeouts"] = 1.0
        self.assert_fails("faults", doc,
                          "fault-free baseline fired 1 timeouts / 0 retries")

    def test_fail_baseline_retries(self):
        doc = fault_sweep()
        doc["points"]["g/p/rate=0"]["retries"] = 2.0
        self.assert_fails("faults", doc,
                          "fault-free baseline fired 0 timeouts / 2 retries")

    def test_fail_injection_inactive(self):
        doc = fault_sweep()
        doc["points"]["g/p/rate=1e-2"]["retries"] = 0.0
        self.assert_fails("faults", doc,
                          "g/p/rate=0.01: rate > 0 but zero retries")

    def test_fail_zero_goodput_at_a_faulted_point(self):
        doc = fault_sweep()
        doc["points"]["g/p/rate=1e-2"]["goodput_bytes"] = 0.0
        verdict = self.assert_fails("faults", doc,
                                    "g/p/rate=0.01: zero goodput")
        self.assertFalse(verdict["gate"]["g/p"]["pass"])

    def test_fail_no_knee(self):
        doc = fault_sweep()
        doc["points"]["g/p/rate=1e-1"]["makespan_ns"] = 1900.0
        verdict = self.assert_fails("faults", doc,
                                    "reached the 2x makespan-inflation knee")
        self.assertIsNone(verdict["knees"]["g/p"])

    def test_fail_conservation_break_quarantined_by_the_library(self):
        # The conservation law moved into piuma::checkRunStats: a point
        # that breaks it throws, the sweep quarantines it, and the
        # point is missing from "points". The gate must still fail.
        doc = fault_sweep()
        del doc["points"]["g/p/rate=1e-2"]
        doc["quarantined"]["g/p/rate=1e-2"] = CONSERVATION_CAUSE
        self.assert_fails("faults", doc,
                          "g/p/rate=1e-2: point quarantined (SpMM run "
                          "breaks slice-traffic conservation")

    def test_fail_no_points(self):
        self.assert_fails("faults", {"points": {}}, "the sweep has no points")


# ---------------------------------------------------------------- domains

FAKE_FIG8 = r'''
import json
import sys

args = sys.argv[1:]
flags = dict(a[2:].split("=", 1) for a in args[2:] if "=" in a)
# FAULT: the output to corrupt, and the run it hits (the run's file
# tag; None hits every run).
kind = FAULT[0] if FAULT and FAULT[1] in (None, args[0][:-4]) else None
if kind == "exit":
    sys.exit(3)
checkpoint = '{"key":"middle/cores=4","values":{"gflops":1.5}}\n'
sweep = {"points": {"middle/cores=4": {"gflops": 1.5}}}
if kind == "checkpoint":
    checkpoint += checkpoint
if kind == "sweep":
    sweep["points"]["middle/cores=4"]["gflops"] = 1.25
if kind == "quarantine":
    sweep["quarantined"] = {"middle/cores=8": "simulated deadlock"}
with open(flags["checkpoint"], "w") as f:
    f.write(checkpoint)
with open(flags["sweep-json"], "w") as f:
    json.dump(sweep, f)
rate = 2e6 if flags.get("domain-mode") == "parallel" else 1e6
with open(args[1], "w") as f:
    json.dump({"events": 1000 + (kind == "events"), "wall_seconds": 1e-3,
               "events_per_sec": rate, "peak_queue_depth": 7,
               "runs": 9}, f)
for name in ("history", "occupancy"):
    if name in flags:
        with open(flags[name], "w") as f:
            f.write(name + "\n")
'''


class Domains(GateCase):
    def run_matrix(self, fault=None):
        fig8 = os.path.join(self.dir, "fake_fig8")
        with open(fig8, "w") as f:
            f.write(f"#!{sys.executable}\nFAULT = {fault!r}\n{FAKE_FIG8}")
        os.chmod(fig8, 0o755)
        return self.gate("domains", "--fig8", fig8)

    def assert_matrix_fails(self, fault, message):
        code, output, verdict = self.run_matrix(fault)
        self.assertEqual(code, 1, output)
        self.assertIn(message, output)
        self.assertFalse(verdict["pass"])
        return verdict

    def test_pass_records_every_run(self):
        code, output, verdict = self.run_matrix()
        self.assertEqual(code, 0, output)
        self.assertTrue(verdict["pass"])
        self.assertTrue(verdict["bit_identical"])
        self.assertEqual(sorted(verdict["domains"]), ["1", "2", "4"])
        self.assertEqual(sorted(verdict["runs"]), sorted(
            f"{m}_d{d}" for d in (1, 2, 4)
            for m in ("sequenced", "parallel")))
        self.assertEqual(verdict["domains"]["4"]["peak_queue_depth"], 7)
        self.assertEqual(verdict["speedup_vs_serial"],
                         {"1": 1.0, "2": 1.0, "4": 1.0})
        self.assertEqual(verdict["parallel_speedup_vs_sequenced"],
                         {"1": 2.0, "2": 2.0, "4": 2.0})
        self.assertEqual(verdict["mega"]["cores"], 1024)
        self.assertEqual(verdict["mega"]["domains"], 16)
        self.assertEqual(verdict["mega"]["parallel_speedup"], 2.0)
        # The monitored --domains=1 run feeds `report` and `check`.
        for name in ("history.jsonl", "fig8_occupancy.csv"):
            self.assertTrue(os.path.exists(os.path.join(self.dir, name)))

    def test_fail_sweep_differs_across_modes(self):
        verdict = self.assert_matrix_fails(
            ("sweep", "fig8_runs_parallel_d4"),
            "fig8 runs parallel_d4: sweep file differs from sequenced_d1")
        self.assertFalse(verdict["bit_identical"])

    def test_fail_checkpoint_differs_across_domain_counts(self):
        self.assert_matrix_fails(
            ("checkpoint", "fig8_domains_2"),
            "fig8 domains 2: checkpoint file differs from 1")

    def test_fail_mega_pair_differs(self):
        self.assert_matrix_fails(
            ("sweep", "fig8_mega_parallel"),
            "fig8 mega parallel: sweep file differs from sequenced")

    def test_fail_event_counts_diverge(self):
        verdict = self.assert_matrix_fails(
            ("events", "fig8_runs_sequenced_d2"),
            "fig8 runs: event counts diverge: [1000, 1001]")
        self.assertTrue(verdict["bit_identical"])

    def test_fail_quarantined_point(self):
        self.assert_matrix_fails(
            ("quarantine", None),
            "fig8 domains 1: middle/cores=8: point quarantined")

    def test_fail_fig8_exit_code(self):
        code, output, _ = self.run_matrix(("exit", "fig8_domains_4"))
        self.assertNotEqual(code, 0, output)


GATES = {"kernels": Kernels, "reorder": Reorder, "faults": Faults,
         "domains": Domains}

if __name__ == "__main__":
    names = sys.argv[1:] or list(GATES)
    loader = unittest.defaultTestLoader
    suite = unittest.TestSuite(loader.loadTestsFromTestCase(GATES[n])
                               for n in names)
    result = unittest.TextTestRunner(verbosity=2).run(suite)
    sys.exit(0 if result.wasSuccessful() else 1)
