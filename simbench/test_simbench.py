#!/usr/bin/env python3
"""Self-tests of the simulator benchmark.

Run from the repository root (builds simbench on first use):

    python3 simbench/test_simbench.py

Covers: the metric names printed match BENCHMARK.json; one seed gives
bit-identical digests and simulated metrics; another seed changes the
digest; fabric_fleet digests agree at 1 and 2 shards; a band breach
makes the command exit non-zero.
"""

import contextlib
import copy
import io
import json
import os
import subprocess
import sys
import unittest
from unittest import mock

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "simbench"))
import run  # noqa: E402

RUN = [sys.executable, os.path.join("simbench", "run.py")]
WORKLOADS = run.WORKLOADS
# No host-time budget: the minimum number of reps. Full-length windows
# leave run.py's >= 10 samples beyond p99.9; SHORT ones are for raw runs.
QUICK = ["--seconds", "0"]
SHORT = QUICK + ["--scale", "0.2"]


def run_bench(*args):
    p = subprocess.run(RUN + list(args), cwd=ROOT, capture_output=True,
                       text=True, timeout=600)
    lines = p.stdout.strip().splitlines()
    return p.returncode, json.loads(lines[-1]) if lines else None, p


def raw_run(*args):
    """Raw JSON of the C++ runner (bypasses run.py's checks)."""
    build = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    exe = os.path.join(ROOT, build, "simbench", "simbench")
    p = subprocess.run([exe] + list(args), cwd=ROOT, capture_output=True,
                       text=True, timeout=600, check=True)
    return json.loads(p.stdout)


class SimbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        os.chdir(ROOT)
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
        cls.e2e = {m["name"] for m in spec["end_to_end"]}
        cls.layers = {m["name"] for m in spec["per_layer"]}
        # Builds the runner when needed.
        rc, _, p = run_bench("--workload", "randread_bypassd", *QUICK)
        assert rc == 0, p.stderr

    def test_metric_names_match_benchmark_json(self):
        for w in WORKLOADS:
            for trace, names in (("0", self.e2e), ("1", self.layers)):
                with self.subTest(workload=w, trace=trace):
                    rc, res, p = run_bench("--workload", w, "--trace",
                                           trace, *QUICK)
                    self.assertEqual(rc, 0, p.stderr)
                    self.assertTrue(res["correct"])
                    self.assertEqual(res["failed"], 0)
                    self.assertEqual(set(res["metrics"]), names)
                    for m in res["metrics"].values():
                        self.assertEqual(set(m), {"value", "unit"})

    def test_same_seed_is_bit_identical(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                args = ["--workload", w, "--seed", "7", *SHORT]
                a, b = raw_run(*args), raw_run(*args)
                self.assertEqual(a["digest"], b["digest"])
                self.assertEqual(a["sim"], b["sim"])
                self.assertEqual(a["checks"], b["checks"])
                self.assertEqual(a["breaches"], [])

    def test_other_seed_changes_digest(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                base = ["--workload", w, *SHORT]
                a = raw_run(*base, "--seed", "7")
                b = raw_run(*base, "--seed", "8")
                self.assertNotEqual(a["digest"], b["digest"])

    def test_fabric_fleet_digest_is_shard_invariant(self):
        base = ["--workload", "fabric_fleet", "--seed", "3", "--seconds",
                "0", "--scale", "0.1"]
        one = raw_run(*base, "--shards", "1")
        two = raw_run(*base, "--shards", "2")
        self.assertEqual(one["digest"], two["digest"])
        self.assertEqual(one["sim"], two["sim"])

    def test_band_breach_exits_nonzero(self):
        # Each band's measured value, moved 10% out of its +-5% band.
        moves = {"randread_bypassd": ("sim", "sim_iops"),
                 "tenant_mix_qos": ("checks", "aggressor_iops")}
        for w, (section, key) in moves.items():
            with self.subTest(workload=w):
                raw = raw_run("--workload", w, *QUICK)
                self.assertEqual(run.evaluate(raw, w), [])
                moved = copy.deepcopy(raw)
                moved[section][key] *= 1 + run.BAND + 0.10
                self.assertEqual(len(run.evaluate(moved, w)), 1)

                argv = ["run.py", "--workload", w, *QUICK]
                out = io.StringIO()
                with mock.patch.object(sys, "argv", argv), \
                        mock.patch.object(run, "build", return_value=""), \
                        mock.patch.object(run, "run_binary",
                                          return_value=moved), \
                        contextlib.redirect_stdout(out), \
                        contextlib.redirect_stderr(io.StringIO()):
                    rc = run.main()
                self.assertEqual(rc, 1)
                res = json.loads(out.getvalue().strip().splitlines()[-1])
                self.assertFalse(res["correct"])


if __name__ == "__main__":
    unittest.main()
