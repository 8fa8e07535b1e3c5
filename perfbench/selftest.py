"""Tiny-size self-test of the benchmark harness.

    python3 perfbench/selftest.py

Run from the root of a checkout.  It takes a few seconds: the rounds here
perform a handful of operations each.  It is not part of the tier-1 test
suite, which collects ``tests/`` only.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
sys.path.insert(0, HERE)

import inputs  # noqa: E402
import round as bench_round  # noqa: E402
import run  # noqa: E402

TINY = 12  # operations per tiny round

# One tiny round in a fresh interpreter: the first TINY operations of a
# workload at seed 3, traced or not; prints ops, failures and the layers.
_TINY_ROUND = """
import json, sys
import charpflag.cli
import inputs, round as bench_round
from tracer import Tracer
workload, trace = sys.argv[1], sys.argv[2] == "1"
tracer = Tracer() if trace else None
if tracer:
    tracer.install()
cases = inputs.generate(workload, 3)[:{tiny}]
bench_round.prepare(workload, cases)
cal = bench_round.Calibrator(bench_round.KERNELS[workload])
cal.slice()
ops, latencies, failures, digest = bench_round.drive(workload, cases, cal)
print(json.dumps({{"ops": ops, "latencies": len(latencies), "failures": failures,
                  "digest": digest, "layers": tracer.report(1.0) if tracer else None}}))
""".format(tiny=TINY)


def tiny_round(workload: str, trace: bool) -> dict:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([os.path.join(ROOT, "src"), HERE]))
    proc = subprocess.run(
        [sys.executable, "-c", _TINY_ROUND, workload, str(int(trace))],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    if proc.returncode != 0:
        raise AssertionError(proc.stderr)
    return json.loads(proc.stdout.strip().splitlines()[-1])


class Inputs(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for workload in inputs.WORKLOADS:
            self.assertEqual(
                inputs.digest(inputs.generate(workload, 7)),
                inputs.digest(inputs.generate(workload, 7)),
            )
            self.assertNotEqual(
                inputs.digest(inputs.generate(workload, 1)),
                inputs.digest(inputs.generate(workload, 2)),
            )

    def test_recorded_input_digests(self):
        with open(run.DIGESTS_FILE, encoding="utf-8") as fh:
            recorded = json.load(fh)
        for workload in inputs.WORKLOADS:
            self.assertEqual(
                inputs.digest(inputs.generate(workload, run.DEFAULT_SEED)),
                recorded[workload]["input_sha256"],
            )

    def test_sizes(self):
        self.assertEqual(len(inputs.sweep(0)), 462)
        self.assertEqual(len(inputs.large_n(0)), 36)
        self.assertEqual(len(inputs.batch(0)), sum(k for _, k in inputs.BATCH_MIX))
        self.assertTrue(all(48 <= n <= 130 and d in (2, 3) for d, n, _ in inputs.large_n(5)))


class Checks(unittest.TestCase):
    """The correctness gate rejects wrong outputs."""

    def certificate(self, d=3, n=6, p=5):
        sys.path.insert(0, os.path.join(ROOT, "src"))
        try:
            from charpflag import check_equivariant_smoothness
        finally:
            sys.path.pop(0)
        return check_equivariant_smoothness(d, n, p).to_json()

    def test_certificate_gate(self):
        cert = self.certificate()
        self.assertIsNone(bench_round.check_certificate(cert, 3, 6, 5))
        self.assertIsNotNone(bench_round.check_certificate(cert, 3, 7, 5))
        for row in cert["rows"]:
            if row["case"] == "adjacent":
                row["h1"]["status"] = "zero"
                break
        self.assertIsNotNone(bench_round.check_certificate(cert, 3, 6, 5))
        cert = self.certificate()
        cert["verdict"] = "inconclusive"
        self.assertIsNotNone(bench_round.check_certificate(cert, 3, 6, 5))

    def test_envelope_gate(self):
        query = ["roots", "--type", "Sp", "--n", "3", "--json"]
        result = {"root_count": 18, "roots": [[0]] * 18, "weyl_group_order": 48}
        good = {"command": "roots", "inputs": {}, "result": result, "version": "0"}
        self.assertIsNone(bench_round.check_envelope(query, json.dumps(good)))
        self.assertIsNotNone(bench_round.check_envelope(query, "error"))
        self.assertIsNotNone(
            bench_round.check_envelope(query, json.dumps(dict(good, command="h1")))
        )
        wrong = dict(good, result=dict(result, weyl_group_order=24))
        self.assertIsNotNone(bench_round.check_envelope(query, json.dumps(wrong)))


class Rounds(unittest.TestCase):
    def test_tiny_rounds_pass(self):
        for workload in inputs.WORKLOADS:
            result = tiny_round(workload, trace=False)
            self.assertEqual((result["ops"], result["latencies"]), (TINY, TINY), workload)
            self.assertEqual(result["failures"], [], workload)

    def test_traced_counts_repeat(self):
        for workload in ("sweep", "batch"):
            first, second = tiny_round(workload, True), tiny_round(workload, True)
            self.assertEqual(first["layers"]["calls"], second["layers"]["calls"])
            self.assertEqual(first["layers"]["counters"], second["layers"]["counters"])
            self.assertEqual(first["digest"], second["digest"])
            calls = first["layers"]["calls"]
            self.assertGreater(calls["lattice.pairing"], 0)
            if workload == "sweep":
                self.assertEqual(calls["cli.parse"] + calls["cli.emit"], 0)
                # Calls through the names certificate re-binds are counted.
                self.assertGreater(calls["certificate.classify_weight"], 0)
            else:
                self.assertEqual(calls["cli.parse"], TINY + 1)  # + build_parser
                self.assertEqual(calls["cli.emit"], 2 * TINY)


class Statistics(unittest.TestCase):
    def test_tail_percentile(self):
        values = list(range(1, 101))
        self.assertEqual(run.tail(values, 90.0, 1), (90, 90.0, 10))
        self.assertEqual(run.tail(values, 99.0, 10), (99, 99.0, 10))
        # Too few samples beyond p99 in one round: fall back to 10 beyond.
        self.assertEqual(run.tail(values, 99.0, 1), (90, 90.0, 10))


class Contract(unittest.TestCase):
    def test_benchmark_json_matches_harness(self):
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            spec = json.load(fh)
        self.assertEqual([w["name"] for w in spec["workloads"]], list(inputs.WORKLOADS))
        self.assertEqual(
            [(m["name"], m["unit"]) for m in spec["end_to_end"]], list(run.END_TO_END)
        )
        self.assertEqual(
            [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]], list(run.PER_LAYER)
        )

    def test_refuses_without_library(self):
        empty = os.path.join(ROOT, inputs.WORK_DIR, "selftest-empty")
        shutil.rmtree(empty, ignore_errors=True)
        shutil.copytree(HERE, os.path.join(empty, "perfbench"), ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), empty)
        try:
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=empty,
                capture_output=True,
                text=True,
                timeout=60,
            )
        finally:
            shutil.rmtree(empty, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
