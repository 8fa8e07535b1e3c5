"""Benchmark of charpflag: the sweep, large_n and batch workloads.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

Run from the root of a charpflag checkout; the library is imported from
its ``src``.  A run repeats rounds until ``--seconds`` have passed.  Each
round is a fresh interpreter (``round.py``) that imports charpflag, makes
the workload's inputs from the seed and performs every operation once, so
module-level caches start cold, as in every user invocation.

With ``--trace 0`` the run reports the end-to-end metrics.  With
``--trace 1`` the first round runs with the tracer's wrappers installed
and the run reports the per-layer metrics of that round; the later rounds
run untraced and give the tracing overhead.  Every line before the last
describes the run for a reader; the last line is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

See README.md in this directory for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

import inputs

HERE = os.path.dirname(os.path.abspath(__file__))
DEFAULT_SEED = 0
DIGESTS_FILE = os.path.join(HERE, "digests.json")

# Percentile of the tail latency, per workload.  Fixed, so that it does
# not move with the number of rounds that fit in a run, and low enough
# that a run of the default length has at least MIN_BEYOND samples beyond
# it.
TAIL_PERCENT = {"sweep": 99.0, "large_n": 90.0, "batch": 99.0}
MIN_BEYOND = 10
RUN_LIMIT_S = 170  # a run must end within 180 s

END_TO_END = (
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

# (name, unit, better).  Counts are per round; self times are seconds of
# the traced round.
PER_LAYER = (
    ("lattice.pairing.calls", "count", "lower"),
    ("lattice.pairing.self_s", "s", "lower"),
    ("lattice.is_dominant.calls", "count", "lower"),
    ("lattice.is_dominant.self_s", "s", "lower"),
    ("lattice.dot_reflect.calls", "count", "lower"),
    ("lattice.dot_reflect.self_s", "s", "lower"),
    ("lattice.weight_arith.calls", "count", "lower"),
    ("lattice.weight_arith.self_s", "s", "lower"),
    ("lattice.make_datum.calls", "count", "lower"),
    ("lattice.make_datum.self_s", "s", "lower"),
    ("lattice.make_datum.hit_ratio", "ratio", "higher"),
    ("lattice.weyl_group.calls", "count", "lower"),
    ("lattice.weyl_group.self_s", "s", "lower"),
    ("cohomology.andersen_h1.calls", "count", "lower"),
    ("cohomology.andersen_h1.self_s", "s", "lower"),
    ("cohomology.andersen_h1.undetermined", "count", "lower"),
    ("cohomology.bwb_char0.calls", "count", "lower"),
    ("cohomology.bwb_char0.self_s", "s", "lower"),
    ("bundles.weights_built", "count", "lower"),
    ("bundles.self_s", "s", "lower"),
    ("rootmorph.frobenius_rigidity_verdict.calls", "count", "lower"),
    ("rootmorph.frobenius_rigidity_verdict.self_s", "s", "lower"),
    ("rootmorph.validate_p_morphism.calls", "count", "lower"),
    ("rootmorph.validate_p_morphism.self_s", "s", "lower"),
    ("rootmorph.roots_checked", "count", "lower"),
    ("certificate.classify_weight.calls", "count", "lower"),
    ("certificate.classify_weight.self_s", "s", "lower"),
    ("certificate.certificate_from_rows.self_s", "s", "lower"),
    ("certificate.check_equivariant_smoothness.self_s", "s", "lower"),
    ("cli.parse.self_s", "s", "lower"),
    ("cli.emit.self_s", "s", "lower"),
    ("cli.lines", "count", "higher"),
    ("harness.traced_minus_untraced_ops_per_s", "1/s", "higher"),
)
UNITS = dict(END_TO_END) | {name: unit for name, unit, _ in PER_LAYER}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


# ---------------------------------------------------------------------------
# Rounds


def run_round(root: str, workload: str, seed: int, trace: bool, deadline: float) -> dict:
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    t0 = time.monotonic()
    argv = [sys.executable, os.path.join(HERE, "round.py"), workload, str(seed), str(int(trace))]
    try:
        proc = subprocess.run(
            argv + [repr(t0)],
            cwd=root,
            env=env,
            capture_output=True,
            text=True,
            timeout=max(1.0, deadline - t0),
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"a {workload} round did not end within the run's time limit") from None
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"a {workload} round exited with status {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not os.path.abspath(result["charpflag_file"]).startswith(os.path.join(root, "src") + os.sep):
        raise BenchError(f"charpflag was imported from {result['charpflag_file']}, not from src")
    return result


def throughput(latencies: list) -> float:
    return len(latencies) / (sum(latencies) / 1e9)


def tail(latencies: list, percent: float, rounds: int) -> tuple[float, float, int]:
    """(value, percentile, samples beyond it), by the nearest-rank rule.

    ``latencies`` holds one typical latency per operation, each measured
    in every round.  Falls back to the highest percentile with MIN_BEYOND
    samples beyond it when the run was too short for ``percent``.
    """
    n = len(latencies)
    rank = max(1, math.ceil(percent / 100 * n))
    if (n - rank) * rounds < MIN_BEYOND:
        rank = max(1, n - math.ceil(MIN_BEYOND / rounds))
        percent = 100 * rank / n
    return sorted(latencies)[rank - 1], percent, (n - rank) * rounds


def check_digests(workload: str, seed: int, rounds: list[dict]) -> list[str]:
    """Problems with the rounds' input and output hashes, if any."""
    problems = []
    if len({r["input_sha256"] for r in rounds}) > 1:
        problems.append("inputs differ between rounds of one seed")
    if len({r["output_sha256"] for r in rounds}) > 1:
        problems.append("outputs differ between rounds of one seed")
    if seed == DEFAULT_SEED:
        with open(DIGESTS_FILE, encoding="utf-8") as fh:
            recorded = json.load(fh)[workload]
        for key in ("input_sha256", "output_sha256"):
            if rounds[0][key] != recorded[key]:
                problems.append(f"{key} {rounds[0][key]} != recorded {recorded[key]}")
    return problems


def run_workload(root: str, workload: str, seed: int, seconds: int, trace: bool) -> dict:
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    traced = run_round(root, workload, seed, True, deadline) if trace else None
    rounds = []
    while not rounds or time.monotonic() - start < seconds:
        rounds.append(run_round(root, workload, seed, False, deadline))

    everything = rounds + ([traced] if traced else [])
    attempted = sum(r["ops"] for r in everything)
    failed = sum(r["failed"] for r in everything)
    problems = check_digests(workload, seed, everything)
    if problems:
        failed = attempted  # the hashes cover every operation of the run
    # Every round performs the same operations in the same order.  An
    # operation's typical latency is its median over the rounds, which
    # discards the bursts of slowdown that a shared machine adds to a few
    # rounds; the metrics are taken over these typical latencies.
    latencies = [statistics.median(op) for op in zip(*(r["latencies_ns"] for r in rounds))]
    tail_ns, tail_pct, beyond = tail(latencies, TAIL_PERCENT[workload], len(rounds))
    summary = {
        "workload": workload,
        "seed": seed,
        "rounds": len(rounds),
        "ops_per_round": rounds[0]["ops"],
        "samples": len(latencies) * len(rounds),
        "tail_percentile": round(tail_pct, 2),
        "tail_samples_beyond": beyond,
        "input_sha256": rounds[0]["input_sha256"],
        "output_sha256": rounds[0]["output_sha256"],
        "problems": problems,
        "wall_s": round(time.monotonic() - start, 3),
        "cpu_slowdown": round(statistics.median(r["cpu_slowdown"] for r in rounds), 4),
    }
    metrics = {
        "ops_per_s": throughput(latencies),
        "op_p50_ms": statistics.median(latencies) / 1e6,
        "op_tail_ms": tail_ns / 1e6,
        "setup_s": statistics.median(r["setup_s"] for r in rounds),
        "peak_rss_mb": statistics.median(r["peak_rss_kb"] for r in rounds) / 1024,
    }
    if trace:
        overhead = throughput(traced["latencies_ns"]) - metrics["ops_per_s"]
        metrics = layer_metrics(traced["layers"], overhead)
    return {
        "summary": summary,
        "metrics": metrics,
        "attempted": attempted,
        "failed": failed,
        "correct": failed == 0,
    }


def layer_metrics(layers: dict, overhead: float) -> dict:
    values = {}
    for layer, count in layers["calls"].items():
        values[f"{layer}.calls"] = count
        values[f"{layer}.self_s"] = layers["self_s"][layer]
    values.update(layers["counters"])
    hits = values.pop("lattice.make_datum.hits")
    values["lattice.make_datum.hit_ratio"] = hits / max(1, values["lattice.make_datum.calls"])
    values["harness.traced_minus_untraced_ops_per_s"] = overhead
    return {name: values[name] for name, _, _ in PER_LAYER}


# ---------------------------------------------------------------------------
# Context and output


def _git_sha(root: str) -> str:
    # Only a checkout's own repository: git would otherwise search the
    # directories above it.
    if not os.path.isdir(os.path.join(root, ".git")):
        return "unavailable"
    proc = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=30
    )
    return proc.stdout.strip() if proc.returncode == 0 else "unavailable"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def context(root: str) -> dict:
    """What a result depends on besides the code: recorded with every run."""
    src = hashlib.sha256()
    pkg = os.path.join(root, "src", "charpflag")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                src.update(name.encode() + b"\0" + fh.read())
    return {
        "git_sha": _git_sha(root),
        "src_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "loadavg_at_start": list(os.getloadavg()),
    }


def print_table(run: dict, trace: bool) -> None:
    s = run["summary"]
    print(
        f"workload {s['workload']}: seed {s['seed']}, {s['rounds']} rounds of "
        f"{s['ops_per_round']} ops in {s['wall_s']} s, {run['failed']} of "
        f"{run['attempted']} ops failed (failed_frac {run['failed'] / run['attempted']:.4g})"
    )
    for problem in s["problems"]:
        print(f"  problem: {problem}")
    per_op = f"per-op medians over {s['rounds']} rounds"
    notes = {
        "ops_per_s": per_op,
        "op_p50_ms": per_op,
        "op_tail_ms": f"p{s['tail_percentile']:g}; {s['tail_samples_beyond']} of "
        f"{s['samples']} samples beyond",
    }
    rounds_note = f"median of {s['rounds']} rounds"
    for name, value in run["metrics"].items():
        note = "" if trace else f"  ({notes.get(name, rounds_note)})"
        print(f"  {name:48s} {value:14.6g} {UNITS[name]}{note}")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=30, help="measured time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 1 <= args.seconds <= 120:
        parser.error("--seconds must be between 1 and 120")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "charpflag", "__init__.py")):
        print("perfbench: no src/charpflag here; run from the root of a checkout", file=sys.stderr)
        return 2
    workloads = inputs.WORKLOADS if args.workload == "all" else (args.workload,)
    print("context " + json.dumps(context(root), sort_keys=True))
    runs = []
    try:
        # Compile the bytecode caches once, before any round is timed.
        warm = subprocess.run(
            [sys.executable, "-c", "import charpflag.cli"],
            cwd=root,
            env=dict(os.environ, PYTHONPATH=os.path.join(root, "src")),
            timeout=60,
        )
        if warm.returncode != 0:
            raise BenchError("import charpflag.cli failed")
        for workload in workloads:
            runs.append(run_workload(root, workload, args.seed, args.seconds, bool(args.trace)))
            print_table(runs[-1], bool(args.trace))
            print("summary " + json.dumps(runs[-1]["summary"], sort_keys=True))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    prefix = len(runs) > 1
    metrics = {
        (f"{run['summary']['workload']}.{name}" if prefix else name): {
            "value": value,
            "unit": UNITS[name],
        }
        for run in runs
        for name, value in run["metrics"].items()
    }
    print(
        json.dumps(
            {
                "correct": all(run["correct"] for run in runs),
                "attempted": sum(run["attempted"] for run in runs),
                "failed": sum(run["failed"] for run in runs),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
