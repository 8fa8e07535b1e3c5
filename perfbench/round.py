"""One round of a workload in a fresh interpreter.

    python3 perfbench/round.py WORKLOAD SEED TRACE T0

Started by ``run.py`` with ``src`` on PYTHONPATH, so that every round
starts with charpflag's caches cold, as every user invocation does.  T0
is the parent's ``time.monotonic()`` just before it started this process;
set-up time runs from T0 to the end of input generation and includes
interpreter start and ``import charpflag``.  With TRACE 1 the tracer's
wrappers are installed before the inputs are made.  The last line of
standard output is one JSON object with the round's results.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import statistics
import sys
import time
import traceback


def _canonical(document) -> str:
    return json.dumps(document, sort_keys=True, separators=(",", ":"))


# ---------------------------------------------------------------------------
# Correctness checks: each returns None when the output is right, else why.


def check_certificate(cert: dict, d: int, n: int, p: int):
    """Acceptance criterion 1: verdict and the four-case row pattern."""
    if cert.get("inputs") != {"d": d, "N": n, "p": p}:
        return f"inputs {cert.get('inputs')} != {(d, n, p)}"
    if cert.get("verdict") != "no_lift_where_p_nonzero":
        return f"verdict {cert.get('verdict')!r}"
    rows = cert.get("rows", [])
    if len(rows) != d * d:
        return f"{len(rows)} rows, expected {d * d}"
    cases = {}
    for row in rows:
        case, h1 = row["case"], row["h1"]
        cases[case] = cases.get(case, 0) + 1
        if case == "adjacent":
            if h1["status"] != "nonzero" or any(h1["highest_weight"]):
                return f"adjacent row {row['weight']} has H^1 {h1}"
        elif h1["status"] != "zero":
            return f"{case} row {row['weight']} has H^1 {h1}"
    expected = {
        "diagonal": d,
        "adjacent": d - 1,
        "upper_far": d * (d - 1) // 2,
        "lower_far": (d - 1) * (d - 2) // 2,
    }
    if cases != {case: k for case, k in expected.items() if k}:
        return f"case counts {cases} != {expected}"
    return None


def _is_non_increasing(coords) -> bool:
    return all(a >= b for a, b in zip(coords, coords[1:]))


def _weyl_order(family: str, n: int) -> int:
    order = 1
    for k in range(2, n + 1):
        order *= k
    if family in ("Sp", "SO_odd"):
        return order * 2**n
    if family == "SO_even":
        return order * 2 ** (n - 1)
    return 1 if family == "torus" else order


_ROOT_COUNTS = {
    "GL": lambda n: n * (n - 1),
    "SL": lambda n: n * (n - 1),
    "Sp": lambda n: 2 * n * n,
    "SO_odd": lambda n: 2 * n * n,
    "SO_even": lambda n: 2 * n * (n - 1),
    "torus": lambda n: 0,
}


def _bwb_expected(coords) -> dict:
    n = len(coords)
    shifted = [c + n - 1 - i for i, c in enumerate(coords)]
    if len(set(shifted)) < n:
        return {"all_zero": True, "degree": None, "highest_weight": None}
    inversions = sum(shifted[i] < shifted[j] for i in range(n) for j in range(i + 1, n))
    top = sorted(shifted, reverse=True)
    return {
        "all_zero": False,
        "degree": inversions,
        "highest_weight": [c - (n - 1 - i) for i, c in enumerate(top)],
    }


def check_envelope(query: list[str], line: str):
    """One batch line: a parseable envelope whose result is right."""
    from inputs import ISOGENY_SPECS, isogeny_path

    try:
        envelope = json.loads(line)
    except ValueError:
        return f"not JSON: {line[:80]!r}"
    if sorted(envelope) != ["command", "inputs", "result", "version"]:
        return f"envelope keys {sorted(envelope)}"
    command, result = query[0], envelope["result"]
    if envelope["command"] != command:
        return f"command {envelope['command']!r} for a {command!r} query"
    opts = dict(zip(query[1::2], query[2::2]))
    if command == "h1":
        coords = [int(c) for c in opts["--weight"].split(",")]
        if result["status"] not in ("zero", "nonzero", "undetermined"):
            return f"H^1 status {result['status']!r}"
        if _is_non_increasing(coords) and result["status"] != "zero":
            return "dominant weight with nonzero H^1"
        if result["status"] == "nonzero" and not _is_non_increasing(result["highest_weight"]):
            return f"non-dominant highest weight {result['highest_weight']}"
    elif command == "bwb0":
        if result != _bwb_expected([int(c) for c in opts["--weight"].split(",")]):
            return f"bwb0 result {result}"
    elif command == "roots":
        family, n = opts["--type"], int(opts["--n"])
        if result["root_count"] != len(result["roots"]) or result["root_count"] != _ROOT_COUNTS[
            family
        ](n):
            return f"{result['root_count']} roots for {family} {n}"
        if result["weyl_group_order"] != _weyl_order(family, n):
            return f"Weyl group order {result['weyl_group_order']} for {family} {n}"
    elif command == "rigidity":
        # Frobenius lifts over a ring of characteristic p, and always on a
        # datum without roots.
        no_roots = _ROOT_COUNTS[opts["--type"]](int(opts["--n"])) == 0
        lifts = no_roots or opts["--ring"] == "p"
        if result["verdict"] != ("lift_possible" if lifts else "no_lift"):
            return f"rigidity verdict {result['verdict']!r}"
    elif command == "grassmann-check":
        return check_certificate(result, int(opts["--d"]), int(opts["--N"]), int(opts["--p"]))
    elif command == "isogeny-check":
        k = next(k for k in range(len(ISOGENY_SPECS)) if isogeny_path(k) == opts["--file"])
        if result["valid"] != ISOGENY_SPECS[k][3]:
            return f"isogeny verdict valid={result['valid']}"
    return None


# ---------------------------------------------------------------------------
# CPU-speed calibration
#
# On a shared machine the speed of a core drifts by up to 2x over seconds
# to minutes, as other tenants come and go.  A fixed pure-Python kernel,
# independent of charpflag, is timed between operations every
# CALIBRATION_INTERVAL_NS.  The round's slowdown is the median kernel time
# over REFERENCE_KERNEL_NS, and every time of the round is divided by it.
# Times are therefore reported for a CPU on which the kernel takes
# REFERENCE_KERNEL_NS, and the drift between rounds and runs cancels.
#
# Work on small tuples and work that allocates megabytes do not slow down
# alike, so each workload has a kernel that resembles its own work.

CALIBRATION_INTERVAL_NS = 150_000_000
REFERENCE_KERNEL_NS = 10_000_000


def _small_tuples() -> int:
    """Tuple building, generator sums and dict inserts, like certificate rows."""
    acc = 0
    table = {}
    for i in range(3000):
        t = tuple(range(i % 13, i % 13 + 12))
        u = tuple(-x for x in t)
        acc += sum(a * b for a, b in zip(t, u))
        table[t] = acc
        acc ^= len(table)
    return acc


def _root_list() -> int:
    """A few MB of coordinate tuples and pairings, like building a datum."""
    n = 44
    roots = {}
    for i in range(n):
        for j in range(i + 1, n):
            v = tuple(1 if k == i else (-1 if k == j else 0) for k in range(n))
            roots[v] = tuple(-x for x in v)
    return sum(sum(a * b for a, b in zip(v, w)) for v, w in roots.items())


KERNELS = {"sweep": _small_tuples, "batch": _small_tuples, "large_n": _root_list}


class Calibrator:
    """Kernel times along a round.  ``interval_ns`` None: at the ends only."""

    def __init__(self, kernel, interval_ns=CALIBRATION_INTERVAL_NS):
        self.kernel, self.interval_ns = kernel, interval_ns
        self.kernel_ns: list[int] = []
        self._last = 0

    def slice(self) -> int:
        """Time the kernel once; returns the clock after it."""
        start = time.perf_counter_ns()
        self.kernel()
        self._last = time.perf_counter_ns()
        self.kernel_ns.append(self._last - start)
        return self._last

    def between_ops(self, now: int) -> int:
        """Time the kernel if it is due; returns the clock after it."""
        due = self.interval_ns is not None and now - self._last >= self.interval_ns
        return self.slice() if due else now

    def slowdown(self) -> float:
        return statistics.median(self.kernel_ns) / REFERENCE_KERNEL_NS


# ---------------------------------------------------------------------------
# Drivers: each returns (operations, latencies in ns, one message per failed
# operation, sha256 of the output bytes)


def _drive_certificates(charpflag, cases, cal: Calibrator):
    clock = time.perf_counter_ns
    latencies, failures = [], []
    out = hashlib.sha256()
    for d, n, p in cases:
        start = clock()
        try:
            cert = charpflag.check_equivariant_smoothness(d, n, p)
        except Exception as exc:  # a raise is a failed operation, not the end of the round
            latencies.append(clock() - start)
            failures.append(f"Gr({d},{n}) p={p}: {type(exc).__name__}: {exc}")
            continue
        latencies.append(clock() - start)
        document = cert.to_json()
        out.update(_canonical(document).encode() + b"\n")
        problem = check_certificate(document, d, n, p)
        if problem:
            failures.append(f"Gr({d},{n}) p={p}: {problem}")
        cal.between_ops(clock())
    return len(cases), latencies, failures, out.hexdigest()


class _Lines:
    """A text stream that timestamps every line written to it.

    Each event is (end of the line's operation, start of the next one,
    stream, text); calibration runs between the two.
    """

    def __init__(self, events: list, stream: str, cal: Calibrator):
        self._events, self._stream, self._cal, self._pending = events, stream, cal, ""

    def write(self, text: str) -> int:
        *lines, self._pending = (self._pending + text).split("\n")
        if lines:
            now = time.perf_counter_ns()
            for line in lines[:-1]:
                self._events.append((now, now, self._stream, line))
            self._events.append((now, self._cal.between_ops(now), self._stream, lines[-1]))
        return len(text)

    def flush(self) -> None:
        pass


def _drive_batch(cli, lines, cal: Calibrator):
    import shlex

    from inputs import BATCH_FILE

    events: list = []
    stdout, stderr = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = _Lines(events, "out", cal), _Lines(events, "err", cal)
    start = time.perf_counter_ns()
    try:
        code = cli.main(["--batch", BATCH_FILE])
    finally:
        sys.stdout, sys.stderr = stdout, stderr
    starts = [start] + [resume for _, resume, _, _ in events]
    latencies = [end - s for s, (end, _, _, _) in zip(starts, events)]
    if len(events) != len(lines):
        # Outputs cannot be matched to queries: every query counts as failed.
        message = f"{len(events)} output lines for {len(lines)} queries"
        return len(lines), latencies, [message] * len(lines), ""
    failures = []
    for query, (_, _, stream, text) in zip(lines, events):
        problem = f"stderr: {text}" if stream == "err" else check_envelope(shlex.split(query), text)
        if problem:
            failures.append(f"{query}: {problem}")
    if code not in (0, 2) and not failures:
        failures.append(f"batch exit status {code}")
    out = "".join(text + "\n" for _, _, stream, text in events if stream == "out")
    return len(lines), latencies, failures, hashlib.sha256(out.encode()).hexdigest()


def prepare(workload: str, cases) -> None:
    """Write the files that a workload's operations read."""
    if workload != "batch":
        return
    from inputs import BATCH_FILE, ISOGENY_SPECS, WORK_DIR, isogeny_document, isogeny_path

    os.makedirs(WORK_DIR, exist_ok=True)
    with open(BATCH_FILE, "w", encoding="utf-8") as fh:
        fh.write("".join(line + "\n" for line in cases))
    for k in range(len(ISOGENY_SPECS)):
        with open(isogeny_path(k), "w", encoding="utf-8") as fh:
            json.dump(isogeny_document(k), fh)


def drive(workload: str, cases, cal: Calibrator):
    """Perform every operation once, timed and checked."""
    import charpflag

    if workload == "batch":
        import charpflag.cli

        return _drive_batch(charpflag.cli, cases, cal)
    return _drive_certificates(charpflag, cases, cal)


def main(argv) -> int:
    workload, seed, trace, t0 = argv[0], int(argv[1]), argv[2] == "1", float(argv[3])
    import charpflag

    if workload == "batch" or trace:
        import charpflag.cli
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    import inputs

    cases = inputs.generate(workload, seed)
    prepare(workload, cases)
    setup_s = time.monotonic() - t0

    # The traced round calibrates at its ends only, so that no kernel time
    # falls inside a traced span.
    cal = Calibrator(KERNELS[workload], None if trace else CALIBRATION_INTERVAL_NS)
    cal.slice()
    ops, latencies, failures, out_digest = drive(workload, cases, cal)
    cal.slice()
    slowdown = cal.slowdown()
    for message in failures[:5]:
        print(f"perfbench: {workload} seed {seed}: {message}", file=sys.stderr)

    result = {
        "charpflag_file": charpflag.__file__,
        "setup_s": setup_s / slowdown,
        "cpu_slowdown": slowdown,
        "ops": ops,
        "latencies_ns": [t / slowdown for t in latencies],
        "failed": len(failures),
        "input_sha256": inputs.digest(cases),
        "output_sha256": out_digest,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        result["layers"] = tracer.report(1 / slowdown)
        result["layers"]["counters"]["cli.lines"] = ops if workload == "batch" else 0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except Exception:
        traceback.print_exc()
        sys.exit(1)
