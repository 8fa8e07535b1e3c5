"""Seeded inputs of the three workloads.

Pure Python with no charpflag import: the same seed gives the same inputs
on any machine, and ``digest`` gives them a stable fingerprint.  The
library only ever sees what these functions return.
"""

from __future__ import annotations

import hashlib
import json
import random

WORKLOADS = ("sweep", "large_n", "batch")

SWEEP_PRIMES = (5, 7, 11, 13, 17, 19, 23)
SWEEP_MAX_N = 14

LARGE_N_SIZES = (48, 64, 80, 96, 112, 128)  # ambient N
LARGE_N_DEGREES = (2, 2, 2, 3, 3, 3)  # d of the certificates at each N
LARGE_N_PRIMES = (5, 7, 11, 13)

BATCH_PRIMES = (5, 7, 11, 13)
# Query mix of the batch file: (command, number of lines).  Fixed counts,
# not sampled proportions, so that the work per round hardly depends on
# the seed.
BATCH_MIX = (
    ("h1", 2088),
    ("bwb0", 300),
    ("roots", 150),
    ("rigidity", 300),
    ("grassmann-check", 135),
    ("isogeny-check", 27),
)
# Data of the roots and rigidity lines, and shapes (d, N) of the
# grassmann-check lines, the slowest ones.
ROOTS_DATA = (
    [("GL", n) for n in range(1, 6)]
    + [(family, n) for family in ("SL", "Sp", "SO_odd", "SO_even") for n in range(2, 6)]
    + [("torus", n) for n in range(1, 5)]
)
GRASSMANN_SHAPES = tuple((d, n) for n in range(4, 9) for d in range(2, n - 1))
RIGIDITY_RINGS = ("0", "p", "p^2", "p^3")
RIGIDITY_PRIMES = (2, 3, 5, 7, 11)

WORK_DIR = ".bench_build/perfbench"
BATCH_FILE = f"{WORK_DIR}/batch.txt"
# Frobenius data h = p * id, d = identity, q == p over three kinds of base
# ring: valid only where p = 0 in the ring.
ISOGENY_SPECS = (
    ({"type": "GL", "n": 3}, 5, {"kind": "prime", "p": 5}, True),
    ({"type": "GL", "n": 4}, 7, {"kind": "prime_power", "p": 7, "n": 2}, False),
    ({"type": "Sp", "n": 2}, 5, {"kind": "zero"}, False),
)


def isogeny_path(k: int) -> str:
    return f"{WORK_DIR}/iso_{k}.json"


def isogeny_document(k: int) -> dict:
    datum, p, ring, _ = ISOGENY_SPECS[k]
    n = datum["n"]
    return {
        "source": datum,
        "target": datum,
        "h": [[p if i == j else 0 for j in range(n)] for i in range(n)],
        "d_map": "identity",
        "q": p,
        "ring_char": ring,
    }


def sweep(seed: int) -> list[tuple[int, int, int]]:
    """Every (d, N, p) with 2 <= d <= N-2, 4 <= N <= 14, p in SWEEP_PRIMES."""
    cases = [
        (d, n, p)
        for p in SWEEP_PRIMES
        for n in range(4, SWEEP_MAX_N + 1)
        for d in range(2, n - 1)
    ]
    random.Random(seed).shuffle(cases)
    return cases


def large_n(seed: int) -> list[tuple[int, int, int]]:
    """Six certificates at each N of LARGE_N_SIZES, d from LARGE_N_DEGREES.

    The seed sets each certificate's prime.  The first certificate at each
    N builds the datum.  N, d and the order do not depend on the seed: the
    datum build grows like N^3, and the peak memory of a round depends on
    the order of the builds.
    """
    rng = random.Random(seed)
    return [(d, n, rng.choice(LARGE_N_PRIMES)) for n in LARGE_N_SIZES for d in LARGE_N_DEGREES]


def _coords(values) -> str:
    return ",".join(str(v) for v in values)


def _h1_weight(rng: random.Random, n: int, p: int, kind: int) -> list[int]:
    if kind == 0:
        # Small coordinates: often no simple root with <mu, alpha^vee> <= -3,
        # which leaves the verdict undetermined (exit status 2).
        return [rng.randint(-2, 2) for _ in range(n)]
    if kind < 5:
        bound = 2 * p * p
        return [rng.randint(-bound, bound) for _ in range(n)]
    # Dominant except at one simple root, so that part b) of the criterion
    # and its tail-weight search have work to do.
    gaps = [rng.randint(0, 2 * p * p) for _ in range(n - 1)]
    gaps[rng.randrange(n - 1)] = -rng.randint(3, 3 * p * p)
    coords = [rng.randint(-p, p)]
    for gap in reversed(gaps):
        coords.append(coords[-1] + gap)
    return coords[::-1]


def _batch_query(rng: random.Random, command: str, k: int) -> str:
    # Sizes and kinds cycle with the line's index k within its command, so
    # that the mix of costs is the same at every seed; values are random.
    if command == "h1":
        n, p = 3 + k % 8, rng.choice(BATCH_PRIMES)
        return f"h1 --weight {_coords(_h1_weight(rng, n, p, k // 8 % 10))} --p {p} --json"
    if command == "bwb0":
        n = 3 + k % 6
        return f"bwb0 --weight {_coords(rng.randint(-10, 10) for _ in range(n))} --json"
    if command == "roots":
        family, n = ROOTS_DATA[k % len(ROOTS_DATA)]
        return f"roots --type {family} --n {n} --json"
    if command == "rigidity":
        family, n = ROOTS_DATA[k % len(ROOTS_DATA)]
        ring = RIGIDITY_RINGS[k // len(ROOTS_DATA) % len(RIGIDITY_RINGS)]
        p = rng.choice(RIGIDITY_PRIMES)
        return f"rigidity --type {family} --n {n} --ring {ring} --p {p} --json"
    if command == "grassmann-check":
        d, n = GRASSMANN_SHAPES[k % len(GRASSMANN_SHAPES)]
        return f"grassmann-check --d {d} --N {n} --p {rng.choice(BATCH_PRIMES)} --json"
    return f"isogeny-check --file {isogeny_path(k % len(ISOGENY_SPECS))} --json"


def batch(seed: int) -> list[str]:
    """About 3000 query lines of the mix in BATCH_MIX, in seeded order."""
    rng = random.Random(seed)
    queries = [(command, k) for command, count in BATCH_MIX for k in range(count)]
    rng.shuffle(queries)
    return [_batch_query(rng, command, k) for command, k in queries]


GENERATORS = {"sweep": sweep, "large_n": large_n, "batch": batch}


def generate(workload: str, seed: int) -> list:
    return GENERATORS[workload](seed)


def digest(inputs: list) -> str:
    """sha256 of the inputs' canonical JSON form."""
    return hashlib.sha256(json.dumps(inputs, separators=(",", ":")).encode()).hexdigest()
