"""The label-based H^1 engine against the dense engine it replaced.

``dense_andersen_h1`` below is the earlier implementation of Andersen's
criterion: it pairs mu with every simple root, dot-reflects densely and
tests every candidate weight for dominance by pairing it with every
simple root.  The engine in ``charpflag.cohomology`` must give the same
full ``H1Status`` (status, largest weight and reason text), or raise the
same error, on a seeded grid of weights.  The dense engine reads neither
labels nor Cartan columns, so it also checks the label-based shortcuts.

The grid draws ``H1_WEIGHTS_PER_SHAPE`` weights (default 20) per datum,
prime and shape; for a 10x grid:

    H1_WEIGHTS_PER_SHAPE=200 python -m pytest -q tests/test_h1_engine.py
"""

import os
import random

import pytest

from charpflag import (
    H1Status,
    InternalInconsistencyError,
    andersen_h1,
    dot_reflect,
    end_weights,
    frobenius_twist,
    make_datum,
    pairing,
    pullback_filtration,
    tautological_weights,
)

PRIMES = (2, 3, 5, 7, 11, 13)
DATA = [("GL", n) for n in range(2, 11)] + [("SL", n) for n in range(3, 9)]
WEIGHTS_PER_SHAPE = int(os.environ.get("H1_WEIGHTS_PER_SHAPE", "20"))


def _dense_dominant(lam):
    return all(pairing(lam, a) >= 0 for a in lam.datum.simple_roots)


def _dense_nonzero(lam):
    assert _dense_dominant(lam)
    return H1Status("nonzero", highest_weight=lam)


def dense_andersen_h1(mu, p):
    """Andersen's criterion on dense weights (type A, p prime)."""
    if _dense_dominant(mu):
        return H1Status("zero")
    verdicts = []
    for alpha in mu.datum.simple_roots:
        c = pairing(mu, alpha)
        if c > -2:
            continue
        lam = dot_reflect(mu, alpha)
        m = pairing(lam, alpha)
        if m != -c - 2:
            raise InternalInconsistencyError(
                f"<s_alpha . mu, alpha^vee> = {m} != {-c - 2} for {mu!r} and {alpha!r}"
            )
        if m <= 0:
            continue
        verdicts.append((alpha, _dense_one_root(mu, lam, alpha, m, p)))
    if not verdicts:
        return H1Status.undetermined(
            "no simple root with <mu, alpha^vee> <= -3; criterion not applicable"
        )
    statuses = [v for _, v in verdicts]
    for other in statuses[1:]:
        if other != statuses[0]:
            raise InternalInconsistencyError(
                f"simple roots give conflicting H^1 verdicts for {mu!r}: {verdicts}"
            )
    return statuses[0]


def _dense_one_root(mu, lam, alpha, m, p):
    s = m + 1
    while s % p == 0:
        s //= p
    if s < p:
        return _dense_nonzero(lam) if _dense_dominant(lam) else H1Status("zero")
    digits = []  # base-p digits of m, least significant first
    rest = m
    while rest:
        rest, digit = divmod(rest, p)
        digits.append(digit)
    n = len(digits) - 1
    if all(digits[j] == p - 1 for j in range(n)):
        return H1Status.undetermined(
            f"all low base-{p} digits of {m} equal {p - 1}; criterion part b) inapplicable"
        )
    if not _dense_dominant(mu + (digits[n] * p**n) * alpha.vector):
        return H1Status("zero")
    if _dense_dominant(lam):
        return _dense_nonzero(lam)
    m_low = next(j for j in range(n) if digits[j] < p - 1)
    for j in range(m_low, n + 1):
        tail = sum(digits[t] * p**t for t in range(j, n + 1))
        nu = mu + tail * alpha.vector
        if _dense_dominant(nu):
            return _dense_nonzero(nu)
    raise InternalInconsistencyError(
        f"dominant tail weight not found for {mu!r} though nu_n was dominant"
    )


def _outcome(engine, mu, p):
    try:
        return engine(mu, p)
    except InternalInconsistencyError as exc:
        return ("raised", str(exc))


def _random_weight(rng, n, p, shape):
    """The three weight shapes of the benchmark's h1 queries."""
    if shape == "small":
        return [rng.randint(-2, 2) for _ in range(n)]
    if shape == "wide":
        bound = 2 * p * p
        return [rng.randint(-bound, bound) for _ in range(n)]
    # Dominant except at one simple root: part b) and its tail search.
    gaps = [rng.randint(0, 2 * p * p) for _ in range(n - 1)]
    gaps[rng.randrange(n - 1)] = -rng.randint(3, 3 * p * p)
    coords = [rng.randint(-p, p)]
    for gap in reversed(gaps):
        coords.append(coords[-1] + gap)
    return coords[::-1]


@pytest.mark.parametrize("family,n", DATA, ids=[f"{f}{n}" for f, n in DATA])
def test_engine_matches_the_dense_engine_on_random_weights(family, n):
    datum = make_datum(family, n)
    rng = random.Random(f"{family}{n}")
    statuses = set()
    for p in PRIMES:
        for shape in ("small", "wide", "one_wall"):
            for _ in range(WEIGHTS_PER_SHAPE):
                mu = datum.weight(_random_weight(rng, n, p, shape))
                expected = _outcome(dense_andersen_h1, mu, p)
                assert _outcome(andersen_h1, mu, p) == expected, (mu, p)
                statuses.add(getattr(expected, "status", "raised"))
    # The grid reaches every branch that decides bytes.
    assert {"zero", "nonzero", "undetermined"} <= statuses


@pytest.mark.parametrize("p", PRIMES)
def test_engine_matches_the_dense_engine_on_every_end_weight(p):
    for n in range(4, 15):
        weights = set()
        for d in range(2, n - 1):
            twisted = frobenius_twist(tautological_weights(d, n), p)
            weights.update(pullback_filtration(end_weights(twisted)))
        for mu in sorted(weights, key=lambda w: w.coords):
            assert _outcome(andersen_h1, mu, p) == _outcome(dense_andersen_h1, mu, p), (mu, p)
