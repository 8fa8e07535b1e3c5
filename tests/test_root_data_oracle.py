"""The classical root data against textbook dense formulas.

The oracle below writes every root, coroot, simple root and Weyl vector
as a plain coordinate tuple, without using ``charpflag.lattice``, and the
library's sparse data must reproduce them in the same order.
"""

from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from charpflag import (
    CharpFlagError,
    RingChar,
    cartan_column,
    custom_datum,
    dynkin_labels,
    frobenius_rigidity_verdict,
    make_datum,
    pairing,
)

RANKS = {
    "GL": range(1, 7),
    "SL": range(1, 7),
    "Sp": range(2, 7),
    "SO_odd": range(2, 7),
    "SO_even": range(2, 7),
}


def _vec(n, *entries):
    """The vector of length n with the given (index, value) entries."""
    out = [0] * n
    for i, v in entries:
        out[i] += v
    return tuple(out)


def oracle(family, n):
    """(positive (root, coroot) pairs, simple roots, Weyl vector, denominator).

    Bourbaki's tables in the basis l_1..l_n, positives listed as
    l_i - l_j, then l_i + l_j (i < j), then the roots on one axis.  Type B
    uses half-character units: roots and vectors are doubled.
    """
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    minus = [_vec(n, (i, 1), (j, -1)) for i, j in pairs]
    plus = [_vec(n, (i, 1), (j, 1)) for i, j in pairs]
    axis = [_vec(n, (i, 1)) for i in range(n)]
    chain = [_vec(n, (k, 1), (k + 1, -1)) for k in range(n - 1)]

    def twice(v):
        return tuple(2 * c for c in v)

    if family in ("GL", "SL"):
        positives = [(v, v) for v in minus]
        simples = chain
        rho = tuple(n - 1 - i for i in range(n))
        den = 1
    elif family == "Sp":
        positives = [(v, v) for v in minus + plus] + [(twice(v), v) for v in axis]
        simples = chain + [twice(axis[-1])]
        rho = tuple(n - i for i in range(n))
        den = 1
    elif family == "SO_even":
        positives = [(v, v) for v in minus + plus]
        simples = chain + [_vec(n, (n - 2, 1), (n - 1, 1))]
        rho = tuple(n - 1 - i for i in range(n))
        den = 1
    else:  # SO_odd
        positives = [(twice(v), v) for v in minus + plus] + [(twice(v), twice(v)) for v in axis]
        simples = [twice(v) for v in chain] + [twice(axis[-1])]
        rho = tuple(2 * (n - i) - 1 for i in range(n))
        den = 2
    if family == "SL":
        # Weights of SL(n) are classes mod the all-ones vector, written
        # with last coordinate zero.
        def canon(v):
            return tuple(c - v[-1] for c in v)

        positives = [(canon(v), c) for v, c in positives]
        simples = [canon(v) for v in simples]
    return positives, simples, rho, den


def _negative(v):
    return tuple(-c for c in v)


CASES = [(family, n) for family, ranks in RANKS.items() for n in ranks]


@pytest.mark.parametrize("family,n", CASES, ids=[f"{f}{n}" for f, n in CASES])
def test_datum_matches_the_dense_oracle(family, n):
    positives, simples, rho, den = oracle(family, n)
    datum = make_datum(family, n)
    all_pairs = positives + [(_negative(v), _negative(c)) for v, c in positives]
    assert [(r.vector.coords, r.coroot) for r in datum.positive_roots] == positives
    assert [(r.vector.coords, r.coroot) for r in datum.roots] == all_pairs
    assert [r.vector.coords for r in datum.simple_roots] == simples
    assert datum.weyl_vector.coords == rho
    assert datum.pairing_denominator == den


@st.composite
def _weight_and_datum(draw):
    family, n = draw(st.sampled_from(CASES))
    coords = draw(st.lists(st.integers(-40, 40), min_size=n, max_size=n))
    if family == "SO_odd":
        parity = draw(st.integers(0, 1))
        coords = [2 * c + parity for c in coords]
    return family, n, coords


@seed(20181025)
@settings(max_examples=200, deadline=None)
@given(_weight_and_datum())
def test_sparse_pairing_matches_the_dense_pairing(case):
    family, n, coords = case
    positives, _, _, den = oracle(family, n)
    coroots = [c for _, c in positives] + [_negative(c) for _, c in positives]
    datum = make_datum(family, n)
    lam = datum.weight(coords)
    for alpha, coroot in zip(datum.roots, coroots):
        dense = Fraction(sum(a * b for a, b in zip(lam.coords, coroot)), den)
        assert pairing(lam, alpha) == dense


@lru_cache(maxsize=None)
def _custom_copy(family, n):
    """The oracle's tables as a custom datum, which the library does not build."""
    positives, simples, rho, den = oracle(family, n)
    return custom_datum(n, positives, simples, rho, den, name=f"custom {family}{n}")


@st.composite
def _labelled_weight(draw):
    family, n = draw(st.sampled_from(CASES))
    custom = draw(st.booleans())
    datum = _custom_copy(family, n) if custom else make_datum(family, n)
    coords = draw(st.lists(st.integers(-40, 40), min_size=n, max_size=n))
    if family == "SO_odd" and not (custom and draw(st.booleans())):
        # A custom datum does not check parity: half the custom SO_odd
        # weights stay off the lattice, where the labels must raise.
        parity = draw(st.integers(0, 1))
        coords = [2 * c + parity for c in coords]
    return datum.weight(coords)


def _outcome(fn):
    try:
        return fn()
    except CharpFlagError as exc:
        return type(exc), str(exc)


@seed(20181026)
@settings(max_examples=300, deadline=None)
@given(_labelled_weight())
def test_sparse_labels_match_the_pairings_with_every_simple_root(lam):
    def dense():
        pairings = [pairing(lam, a) for a in lam.datum.simple_roots]
        return {k: c for k, c in enumerate(pairings) if c}

    assert _outcome(lambda: dynkin_labels(lam)) == _outcome(dense)


@seed(20181027)
@settings(max_examples=200, deadline=None)
@given(_weight_and_datum(), st.data())
def test_labels_move_by_the_cartan_column(case, data):
    family, n, coords = case
    datum = make_datum(family, n)
    mu = datum.weight(coords)
    if not datum.simple_roots:
        return
    k = data.draw(st.integers(0, len(datum.simple_roots) - 1))
    t = data.draw(st.integers(-50, 50))
    alpha = datum.simple_roots[k]
    expected = dict(dynkin_labels(mu))
    for j, a in cartan_column(alpha):
        expected[j] = expected.get(j, 0) + t * a
    assert dynkin_labels(mu + t * alpha.vector) == {j: c for j, c in expected.items() if c}
    # The column holds <alpha_k, alpha_j^vee>, with 2 on the diagonal.
    pairings = [pairing(alpha.vector, b) for b in datum.simple_roots]
    column = dict(cartan_column(alpha))
    assert column == {j: c for j, c in enumerate(pairings) if c}
    assert column[k] == 2


def test_rigidity_verdict_repeats_and_still_checks_p():
    datum = make_datum("GL", 3)
    ring = RingChar.prime_power(5, 2)
    first = frobenius_rigidity_verdict(datum, ring)
    assert frobenius_rigidity_verdict(datum, ring) == first
    assert frobenius_rigidity_verdict(datum, ring, p=5) == first
    assert not first.lift_possible
    with pytest.raises(ValueError, match="conflicts"):
        frobenius_rigidity_verdict(datum, ring, p=7)
    zero = RingChar.zero()
    at_5 = frobenius_rigidity_verdict(datum, zero, p=5)
    assert frobenius_rigidity_verdict(datum, zero, p=5) == at_5
    # Over characteristic 0 the reason names the residue prime.
    assert "x^7" in frobenius_rigidity_verdict(datum, zero, p=7).reason
    with pytest.raises(ValueError, match="residue prime"):
        frobenius_rigidity_verdict(datum, zero)
