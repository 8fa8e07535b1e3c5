from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from charpflag import (
    DatumMismatchError,
    NotPrimeError,
    RankRangeError,
    end_weights,
    frobenius_twist,
    make_datum,
    pullback_filtration,
    tautological_weights,
)
from charpflag.lattice import FAMILIES

from conftest import FAMILY_MIN_RANK, weights_of


def test_tautological_weights_gr_2_4():
    b = tautological_weights(2, 4)
    assert [w.coords for w in b] == [(1, 0, 0, 0), (0, 1, 0, 0)]
    assert len(b) == 2


def test_tautological_weights_gr_2_7():
    b = tautological_weights(2, 7)
    assert all(w.datum is make_datum("GL", 7) for w in b)
    assert {w.coords for w in b} == {
        (1, 0, 0, 0, 0, 0, 0),
        (0, 1, 0, 0, 0, 0, 0),
    }


def test_tautological_weights_range_errors():
    with pytest.raises(RankRangeError):
        tautological_weights(1, 4)
    with pytest.raises(RankRangeError):
        tautological_weights(3, 4)


@pytest.mark.parametrize("d,n", [(2.0, 6), (2, "6"), (True, 6), (2, None)])
def test_tautological_weights_need_integer_d_and_n(d, n):
    with pytest.raises(RankRangeError, match="tautological bundle requires integer d and N"):
        tautological_weights(d, n)


def test_frobenius_twist_scales_weights():
    b = frobenius_twist(tautological_weights(2, 4), 5)
    assert {w.coords for w in b} == {(5, 0, 0, 0), (0, 5, 0, 0)}
    single = (make_datum("GL", 3).fundamental_character(1),)
    assert frobenius_twist(single, 7)[0].coords == (7, 0, 0)


def test_unit_twist_needs_the_explicit_flag():
    b = tautological_weights(2, 4)
    with pytest.raises(NotPrimeError, match="is not prime"):
        frobenius_twist(b, 1)


def test_end_weights_of_twisted_rank_two():
    b = frobenius_twist(tautological_weights(2, 4), 5)
    ends = end_weights(b)
    assert Counter(w.coords for w in ends) == Counter(
        {
            (0, 0, 0, 0): 2,
            (5, -5, 0, 0): 1,
            (-5, 5, 0, 0): 1,
        }
    )


def test_end_weights_degenerate_cases():
    gl3 = make_datum("GL", 3)
    line = (gl3.fundamental_character(1),)
    assert [w.coords for w in end_weights(line)] == [(0, 0, 0)]
    doubled = (gl3.fundamental_character(1),) * 2
    assert [w.coords for w in end_weights(doubled)] == [(0, 0, 0)] * 4


def test_pullback_filtration_is_sorted_lexicographically():
    ends = end_weights(frobenius_twist(tautological_weights(2, 4), 5))
    assert [w.coords for w in pullback_filtration(ends)] == [
        (-5, 5, 0, 0),
        (0, 0, 0, 0),
        (0, 0, 0, 0),
        (5, -5, 0, 0),
    ]


def test_pullback_filtration_depends_only_on_the_multiset():
    gl4 = make_datum("GL", 4)
    ws = [gl4.weight((5, -5, 0, 0)), gl4.zero(), gl4.weight((-5, 5, 0, 0))]
    a = tuple(ws)
    b = tuple(reversed(ws))
    assert pullback_filtration(a) == pullback_filtration(b)


@given(st.integers(2, 4), st.integers(6, 9), st.sampled_from((5, 7, 11)))
def test_end_weight_properties(d, n, p):
    b = frobenius_twist(tautological_weights(d, n), p)
    ends = end_weights(b)
    assert len(ends) == len(b) ** 2
    counts = Counter(w.coords for w in ends)
    assert counts[(0,) * n] >= len(b)
    # closure under negation, as a multiset
    assert counts == Counter(tuple(-c for c in w) for w in counts.elements())


@given(st.integers(2, 4), st.integers(6, 9), st.sampled_from((5, 7)))
def test_twist_commutes_with_end(d, n, p):
    b = tautological_weights(d, n)
    left = end_weights(frobenius_twist(b, p))
    right = frobenius_twist(end_weights(b), p)
    assert Counter(w.coords for w in left) == Counter(w.coords for w in right)


@st.composite
def bundles(draw):
    """A datum of any family, rank up to 8, and a bundle of 1-4 of its weights."""
    family = draw(st.sampled_from(FAMILIES))
    n = draw(st.integers(FAMILY_MIN_RANK.get(family, 1), 8))
    datum = make_datum(family, n)
    weights = draw(st.lists(weights_of(datum), min_size=1, max_size=4))
    return datum, tuple(weights)


@given(bundles(), st.sampled_from((2, 3, 5, 7)))
def test_sparse_builders_match_dense_arithmetic(bundle, p):
    datum, weights = bundle
    assert end_weights(weights) == tuple(
        datum.weight([a - b for a, b in zip(w.coords, v.coords)]) for w in weights for v in weights
    )
    assert frobenius_twist(weights, p) == tuple(
        datum.weight([p * c for c in w.coords]) for w in weights
    )


def test_a_bundle_cannot_mix_data():
    gl3, gl4 = make_datum("GL", 3), make_datum("GL", 4)
    with pytest.raises(DatumMismatchError, match="different data: GL\\(3\\) vs GL\\(4\\)"):
        end_weights((gl3.zero(), gl4.zero()))
