from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from charpflag import (
    DatumMismatchError,
    EquivariantBundleWeights,
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
    assert [w.coords for w in b.weights] == [(1, 0, 0, 0), (0, 1, 0, 0)]
    assert b.rank == 2


def test_tautological_weights_gr_2_7():
    b = tautological_weights(2, 7)
    assert b.datum is make_datum("GL", 7)
    assert {w.coords for w in b.weights} == {
        (1, 0, 0, 0, 0, 0, 0),
        (0, 1, 0, 0, 0, 0, 0),
    }


def test_tautological_weights_range_errors():
    with pytest.raises(RankRangeError):
        tautological_weights(1, 4)
    with pytest.raises(RankRangeError):
        tautological_weights(3, 4)


def test_frobenius_twist_scales_weights():
    b = frobenius_twist(tautological_weights(2, 4), 5)
    assert {w.coords for w in b.weights} == {(5, 0, 0, 0), (0, 5, 0, 0)}
    single = EquivariantBundleWeights(
        make_datum("GL", 3), (make_datum("GL", 3).fundamental_character(1),), "L"
    )
    assert frobenius_twist(single, 7).weights[0].coords == (7, 0, 0)


def test_unit_twist_needs_the_explicit_flag():
    b = tautological_weights(2, 4)
    with pytest.raises(NotPrimeError, match="is not prime"):
        frobenius_twist(b, 1)


def test_end_weights_of_twisted_rank_two():
    b = frobenius_twist(tautological_weights(2, 4), 5)
    ends = end_weights(b)
    assert Counter(w.coords for w in ends.weights) == Counter(
        {
            (0, 0, 0, 0): 2,
            (5, -5, 0, 0): 1,
            (-5, 5, 0, 0): 1,
        }
    )


def test_end_weights_degenerate_cases():
    gl3 = make_datum("GL", 3)
    line = EquivariantBundleWeights(gl3, (gl3.fundamental_character(1),), "L")
    assert [w.coords for w in end_weights(line).weights] == [(0, 0, 0)]
    doubled = EquivariantBundleWeights(gl3, (gl3.fundamental_character(1),) * 2, "L+L")
    assert [w.coords for w in end_weights(doubled).weights] == [(0, 0, 0)] * 4


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
    a = EquivariantBundleWeights(gl4, tuple(ws), "a")
    b = EquivariantBundleWeights(gl4, tuple(reversed(ws)), "b")
    assert pullback_filtration(a) == pullback_filtration(b)


@given(st.integers(2, 4), st.integers(6, 9), st.sampled_from((5, 7, 11)))
def test_end_weight_properties(d, n, p):
    b = frobenius_twist(tautological_weights(d, n), p)
    ends = end_weights(b)
    assert len(ends.weights) == b.rank**2
    counts = Counter(w.coords for w in ends.weights)
    assert counts[(0,) * n] >= b.rank
    # closure under negation, as a multiset
    assert counts == Counter(tuple(-c for c in w) for w in counts.elements())


@given(st.integers(2, 4), st.integers(6, 9), st.sampled_from((5, 7)))
def test_twist_commutes_with_end(d, n, p):
    b = tautological_weights(d, n)
    left = end_weights(frobenius_twist(b, p))
    right = frobenius_twist(end_weights(b), p)
    assert Counter(w.coords for w in left.weights) == Counter(w.coords for w in right.weights)


@st.composite
def bundles(draw):
    """A bundle of 1-4 weights on a datum of any family, rank up to 8."""
    family = draw(st.sampled_from(FAMILIES))
    n = draw(st.integers(FAMILY_MIN_RANK.get(family, 1), 8))
    datum = make_datum(family, n)
    weights = draw(st.lists(weights_of(datum), min_size=1, max_size=4))
    return EquivariantBundleWeights(datum, tuple(weights), "E")


@given(bundles(), st.sampled_from((2, 3, 5, 7)))
def test_sparse_builders_match_dense_arithmetic(bundle, p):
    datum, weights = bundle.datum, bundle.weights
    assert end_weights(bundle).weights == tuple(
        datum.weight([a - b for a, b in zip(w.coords, v.coords)]) for w in weights for v in weights
    )
    assert frobenius_twist(bundle, p).weights == tuple(
        datum.weight([p * c for c in w.coords]) for w in weights
    )


def test_a_bundle_cannot_mix_data():
    gl3, gl4 = make_datum("GL", 3), make_datum("GL", 4)
    with pytest.raises(DatumMismatchError, match="not a weight of GL\\(3\\)"):
        EquivariantBundleWeights(
            datum=gl3, weights=(gl3.zero(), gl4.zero()), label="mixed"
        )
