import copy
import gc
import itertools
import math
import pickle
import re
import sys
import threading
import weakref
from fractions import Fraction

import pytest
from hypothesis import given

from charpflag import (
    DatumMismatchError,
    InternalInconsistencyError,
    InvalidRootDatumError,
    LatticeMembershipError,
    NonSimpleRootError,
    RankRangeError,
    UnsupportedDatumError,
    Weight,
    custom_datum,
    dot_reflect,
    dynkin_labels,
    is_dominant,
    make_datum,
    make_torus,
    pairing,
    reflect,
    weyl_group,
    weyl_group_order,
)
from charpflag import lattice
from charpflag.lattice import MAX_RANK, normalize_family

from conftest import (
    CLASSICAL_FAMILIES,
    FAMILY_MIN_RANK,
    datum_weights,
    rebuilt,
    weight_root_pairs,
)


def _all_small_datums(max_rank=5):
    for family in CLASSICAL_FAMILIES:
        for n in range(max(2, FAMILY_MIN_RANK[family]), max_rank + 1):
            yield make_datum(family, n)


# ---------------------------------------------------------------------------
# Construction


def test_gl3_root_and_simple_counts():
    d = make_datum("GL", 3)
    assert len(d.roots) == 6
    assert len(d.simple_roots) == 2


def test_gl4_simple_roots_are_consecutive_differences():
    d = make_datum("GL", 4)
    assert [r.vector.coords for r in d.simple_roots] == [
        (1, -1, 0, 0),
        (0, 1, -1, 0),
        (0, 0, 1, -1),
    ]


def test_sp_rank2_roots_match_brute_enumeration():
    # Independent oracle: enumerate +-l_i +- l_j and +-2 l_i by hand.
    expected = set()
    for i in range(2):
        for si in (1, -1):
            expected.add(tuple(2 * si if k == i else 0 for k in range(2)))
    for si in (1, -1):
        for sj in (1, -1):
            expected.add((si, sj))
    d = make_datum("Sp", 2)
    assert {r.vector.coords for r in d.roots} == expected
    assert len(d.roots) == 8


def test_classical_root_counts():
    assert len(make_datum("GL", 5).roots) == 20
    assert len(make_datum("SO_odd", 3).roots) == 18  # 2 * 3^2
    assert len(make_datum("Sp", 3).roots) == 18
    assert len(make_datum("SO_even", 4).roots) == 24  # 2 * 4 * 3


def test_rank_range_errors():
    with pytest.raises(RankRangeError):
        make_datum("GL", 0)
    with pytest.raises(RankRangeError):
        make_datum("Sp", 1)
    with pytest.raises(RankRangeError):
        make_datum("E8", 8)
    for family in (None, 3, ["GL"]):  # not a string
        with pytest.raises(RankRangeError, match=re.escape(f"unknown datum family {family!r}")):
            make_datum(family, 3)


def test_make_datum_returns_same_handle():
    class Name(str):  # not a plain str, so it takes the folding path
        pass

    assert make_datum("GL", 4) is make_datum("gl", 4)
    assert make_datum("SO_odd", 3) is make_datum("so-odd", 3)
    assert make_torus(3) is make_datum("torus", 3)
    assert make_datum(Name("GL"), 3) is make_datum("GL", 3)
    assert type(make_datum(Name("GL"), 3).family) is str
    assert type(normalize_family(Name("SO_odd"))) is str


def test_non_integer_ranks_are_rejected():
    make_datum("GL", 2)  # a cached GL(2) must not answer for 2.0
    for n in (2.9, 2.0, "2", True):
        with pytest.raises(RankRangeError, match="must be an integer"):
            make_datum("GL", n)
    with pytest.raises(RankRangeError, match="must be an integer"):
        make_torus(2.0)


def test_datum_rank_is_bounded():
    assert MAX_RANK == 1024
    assert make_torus(MAX_RANK).rank == MAX_RANK
    for family in (*CLASSICAL_FAMILIES, "torus"):
        with pytest.raises(RankRangeError, match="exceeds the bound 1024"):
            make_datum(family, MAX_RANK + 1)


def test_weight_value_semantics():
    d = make_datum("GL", 3)
    assert d.weight((1, 0, -1)) == d.weight([1, 0, -1])
    assert d.weight((1, 0, -1)) != d.weight((1, 0, 0))
    other = make_datum("GL", 4)
    with pytest.raises(DatumMismatchError):
        d.weight((1, 0, -1)) + other.weight((1, 0, 0, 0))


@pytest.mark.parametrize(
    "op",
    [lambda lam, other: lam - other.zero(), lambda lam, other: pairing(lam, other.simple_roots[0])],
    ids=["sub", "pairing"],
)
def test_operands_of_different_data_are_rejected(op):
    lam = make_datum("GL", 3).weight((1, 0, -1))
    message = r"^operands live in different data: GL\(3\) vs GL\(4\)$"
    with pytest.raises(DatumMismatchError, match=message):
        op(lam, make_datum("GL", 4))


def test_non_integer_coordinates_are_rejected():
    gl2 = make_datum("GL", 2)
    for coords in ((1.5, -0.7), (2.0, 0), (Fraction(1), 0), (True, 0)):
        with pytest.raises(LatticeMembershipError, match="is not an integer"):
            gl2.weight(coords)
        with pytest.raises(LatticeMembershipError, match="is not an integer"):
            Weight(coords, gl2)
    with pytest.raises(LatticeMembershipError, match="is not an integer"):
        custom_datum(1, [((2.0,), (1,))], [(2,)])
    with pytest.raises(LatticeMembershipError, match="is not an integer"):
        custom_datum(1, [((2,), (1,))], [(2,)], weyl_vector_coords=(0.5,))


def test_weights_multiply_by_integers_only():
    w = make_datum("GL", 2).weight((1, 0))
    assert (3 * w).coords == (w * 3).coords == (3, 0)
    for k in (Fraction(1, 2), 0.5, 2.0):
        with pytest.raises(TypeError):
            w * k
        with pytest.raises(TypeError):
            k * w


def test_sl_weights_are_canonicalized_mod_all_ones():
    d = make_datum("SL", 3)
    assert d.weight((2, 3, 1)).coords == (1, 2, 0)
    assert d.weight((1, 1, 1)) == d.zero()


def test_fundamental_characters_are_canonical_lattice_points():
    sl3 = make_datum("SL", 3)
    assert sl3.fundamental_character(3).coords == (-1, -1, 0)
    for family in ("GL", "SL", "Sp", "SO_even", "SO_odd"):
        for n in range(2, 6):
            d = make_datum(family, n)
            scale = 2 if family == "SO_odd" else 1
            for i in range(1, n + 1):
                e_i = tuple(scale if j == i - 1 else 0 for j in range(n))
                assert d.fundamental_character(i) == d.weight(e_i)
    assert make_datum("SO_odd", 3).fundamental_character(2).coords == (0, 2, 0)
    gl3 = make_datum("GL", 3)
    for i in (0, 4, -1):
        with pytest.raises(LatticeMembershipError, match="outside 1..3"):
            gl3.fundamental_character(i)
    for i in (1.0, True):
        with pytest.raises(LatticeMembershipError, match="is not an integer"):
            gl3.fundamental_character(i)


def test_kept_labels_are_read_only_and_outside_value_semantics():
    gl4 = make_datum("GL", 4)
    w, twin = gl4.weight((3, 0, -3, 0)), gl4.weight((3, 0, -3, 0))
    labels = dynkin_labels(w)
    assert labels == {0: 3, 1: 3, 2: -3}
    assert dynkin_labels(w) is labels  # kept, not recomputed
    with pytest.raises(TypeError):
        labels[2] = 0
    with pytest.raises(AttributeError):
        labels.clear()
    assert not is_dominant(w)
    # twin has no labels yet: equality, hash and repr do not see them.
    assert w == twin and hash(w) == hash(twin) and repr(w) == repr(twin)
    assert len({w, twin}) == 1
    assert copy.deepcopy(w) is w and copy.copy(w) == w
    assert dynkin_labels(twin) == labels
    # New weights start without labels, and get their own.
    assert dynkin_labels(-w) == {0: -3, 1: -3, 2: 3}
    assert dynkin_labels(rebuilt(w, coords=(0, 0, 0, 1))) == {2: -1}


def test_sl2_root_is_twice_fundamental_weight():
    d = make_datum("SL", 2)
    (alpha,) = d.simple_roots
    assert alpha.vector.coords == (2, 0)
    assert pairing(alpha.vector, alpha) == 2


def test_so_odd_rejects_mixed_parity_coordinates():
    d = make_datum("SO_odd", 3)
    with pytest.raises(LatticeMembershipError):
        d.weight((1, 0, 0))
    assert d.weight((1, 1, 1)).coords == (1, 1, 1)  # a spin weight
    assert d.weight((2, 0, 0)).coords == (2, 0, 0)  # the character l_1


def test_weyl_vector_pairs_to_one_on_every_simple_root():
    for datum in _all_small_datums(max_rank=6):
        for alpha in datum.simple_roots:
            assert pairing(datum.weyl_vector, alpha) == 1, (datum.name, alpha)


def test_root_pairing_normalization():
    for datum in _all_small_datums(max_rank=5):
        for alpha in datum.roots:
            assert pairing(alpha.vector, alpha) == 2


@pytest.mark.parametrize(
    "positive,simple,weyl,what",
    [
        ([((1,), (1,))], [(1,)], None, "<alpha, alpha^vee> != 2"),
        ([((2,), (1,)), ((2,), (1,))], [(2,)], None, "duplicate roots"),
        # A root listed together with its negative is a duplicate too.
        ([((2,), (1,)), ((-2,), (-1,))], [(2,)], (1,), "duplicate roots"),
        ([((2,), (1,))], [(4,)], None, "is not a positive root"),
        ([((2,), (1,))], [(2,), (2,)], (1,), "simple root (2,) is repeated"),
        ([((2,), (1,))], [(2,)], (2,), "Weyl vector pairs to 2"),
        # Fails both checks: the root check is reported first.
        ([((1,), (1,))], [(1,)], (5,), "<alpha, alpha^vee> != 2"),
        # Not a simple root: only the full root list shows it, which a
        # custom datum builds and checks when it is built.
        ([((2,), (1,)), ((1,), (1,))], [(2,)], (1,), "<alpha, alpha^vee> != 2 for Root((1,)"),
    ],
    ids=[
        "pairing_one",
        "duplicate",
        "with_negative",
        "simple_not_positive",
        "repeated_simple",
        "weyl_vector",
        "pairing_one_and_weyl_vector",
        "non_simple",
    ],
)
def test_invalid_custom_data_raise_a_typed_input_error(positive, simple, weyl, what):
    with pytest.raises(InvalidRootDatumError, match=re.escape(what)):
        custom_datum(1, positive, simple, weyl_vector_coords=weyl)


A1 = ((0, 1), (1, -1))
A2 = ((1, 1), (2, -1))


@pytest.mark.parametrize(
    "family,simple,rho,what",
    [
        ("GL", [(A1, ((0, 1),))], (1, 0), "<alpha, alpha^vee> != 2 for Root((1, -1)"),
        ("GL", [(A1, A1)], (5, 0), "Weyl vector pairs to 5 != 1 with simple root (1, -1)"),
        # A Weyl vector failing on the first root is reported only after the
        # root checks have passed on every simple root, the lattice checks too.
        (
            "GL",
            [(A1, A1), (A2, ((1, 1),))],
            (5, 1, 0),
            "<alpha, alpha^vee> != 2 for Root((0, 1, -1)",
        ),
        ("SL", [(((0, 1),), ((0, 2),))], (5, 0), "nonzero coordinate sum"),
    ],
    ids=["pairing_one", "weyl_vector", "weyl_vector_then_pairing_one", "weyl_vector_then_lattice"],
)
def test_classical_constructor_checks_every_simple_root(family, simple, rho, what):
    with pytest.raises(InternalInconsistencyError, match=re.escape(what)):
        lattice.RootDatum(family, len(rho), simple, rho, lambda: [])


def test_custom_datum_rank_must_be_an_integer():
    for rank in (1.0, 1.5, "1", True):
        with pytest.raises(RankRangeError, match="rank must be an integer"):
            custom_datum(rank, [((2,), (1,))], [(2,)], weyl_vector_coords=(1,))
    assert custom_datum(1, [((2,), (1,))], [(2,)], weyl_vector_coords=(1,)).zero().coords == (0,)


def test_custom_datum_rank_is_bounded():
    assert custom_datum(MAX_RANK, [], []).rank == MAX_RANK
    with pytest.raises(RankRangeError, match="custom rank 1025 exceeds the bound 1024"):
        custom_datum(MAX_RANK + 1, [], [])
    assert custom_datum(0, [], []).rank == 0
    with pytest.raises(RankRangeError, match="custom requires n >= 0, got -1"):
        custom_datum(-1, [], [])


@pytest.mark.parametrize(
    "rho,shown", [((1,), "1/2"), ((-3,), "-3/2"), ((4,), "2")], ids=["half", "negative", "whole"]
)
def test_weyl_vector_pairing_is_shown_in_lowest_terms(rho, shown):
    # <(4,), (1,)> / 2 = 2; the Weyl vector pairs to rho / 2 with the coroot.
    message = f"Weyl vector pairs to {shown} != 1"
    with pytest.raises(InvalidRootDatumError, match=re.escape(message)):
        custom_datum(1, [((4,), (1,))], [(4,)], weyl_vector_coords=rho, pairing_denominator=2)


_A2 = [((1, -1, 0), (1, -1, 0)), ((0, 1, -1), (0, 1, -1)), ((1, 0, -1), (1, 0, -1))]


@pytest.mark.parametrize(
    "rank,positive,simple,what",
    [
        # A1 x A1 with one simple root: (1, 1) is not a sum of simple roots.
        (
            2,
            [((1, -1), (1, -1)), ((1, 1), (1, 1))],
            [(1, -1)],
            "positive root (1, 1) is not reached",
        ),
        # Roots, but no simple roots at all.
        (2, [((1, -1), (1, -1))], [], "positive root (1, -1) is not reached"),
        # A negative root listed as positive: (-2, 0) is not (1, 0) + (1, 0).
        (
            2,
            [((1, 0), (2, 0)), ((-2, 0), (-1, 0))],
            [(1, 0)],
            "positive root (-2, 0) is not reached",
        ),
        # A2 with the decomposable alpha + beta taken as simple too.
        (
            3,
            _A2,
            [(1, -1, 0), (0, 1, -1), (1, 0, -1)],
            "simple root (1, 0, -1) minus the positive root (1, -1, 0) is a positive root",
        ),
        # Three roots taken as simple in rank 2: a base is linearly independent.
        (
            2,
            [((1, 0), (2, 0)), ((1, 1), (2, 0)), ((1, 2), (2, 0))],
            [(1, 0), (1, 1), (1, 2)],
            "3 simple roots exceed the rank 2",
        ),
    ],
    ids=[
        "a1xa1_one_simple",
        "no_simple",
        "negative_as_positive",
        "a2_decomposable",
        "more_simple_roots_than_rank",
    ],
)
def test_custom_simple_roots_must_form_a_base(rank, positive, simple, what):
    with pytest.raises(InvalidRootDatumError, match=re.escape(what)):
        custom_datum(rank, positive, simple)


# ---------------------------------------------------------------------------
# Root lists: built and checked on first access


def _fresh_datum(family, n):
    """A datum outside make_datum's cache, so a test may corrupt it."""
    with lattice._datum_lock:  # which guards the shared chain supports
        return lattice._build_datum(lattice.normalize_family(family), n)


def test_root_lists_are_built_on_first_access():
    for family in CLASSICAL_FAMILIES:
        datum = _fresh_datum(family, 5)
        assert datum._root_lists is None
        assert is_dominant(datum.weyl_vector)
        assert datum._root_lists is None
        roots = datum.roots
        assert datum._root_lists is not None
        assert datum.roots is roots and datum.positive_roots == roots[: len(roots) // 2]
        # The list shares the simple roots' objects, with their dense views.
        for alpha in datum.simple_roots:
            assert any(beta is alpha for beta in datum.positive_roots)


def _drop_first_simple(positives):
    return positives[1:]


def _repeat_first(positives):
    return positives + positives[:1]


def _append_a_negation(positives):
    # R+ and -R+ must be disjoint: the negatives are derived, so this is
    # the only way a negative root can be listed twice.
    (sup, co), *_ = positives
    return positives + [(lattice._negated(sup), lattice._negated(co))]


@pytest.mark.parametrize("family", CLASSICAL_FAMILIES)
@pytest.mark.parametrize(
    "corrupt,what",
    [
        (_drop_first_simple, "is not a positive root"),
        (_repeat_first, "duplicate roots"),
        (_append_a_negation, "duplicate roots"),
    ],
    ids=["drop_simple", "duplicate", "negated_positive"],
)
def test_a_root_list_failing_its_check_is_never_published(family, corrupt, what):
    # A raised error, not an assert, so that python -O keeps the check.
    datum = _fresh_datum(family, 4)
    generate = datum._positive_pairs
    datum._positive_pairs = lambda: corrupt(generate())
    for _ in range(2):
        with pytest.raises(InternalInconsistencyError, match=what):
            datum.roots
        with pytest.raises(InternalInconsistencyError, match=what):
            datum.positive_roots
    assert datum._root_lists is None


@pytest.mark.parametrize(
    "family,pair,what",
    [
        ("SL", (((0, 1),), ((0, 2),)), "nonzero coordinate sum"),
        ("SO_odd", (((0, 2), (1, 1)), ((0, 2),)), "(2, 1, 0) is not in the lattice"),
    ],
)
def test_root_list_lattice_checks(family, pair, what):
    datum = _fresh_datum(family, 3)
    generate = datum._positive_pairs
    datum._positive_pairs = lambda: generate() + [pair]
    with pytest.raises(InternalInconsistencyError, match=re.escape(what)):
        datum.roots
    assert datum._root_lists is None


@pytest.mark.parametrize("family", CLASSICAL_FAMILIES + ("Torus",))
def test_classical_data_unpickle_to_the_same_handle(family):
    datum = make_datum(family, 3)
    assert pickle.loads(pickle.dumps(datum)) is datum
    rho = datum.weyl_vector
    dynkin_labels(rho)  # kept on rho as a read-only mapping, left out of the pickle
    back = pickle.loads(pickle.dumps(rho))
    assert back == rho and back.datum is datum and back._labels is None
    assert pickle.loads(pickle.dumps(datum.roots)) == datum.roots


def test_a_custom_datum_does_not_pickle():
    datum = custom_datum(1, [((2,), (1,))], [(2,)], weyl_vector_coords=(1,))
    for value in (datum, datum.weight((2,))):
        with pytest.raises(UnsupportedDatumError, match="custom datum cannot be pickled"):
            pickle.dumps(value)


def test_the_datum_cache_is_bounded_and_keeps_the_handles_in_use():
    before = set(lattice._live_data.keys())
    held = make_datum("GL", 2)
    w = held.weight((1, 0))
    for n in range(3, MAX_RANK + 1):
        make_datum("GL", n)
    gc.collect()
    size = lattice._DATUM_CACHE_SIZE
    assert lattice._recent_datum.cache_info().currsize == size
    # Beyond the most recent, the cache holds only data still in use: this
    # test's, and those that other objects held when it started.
    recent = {("GL", n) for n in range(MAX_RANK - size + 1, MAX_RANK + 1)}
    assert set(lattice._live_data.keys()) <= before | recent | {("GL", 2)}
    assert make_datum("GL", 2) is held and w.datum is held
    assert pickle.loads(pickle.dumps(w)).datum is held


def test_the_datum_cache_gives_one_handle_per_datum_across_threads():
    # Every handle a thread gets is kept, so each datum stays in use and
    # every thread must get the same handle for it, while more ranks than
    # the cache holds come and go.
    seen, errors = [], []

    def work(offset):
        try:
            for k in range(300):
                n = 2 + (7 * k + offset) % 100
                seen.append((n, make_datum("GL", n)))
        except Exception as exc:  # reported below, from the main thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert [t.is_alive() for t in threads] == [False] * 4
    assert errors == [] and len(seen) == 1200
    first = {}
    assert all(first.setdefault(n, datum) is datum for n, datum in seen)
    assert lattice._recent_datum.cache_info().currsize == lattice._DATUM_CACHE_SIZE


# ---------------------------------------------------------------------------
# Shared simple-root chain supports and coroot-index entries


@pytest.fixture
def fresh_tables(monkeypatch):
    """Empty chain and index tables; call again for new ones.  The process's own
    tables come back after the test."""

    def install():
        monkeypatch.setattr(lattice, "_CHAINS", {1: [], 2: []})
        monkeypatch.setattr(lattice, "_INDEX_ENTRIES", {})

    install()
    return install


def _chain_of(s, length):
    return [((k, s), (k + 1, -s)) for k in range(length)]


def _described(datum):
    """Everything a datum shows of its simple roots, by value."""
    roots = [(r.support, r.co_support, r.vector.coords, r.coroot) for r in datum.simple_roots]
    return roots, datum._coroot_index, datum.to_json(), repr(datum)


def _build(family, *ranks):
    with lattice._datum_lock:
        return [lattice._build_datum(family, n) for n in ranks]


def test_classical_data_share_their_chain_supports_and_index_entries():
    small, large = make_datum("GL", 9), make_datum("GL", 12)
    assert small.simple_roots[3].support is large.simple_roots[3].support
    assert small.simple_roots[3].co_support is large.simple_roots[3].co_support
    assert small._coroot_index[3] is large._coroot_index[3]
    # Each datum still owns its roots, which compare by datum and value.
    assert small.simple_roots[3] is not large.simple_roots[3]
    assert small.simple_roots[3] != large.simple_roots[3]
    assert small.simple_roots[3].datum is small and large.simple_roots[3].datum is large


@pytest.mark.parametrize("family", CLASSICAL_FAMILIES)
def test_data_built_in_either_order_are_equal(family, fresh_tables):
    upward = [_described(datum) for datum in _build(family, 4, 9)]
    fresh_tables()
    downward = [_described(datum) for datum in _build(family, 9, 4)]
    assert downward == upward[::-1]
    assert lattice._CHAINS[1] == _chain_of(1, 8)


def test_so_odd_takes_its_roots_from_the_scale_two_chain(fresh_tables):
    (datum,) = _build("SO_odd", 5)
    chains = lattice._CHAINS
    assert chains[2] is not chains[1]
    assert chains[2] == _chain_of(2, 4) and chains[1] == _chain_of(1, 4)
    for k, alpha in enumerate(datum.simple_roots[:-1]):
        assert alpha.support is chains[2][k] and alpha.co_support is chains[1][k]
    last = datum.simple_roots[-1]
    assert last.support == last.co_support == ((4, 2),)


@pytest.mark.parametrize(
    "family,last",
    [
        ("Sp", lambda n: (((n - 1, 2),), ((n - 1, 1),))),
        ("SO_even", lambda n: (((n - 2, 1), (n - 1, 1)),) * 2),
    ],
)
def test_the_last_simple_root_of_sp_and_so_even_stays_per_rank(family, last, fresh_tables):
    for datum in _build(family, 6, 4, 5):
        alpha = datum.simple_roots[-1]
        assert (alpha.support, alpha.co_support) == last(datum.rank)
    # The chain holds only the l_k - l_{k+1} steps, never a last root.
    assert lattice._CHAINS == {1: _chain_of(1, 5), 2: []}


def test_custom_data_leave_the_shared_tables_unchanged():
    # A3 with its simple roots listed out of order, so that coordinate 1
    # is met by the coroots 0 and 2: an index entry of no classical datum.
    chains = {s: list(supports) for s, supports in lattice._CHAINS.items()}
    entries = dict(lattice._INDEX_ENTRIES)
    positive = [(1, -1, 0, 0), (0, 1, -1, 0), (0, 0, 1, -1)]
    positive += [(1, 0, -1, 0), (0, 1, 0, -1), (1, 0, 0, -1)]
    datum = custom_datum(
        4, [(v, v) for v in positive], [(1, -1, 0, 0), (0, 0, 1, -1), (0, 1, -1, 0)]
    )
    assert datum._coroot_index == ((0,), (0, 2), (1, 2), (1,))
    assert lattice._INDEX_ENTRIES == entries and (0, 2) not in lattice._INDEX_ENTRIES
    assert lattice._CHAINS == chains


def test_a_new_datum_leaves_few_objects_for_the_collector():
    # The chain supports and index entries of GL(100) exist already, so the
    # build adds little more than its own roots.
    make_datum("GL", 120)
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        before = len(gc.get_objects())
        (datum,) = _build("GL", 100)
        tracked = len(gc.get_objects()) - before
    finally:
        if enabled:
            gc.enable()
    assert len(datum.simple_roots) == 99 and tracked < 2 * 99


def test_threads_building_distinct_ranks_get_correct_supports(fresh_tables, monkeypatch):
    # Through make_datum, with its cache emptied, so that every thread
    # builds: the chain grows under the datum lock.
    monkeypatch.setattr(lattice, "_live_data", weakref.WeakValueDictionary())
    lattice._recent_datum.cache_clear()
    ranks = [40 + 9 * i for i in range(8)]
    built, errors = {}, []
    start = threading.Barrier(len(ranks))

    def work(n):
        try:
            start.wait(timeout=60)
            built[n] = make_datum("GL", n)
        except Exception as exc:  # reported below, from the main thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(n,)) for n in ranks]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
        lattice._recent_datum.cache_clear()  # its handles belong to the patched table
    assert [t.is_alive() for t in threads] == [False] * len(ranks)
    assert errors == [] and sorted(built) == ranks
    for n, datum in built.items():
        assert [a.support for a in datum.simple_roots] == _chain_of(1, n - 1)
        assert [a.co_support for a in datum.simple_roots] == _chain_of(1, n - 1)
    assert lattice._CHAINS[1] == _chain_of(1, max(ranks) - 1)


def test_custom_data_with_wrong_coordinate_counts_are_rejected():
    with pytest.raises(LatticeMembershipError):
        custom_datum(1, [((2,), (1, 0))], [(2,)])
    with pytest.raises(LatticeMembershipError):
        custom_datum(2, [((2,), (1, 0))], [(2,)])


def test_non_integral_custom_pairing_is_a_lattice_error():
    datum = custom_datum(1, [((4,), (1,))], [(4,)], pairing_denominator=2)
    (alpha,) = datum.simple_roots
    assert pairing(datum.weight((2,)), alpha) == 1
    with pytest.raises(LatticeMembershipError):
        pairing(datum.weight((1,)), alpha)


def test_roots_compare_by_datum_and_supports():
    gl3, sl3 = make_datum("GL", 3), make_datum("SL", 3)
    assert gl3.roots[0] == gl3.roots[0] and hash(gl3.roots[0]) == hash(gl3.roots[0])
    assert gl3.roots[0] != gl3.roots[1]
    assert gl3.roots[0].support == sl3.roots[0].support
    assert gl3.roots[0] != sl3.roots[0]
    with pytest.raises(NonSimpleRootError):
        dot_reflect(gl3.zero(), sl3.simple_roots[0])


def test_classical_supports_are_sparse():
    for datum in _all_small_datums(max_rank=6):
        for alpha in datum.roots:
            assert 1 <= len(alpha.support) <= 2 and 1 <= len(alpha.co_support) <= 2
            assert alpha.coroot == tuple(dict(alpha.co_support).get(i, 0) for i in range(datum.rank))


def test_torus_datum_has_no_roots():
    t = make_torus(3)
    assert t.roots == ()
    assert is_dominant(t.weight((5, -1, 2)))


# ---------------------------------------------------------------------------
# pairing / reflect / dot_reflect


def test_pairing_examples():
    d = make_datum("GL", 3)
    assert pairing(d.weight((1, 0, 0)), d.simple_roots[0]) == 1
    d4 = make_datum("GL", 4)
    assert pairing(d4.weight((5, -1, -4, 0)), d4.simple_roots[1]) == 3  # p - 2 at p = 5
    d2 = make_datum("GL", 2)
    assert pairing(d2.weight((2, 2)), d2.simple_roots[0]) == 0


def test_pairing_is_linear_in_the_weight():
    d = make_datum("GL", 4)
    a, b = d.weight((3, 1, -2, 0)), d.weight((1, 1, 1, 5))
    alpha = d.simple_roots[2]
    assert pairing(a + b, alpha) == pairing(a, alpha) + pairing(b, alpha)
    assert pairing(3 * a, alpha) == 3 * pairing(a, alpha)


def test_reflect_swaps_adjacent_coordinates():
    d = make_datum("GL", 2)
    assert reflect(d.weight((3, 1)), d.simple_roots[0]).coords == (1, 3)
    d4 = make_datum("GL", 4)
    assert reflect(d4.weight((5, -5, 0, 0)), d4.simple_roots[1]).coords == (5, 0, -5, 0)


def test_dot_reflect_examples():
    d4 = make_datum("GL", 4)
    # mu = 5(l_1 - l_2) reflected through l_2 - l_3.
    assert dot_reflect(d4.weight((5, -5, 0, 0)), d4.simple_roots[1]).coords == (5, -1, -4, 0)
    # mu = 5(l_2 - l_1) reflected through l_1 - l_2 gives 4(l_1 - l_2).
    assert dot_reflect(d4.weight((-5, 5, 0, 0)), d4.simple_roots[0]).coords == (4, -4, 0, 0)


def test_dot_reflect_requires_simple_root():
    d = make_datum("GL", 3)
    non_simple = next(
        r for r in d.roots if r.vector.coords == (1, 0, -1)
    )
    with pytest.raises(NonSimpleRootError):
        dot_reflect(d.weight((1, 2, 3)), non_simple)


@given(weight_root_pairs())
def test_reflect_is_an_involution(pair):
    w, alpha = pair
    assert reflect(reflect(w, alpha), alpha) == w


@given(weight_root_pairs(simple_only=True))
def test_dot_reflect_is_an_involution(pair):
    w, alpha = pair
    assert dot_reflect(dot_reflect(w, alpha), alpha) == w


@given(weight_root_pairs(simple_only=True))
def test_dot_reflect_agrees_with_rho_shift(pair):
    w, alpha = pair
    rho = w.datum.weyl_vector
    assert dot_reflect(w, alpha) == reflect(w + rho, alpha) - rho


def test_reflect_permutes_the_root_set():
    for datum in _all_small_datums(max_rank=5):
        all_vectors = {r.vector for r in datum.roots}
        for alpha in datum.roots:
            assert {reflect(beta.vector, alpha) for beta in datum.roots} == all_vectors


# ---------------------------------------------------------------------------
# Dominance


def test_is_dominant_examples():
    d = make_datum("GL", 4)
    assert is_dominant(d.weight((3, 1, 0, -2)))
    assert not is_dominant(d.weight((5, -1, -4, 0)))
    assert is_dominant(d.zero())


@given(datum_weights(families=("GL",)))
def test_gl_dominance_is_weakly_decreasing(w):
    expected = all(a >= b for a, b in zip(w.coords, w.coords[1:]))
    assert is_dominant(w) == expected


# ---------------------------------------------------------------------------
# Weyl groups


@pytest.mark.parametrize("n,order", [(2, 2), (3, 6), (4, 24), (5, 120)])
def test_weyl_group_order_gl(n, order):
    assert len(weyl_group(make_datum("GL", n))) == order


def test_weyl_group_orders_other_families():
    assert len(weyl_group(make_datum("Sp", 2))) == 8
    assert len(weyl_group(make_datum("SO_odd", 3))) == 48  # 2^3 * 3!
    assert len(weyl_group(make_datum("SO_even", 3))) == 24  # 2^2 * 3!
    assert len(weyl_group(make_datum("SL", 3))) == 6


def test_weyl_group_acts_faithfully_on_a_generic_weight():
    # 2 rho of GL(4) is (3, 1, -1, -3), and W = S_4 permutes its coordinates.
    datum = make_datum("GL", 4)
    assert weyl_group(datum) == {datum.weight(c) for c in itertools.permutations((3, 1, -1, -3))}


def test_each_weyl_group_orbit_has_one_dominant_weight():
    data = [make_torus(n) for n in range(1, 6)] + list(_all_small_datums(max_rank=5))
    data += [make_datum(family, 1) for family in ("GL", "SL")]
    for datum in data:
        dominant = [w for w in weyl_group(datum) if is_dominant(w)]
        assert len(dominant) == 1, datum.name


def test_weyl_group_needs_a_regular_sum_of_positive_roots():
    # The simple roots (1, 0) and (0, 1) sum to (1, 1), which pairs to -2
    # with the simple coroot (2, -4).
    datum = custom_datum(2, [((1, 0), (2, -4)), ((0, 1), (-1, 2))], [(1, 0), (0, 1)])
    with pytest.raises(InvalidRootDatumError, match="pairs to -2 with the simple root"):
        weyl_group(datum)


def test_weyl_group_of_an_infinite_reflection_group_is_bounded():
    # Cartan matrix [[2, 3], [3, 2]]: the two reflections generate an infinite
    # group (their product has infinite order, as 3 * 3 >= 4), and the sum
    # of the positive roots, (1, 1), pairs to 5 with both simple coroots.
    datum = custom_datum(2, [((1, 0), (2, 3)), ((0, 1), (3, 2))], [(1, 0), (0, 1)])
    with pytest.raises(UnsupportedDatumError, match="more than 8 elements"):
        weyl_group(datum)


def test_weyl_group_enumeration_is_bounded_at_rank_8():
    assert len(weyl_group(make_datum("SL", 7))) == 5040
    for family in CLASSICAL_FAMILIES:
        with pytest.raises(RankRangeError, match="bound 8"):
            weyl_group(make_datum(family, 9))
    with pytest.raises(RankRangeError):
        weyl_group(make_torus(9))


def test_weyl_group_order_matches_enumeration():
    for family in CLASSICAL_FAMILIES:
        for n in range(1 if family in ("GL", "SL") else 2, 6):
            datum = make_datum(family, n)
            assert weyl_group_order(datum) == len(weyl_group(datum)), datum.name
    for n in range(1, 6):
        assert weyl_group_order(make_torus(n)) == len(weyl_group(make_torus(n))) == 1


@pytest.mark.parametrize("n", [*range(1, 13), 16, 31, 32, 63, 64])
def test_weyl_group_order_closed_forms(n):
    order = math.factorial(n)
    assert weyl_group_order(make_datum("GL", n)) == order
    assert weyl_group_order(make_datum("SL", n)) == order
    if n >= 2:
        assert weyl_group_order(make_datum("Sp", n)) == 2**n * order
        assert weyl_group_order(make_datum("SO_odd", n)) == 2**n * order
        assert weyl_group_order(make_datum("SO_even", n)) == 2 ** (n - 1) * order


def test_weyl_group_order_rejects_bad_heights():
    # Simple roots a = (2, -1) and b = (0, 2) with the Weyl vector (1, 1).
    a, b = ((2, -1), (1, 0)), ((0, 2), (0, 1))
    # The coroot (2, -2) of a + b pairs to 0 with the Weyl vector.
    flat = custom_datum(2, [a, b, ((2, 1), (2, -2))], [a[0], b[0]], weyl_vector_coords=(1, 1))
    with pytest.raises(InvalidRootDatumError, match="height 0"):
        weyl_group_order(flat)
    # a + b, 2a and a + 2b all have height 2, over the two simple roots of
    # height 1: not a root system.
    lopsided = custom_datum(
        2,
        [a, b, ((2, 1), (0, 2)), ((4, -2), (1, 1)), ((2, 3), (4, -2))],
        [a[0], b[0]],
        weyl_vector_coords=(1, 1),
    )
    with pytest.raises(InvalidRootDatumError, match="not a root system"):
        weyl_group_order(lopsided)
