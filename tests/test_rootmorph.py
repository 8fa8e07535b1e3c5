import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from charpflag import (
    CharpFlagError,
    DatumMismatchError,
    DimensionMismatchError,
    DomainError,
    NotPrimeError,
    UnsupportedDatumError,
    PMorphismData,
    RingChar,
    custom_datum,
    frobenius_rigidity_verdict,
    make_datum,
    make_torus,
    validate_p_morphism,
    weyl_group,
    weyl_group_order,
)
from charpflag import rootmorph
from charpflag.rootmorph import q_admissible

from conftest import prime_power_reference, rebuilt, scalar_p_morphism

RINGS = (RingChar.zero(), RingChar.prime(5), RingChar.prime_power(5, 2))


def test_frobenius_data_valid_over_prime_field():
    data = scalar_p_morphism(make_datum("GL", 3), 5, RingChar.prime(5))
    assert validate_p_morphism(data).valid


def test_frobenius_data_fails_admissibility_over_witt_length_two():
    datum = make_datum("GL", 3)
    data = scalar_p_morphism(datum, 5, RingChar.prime_power(5, 2))
    verdict = validate_p_morphism(data)
    assert not verdict.valid
    # one admissibility failure per root, nothing else
    assert len(verdict.failures) == len(datum.roots)
    assert {f.relation for f in verdict.failures} == {"q_admissible"}


def test_frobenius_data_fails_over_characteristic_zero():
    data = scalar_p_morphism(make_datum("GL", 3), 5, RingChar.zero())
    assert not validate_p_morphism(data).valid


def test_identity_morphism_is_valid_over_every_ring():
    for ring in RINGS:
        data = scalar_p_morphism(make_datum("Sp", 2), 1, ring)
        assert validate_p_morphism(data).valid


def _sl2_datum():
    # Rank-one simply connected datum: root 2*omega, coroot the generator.
    return custom_datum(1, [((2,), (1,))], [(2,)], weyl_vector_coords=(1,), name="SL(2)-rk1")


def _pgl2_datum():
    # Adjoint datum: root generates the lattice, coroot is doubled; no
    # integral vector pairs to 1 with the simple coroot.
    return custom_datum(1, [((1,), (2,))], [(1,)], name="PGL(2)-rk1")


def test_weyl_group_order_of_custom_rank_one_data():
    sl2 = _sl2_datum()
    assert weyl_group_order(sl2) == len(weyl_group(sl2)) == 2
    with pytest.raises(UnsupportedDatumError, match="no Weyl vector"):
        weyl_group_order(_pgl2_datum())


def test_adjoint_rank_one_weyl_group_is_an_orbit_of_two():
    # The orbit of 2 rho needs no Weyl vector, unlike the Kostant order.
    pgl2 = _pgl2_datum()
    assert weyl_group(pgl2) == {pgl2.weight((1,)), pgl2.weight((-1,))}


def test_sl2_to_pgl2_quotient_data():
    sl2, pgl2 = _sl2_datum(), _pgl2_datum()
    for ring in RINGS:
        data = PMorphismData(
            source=sl2,
            target=pgl2,
            h=((2,),),
            d_map=dict(zip(sl2.roots, pgl2.roots)),
            q={a: 1 for a in sl2.roots},
            ring_char=ring,
        )
        assert validate_p_morphism(data).valid


def test_sl2_to_pgl2_with_wrong_lattice_map_fails():
    sl2, pgl2 = _sl2_datum(), _pgl2_datum()
    data = PMorphismData(
        source=sl2,
        target=pgl2,
        h=((3,),),
        d_map=dict(zip(sl2.roots, pgl2.roots)),
        q={a: 1 for a in sl2.roots},
        ring_char=RingChar.prime(5),
    )
    verdict = validate_p_morphism(data)
    assert not verdict.valid
    assert {f.relation for f in verdict.failures} == {
        "h(d(alpha)) = q(alpha) * alpha",
        "h^t(alpha^vee) = q(alpha) * d(alpha)^vee",
    }


def test_dimension_mismatch_raises():
    gl2, gl3 = make_datum("GL", 2), make_datum("GL", 3)
    data = PMorphismData(
        source=gl2,
        target=gl3,
        h=((1, 0), (0, 1)),
        d_map=dict(zip(gl2.roots, gl3.roots)),
        q={a: 1 for a in gl2.roots},
        ring_char=RingChar.zero(),
    )
    with pytest.raises(DimensionMismatchError):
        validate_p_morphism(data)


@pytest.mark.parametrize(
    "overrides,error,message",
    [
        (
            {"d_map": {a: a for a in make_datum("GL", 2).roots[1:]}},
            DimensionMismatchError,
            r"d_map has no entry for the source root \(1, -1\)",
        ),
        (
            {"q": {a: 1 for a in make_datum("GL", 2).roots[1:]}},
            DimensionMismatchError,
            r"q has no entry for the source root \(1, -1\)",
        ),
        (
            {"d_map": dict(zip(make_datum("GL", 2).roots, make_datum("GL", 3).roots))},
            DatumMismatchError,
            r"source root \(1, -1\) to Root\(\(1, -1, 0\).*not a root of GL\(2\)",
        ),
        (
            {"q": {a: "2" for a in make_datum("GL", 2).roots}},
            DomainError,
            r"q of the source root \(1, -1\) must be an int, got '2'",
        ),
        (
            {"q": {a: 2.0 for a in make_datum("GL", 2).roots}},
            DomainError,
            r"q of the source root \(1, -1\) must be an int, got 2.0",
        ),
        (
            {"h": ((1.0, 0), (0, 1.0))},
            DomainError,
            r"h entry \(0, 0\) must be an int, got 1.0",
        ),
        (
            {"h": ((1, False), (False, True))},
            DomainError,
            r"h entry \(0, 1\) must be an int, got False",
        ),
    ],
    ids=[
        "d_map-missing-root",
        "q-missing-root",
        "image-in-GL3",
        "q-str",
        "q-float",
        "h-float",
        "h-bool",
    ],
)
def test_malformed_morphism_data_raise_typed_errors(overrides, error, message):
    data = scalar_p_morphism(make_datum("GL", 2), 1, RingChar.zero())
    with pytest.raises(error, match=message):
        validate_p_morphism(rebuilt(data, **overrides))


_GL2, _GL3 = make_datum("GL", 2), make_datum("GL", 3)
_GL3_ROOT = {r.vector.coords: r for r in _GL3.roots}


@pytest.mark.parametrize(
    "source,target,h,d_map,message",
    [
        (
            _GL2,
            _GL3,
            ((1, 0, 0), (0, 1, 0)),
            {a: _GL3_ROOT[a.vector.coords + (0,)] for a in _GL2.roots},
            "d_map cannot be a bijection: 2 source roots, 6 target roots",
        ),
        (
            make_torus(2),
            _GL2,
            ((0, 0), (0, 0)),
            {},
            "d_map cannot be a bijection: 0 source roots, 2 target roots",
        ),
        (
            _GL3,
            _GL3,
            ((1, 0, 0), (0, 1, 0), (0, 0, 1)),
            dict(zip(_GL3.roots, _GL3.roots[:-1] + _GL3.roots[:1])),
            "d_map is not a bijection: some target root is hit twice",
        ),
    ],
    ids=["GL2-onto-2-of-6-GL3-roots", "T2-to-GL2", "GL3-repeated-image"],
)
def test_a_d_map_that_is_not_a_bijection_gets_no_verdict(source, target, h, d_map, message):
    # The first two satisfy both lattice relations on every source root.
    data = PMorphismData(source, target, h, d_map, {a: 1 for a in source.roots})
    with pytest.raises(CharpFlagError, match=f"^{message}$"):
        validate_p_morphism(data)


@given(st.sampled_from(RINGS))
def test_q_one_is_ring_independent(ring):
    datum = make_datum("SO_even", 3)
    assert validate_p_morphism(scalar_p_morphism(datum, 1, ring)).valid


def test_q_admissibility_rule():
    assert q_admissible(1, RingChar.zero())
    assert q_admissible(1, RingChar.prime_power(5, 2))
    assert q_admissible(5, RingChar.prime(5))
    assert q_admissible(125, RingChar.prime(5))
    assert not q_admissible(5, RingChar.prime(7))
    assert not q_admissible(5, RingChar.prime_power(5, 2))
    assert not q_admissible(5, RingChar.zero())
    assert not q_admissible(6, RingChar.prime(2))  # not a prime power
    assert not q_admissible(12, RingChar.prime(3))


_ADMISSIBILITY_RINGS = (
    [RingChar.zero()]
    + [RingChar.prime(p) for p in (2, 3, 5, 7, 11, 13)]
    + [RingChar.prime_power(p, n) for p, n in ((2, 2), (3, 3), (5, 2), (7, 2))]
)


@pytest.mark.parametrize("n", (2.5, 2.0, True, Fraction(2)), ids=repr)
def test_ring_exponent_must_be_an_int(n):
    with pytest.raises(DomainError, match="exponent must be an integer"):
        RingChar.prime_power(5, n)


@pytest.mark.parametrize(
    "args,error,message",
    [
        (("prime", 4), NotPrimeError, "ring characteristic 4 is not prime"),
        (("prime",), NotPrimeError, "ring characteristic None is not prime"),
        (("prime_power", 4, 2), NotPrimeError, "prime_power ring prime p = 4 is not prime"),
        (("prime_power", None, 2), NotPrimeError, "prime_power ring prime p = None is not prime"),
        (("prime_power", 5), DomainError, "prime_power exponent must be an integer, got None"),
        (("prime_power", 5, 1), DomainError, "prime_power needs exponent >= 2, got 1"),
        (("p", 5), DomainError, "ring kind must be zero, prime or prime_power, got 'p'"),
    ],
    ids=[
        "prime-4",
        "prime-None",
        "prime_power-4",
        "prime_power-None",
        "exponent-None",
        "exponent-1",
        "kind-p",
    ],
)
def test_the_ring_constructor_checks_what_its_classmethods_check(args, error, message):
    # An unchecked RingChar("prime", 4) would pass the Frobenius data
    # h = 4*id, q == 4 as valid over "characteristic 4".
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        RingChar(*args)


def test_a_ring_takes_only_the_fields_of_its_kind():
    # Before, RingChar("prime", 5, 3) was a ring unequal to RingChar.prime(5),
    # and RingChar("zero", p=5) carried a prime that the rigidity verdict
    # compared with its residue prime.
    with pytest.raises(DomainError, match="^ring kind prime takes no exponent, got n = 3$"):
        RingChar("prime", 5, 3)
    with pytest.raises(DomainError, match="^ring kind zero takes no prime, got p = 5$"):
        frobenius_rigidity_verdict(make_datum("GL", 3), RingChar("zero", p=5), p=7)
    with pytest.raises(DomainError, match="^ring kind zero takes no exponent, got n = 2$"):
        RingChar("zero", n=2)
    assert not frobenius_rigidity_verdict(make_datum("GL", 3), RingChar.zero(), p=7).lift_possible


@given(st.integers(-3, 5000), st.sampled_from(_ADMISSIBILITY_RINGS))
@settings(max_examples=300)
def test_q_admissible_matches_the_factoring_rule(q, ring):
    split = prime_power_reference(q)
    expected = q == 1 or (ring.kind == "prime" and split is not None and split[0] == ring.p)
    assert q_admissible(q, ring) == expected


def test_q_admissible_needs_no_factoring():
    # Far above the trial-division bound, answered by division alone.
    assert q_admissible(5**60, RingChar.prime(5))
    assert not q_admissible(2**61 - 1, RingChar.prime(5))
    assert not q_admissible(2**61 - 1, RingChar.zero())


# ---------------------------------------------------------------------------
# Rigidity verdicts


@pytest.mark.parametrize(
    "family,n",
    [("GL", 4), ("GL", 2), ("SL", 3), ("Sp", 2), ("SO_odd", 3), ("SO_even", 4)],
)
def test_rigidity_no_lift_where_p_nonzero(family, n):
    datum = make_datum(family, n)
    assert frobenius_rigidity_verdict(datum, RingChar.prime(5)).lift_possible
    assert not frobenius_rigidity_verdict(datum, RingChar.prime_power(5, 2)).lift_possible
    assert not frobenius_rigidity_verdict(datum, RingChar.zero(), p=5).lift_possible


def test_rigidity_monotone_zero_vs_prime_power():
    for family, n in [("GL", 3), ("Sp", 2), ("SO_odd", 2)]:
        datum = make_datum(family, n)
        for p in (5, 7, 11):
            p2 = frobenius_rigidity_verdict(datum, RingChar.prime_power(p, 2))
            zero = frobenius_rigidity_verdict(datum, RingChar.zero(), p=p)
            assert not p2.lift_possible
            assert not zero.lift_possible


def test_rigidity_toral_data_lift():
    for ring in RINGS:
        verdict = frobenius_rigidity_verdict(make_torus(4), ring, p=5)
        assert verdict.lift_possible
        assert "toral" in verdict.note
    # GL(1) is a torus too
    assert frobenius_rigidity_verdict(make_datum("GL", 1), RingChar.zero(), p=5).lift_possible


def test_rigidity_toral_test_reads_only_the_simple_roots():
    datum = make_datum("GL", 1000)
    assert not frobenius_rigidity_verdict(datum, RingChar.zero(), p=5).lift_possible
    assert datum._root_lists is None


@pytest.mark.parametrize("p", (4, 1, -3))
@pytest.mark.parametrize("datum", (make_torus(3), make_datum("GL", 1), make_datum("GL", 3)))
def test_rigidity_rejects_a_non_prime_p_on_every_datum(datum, p):
    # The toral short-circuit must not skip the primality check.
    with pytest.raises(NotPrimeError, match=f"Frobenius multiplier {p} is not prime"):
        frobenius_rigidity_verdict(datum, RingChar.zero(), p=p)


def test_rigidity_zero_ring_needs_a_residue_prime():
    with pytest.raises(ValueError):
        frobenius_rigidity_verdict(make_datum("GL", 3), RingChar.zero())
    with pytest.raises(ValueError):
        frobenius_rigidity_verdict(make_datum("GL", 3), RingChar.prime(5), p=7)



def _rigidity_grid_data():
    for family in ("GL", "SL", "Sp", "SO_odd", "SO_even"):
        for n in range(1 if family in ("GL", "SL") else 2, 6):
            yield make_datum(family, n)
    for n in range(1, 6):
        yield make_torus(n)


@pytest.mark.parametrize("p", (2, 3, 5, 7, 11))
def test_rigidity_verdict_matches_validating_the_frobenius_data(p):
    # The verdict reads only q-admissibility; validating the forced data
    # against every root is the independent reference.
    rings = (RingChar.zero(), RingChar.prime(p))
    rings += (RingChar.prime_power(p, 2), RingChar.prime_power(p, 3))
    for datum in _rigidity_grid_data():
        for ring in rings:
            expected = validate_p_morphism(scalar_p_morphism(datum, p, ring)).valid
            verdict = frobenius_rigidity_verdict(datum, ring, p=p)
            assert verdict.lift_possible == expected, (datum.name, ring, p)


# ---------------------------------------------------------------------------
# Sparse matrix-vector products


def _dense_mat_vec(mat, vec):
    """The reference: mat * vec, reading every column."""
    return tuple(sum(row[j] * vec[j] for j in range(len(vec))) for row in mat)


def _seeded_morphisms(datum, seed):
    """Morphism data on datum from integer h: scalar, perturbed and random.

    The scalar h with q == 5 is the Frobenius, valid over F_5.  The
    perturbed and random h fail the lattice relations on some roots, and
    some of their q fail admissibility, so failures and details are compared.
    """
    rng = random.Random(seed)
    n, roots = datum.rank, datum.roots
    scalar = [[5 if i == j else 0 for j in range(n)] for i in range(n)]
    perturbed = [row[:] for row in scalar]
    for _ in range(rng.randint(1, n)):
        perturbed[rng.randrange(n)][rng.randrange(n)] = rng.randint(-3, 3)
    dense = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
    for h in (scalar, perturbed, dense):
        q = {a: 5 if h is scalar else rng.choice((5, 5, 5, 25, 3, 1)) for a in roots}
        yield PMorphismData(
            datum, datum, tuple(map(tuple, h)), {a: a for a in roots}, q, RingChar.prime(5)
        )


@pytest.mark.parametrize("family", ("GL", "SL", "Sp", "SO_odd", "SO_even"))
@pytest.mark.parametrize("n", range(2, 7))
def test_morphism_checks_match_the_dense_reference(family, n, monkeypatch):
    datum = make_datum(family, n)
    cases = list(_seeded_morphisms(datum, seed=1000 * n + len(family)))
    for data in cases:
        h_t = rootmorph._transpose(data.h)
        for alpha in datum.roots:
            vec, co = alpha.vector.coords, alpha.coroot
            assert rootmorph._mat_vec(data.h, vec) == _dense_mat_vec(data.h, vec)
            assert rootmorph._mat_vec(h_t, co) == _dense_mat_vec(h_t, co)
    sparse = [validate_p_morphism(data) for data in cases]
    monkeypatch.setattr(rootmorph, "_mat_vec", _dense_mat_vec)
    dense = [validate_p_morphism(data) for data in cases]
    # Verdicts compare by their failures: relation, root and detail text.
    assert sparse == dense
    assert sparse[0].valid and any(f.relation.startswith("h(") for f in sparse[1].failures)


class _RecordingRow(tuple):
    """A matrix row that records which columns are read."""

    def __new__(cls, row, reads):
        self = super().__new__(cls, row)
        self.reads = reads
        return self

    def __getitem__(self, j):
        self.reads.add(j)
        return super().__getitem__(j)


@pytest.mark.parametrize("family", ("GL", "SL", "Sp", "SO_odd", "SO_even"))
def test_mat_vec_reads_only_the_columns_of_nonzero_coordinates(family):
    datum = make_datum(family, 5)
    mat = tuple(tuple(7 * i + j for j in range(datum.rank)) for i in range(datum.rank))
    for alpha in datum.roots:
        for vec in (alpha.vector.coords, alpha.coroot):
            reads = set()
            rows = tuple(_RecordingRow(row, reads) for row in mat)
            assert rootmorph._mat_vec(rows, vec) == _dense_mat_vec(mat, vec)
            assert reads == {j for j, c in enumerate(vec) if c}
