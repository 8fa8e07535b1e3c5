import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from charpflag import (
    FiltrationH1,
    H1Status,
    InternalInconsistencyError,
    NotPrimeError,
    UnsupportedDatumError,
    andersen_h1,
    bwb_char0,
    cartan_column,
    dot_reflect,
    dynkin_labels,
    end_weights,
    frobenius_twist,
    is_dominant,
    make_datum,
    pairing,
    tautological_weights,
    weyl_dim,
)
from charpflag import cohomology
from charpflag.cohomology import aggregate_h1_statuses

from conftest import datum_weights, rebuilt

PRIMES = (5, 7, 11, 13)


# ---------------------------------------------------------------------------
# Digits


def _value(digits, p):
    return sum(d * p**j for j, d in enumerate(digits))


def test_digit_examples():
    assert cohomology._digits(8, 5) == [3, 1]  # 2p - 2 = p + (p - 2)
    assert cohomology._digits(3, 5) == [3]  # p - 2
    assert cohomology._digits(24, 5) == [4, 4]


@given(st.integers(1, 10**9), st.sampled_from((2, 3, 5, 7, 11, 13, 97)))
def test_digit_roundtrip(m, p):
    digits = cohomology._digits(m, p)
    assert _value(digits, p) == m
    assert all(0 <= d < p for d in digits)
    assert digits[-1] != 0


def test_digit_roundtrip_bulk():
    rng = random.Random(424242)
    primes = (2, 3, 5, 7, 11, 13, 31, 97)
    for _ in range(10_000):
        m = rng.randint(1, 10**12)
        p = rng.choice(primes)
        digits = cohomology._digits(m, p)
        assert _value(digits, p) == m
        assert all(0 <= d < p for d in digits) and digits[-1] != 0


def test_part_a_is_exactly_the_all_low_digits_test():
    # _andersen_one_root decides part a), "m + 1 = a p^k with 0 < a < p", by
    # dividing m + 1 by p, and part b) needs a digit of m below the top one
    # that is < p - 1.  m = a p^k - 1 has the low digits p - 1 and the top
    # digit a - 1 (or p - 1 when a = 1), and conversely, so part b) always
    # applies when part a) does not.  Checked on every m <= p^4.
    for p in (2, 3, 5, 7, 11, 13):
        for m in range(1, p**4 + 1):
            s = m + 1
            while s % p == 0:
                s //= p
            digits = cohomology._digits(m, p)
            assert (s < p) == all(d == p - 1 for d in digits[:-1]), (p, m)


# ---------------------------------------------------------------------------
# Andersen H^1


def test_andersen_far_case_vanishes_in_range():
    # mu = p(l_i - l_j) with i < j <= N - 2: the dot-reflected weight fails
    # dominance at position j+1 and part a) gives zero.
    d5 = make_datum("GL", 5)
    assert andersen_h1(d5.weight((5, 0, -5, 0, 0)), 5).status == "zero"
    d7 = make_datum("GL", 7)
    assert andersen_h1(d7.weight((0, 5, 0, 0, -5, 0, 0)), 5).status == "zero"


def test_andersen_far_case_at_the_boundary_is_nonzero():
    # For j = N - 1 the failing coordinate has no successor: the reflected
    # weight is dominant and H^1 is genuinely nonzero.  (mu = p(l_1 - l_3)
    # in GL(4) sits outside the certificate range d <= N - 2.)
    d4 = make_datum("GL", 4)
    status = andersen_h1(d4.weight((5, 0, -5, 0)), 5)
    assert status.status == "nonzero"
    assert status.highest_weight.coords == (5, 0, -1, -4)
    oracle = bwb_char0(d4.weight((5, 0, -5, 0)))
    assert (oracle.degree, oracle.highest_weight.coords) == (1, (5, 0, -1, -4))


def test_andersen_lower_case_vanishes():
    d4 = make_datum("GL", 4)
    assert andersen_h1(d4.weight((-5, 0, 5, 0)), 5).status == "zero"


def test_andersen_adjacent_case_is_trivial_module():
    d4 = make_datum("GL", 4)
    status = andersen_h1(d4.weight((-5, 5, 0, 0)), 5)
    assert status.status == "nonzero"
    assert status.highest_weight.is_zero()
    d7 = make_datum("GL", 7)
    status = andersen_h1(d7.weight((0, -7, 7, 0, 0, 0, 0)), 7)
    assert status.is_trivial_module


def test_andersen_zero_weight():
    assert andersen_h1(make_datum("GL", 4).zero(), 5).status == "zero"


def test_andersen_wall_weight_is_undetermined():
    d = make_datum("GL", 4)
    status = andersen_h1(d.weight((0, 2, 0, 0)), 5)
    assert status.status == "undetermined"
    assert "not applicable" in status.reason


def test_andersen_preconditions():
    with pytest.raises(UnsupportedDatumError):
        andersen_h1(make_datum("Sp", 2).weight((1, 0)), 5)
    with pytest.raises(NotPrimeError):
        andersen_h1(make_datum("GL", 3).weight((0, 1, 0)), 6)


@given(datum_weights(families=("GL", "SL"), max_rank=6), st.sampled_from(PRIMES))
def test_andersen_agrees_with_kempf_on_dominant(w, p):
    if is_dominant(w):
        assert andersen_h1(w, p).status == "zero"


@given(datum_weights(families=("GL",), max_rank=6, coord_bound=30), st.sampled_from(PRIMES))
@settings(max_examples=200)
def test_andersen_nonzero_highest_weight_is_dominant(w, p):
    status = andersen_h1(w, p)
    if status.status == "nonzero":
        assert is_dominant(status.highest_weight)


# ---------------------------------------------------------------------------
# Filtrations


def test_empty_filtration_is_zero():
    assert aggregate_h1_statuses(andersen_h1(w, 5) for w in []) == FiltrationH1.ZERO


def test_end_bundle_filtration_is_trivial_module():
    weights = end_weights(frobenius_twist(tautological_weights(2, 7), 5))
    # Independent aggregation: run the per-weight criterion and combine by
    # the stated rule.
    statuses = [andersen_h1(w, 5) for w in weights]
    assert all(s.status in ("zero", "nonzero") for s in statuses)
    assert any(s.is_trivial_module for s in statuses)
    assert all(s.is_zero or s.is_trivial_module for s in statuses)
    assert aggregate_h1_statuses(andersen_h1(w, 5) for w in weights) == FiltrationH1.TRIVIAL_MODULE


def test_filtration_with_nonzero_highest_weight_is_unknown():
    # The rank-two variant of the adjacent case: the reflected weight is
    # dominant, so the largest weight is 4(l_1 - l_2) != 0.
    d2 = make_datum("GL", 2)
    assert andersen_h1(d2.weight((-5, 5)), 5).highest_weight.coords == (4, -4)
    assert aggregate_h1_statuses([andersen_h1(d2.weight((-5, 5)), 5)]) == FiltrationH1.UNKNOWN


def test_a_nonzero_status_without_a_largest_weight_aggregates_to_unknown():
    # Such a status is no trivial module, so it never lets condition (ii)
    # hold; asking either question raises no builtin error.
    gl3 = make_datum("GL", 3)
    bare = H1Status("nonzero")
    assert not bare.is_trivial_module
    assert aggregate_h1_statuses([bare]) is FiltrationH1.UNKNOWN
    trivial = H1Status.nonzero(gl3.zero())
    zero = H1Status("zero")
    assert aggregate_h1_statuses([zero, trivial, bare, zero]) is FiltrationH1.UNKNOWN
    assert aggregate_h1_statuses([zero, trivial]) is FiltrationH1.TRIVIAL_MODULE
    # The kind is set by the constructor, so a rebuilt or unpickled status has it too.
    for st in (bare, trivial, zero, H1Status.undetermined("open")):
        for copy in (rebuilt(st), pickle.loads(pickle.dumps(st))):
            assert copy == st and copy._kind == st._kind
            assert copy.is_trivial_module == (st is trivial)


def test_andersen_h1_agrees_on_gl_and_sl():
    # mu and its image in SL(n) have the same labels, so the same status; the
    # SL largest weight, built from the zero-sum lift of a root, must be the
    # canonical form of the GL one.
    rng = random.Random(20261018)
    nonzero = 0
    for _ in range(3000):
        n, p = rng.randint(2, 5), rng.choice((2, 3, 5, 7))
        coords = [rng.randint(-3 * p, 3 * p) for _ in range(n)]
        gl = andersen_h1(make_datum("GL", n).weight(coords), p)
        sl = andersen_h1(make_datum("SL", n).weight(coords), p)
        assert gl.status == sl.status, (coords, p)
        if gl.status == "nonzero":
            nonzero += 1
            assert sl.highest_weight == make_datum("SL", n).weight(gl.highest_weight.coords)
    assert nonzero > 500



# Identities of H^1(G/B, L_mu) that do not use Andersen's digit analysis: on
# GL(n), tensoring with a power of det shifts mu and the cohomology by
# c(1, ..., 1), and the diagram automorphism -w0 maps L_mu to L_(-w0 mu) and
# a largest weight lam to -w0 lam.  Each test draws seeded GL(2..6) weights at
# p in {2, 3, 5, 7} with |coords| <= 3p^2.
METAMORPHIC_PRIMES = (2, 3, 5, 7)
METAMORPHIC_WEIGHTS = 3000


def _metamorphic_cases(seed):
    rng = random.Random(seed)
    for _ in range(METAMORPHIC_WEIGHTS):
        n, p = rng.randint(2, 6), rng.choice(METAMORPHIC_PRIMES)
        bound = 3 * p * p
        yield rng, make_datum("GL", n), [rng.randint(-bound, bound) for _ in range(n)], p


def _mapped(status, image):
    """status with its largest weight's coordinates sent through image."""
    weight = status.highest_weight
    return (status.status, None if weight is None else image(weight.coords), status.reason)


def _assert_metamorphic(seed, image_of):
    statuses = set()
    for rng, datum, coords, p in _metamorphic_cases(seed):
        image = image_of(rng, p)
        expected = _mapped(andersen_h1(datum.weight(coords), p), image)
        actual = andersen_h1(datum.weight(image(coords)), p)
        assert _mapped(actual, tuple) == expected, (coords, p)
        statuses.add(expected[0])
    assert statuses == {"zero", "nonzero", "undetermined"}


def test_andersen_h1_commutes_with_a_central_shift():
    def image_of(rng, p):
        c = rng.randint(-3 * p * p, 3 * p * p)
        return lambda coords: tuple(x + c for x in coords)

    _assert_metamorphic(20261019, image_of)


def test_andersen_h1_commutes_with_the_diagram_flip():
    def image_of(rng, p):
        return lambda coords: tuple(-x for x in reversed(coords))

    _assert_metamorphic(20261020, image_of)


def test_andersen_h1_commutes_with_the_steinberg_map():
    # Jantzen II.3.19: H^1((p-1)rho + p mu) = St (x) H^1(mu)^[1], so the
    # image of mu has the H^1 status of mu, and a largest weight nu goes to
    # (p-1)rho + p nu.  Checked wherever both sides are decided.
    rng = random.Random(20261021)
    statuses = {"zero": 0, "nonzero": 0}
    for n in range(2, 7):
        datum = make_datum("GL", n)
        rho = range(n - 1, -1, -1)
        for _ in range(METAMORPHIC_WEIGHTS):
            p = rng.choice(METAMORPHIC_PRIMES)
            bound = 3 * p * p
            coords = [rng.randint(-bound, bound) for _ in range(n)]

            def image(coords):
                return tuple((p - 1) * r + p * c for r, c in zip(rho, coords))

            before = andersen_h1(datum.weight(coords), p)
            after = andersen_h1(datum.weight(image(coords)), p)
            if "undetermined" in (before.status, after.status):
                continue
            assert _mapped(after, tuple)[:2] == _mapped(before, image)[:2], (coords, p)
            statuses[before.status] += 1
    assert min(statuses.values()) > 1000, statuses


def test_filtration_with_undetermined_weight_is_unknown():
    d = make_datum("GL", 4)
    weights = [d.zero(), d.weight((0, 2, 0, 0))]
    assert aggregate_h1_statuses(andersen_h1(w, 5) for w in weights) == FiltrationH1.UNKNOWN


def test_filtration_is_order_independent():
    weights = list(end_weights(frobenius_twist(tautological_weights(3, 8), 7)))
    rng = random.Random(11)
    reference = aggregate_h1_statuses(andersen_h1(w, 7) for w in weights)
    for _ in range(5):
        rng.shuffle(weights)
        assert aggregate_h1_statuses(andersen_h1(w, 7) for w in weights) == reference


# ---------------------------------------------------------------------------
# Characteristic-zero oracle


def test_bwb_dominant_weight_sits_in_degree_zero():
    d = make_datum("GL", 4)
    lam = d.weight((4, 2, 1, 0))
    status = bwb_char0(lam)
    assert (status.degree, status.highest_weight) == (0, lam)


def test_bwb_single_reflection_sits_in_degree_one():
    d = make_datum("GL", 4)
    lam = d.weight((4, 2, 1, 0))
    for alpha in d.simple_roots:
        mu = dot_reflect(lam, alpha)
        status = bwb_char0(mu)
        assert (status.degree, status.highest_weight) == (1, lam)


def test_bwb_singular_weight_vanishes():
    # The dot-fixed points of s_alpha are the weights with
    # <lam, alpha^vee> = -1; those have lam + rho on the alpha wall.
    d = make_datum("GL", 3)
    assert pairing(d.weight((-1, 0, 0)), d.simple_roots[0]) == -1
    assert bwb_char0(d.weight((-1, 0, 0))).all_zero
    assert bwb_char0(d.weight((0, 1, 0))).all_zero  # shifted to (2, 2, 0)
    # -alpha itself is regular: its shifted orbit sorts in one step to rho,
    # giving the trivial representation in degree one.
    status = bwb_char0(-d.simple_roots[0].vector)
    assert (status.degree, status.highest_weight) == (1, d.zero())


@given(datum_weights(families=("GL",), min_rank=2, max_rank=6, coord_bound=12))
@settings(max_examples=300)
def test_andersen_case_a_generic_region_matches_char0(lam):
    # Pick a dominant regular lam, reflect through each simple root, and
    # compare the characteristic-p answer with Borel--Weil--Bott whenever
    # the criterion lands in part a) with exponent zero (pairing < p - 1).
    if not is_dominant(lam):
        lam = lam.datum.weight(sorted(lam.coords, reverse=True))
    for alpha in lam.datum.simple_roots:
        p = 29  # large: every pairing below coord span stays under p - 1
        if pairing(lam, alpha) <= 0 or pairing(lam, alpha) >= p - 1:
            continue
        mu = dot_reflect(lam, alpha)
        status = andersen_h1(mu, p)
        oracle = bwb_char0(mu)
        assert status.status == "nonzero"
        assert oracle.degree == 1
        assert status.highest_weight == oracle.highest_weight == lam


# ---------------------------------------------------------------------------
# Weyl dimension formula


def test_weyl_dim_standard_cases():
    gl2 = make_datum("GL", 2)
    assert weyl_dim(gl2.weight((1, 0))) == 2
    for n in (2, 3, 7, 20):
        assert weyl_dim(gl2.weight((n, 0))) == n + 1
    gl3 = make_datum("GL", 3)
    assert weyl_dim(gl3.weight((1, 1, 0))) == 3
    assert weyl_dim(gl3.weight((2, 1, 0))) == 8


def test_weyl_dim_other_families():
    assert weyl_dim(make_datum("Sp", 2).weight((1, 0))) == 4  # standard of Sp(4)
    assert weyl_dim(make_datum("SO_even", 4).weight((1, 0, 0, 0))) == 8  # vector of SO(8)
    assert weyl_dim(make_datum("SO_odd", 3).weight((1, 1, 1))) == 8  # spin of SO(7)


def test_weyl_dim_rejects_non_dominant():
    with pytest.raises(ValueError):
        weyl_dim(make_datum("GL", 2).weight((0, 1)))


# ---------------------------------------------------------------------------
# JSON serialization


def test_h1_status_json_schema():
    d = make_datum("GL", 4)
    for w in (d.zero(), d.weight((-5, 5, 0, 0)), d.weight((0, 2, 0, 0))):
        payload = andersen_h1(w, 5).to_json()
        assert set(payload) == {"status", "highest_weight", "undetermined_reason"}
    assert andersen_h1(d.weight((-5, 5, 0, 0)), 5).to_json() == {
        "status": "nonzero",
        "highest_weight": [0, 0, 0, 0],
        "undetermined_reason": None,
    }
    undet = andersen_h1(d.weight((0, 2, 0, 0)), 5).to_json()
    assert undet["status"] == "undetermined"
    assert undet["highest_weight"] is None
    assert undet["undetermined_reason"]


def test_weyl_dim_checks_integrality_at_runtime(monkeypatch):
    real_pairing = cohomology.pairing
    monkeypatch.setattr(cohomology, "pairing", lambda w, a: real_pairing(w, a) + 1)
    # (2 * 2 + 3) / 3 is not an integer.
    with pytest.raises(InternalInconsistencyError, match="7/3"):
        weyl_dim(make_datum("GL", 2).weight((1, 0)))


def test_andersen_checks_the_cartan_column_at_runtime(monkeypatch):
    # A raised error, not an assert, so that python -O keeps the check.
    def bad_column(alpha):
        k = alpha.datum.simple_roots.index(alpha)
        return tuple((j, 3 if j == k else a) for j, a in cartan_column(alpha))

    monkeypatch.setattr(cohomology, "cartan_column", bad_column)
    mu = make_datum("GL", 4).weight((0, 0, -5, 5))
    with pytest.raises(InternalInconsistencyError, match="s_alpha . mu"):
        andersen_h1(mu, 5)


def test_a_nonzero_h1_needs_a_dominant_largest_weight():
    with pytest.raises(InternalInconsistencyError, match="is not dominant"):
        cohomology.H1Status.nonzero(make_datum("GL", 3).weight((0, 1, 0)))


def test_andersen_checks_that_the_simple_roots_agree(monkeypatch):
    # Labels -3 at the first and second simple roots, and each column holds
    # both: both roots run the digit analysis.
    datum = make_datum("GL", 4)
    mu = datum.weight((0, 3, 6, 6))
    first = datum.simple_roots[0]

    def disagreeing(mu, labels, negatives, alpha, column, m, p):
        if alpha is first:
            return cohomology._ZERO
        return cohomology.H1Status.nonzero(datum.zero())

    monkeypatch.setattr(cohomology, "_andersen_one_root", disagreeing)
    with pytest.raises(InternalInconsistencyError, match="conflicting H\\^1 verdicts"):
        andersen_h1(mu, 5)

    # Equal statuses built separately are one verdict.
    monkeypatch.setattr(cohomology, "_andersen_one_root", lambda *args: cohomology.H1Status("zero"))
    assert andersen_h1(mu, 5) == cohomology._ZERO


def test_a_shortcut_zero_that_meets_a_nonzero_verdict_raises(monkeypatch):
    # Labels -3 at the first three simple roots: only the second root's
    # column holds all three, so the first and third take the zero shortcut
    # and only the second reaches the digit analysis.
    datum = make_datum("GL", 5)
    mu = datum.weight((0, 3, 6, 9, 9))
    simple = datum.simple_roots
    called = []

    def nonzero(mu, labels, negatives, alpha, column, m, p):
        called.append(alpha)
        return cohomology.H1Status.nonzero(datum.zero())

    monkeypatch.setattr(cohomology, "_andersen_one_root", nonzero)
    with pytest.raises(InternalInconsistencyError, match="conflicting H\\^1 verdicts") as info:
        andersen_h1(mu, 5)
    assert called == [simple[1]]
    assert repr(simple[0]) in str(info.value) and repr(simple[1]) in str(info.value)


def _shortcut_roots(mu):
    """(alpha, column, m) of each applicable root whose column misses a negative label."""
    labels = dynkin_labels(mu)
    negative = {k for k, c in labels.items() if c < 0}
    for k, c in labels.items():
        alpha = mu.datum.simple_roots[k]
        column = cartan_column(alpha)
        if c <= -3 and not negative <= {j for j, _ in column}:
            yield alpha, column, -c - 2


def test_the_zero_shortcut_agrees_with_the_digit_analysis():
    # Every applicable root whose column misses a negative label of mu
    # gets zero from the full digit analysis too.
    box = range(-5, 6)
    gl3 = make_datum("GL", 3)
    weights = [gl3.weight((a, b, c)) for a in box for b in box for c in box]
    rng = random.Random(20261020)
    for n in (4, 5, 6):
        datum = make_datum("GL", n)
        for _ in range(20_000):
            bound = rng.choice((5, 12, 60))
            weights.append(datum.weight([rng.randint(-bound, bound) for _ in range(n)]))
    checked = 0
    for mu in weights:
        labels = dynkin_labels(mu)
        negatives = sum(c < 0 for c in labels.values())
        for alpha, column, m in _shortcut_roots(mu):
            for p in (2, 3, 5, 7):
                verdict = cohomology._andersen_one_root(mu, labels, negatives, alpha, column, m, p)
                assert verdict.is_zero, (mu, alpha, p, verdict)
                checked += 1
    assert checked > 200_000
