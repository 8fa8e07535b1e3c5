import json
import pickle
import random
import sys
import threading
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from charpflag import (
    DatumMismatchError,
    DimensionMismatchError,
    H1Status,
    InternalInconsistencyError,
    NotPrimeError,
    RankRangeError,
    RigidityVerdict,
    VERDICT_INCONCLUSIVE,
    VERDICT_NO_LIFT,
    WeightShapeError,
    andersen_h1,
    certificate_from_rows,
    check_equivariant_smoothness,
    classify_weight,
    dynkin_labels,
    end_weights,
    frobenius_twist,
    is_dominant,
    make_datum,
    pairing,
    pullback_filtration,
    tautological_weights,
)
from charpflag import certificate, cli, lattice
from charpflag.cohomology import FiltrationH1, aggregate_h1_statuses
from charpflag.lattice import DENSE_LISTING_MAX, MAX_RANK, Weight
from charpflag.certificate import (
    CASE_ADJACENT,
    CASE_DIAGONAL,
    CASE_LOWER_FAR,
    CASE_UPPER_FAR,
    CaseRow,
    Certificate,
    ConditionCheck,
)
from charpflag.rootmorph import RingChar, frobenius_rigidity_verdict

from conftest import rebuilt


def _end_weight(n, p, i, j):
    d = make_datum("GL", n)
    return p * (d.fundamental_character(i) - d.fundamental_character(j))


# ---------------------------------------------------------------------------
# classify_weight


def test_classify_diagonal():
    row = classify_weight(make_datum("GL", 7).zero(), 5)
    assert row.case_tag == CASE_DIAGONAL
    assert row.chosen_simple_root is None
    assert row.pairing_value is None
    assert row.h1.is_zero


def test_classify_upper_far():
    row = classify_weight(_end_weight(7, 5, 1, 3), 5)
    assert row.case_tag == CASE_UPPER_FAR
    assert row.chosen_simple_root.vector.coords == (0, 0, 1, -1, 0, 0, 0)
    assert row.pairing_value == 3
    assert row.h1.is_zero


def test_classify_adjacent():
    row = classify_weight(_end_weight(7, 5, 2, 1), 5)
    assert row.case_tag == CASE_ADJACENT
    assert row.chosen_simple_root.vector.coords == (1, -1, 0, 0, 0, 0, 0)
    assert row.pairing_value == 8
    assert row.h1.is_trivial_module


def test_classify_lower_far():
    row = classify_weight(_end_weight(8, 7, 4, 2), 7)
    assert row.case_tag == CASE_LOWER_FAR
    assert row.chosen_simple_root.vector.coords == (0, 0, 1, -1, 0, 0, 0, 0)
    assert row.pairing_value == 5
    assert row.h1.is_zero


def test_classify_rejects_malformed_weights():
    d = make_datum("GL", 5)
    with pytest.raises(WeightShapeError):
        classify_weight(d.weight((3, -3, 0, 0, 0)), 5)  # wrong scale
    with pytest.raises(WeightShapeError):
        classify_weight(d.weight((5, -3, -2, 0, 0)), 5)  # three nonzero entries
    with pytest.raises(WeightShapeError):
        classify_weight(d.weight((5, 0, 0, 0, -5)), 5)  # j = N: no simple root l_N - l_{N+1}
    with pytest.raises(WeightShapeError):
        classify_weight(make_datum("SL", 5).zero(), 5)


def test_classify_pairings_are_affine_in_p():
    # Record the pairing at three primes per case and check the exact
    # closed forms p - 2 and 2p - 2 through interpolation.
    for i, j, expected_slope, expected_offset in ((1, 3, 1, -2), (4, 2, 1, -2), (3, 2, 2, -2)):
        samples = []
        for p in (5, 7, 11):
            row = classify_weight(_end_weight(8, p, i, j), p)
            samples.append((p, row.pairing_value))
        (p0, v0), (p1, v1), (p2, v2) = samples
        slope = (v1 - v0) // (p1 - p0)
        offset = v0 - slope * p0
        assert (slope, offset) == (expected_slope, expected_offset)
        assert v2 == slope * p2 + offset


def test_classify_checks_the_closed_form_at_runtime(monkeypatch):
    # A raised error, not an assert, so that python -O keeps the check.
    monkeypatch.setattr(
        "charpflag.certificate.dynkin_labels",
        lambda lam: {k: c + 1 for k, c in dynkin_labels(lam).items()},
    )
    with pytest.raises(InternalInconsistencyError, match="closed form 5"):
        classify_weight(_end_weight(8, 7, 4, 2), 7)


def test_classified_rows_behave_as_keyword_built_rows():
    rows = check_equivariant_smoothness(4, 9, 7).rows
    assert {row.case_tag for row in rows} == {
        CASE_DIAGONAL,
        CASE_UPPER_FAR,
        CASE_LOWER_FAR,
        CASE_ADJACENT,
    }
    for row in rows:
        built = CaseRow(
            weight=row.weight,
            case_tag=row.case_tag,
            chosen_simple_root=row.chosen_simple_root,
            pairing_value=row.pairing_value,
            h1=row.h1,
        )
        assert row == built
        assert hash(row) == hash(built)
        assert repr(row) == repr(built)
        with pytest.raises(AttributeError, match="^cannot assign to field 'pairing_value'$"):
            row.pairing_value = 0
        assert rebuilt(row) == row
        assert rebuilt(row, case_tag="other").case_tag == "other"
    # The adjacent rows' nonzero H^1 statuses are built the same way.
    nonzero = [row.h1 for row in rows if row.h1.status == "nonzero"]
    assert len(nonzero) == 3
    for status in nonzero:
        built = H1Status("nonzero", highest_weight=status.highest_weight)
        assert (status, hash(status), repr(status)) == (built, hash(built), repr(built))
        with pytest.raises(AttributeError, match="^cannot assign to field 'reason'$"):
            status.reason = "changed"


def test_rows_record_the_dot_reflected_pairing_and_the_labels_of_their_weights():
    for p in (5, 7, 11, 13, 23):
        for n in range(4, 15):
            for d in range(2, n - 1):
                for row in check_equivariant_smoothness(d, n, p).rows:
                    if row.chosen_simple_root is None:
                        assert row.case_tag == CASE_DIAGONAL and row.pairing_value is None
                    else:
                        value = -pairing(row.weight, row.chosen_simple_root) - 2
                        assert row.pairing_value == value
                    for w in (row.weight, row.h1.highest_weight):
                        if w is not None and w._labels is not None:
                            assert w._labels == dynkin_labels(Weight(w.coords, w.datum))


# ---------------------------------------------------------------------------
# check_equivariant_smoothness


def test_condition_i_judges_each_rows_own_weight():
    base = check_equivariant_smoothness(2, 6, 5)
    assert base.condition_i.holds
    # p(l_1 - l_6) is dominant; its row replaces an off-diagonal row whose
    # labels the certificate has already read.
    dominant = _end_weight(6, 5, 1, 6)
    k = next(k for k, row in enumerate(base.rows) if not row.weight.is_zero())
    rows = list(base.rows)
    rows[k] = rebuilt(rows[k], weight=dominant)
    cert = certificate_from_rows(2, 6, 5, rows)
    assert not cert.condition_i.holds
    assert "(5, 0, 0, 0, 0, -5)" in cert.condition_i.detail
    assert cert.final_verdict == VERDICT_INCONCLUSIVE


def test_check_equivariant_smoothness_counts_the_classified_rows(monkeypatch):
    # A filtration that lost a weight is a bug in the pipeline, not a certificate.
    real = certificate.pullback_filtration
    monkeypatch.setattr(certificate, "pullback_filtration", lambda weights: real(weights)[1:])
    certificate._row_order.cache_clear()  # the order is read through the substitute
    try:
        with pytest.raises(
            InternalInconsistencyError, match="^3 End weights classified, expected 4$"
        ):
            check_equivariant_smoothness(2, 6, 5)
    finally:
        certificate._row_order.cache_clear()  # no order read from it survives the test


def test_a_certificate_computes_each_rows_labels_once(monkeypatch):
    check_equivariant_smoothness(3, 6, 5)  # fills the kept Cartan columns
    evaluated = []
    real_pairing = lattice.pairing

    def counting(lam, alpha):
        evaluated.append((lam.coords, alpha))
        return real_pairing(lam, alpha)

    # Every module that binds ``pairing``, so that no call goes uncounted.
    for name, module in list(sys.modules.items()):
        bound = getattr(module, "pairing", None)
        if name.partition(".")[0] == "charpflag" and bound is real_pairing:
            monkeypatch.setattr(module, "pairing", counting)
    certificate._row_memo.clear()  # a cold memo
    cert = check_equivariant_smoothness(3, 6, 5)
    assert cert.final_verdict == VERDICT_NO_LIFT
    # Labels pair p(l_i - l_j) with the simple roots whose coroot meets
    # coordinate i or j: 2 for {i, j} = {1, 2}, 3 for {1, 3} and for
    # {2, 3}; each pair of indices gives two rows.  The diagonal rows and
    # the adjacent rows' largest weight, 0, have no labels to compute, and
    # each closed-form check reads its row's labels.
    assert len(evaluated) == 2 * (2 + 3 + 3)
    assert len(set(evaluated)) == len(evaluated)
    # A warm memo gives back the finished rows: no pairing at all.
    evaluated.clear()
    assert check_equivariant_smoothness(3, 6, 5) == cert
    assert evaluated == []


def test_certificate_totaro_case():
    cert = check_equivariant_smoothness(2, 7, 5)
    assert cert.final_verdict == VERDICT_NO_LIFT
    assert len(cert.rows) == 4
    assert cert.condition_i.holds and cert.condition_ii.holds and cert.condition_iii.holds
    assert cert.rigidity_no_lift


def test_certificate_small_grassmannian():
    cert = check_equivariant_smoothness(2, 4, 5)
    assert cert.final_verdict == VERDICT_NO_LIFT
    by_tag = {}
    for row in cert.rows:
        by_tag.setdefault(row.case_tag, []).append(row)
    assert len(by_tag[CASE_DIAGONAL]) == 2
    assert len(by_tag[CASE_UPPER_FAR]) == 1
    assert len(by_tag[CASE_ADJACENT]) == 1
    # Independent per-weight run of the H^1 criterion.
    for row in cert.rows:
        assert row.h1 == andersen_h1(row.weight, 5)


def test_certificate_d3():
    cert = check_equivariant_smoothness(3, 8, 7)
    assert cert.final_verdict == VERDICT_NO_LIFT
    assert len(cert.rows) == 9
    tags = [row.case_tag for row in cert.rows]
    assert tags.count(CASE_DIAGONAL) == 3
    assert tags.count(CASE_UPPER_FAR) == 3
    assert tags.count(CASE_ADJACENT) == 2
    assert tags.count(CASE_LOWER_FAR) == 1


def test_certificate_at_the_rank_bound_reads_only_simple_roots():
    cert = check_equivariant_smoothness(2, MAX_RANK, 5)
    assert cert.final_verdict == VERDICT_NO_LIFT
    datum = make_datum("GL", MAX_RANK)
    assert cert.rows[0].weight.datum is datum
    # The N - 1 simple roots are built; the N(N - 1) roots are not.
    assert len(datum.simple_roots) == MAX_RANK - 1
    assert datum._root_lists is None


def test_certificate_rejects_bad_parameters():
    with pytest.raises(RankRangeError):
        check_equivariant_smoothness(1, 4, 5)
    with pytest.raises(RankRangeError):
        check_equivariant_smoothness(3, 4, 5)
    with pytest.raises(NotPrimeError):
        check_equivariant_smoothness(2, 7, 6)
    with pytest.raises(NotPrimeError):
        check_equivariant_smoothness(2, 7, 3)


@pytest.mark.parametrize(
    "d,n", [(3.0, 6), (3, 6.0), (True, 6), (3, Fraction(6)), (Fraction(3), 6)], ids=repr
)
def test_certificate_needs_integer_ranks(d, n):
    with pytest.raises(RankRangeError, match="integer d and N"):
        check_equivariant_smoothness(d, n, 7)
    with pytest.raises(RankRangeError, match="integer d and N"):
        certificate_from_rows(d, n, 7, ())


def test_certificate_d_is_bounded_before_any_weight_is_built(monkeypatch):
    # d^2 End weights of length N: d = 1000 at N = 1024 would take tens of GB.
    monkeypatch.setattr("charpflag.certificate.tautological_weights", None)
    for d, n in ((65, 128), (1000, 1024)):
        with pytest.raises(RankRangeError, match=f"^certificate d = {d} exceeds the bound 64$"):
            check_equivariant_smoothness(d, n, 5)
        with pytest.raises(RankRangeError, match="exceeds the bound 64"):
            certificate_from_rows(d, n, 5, ())


def test_a_certificate_takes_its_own_rows_only():
    # d^2 rows, each with a weight of GL(N); anything else is not this
    # certificate's case analysis, and a typed error, not a verdict.
    rows = check_equivariant_smoothness(2, 4, 5).rows
    with pytest.raises(DimensionMismatchError, match="takes 4 End rows, got 0"):
        certificate_from_rows(2, 4, 5, [])
    with pytest.raises(DimensionMismatchError, match="takes 9 End rows, got 4"):
        certificate_from_rows(3, 6, 5, rows)
    with pytest.raises(DatumMismatchError, match="not a weight of GL\\(9\\)"):
        certificate_from_rows(2, 9, 7, rows)
    assert certificate_from_rows(2, 4, 5, rows) == check_equivariant_smoothness(2, 4, 5)


def test_certificate_at_the_d_bound():
    cert = check_equivariant_smoothness(DENSE_LISTING_MAX, DENSE_LISTING_MAX + 2, 5)
    assert cert.final_verdict == VERDICT_NO_LIFT
    assert len(cert.rows) == DENSE_LISTING_MAX**2


def test_certificate_condition_detail_mentions_omitted_hypothesis():
    cert = check_equivariant_smoothness(2, 5, 5)
    assert cert.condition_iii.holds
    assert "omits this" in cert.condition_iii.detail


@pytest.mark.parametrize("d,n,p", [(2, 4, 5), (3, 7, 7), (4, 12, 13)])
def test_certificates_pickle_round_trip(d, n, p):
    cert = check_equivariant_smoothness(d, n, p)
    back = pickle.loads(pickle.dumps(cert))
    assert back == cert
    assert json.dumps(back.to_json()) == json.dumps(cert.to_json())


def test_certificate_json_schema():
    cert = check_equivariant_smoothness(2, 5, 5)
    payload = cert.to_json()
    assert set(payload) == {"inputs", "rows", "conditions", "assumptions", "rigidity", "verdict"}
    assert payload["inputs"] == {"d": 2, "N": 5, "p": 5}
    assert payload["assumptions"] == ["grassmannian_rigid", "h2_structure_sheaf_vanishes"]
    assert set(payload["conditions"]) == {"i", "ii", "iii"}
    assert set(payload["rigidity"]) == {"mod_p_squared", "char_zero"}
    for row in payload["rows"]:
        assert set(row) == {"weight", "case", "simple_root", "pairing", "h1"}
        assert set(row["h1"]) == {"status", "highest_weight", "undetermined_reason"}
    json.dumps(payload)  # serializable


@pytest.mark.parametrize(
    "field,value",
    [
        ("condition_i", ConditionCheck(holds=False, detail="injected")),
        ("condition_ii", ConditionCheck(holds=False, detail="injected")),
        ("condition_iii", ConditionCheck(holds=False, detail="injected")),
        ("rigidity_mod_p_squared", RigidityVerdict(lift_possible=True)),
        ("rigidity_char_zero", RigidityVerdict(lift_possible=True)),
    ],
)
def test_verdict_is_derived_from_every_check(field, value):
    base = check_equivariant_smoothness(2, 6, 5)
    assert base.final_verdict == VERDICT_NO_LIFT
    cert = rebuilt(base, **{field: value})
    assert cert.final_verdict == VERDICT_INCONCLUSIVE
    assert cert.to_json()["verdict"] == VERDICT_INCONCLUSIVE


# ---------------------------------------------------------------------------
# Soundness guard: undetermined rows never certify


def _undetermined_row(weight):
    return CaseRow(
        weight=weight,
        case_tag=CASE_UPPER_FAR,
        chosen_simple_root=None,
        pairing_value=None,
        h1=H1Status.undetermined("injected for the soundness guard"),
    )


def test_injected_undetermined_row_blocks_the_verdict():
    base = check_equivariant_smoothness(2, 6, 5)
    rows = list(base.rows)
    rows[0] = rebuilt(rows[0], h1=H1Status.undetermined("injected"))
    cert = certificate_from_rows(2, 6, 5, rows)
    assert cert.final_verdict == VERDICT_INCONCLUSIVE


@given(
    st.tuples(*([st.integers(-2, 2)] * 6)),
    st.sampled_from((5, 7, 11)),
)
@settings(max_examples=100)
def test_fuzzed_undetermined_weights_never_certify(coords, p):
    # Weights outside the p(l_i - l_j) shape whose criterion comes back
    # undetermined must always force an inconclusive certificate.
    d = make_datum("GL", 6)
    w = d.weight(coords)
    if andersen_h1(w, p).status != "undetermined":
        return
    base = check_equivariant_smoothness(2, 6, p)
    assert base.final_verdict == VERDICT_NO_LIFT
    rows = list(base.rows)
    rows[-1] = _undetermined_row(w)
    cert = certificate_from_rows(2, 6, p, rows)
    assert cert.final_verdict == VERDICT_INCONCLUSIVE
    assert not cert.condition_ii.holds


def test_nonzero_highest_weight_rows_never_certify():
    # A nonzero largest weight (not the trivial module) also degrades the
    # aggregate and the verdict.
    d = make_datum("GL", 6)
    base = check_equivariant_smoothness(2, 6, 5)
    bad = CaseRow(
        weight=d.weight((5, 0, -5, 0, 0, 0)),
        case_tag=CASE_UPPER_FAR,
        chosen_simple_root=None,
        pairing_value=None,
        h1=H1Status.nonzero(d.weight((1, 0, 0, 0, 0, 0))),
    )
    assert base.final_verdict == VERDICT_NO_LIFT
    rows = list(base.rows)
    rows[-1] = bad
    cert = certificate_from_rows(2, 6, 5, rows)
    assert cert.final_verdict == VERDICT_INCONCLUSIVE


def test_the_soundness_guard_overrules_conditions_that_hold():
    # Built directly: every condition holds and rigidity rules out a lift,
    # yet one row is undetermined, so the verdict is still inconclusive.
    base = check_equivariant_smoothness(2, 6, 5)
    held = ConditionCheck(holds=True, detail="held")
    row = _undetermined_row(make_datum("GL", 6).weight((0, 2, 0, 0, 0, 0)))
    cert = Certificate(
        d=2,
        N=6,
        p=5,
        rows=base.rows + (row,),
        condition_i=held,
        condition_ii=held,
        condition_iii=held,
        rigidity_mod_p_squared=base.rigidity_mod_p_squared,
        rigidity_char_zero=base.rigidity_char_zero,
    )
    assert cert.rigidity_no_lift
    assert rebuilt(cert, rows=base.rows).final_verdict == VERDICT_NO_LIFT
    assert cert.final_verdict == VERDICT_INCONCLUSIVE


# ---------------------------------------------------------------------------
# The rigidity verdicts: decided once per process and per (procedure, d, p).

_RIGIDITY_CASES = [(2, 4, 5), (2, 9, 5), (3, 7, 7), (5, 8, 11), (6, 10, 23), (12, 14, 13)]


def test_a_certificates_rigidity_verdicts_are_fresh_verdicts():
    for d, n, p in _RIGIDITY_CASES * 2:  # cold, then from the memo
        gl = make_datum("GL", d)
        expected = (
            frobenius_rigidity_verdict(gl, RingChar.prime_power(p, 2)),
            frobenius_rigidity_verdict(gl, RingChar.zero(), p=p),
        )
        checked = check_equivariant_smoothness(d, n, p)
        for cert in (checked, certificate_from_rows(d, n, p, checked.rows)):
            assert (cert.rigidity_mod_p_squared, cert.rigidity_char_zero) == expected
            rigidity = cert.to_json()["rigidity"]
            assert rigidity["mod_p_squared"] == expected[0].to_json()
            assert rigidity["char_zero"] == expected[1].to_json()


def test_a_substituted_rigidity_procedure_is_not_answered_from_the_memo(monkeypatch):
    warm = check_equivariant_smoothness(3, 7, 5)
    assert warm.final_verdict == VERDICT_NO_LIFT
    calls = []

    def substituted(datum, ring_char, p=None):
        calls.append((datum.name, ring_char.kind))
        return RigidityVerdict(lift_possible=True)

    monkeypatch.setattr(certificate, "frobenius_rigidity_verdict", substituted)
    for _ in range(2):  # the second certificate takes the substitute's verdicts
        cert = check_equivariant_smoothness(3, 7, 5)
        assert cert.rigidity_mod_p_squared == RigidityVerdict(lift_possible=True)
        assert cert.final_verdict == VERDICT_INCONCLUSIVE
    assert calls == [("GL(3)", "prime_power"), ("GL(3)", "zero")]
    monkeypatch.undo()
    assert check_equivariant_smoothness(3, 7, 5) == warm


_PRIMES_5_TO_67 = [5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67]


def test_the_rigidity_memo_is_bounded():
    calls = []

    def counting(datum, ring_char, p=None):
        calls.append((datum.rank, ring_char.kind, p or ring_char.p))
        return frobenius_rigidity_verdict(datum, ring_char, p=p)

    memo = certificate._rigidity_verdicts
    keys = [(d, p) for d in range(2, 65) for p in _PRIMES_5_TO_67]  # 1071 keys
    try:
        for d, p in keys:
            memo(counting, d, p)
        assert len(calls) == 2 * len(keys)  # every key decided once
        memo(counting, *keys[-1])  # the most recently used key is kept
        assert len(calls) == 2 * len(keys)
        d, p = keys[0]  # the least recently used key was dropped: decided again
        assert memo(counting, d, p) == (
            frobenius_rigidity_verdict(make_datum("GL", d), RingChar.prime_power(p, 2)),
            frobenius_rigidity_verdict(make_datum("GL", d), RingChar.zero(), p=p),
        )
        assert calls[2 * len(keys) :] == [(d, "prime_power", p), (d, "zero", p)]
        assert memo.cache_info().currsize <= memo.cache_info().maxsize
    finally:
        memo.cache_clear()  # let go of the counting procedure


# ---------------------------------------------------------------------------
# Assembly: conditions (i) and (ii) from each row's own facts


def _reference_conditions(rows):
    # Conditions (i) and (ii) as (holds, detail), read from each row's
    # weight and H^1 status, as the certificate read them before rows
    # carried their dominance.
    off_diagonal = [row.weight for row in rows if not row.weight.is_zero()]
    dominant = [w for w in off_diagonal if is_dominant(w)]
    if dominant:
        detail_i = (
            f"dominant off-diagonal weights {sorted(w.coords for w in dominant)} "
            "contribute unknown H^0 summands"
        )
    else:
        detail_i = (
            f"all {len(off_diagonal)} off-diagonal End weights are non-dominant, so "
            "H^0(X, End) is filtered by trivial modules and H^2(G, -) of a trivial "
            "module vanishes for reductive G"
        )
    statuses = [row.h1 for row in rows]
    if all(st.is_zero for st in statuses):
        aggregate = FiltrationH1.ZERO
    elif all(st.is_zero or st.is_trivial_module for st in statuses):
        aggregate = FiltrationH1.TRIVIAL_MODULE
    else:
        aggregate = FiltrationH1.UNKNOWN
    assert aggregate_h1_statuses(statuses) is aggregate
    detail_ii = f"H^1(X, End) aggregates to '{aggregate.value}' over the line-bundle filtration"
    holds_ii = aggregate in (FiltrationH1.ZERO, FiltrationH1.TRIVIAL_MODULE)
    return ConditionCheck(not dominant, detail_i), ConditionCheck(holds_ii, detail_ii)


def _injected_rows():
    # A dominant p(l_1 - l_N), then a trivial, a non-trivial and an
    # undetermined H^1 on the adjacent weight p(l_2 - l_1).
    gl6 = make_datum("GL", 6)
    dominant = _end_weight(6, 5, 1, 6)
    adjacent = _end_weight(6, 5, 2, 1)
    statuses = (
        H1Status.nonzero(gl6.zero()),
        H1Status.nonzero(gl6.weight((1, 0, 0, 0, 0, 0))),
        H1Status.undetermined("injected"),
    )
    rows = [CaseRow(dominant, CASE_UPPER_FAR, None, None, andersen_h1(dominant, 5))]
    return rows + [CaseRow(adjacent, CASE_ADJACENT, None, None, h1) for h1 in statuses]


def test_conditions_i_and_ii_match_a_reference_on_injected_rows():
    pool = list(check_equivariant_smoothness(3, 6, 5).rows) + _injected_rows()
    rng = random.Random(20261019)
    seen = set()
    for _ in range(300):
        rows = rng.choices(pool, k=9)  # d^2 rows for d = 3
        cert = certificate_from_rows(3, 6, 5, rows)
        cond_i, cond_ii = _reference_conditions(rows)
        assert (cert.condition_i, cert.condition_ii) == (cond_i, cond_ii)
        seen.add((cond_i.holds, cond_ii.detail))
    # Every outcome of both conditions was met.
    assert {holds for holds, _ in seen} == {True, False}
    assert len({detail for _, detail in seen}) == 3


def test_each_row_carries_its_own_weights_dominance():
    rows = list(check_equivariant_smoothness(4, 9, 7).rows) + _injected_rows()
    for row in rows + [pickle.loads(pickle.dumps(row)) for row in rows] + list(map(rebuilt, rows)):
        expected = None if row.weight.is_zero() else is_dominant(row.weight)
        assert row._dominant is expected
    assert [row._dominant for row in _injected_rows()] == [True, False, False, False]


# ---------------------------------------------------------------------------
# Compact JSON: a row's text is made once and spliced into every certificate
# that takes the row.


def _compact(tree):
    return json.dumps(tree, sort_keys=True, separators=(",", ":"))


def test_compact_json_is_json_dumps_over_the_acceptance_sweep():
    for p in (5, 7, 11, 13):
        for n in range(4, 11):
            for d in range(2, n - 1):
                cert = check_equivariant_smoothness(d, n, p)
                assert cert.compact_json() == _compact(cert.to_json())


def test_compact_json_is_json_dumps_on_inconclusive_certificates():
    base = list(check_equivariant_smoothness(3, 6, 5).rows)
    # A reason with a quote, a key-like run, a newline and a non-ASCII letter.
    reason = 'injected "," ,"verdict":"x"\n\u00e9'
    undetermined = base[:4] + [rebuilt(base[4], h1=H1Status.undetermined(reason))] + base[5:]
    dominant = base[:-1] + _injected_rows()[:1]
    certs = [certificate_from_rows(3, 6, 5, rows) for rows in (undetermined, dominant)]
    assert certs[0].rows[4].h1.status == "undetermined"
    assert not certs[1].condition_i.holds
    pool = base + _injected_rows()
    rng = random.Random(20261022)
    certs += [certificate_from_rows(3, 6, 5, rng.choices(pool, k=9)) for _ in range(50)]
    for cert in certs:
        assert cert.compact_json() == _compact(cert.to_json())
    assert {cert.final_verdict for cert in certs} == {VERDICT_INCONCLUSIVE, VERDICT_NO_LIFT}
    assert certs[0].final_verdict == certs[1].final_verdict == VERDICT_INCONCLUSIVE


def test_a_row_rendered_in_two_certificates_is_one_text():
    small, large = check_equivariant_smoothness(2, 9, 11), check_equivariant_smoothness(3, 9, 11)
    shared = [row for row in small.rows if any(row is other for other in large.rows)]
    assert len(shared) == 4  # the memo hands both certificates the same 2 x 2 corner
    small.compact_json()
    texts = [row.compact_json() for row in shared]
    large_text = large.compact_json()
    for row, text in zip(shared, texts):
        assert row.compact_json() is text
        assert text in large_text


def test_a_rows_kept_text_is_not_part_of_its_value():
    row = check_equivariant_smoothness(2, 7, 5).rows[1]
    text = row.compact_json()
    for twin in (rebuilt(row), pickle.loads(pickle.dumps(row))):
        assert twin._json is None
        assert (twin, hash(twin), repr(twin)) == (row, hash(row), repr(row))
        assert twin.compact_json() == text


# ---------------------------------------------------------------------------
# The row memo: each row is classified once per process and per decision
# procedure, with every check, and later certificates take the finished row.


def _counting_h1(calls):
    def counting(mu, p):
        calls.append(mu.coords)
        return andersen_h1(mu, p)

    return counting


def test_a_substituted_decision_procedure_is_not_answered_from_the_memo(monkeypatch, capsys):
    warm = check_equivariant_smoothness(4, 8, 7)
    assert warm.final_verdict == VERDICT_NO_LIFT
    injected = H1Status.undetermined("injected")
    target = _end_weight(8, 7, 1, 3)  # the upper far row p(l_1 - l_3)

    def substituted(mu, p):
        return injected if mu == target else andersen_h1(mu, p)

    monkeypatch.setattr(certificate, "andersen_h1", substituted)
    cert = check_equivariant_smoothness(4, 8, 7)
    assert cert.final_verdict == VERDICT_INCONCLUSIVE
    assert [row.h1 for row in cert.rows if row.weight == target] == [injected]
    assert cli.main(["grassmann-check", "--d", "4", "--N", "8", "--p", "7"]) == 2
    assert "inconclusive" in capsys.readouterr().out


def test_the_memo_decides_each_far_row_once(monkeypatch):
    calls = []
    monkeypatch.setattr(certificate, "andersen_h1", _counting_h1(calls))
    sizes = list(range(2, 9))
    random.Random(20261019).shuffle(sizes)
    built = {d: json.dumps(check_equivariant_smoothness(d, 10, 7).to_json()) for d in sizes}
    # Every row is decided once: the d = 8 corner holds the diagonal row,
    # the zero weight, and 8 * 8 - 8 = 56 off-diagonal rows.
    assert len(calls) == 1 + 56
    off_diagonal = [c for c in calls if any(c)]
    assert (len(off_diagonal), len(set(off_diagonal))) == (56, 56)
    for d in sizes:
        monkeypatch.setattr(certificate, "andersen_h1", _counting_h1([]))
        assert json.dumps(check_equivariant_smoothness(d, 10, 7).to_json()) == built[d]


_ORDER_CASES = [
    (d, n, p)
    for d in list(range(2, 17)) + [DENSE_LISTING_MAX]
    for n, p in ((d + 2, 5), (2 * d + 3, 13))
]


def test_the_rows_follow_the_pipelines_filtration_order():
    # The order is read once per d on Gr(d, d + 2); it must be the order of
    # the twisted End bundle on every Gr(d, N) at every p.
    for warm in (False, True):
        for d, n, p in _ORDER_CASES:
            if not warm:
                certificate._row_memo.clear()
                certificate._row_order.cache_clear()
            expected = pullback_filtration(
                end_weights(frobenius_twist(tautological_weights(d, n), p))
            )
            rows = check_equivariant_smoothness(d, n, p).rows
            assert tuple(row.weight for row in rows) == expected, (d, n, p, warm)


def _kept_rows():
    # (datum, p, i, j, row) for every kept row; i = j = 0 on the diagonal.
    for (_, datum, p), table in certificate._row_memo.items():
        for index, row in table.items():
            yield (datum, p, *divmod(index, 256), row)


def _kept(procedure, datum, p, i, j):
    return certificate._row_memo.get((procedure, datum, p), {}).get(i * 256 + j)


def test_a_row_whose_closed_form_check_failed_is_never_stored(monkeypatch):
    certificate._row_memo.clear()
    bad = _end_weight(8, 7, 2, 1)  # the adjacent row p(l_2 - l_1)

    def labels(lam):
        found = dynkin_labels(lam)
        return {k: c + 1 for k, c in found.items()} if lam == bad else found

    monkeypatch.setattr("charpflag.certificate.dynkin_labels", labels)
    with pytest.raises(InternalInconsistencyError, match="closed form 12"):
        check_equivariant_smoothness(3, 8, 7)
    datum = bad.datum
    assert _kept(andersen_h1, datum, 7, 2, 1) is None
    assert certificate._row_memo  # the rows before it passed their checks
    assert all(kept[-1].weight != bad for kept in _kept_rows())
    monkeypatch.undo()
    cert = check_equivariant_smoothness(3, 8, 7)
    assert _kept(andersen_h1, datum, 7, 2, 1).weight == bad
    certificate._row_memo.clear()
    assert check_equivariant_smoothness(3, 8, 7) == cert


def _memo_count():
    # A row counts 1 + N for its weight of GL(N).
    return sum(len(table) * (1 + key[1].rank) for key, table in certificate._row_memo.items())


def test_a_partly_filled_table_gives_the_certificate_a_cold_memo_gives():
    rng = random.Random(20261019)
    datum = make_datum("GL", 9)
    for p in (5, 13):
        certificate._row_memo.clear()
        cold = check_equivariant_smoothness(6, 9, p)
        expected = json.dumps(cold.to_json())
        for _ in range(4):
            # Tables filled by smaller certificates, then with rows taken out.
            certificate._row_memo.clear()
            for d in rng.sample(range(2, 6), rng.randrange(1, 5)):
                check_equivariant_smoothness(d, 9, p)
            table = certificate._row_memo[(andersen_h1, datum, p)]
            for index in rng.sample(sorted(table), rng.randrange(len(table))):
                del table[index]
            cert = check_equivariant_smoothness(6, 9, p)
            assert cert == cold
            assert json.dumps(cert.to_json()) == expected
            assert len(table) == 6 * 6 - 6 + 1
    certificate._row_memo.clear()  # its count was not told of the rows taken out


def test_a_warm_certificate_returns_the_stored_row_objects():
    check_equivariant_smoothness(5, 8, 11)
    table = certificate._row_memo[(andersen_h1, make_datum("GL", 8), 11)]
    keys, _ = certificate._row_order(5)
    rows = check_equivariant_smoothness(5, 8, 11).rows
    assert len(rows) == len(keys) == 25
    assert all(row is table[key] for row, key in zip(rows, keys))


def test_the_memo_keeps_small_tables_past_an_oversized_one(monkeypatch):
    # Gr(64, 66) holds 4,033 rows of count 67: its table alone passes the
    # cap, so it is not kept, and the small tables stay.  Past the cap,
    # whole least recently used tables go first.
    cap = certificate._ROW_MEMO_MAX
    certificate._row_memo.clear()
    classified = []

    def counting(mu, p):
        classified.append(mu)
        return classify_weight(mu, p)

    monkeypatch.setattr(certificate, "classify_weight", counting)

    def run(d, n, p):
        before = len(classified)
        check_equivariant_smoothness(d, n, p)
        assert certificate._row_memo_size == _memo_count() <= cap
        return len(classified) - before

    assert [run(*case) for case in [(4, 8, 7), (64, 66, 7), (64, 66, 7), (4, 8, 7)]] == [
        13,
        4033,
        4033,
        0,
    ]
    # Gr(3, 1024) keeps 7 rows of count 1025 per prime: the tenth prime
    # passes the cap.  Gr(4, 8) is used after each, so it is never the
    # least recently used.
    primes = (5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    for p in primes:
        assert run(3, 1024, p) == 7
        assert run(4, 8, 7) == 0
    gl1024 = make_datum("GL", 1024)
    assert [key[1:] for key in certificate._row_memo] == [(gl1024, p) for p in primes[1:]] + [
        (make_datum("GL", 8), 7)
    ]
    certificate._row_memo.clear()


def test_a_thread_waits_for_the_memo_while_another_thread_fills_it(monkeypatch):
    # Thread A pauses inside _fill with the memo's lock held; thread B, asking
    # for the same certificate, must wait for the lock and then take A's rows.
    expected = check_equivariant_smoothness(4, 8, 7)
    certificate._row_memo.clear()
    inside, release = threading.Event(), threading.Event()
    results, errors, classified_by_b = {}, [], []

    def pausing(mu, p):
        if threading.current_thread().name == "A":
            inside.set()
            assert release.wait(10)
        else:
            classified_by_b.append(mu)
        return classify_weight(mu, p)

    def work():
        try:
            results[threading.current_thread().name] = check_equivariant_smoothness(4, 8, 7)
        except Exception as exc:  # reported below, from the main thread
            errors.append(exc)

    monkeypatch.setattr(certificate, "classify_weight", pausing)
    a, b = (threading.Thread(target=work, name=name) for name in "AB")
    try:
        a.start()
        assert inside.wait(10)
        b.start()
        b.join(0.2)
        waiting = b.is_alive()  # on the lock: it neither classified nor returned
    finally:
        release.set()
        a.join(10)
        b.join(10)
    assert not a.is_alive() and not b.is_alive()
    assert errors == []
    assert waiting and classified_by_b == []
    assert results == {"A": expected, "B": expected}
    assert certificate._row_memo_size == _memo_count()
    certificate._row_memo.clear()


def test_threads_sharing_the_memo_get_the_certificates_one_thread_gets(monkeypatch):
    # A small cap, so that tables are dropped while other threads hold theirs.
    cases = [(d, n, p) for p in (5, 7) for n in (8, 9) for d in range(2, n - 1)]
    expected = {case: check_equivariant_smoothness(*case) for case in cases}
    monkeypatch.setattr(certificate, "_ROW_MEMO_MAX", 200)
    certificate._row_memo.clear()
    errors = []

    def work(seed):
        order = random.Random(seed).sample(cases * 30, len(cases) * 30)
        try:
            for case in order:
                assert check_equivariant_smoothness(*case) == expected[case], case
        except Exception as exc:  # reported below, from the main thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(seed,)) for seed in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert [t.is_alive() for t in threads] == [False] * 6
    assert errors == []
    assert certificate._row_memo_size == _memo_count() <= 200  # no update was lost
    certificate._row_memo.clear()


def test_the_memo_is_bounded_and_a_clear_keeps_the_bytes(monkeypatch):
    # One certificate at the d bound holds 64^2 - 63 = 4,033 distinct rows
    # of count 67 each, more than four times what the memo keeps.
    cap = certificate._ROW_MEMO_MAX
    certificate._row_memo.clear()
    sizes = []

    def observing(mu, p):
        sizes.append(sum(1 for _ in _kept_rows()))
        return andersen_h1(mu, p)

    monkeypatch.setattr(certificate, "andersen_h1", observing)
    d, n = DENSE_LISTING_MAX, DENSE_LISTING_MAX + 2
    primes = (5, 7)
    first = []
    for p in primes:
        first.append(json.dumps(check_equivariant_smoothness(d, n, p).to_json()))
        assert certificate._row_memo == {}  # the table alone passes the cap: not kept
    again = [json.dumps(check_equivariant_smoothness(d, n, p).to_json()) for p in primes]
    assert again == first
    assert len(sizes) == 4 * (d * d - d + 1)  # every row decided again
    assert max(sizes) <= cap // (1 + n)
    assert _memo_count() <= cap


_FILL_GRID = [(d, n, p) for p in (5, 7, 11, 13) for n in range(4, 11) for d in range(2, n - 1)]


def test_the_memo_fill_order_never_changes_a_byte():
    cold = []
    for d, n, p in _FILL_GRID:
        certificate._row_memo.clear()
        cold.append(json.dumps(check_equivariant_smoothness(d, n, p).to_json()))
    for d, n, p in reversed(_FILL_GRID):
        check_equivariant_smoothness(d, n, p)
    for (d, n, p), expected in zip(_FILL_GRID, cold):
        cert = check_equivariant_smoothness(d, n, p)
        assert json.dumps(cert.to_json()) == expected
        for row in cert.rows:
            fresh = Weight(row.weight.coords, row.weight.datum)
            assert dynkin_labels(row.weight) == dynkin_labels(fresh)
            assert row.h1 == andersen_h1(fresh, p)
    # Each kept row is the row its key names, with every check passed again.
    for datum, p, i, j, row in _kept_rows():
        mu = _end_weight(datum.rank, p, i, j) if i else datum.zero()
        assert row == classify_weight(mu, p)


def test_the_memo_count_stays_under_its_cap_and_a_clear_keeps_the_bytes(monkeypatch):
    # Gr(3, 1024) keeps 7 distinct rows of count 1 + 1024 per prime: nine
    # primes pass the cap.
    certificate._row_memo.clear()
    counts = []

    def observing(mu, p):
        counts.append(certificate._row_memo_size)
        return andersen_h1(mu, p)

    monkeypatch.setattr(certificate, "andersen_h1", observing)
    cases = [(3, 1024, p) for p in (5, 7, 11, 13, 17, 19, 23, 29, 31, 37)]
    cases += [(64, 66, 5)]
    first = []
    for case in cases:
        first.append(json.dumps(check_equivariant_smoothness(*case).to_json()))
        counts.append(certificate._row_memo_size)
        assert counts[-1] == _memo_count()
    # The tenth prime's table pushed out the least recently used, the first's.
    assert [key[2] for key in certificate._row_memo] == [7, 11, 13, 17, 19, 23, 29, 31, 37]
    assert max(counts) <= certificate._ROW_MEMO_MAX
    certificate._row_memo.clear()
    assert [json.dumps(check_equivariant_smoothness(*case).to_json()) for case in cases] == first


def test_a_substituted_labels_function_never_fills_the_memo(monkeypatch):
    certificate._row_memo.clear()
    monkeypatch.setattr(
        "charpflag.certificate.dynkin_labels",
        lambda lam: {k: c + 1 for k, c in dynkin_labels(lam).items()},
    )
    # The first row of Gr(4, 8) is the lower far p(l_3 - l_1): its check fails.
    with pytest.raises(InternalInconsistencyError, match="closed form 5"):
        check_equivariant_smoothness(4, 8, 7)
    assert certificate._row_memo == {}
    monkeypatch.undo()
    cert = check_equivariant_smoothness(4, 8, 7)
    assert cert.final_verdict == VERDICT_NO_LIFT
    assert sum(1 for _ in _kept_rows()) == 4 * 4 - 4 + 1
    for row in cert.rows:
        fresh = Weight(row.weight.coords, row.weight.datum)
        assert dynkin_labels(row.weight) == dynkin_labels(fresh)


# ---------------------------------------------------------------------------
# Conditions (i) and (ii) from the row table: a certificate whose corner
# holds no unexpected dominance fact reads both from the table's corners;
# it must be the certificate the scan in ``certificate_from_rows`` builds.

_AGREEMENT_GRID = [(d, n, p) for p in (5, 7, 11) for n in range(4, 13) for d in range(2, n - 1)]


def _assert_the_scan_agrees(cert):
    scanned = certificate_from_rows(cert.d, cert.N, cert.p, cert.rows)
    assert cert == scanned
    assert json.dumps(cert.to_json()) == json.dumps(scanned.to_json())


@pytest.fixture
def counted_scans(monkeypatch):
    """The (d, N, p) of each certificate that ``check_equivariant_smoothness`` scans."""
    scans = []

    def counting(d, n, p, rows):
        scans.append((d, n, p))
        return certificate_from_rows(d, n, p, rows)

    monkeypatch.setattr(certificate, "certificate_from_rows", counting)
    certificate._row_memo.clear()
    yield scans
    certificate._row_memo.clear()  # no injected row outlives the test


def test_the_table_path_and_the_scan_agree(counted_scans):
    cases = random.Random(20261020).sample(_AGREEMENT_GRID, len(_AGREEMENT_GRID))
    for _ in range(2):  # in a shuffled order, then warm
        for case in cases:
            _assert_the_scan_agrees(check_equivariant_smoothness(*case))
    assert counted_scans == []  # no genuine row holds an unexpected fact


# (name, (i, j) of the row replaced, the replacement, whether its corner is scanned)
_INJECTIONS = [
    (
        "dominant off-diagonal weight",
        (5, 2),
        lambda row, gl, p: rebuilt(row, weight=_end_weight(gl.rank, p, 1, gl.rank)),
        True,
    ),
    (
        "zero weight off the diagonal",
        (2, 6),
        lambda row, gl, p: rebuilt(row, weight=gl.zero()),
        True,
    ),
    (
        "dominance fact at the diagonal key",
        (0, 0),
        lambda row, gl, p: rebuilt(row, weight=_end_weight(gl.rank, p, 2, 1)),
        True,
    ),
    (
        "undetermined H^1",
        (4, 1),
        lambda row, gl, p: rebuilt(row, h1=H1Status.undetermined("injected")),
        False,
    ),
    (
        "nonzero largest weight",
        (3, 5),
        lambda row, gl, p: rebuilt(row, h1=H1Status.nonzero(gl.fundamental_character(1))),
        False,
    ),
]


@pytest.mark.parametrize("name, ij, inject, scanned", _INJECTIONS, ids=[c[0] for c in _INJECTIONS])
def test_an_injected_row_gives_the_certificate_the_scan_gives(
    monkeypatch, counted_scans, name, ij, inject, scanned
):
    # Every certificate of Gr(d, 10) at p = 7, with the row at (i, j)
    # replaced as its table is filled: those whose corner d holds it differ
    # from the genuine certificate, the others do not and are never scanned.
    n, p = 10, 7
    gl = make_datum("GL", n)
    i, j = ij
    corner = max(ij)
    target = _end_weight(n, p, i, j) if i else gl.zero()
    expected = {d: check_equivariant_smoothness(d, n, p) for d in range(2, n - 1)}
    certificate._row_memo.clear()

    def injecting(mu, q):
        row = classify_weight(mu, q)
        return inject(row, gl, q) if mu == target else row

    monkeypatch.setattr(certificate, "classify_weight", injecting)
    sizes = random.Random(20261020).sample(range(2, n - 1), n - 3)
    for _ in range(2):  # cold, then warm
        for d in sizes:
            del counted_scans[:]
            cert = check_equivariant_smoothness(d, n, p)
            _assert_the_scan_agrees(cert)
            if d < corner:  # the injected row is not in this corner
                assert cert == expected[d]
                assert counted_scans == []
            else:
                assert cert != expected[d]
                assert counted_scans == ([(d, n, p)] if scanned else [])
