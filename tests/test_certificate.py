import dataclasses
import json
import pickle
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from charpflag import (
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
    make_datum,
    pairing,
)
from charpflag import certificate, cli, lattice
from charpflag.lattice import DENSE_LISTING_MAX, MAX_RANK, Weight
from charpflag.certificate import (
    CASE_ADJACENT,
    CASE_DIAGONAL,
    CASE_LOWER_FAR,
    CASE_UPPER_FAR,
    CaseRow,
    ConditionCheck,
)


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
        with pytest.raises(dataclasses.FrozenInstanceError):
            row.pairing_value = 0
        assert dataclasses.replace(row) == row
        assert dataclasses.replace(row, case_tag="other").case_tag == "other"
    # The adjacent rows' nonzero H^1 statuses are built the same way.
    nonzero = [row.h1 for row in rows if row.h1.status == "nonzero"]
    assert len(nonzero) == 3
    for status in nonzero:
        built = H1Status("nonzero", highest_weight=status.highest_weight)
        assert (status, hash(status), repr(status)) == (built, hash(built), repr(built))
        with pytest.raises(dataclasses.FrozenInstanceError):
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
    rows[k] = dataclasses.replace(rows[k], weight=dominant)
    cert = certificate_from_rows(2, 6, 5, rows)
    assert not cert.condition_i.holds
    assert "(5, 0, 0, 0, 0, -5)" in cert.condition_i.detail
    assert cert.final_verdict == VERDICT_INCONCLUSIVE


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
    cert = check_equivariant_smoothness(3, 6, 5)
    assert cert.final_verdict == VERDICT_NO_LIFT
    # Labels pair p(l_i - l_j) with the simple roots whose coroot meets
    # coordinate i or j: 2 for {i, j} = {1, 2}, 3 for {1, 3} and for
    # {2, 3}; each pair of indices gives two rows.  The diagonal rows and
    # the adjacent rows' largest weight, 0, have no labels to compute, and
    # each closed-form check reads its row's labels.
    assert len(evaluated) == 2 * (2 + 3 + 3)
    assert len(set(evaluated)) == len(evaluated)


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
    cert = dataclasses.replace(base, **{field: value})
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
    rows[0] = dataclasses.replace(rows[0], h1=H1Status.undetermined("injected"))
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
    cert = certificate_from_rows(2, 6, p, list(base.rows) + [_undetermined_row(w)])
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
    cert = certificate_from_rows(2, 6, 5, list(base.rows) + [bad])
    assert cert.final_verdict == VERDICT_INCONCLUSIVE


# ---------------------------------------------------------------------------
# The far-row H^1 memo: each vanishing row is decided once per process and
# per decision procedure, and every other check still runs on every row.


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
    # Every certificate decides its d diagonal rows and d - 1 adjacent rows;
    # the d = 8 corner holds 8 * 8 - 8 - 7 = 49 far rows, each decided once.
    assert len(calls) == sum(range(2, 9)) + sum(range(1, 8)) + 49
    off_diagonal = [c for c in calls if any(c)]
    assert (len(off_diagonal), len(set(off_diagonal))) == (28 + 49, 7 + 49)
    for d in sizes:
        monkeypatch.setattr(certificate, "andersen_h1", _counting_h1([]))
        assert json.dumps(check_equivariant_smoothness(d, 10, 7).to_json()) == built[d]


def test_a_memo_hit_still_checks_the_closed_form(monkeypatch):
    calls = []
    monkeypatch.setattr(certificate, "andersen_h1", _counting_h1(calls))
    assert classify_weight(_end_weight(8, 7, 4, 2), 7).h1.is_zero  # lower far: kept
    monkeypatch.setattr(
        "charpflag.certificate.dynkin_labels",
        lambda lam: {k: c + 1 for k, c in dynkin_labels(lam).items()},
    )
    with pytest.raises(InternalInconsistencyError, match="closed form 5"):
        classify_weight(_end_weight(8, 7, 4, 2), 7)
    assert len(calls) == 1  # the second row was a hit


def test_the_memo_is_bounded_and_a_clear_keeps_the_bytes(monkeypatch):
    # Five certificates at the d bound hold 5 * (64^2 - 64 - 63) = 19,845 far
    # rows, more than the memo keeps.
    cap = certificate._H1_MEMO_MAX
    sizes = []

    def observing(mu, p):
        sizes.append(len(certificate._h1_memo))
        return andersen_h1(mu, p)

    monkeypatch.setattr(certificate, "andersen_h1", observing)
    d, n = DENSE_LISTING_MAX, DENSE_LISTING_MAX + 2
    primes = (5, 7, 11, 13, 17)
    first = [json.dumps(check_equivariant_smoothness(d, n, p).to_json()) for p in primes]
    assert any(b < a for a, b in zip(sizes, sizes[1:]))  # the memo was emptied
    again = [json.dumps(check_equivariant_smoothness(d, n, p).to_json()) for p in primes]
    assert again == first
    assert max(sizes) <= cap
    assert len(certificate._h1_memo) <= cap
