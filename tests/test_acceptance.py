"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
All checks are exact (integer arithmetic, zero tolerance).
"""

import random
import time

from charpflag import (
    H1Status,
    RingChar,
    VERDICT_INCONCLUSIVE,
    VERDICT_NO_LIFT,
    andersen_h1,
    bwb_char0,
    certificate_from_rows,
    check_equivariant_smoothness,
    dot_reflect,
    frobenius_rigidity_verdict,
    is_dominant,
    make_datum,
    make_torus,
    pairing,
    reflect,
    validate_p_morphism,
    weyl_dim,
    weyl_group,
)
from charpflag.certificate import CASE_ADJACENT, CASE_DIAGONAL
from charpflag.cohomology import _digits
from charpflag.cli import main

from conftest import rebuilt, scalar_p_morphism

PRIMES = (5, 7, 11, 13)

FAMILY_MIN_RANK = {"GL": 2, "SL": 2, "Sp": 2, "SO_odd": 2, "SO_even": 2}


def _report(number: int, ok: bool, text: str) -> None:
    print(f"[criterion {number}] {'PASS' if ok else 'FAIL'}: {text}")
    assert ok, f"criterion {number} failed: {text}"


def _random_weight(rng: random.Random, datum, bound=40):
    coords = [rng.randint(-bound, bound) for _ in range(datum.rank)]
    if datum.family == "SO_odd":
        parity = rng.randint(0, 1)
        coords = [2 * c + parity for c in coords]
    return datum.weight(coords)


def test_criterion_1_paper_case_reproduction():
    start = time.perf_counter()
    certificates = 0
    for p in PRIMES:
        for n in range(4, 11):
            for d in range(2, n - 1):
                cert = check_equivariant_smoothness(d, n, p)
                assert cert.final_verdict == VERDICT_NO_LIFT, (d, n, p)
                for row in cert.rows:
                    if row.case_tag == CASE_DIAGONAL:
                        assert row.h1.is_zero, (d, n, p, row)
                    elif row.case_tag == CASE_ADJACENT:
                        assert row.h1.status == "nonzero", (d, n, p, row)
                        assert row.h1.highest_weight.is_zero(), (d, n, p, row)
                    else:  # upper_far / lower_far
                        assert row.h1.is_zero, (d, n, p, row)
                certificates += 1
    elapsed = time.perf_counter() - start
    _report(
        1,
        elapsed < 5.0,
        f"{certificates} certificates over p in {PRIMES}, N <= 10 all report "
        f"no_lift_where_p_nonzero with the four-case row pattern ({elapsed:.2f} s)",
    )


def test_criterion_2_exact_in_proof_arithmetic():
    checked = 0
    for p in PRIMES:
        assert _digits(2 * p - 2, p) == [p - 2, 1], p
        for n in (6, 8, 10):
            for d in (2, 3, 4):
                if d > n - 2:
                    continue
                cert = check_equivariant_smoothness(d, n, p)
                for row in cert.rows:
                    if row.case_tag == CASE_DIAGONAL:
                        continue
                    expected = 2 * p - 2 if row.case_tag == CASE_ADJACENT else p - 2
                    assert row.pairing_value == expected, (p, n, d, row)
                    checked += 1
    _report(
        2,
        True,
        f"{checked} recorded pairings equal p-2 / 2p-2 exactly; "
        "base-p digits of 2p-2 are [p-2, 1] for all tested p",
    )


def test_criterion_3_involutions_and_root_permutation():
    rng = random.Random(20260810)
    datums = []
    for family, min_rank in FAMILY_MIN_RANK.items():
        for n in range(min_rank, 9):
            datums.append(make_datum(family, n))
    weights = 0
    while weights < 10_000:
        datum = rng.choice(datums)
        w = _random_weight(rng, datum)
        alpha = rng.choice(datum.roots)
        assert reflect(reflect(w, alpha), alpha) == w
        simple = rng.choice(datum.simple_roots)
        assert dot_reflect(dot_reflect(w, simple), simple) == w
        weights += 1
    permutation_checks = 0
    for datum in datums:
        vectors = {r.vector for r in datum.roots}
        for alpha in datum.simple_roots:
            assert {reflect(b.vector, alpha) for b in datum.roots} == vectors
            permutation_checks += 1
    _report(
        3,
        True,
        f"reflect/dot-reflect involutions on {weights} random weights over ranks 2-8 "
        f"(5 families) and {permutation_checks} simple-root permutation checks, zero failures",
    )


def test_criterion_4_char0_oracle_coherence():
    rng = random.Random(77)
    matched = 0
    attempts = 0
    while matched < 500:
        attempts += 1
        assert attempts < 50_000, "sampling is not converging"
        n = rng.randint(2, 6)
        datum = make_datum("GL", n)
        lam = datum.weight(sorted((rng.randint(-6, 6) for _ in range(n)), reverse=True))
        alpha = rng.choice(datum.simple_roots)
        p = rng.choice(PRIMES)
        c = pairing(lam, alpha)
        if not 0 < c < p - 1:
            continue  # need part a) with exponent zero: c + 1 = a < p
        mu = dot_reflect(lam, alpha)
        assert not is_dominant(mu)
        status = andersen_h1(mu, p)
        oracle = bwb_char0(mu)
        assert status.status == "nonzero", (mu, p)
        assert oracle.degree == 1, (mu, p)
        assert status.highest_weight == oracle.highest_weight, (mu, p)
        matched += 1
    _report(
        4,
        True,
        f"{matched} generic-region weights: Andersen part a) n=0 highest weight equals "
        "the degree-one Borel-Weil-Bott weight, zero mismatches",
    )


def test_criterion_5_weyl_machinery():
    import math

    for n in range(1, 7):
        assert len(weyl_group(make_datum("GL", n))) == math.factorial(n), n
    gl2 = make_datum("GL", 2)
    assert weyl_dim(gl2.weight((1, 0))) == 2
    for n in (1, 2, 3, 5, 9):
        assert weyl_dim(gl2.weight((n, 0))) == n + 1
    assert weyl_dim(make_datum("GL", 3).weight((1, 1, 0))) == 3
    _report(
        5,
        True,
        "|W(GL(n))| = n! for n <= 6; Weyl dimensions 2 / n+1 / 3 on the standard, "
        "symmetric-power, and exterior-square cases",
    )


def test_criterion_6_rigidity_verdicts():
    families = [("GL", n) for n in range(2, 6)]
    families += [("SL", n) for n in range(2, 6)]
    families += [("Sp", n) for n in range(2, 6)]
    families += [("SO_odd", n) for n in range(2, 6)]
    families += [("SO_even", n) for n in range(2, 6)]
    checked = 0
    for family, n in families:
        datum = make_datum(family, n)
        for p in (5, 7):
            assert validate_p_morphism(
                scalar_p_morphism(datum, p, RingChar.prime(p))
            ).valid, (family, n, p)
            assert frobenius_rigidity_verdict(datum, RingChar.prime(p)).lift_possible
            for ring in (RingChar.zero(), RingChar.prime_power(p, 2)):
                data = scalar_p_morphism(datum, p, ring)
                verdict = validate_p_morphism(data)
                assert not verdict.valid, (family, n, p, ring)
                assert all(f.relation == "q_admissible" for f in verdict.failures)
                assert not frobenius_rigidity_verdict(datum, ring, p=p).lift_possible
            checked += 1
    toral = frobenius_rigidity_verdict(make_torus(3), RingChar.prime_power(5, 2))
    assert toral.lift_possible and "toral" in toral.note
    assert frobenius_rigidity_verdict(make_datum("GL", 1), RingChar.zero(), p=5).lift_possible
    _report(
        6,
        True,
        f"Frobenius data valid over F_p and inadmissible over W_2 and characteristic 0 "
        f"for {checked} (family, rank, p) combinations; toral data lift",
    )


def test_criterion_7_soundness_guard(capsys):
    rng = random.Random(99)
    datum = make_datum("GL", 6)
    injected = 0
    attempts = 0
    while injected < 25:
        attempts += 1
        assert attempts < 50_000, "sampling is not converging"
        w = datum.weight([rng.randint(-2, 2) for _ in range(6)])
        p = rng.choice(PRIMES)
        if andersen_h1(w, p).status != "undetermined":
            continue
        base = check_equivariant_smoothness(2, 6, p)
        rows = list(base.rows)
        rows[rng.randrange(len(rows))] = rebuilt(
            rows[0], weight=w, h1=H1Status.undetermined("fuzz-injected row")
        )
        cert = certificate_from_rows(2, 6, p, rows)
        assert cert.final_verdict == VERDICT_INCONCLUSIVE
        assert cert.final_verdict != VERDICT_NO_LIFT
        injected += 1
    exit_code = main(["h1", "--weight", "0,2,0,0", "--p", "5"])
    capsys.readouterr()
    assert exit_code == 2
    _report(
        7,
        True,
        f"{injected} fuzz-injected undetermined rows all yield 'inconclusive', never "
        "a no-lift verdict; the CLI returns exit code 2 on undetermined statuses",
    )
