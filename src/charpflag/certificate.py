"""Non-liftability certificates for projectivized Frobenius twists on Gr(d, N).

For parameters (d, N, p) with 2 <= d <= N-2 and p >= 5 the pipeline
assembles the endomorphism-bundle weights p(l_i - l_j) of the twisted
tautological bundle, classifies each one through a four-case H^1 analysis
(diagonal / i<j / i>j+1 / i=j+1), evaluates the three smoothness
conditions of the equivariant-deformation comparison, obtains the
Frobenius rigidity verdicts over length-two Witt vectors and over
characteristic zero, and emits a structured certificate whose final
verdict is ``no_lift_where_p_nonzero`` only when every check passes.

Any undetermined H^1 row degrades the verdict to ``inconclusive``; the
certificate never overstates a vanishing claim.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from typing import Iterable, Optional

from .arith import require_prime
from .errors import (
    InternalInconsistencyError,
    NotPrimeError,
    RankRangeError,
    WeightShapeError,
)
from .bundles import (
    _check_grassmannian,
    end_weights,
    frobenius_twist,
    pullback_filtration,
    tautological_weights,
)
from .cohomology import (
    FiltrationH1,
    H1Status,
    aggregate_h1_statuses,
    andersen_h1,
)
from .lattice import DENSE_LISTING_MAX, Root, Weight, dynkin_labels, is_dominant, make_datum
from .rootmorph import RigidityVerdict, RingChar, frobenius_rigidity_verdict

CASE_DIAGONAL = "diagonal"
CASE_UPPER_FAR = "upper_far"
CASE_LOWER_FAR = "lower_far"
CASE_ADJACENT = "adjacent"

STANDING_ASSUMPTIONS = ("grassmannian_rigid", "h2_structure_sheaf_vanishes")

VERDICT_NO_LIFT = "no_lift_where_p_nonzero"
VERDICT_INCONCLUSIVE = "inconclusive"

# Off-diagonal H^1 statuses without a largest weight, by (andersen_h1, datum,
# p, i, j); emptied at the cap.  See ``classify_weight``.
_H1_MEMO_MAX = 1 << 14
_h1_memo: dict = {}


@dataclass(frozen=True, slots=True, init=False)
class CaseRow:
    """One End-bundle weight with its case tag and H^1 classification."""

    weight: Weight
    case_tag: str
    chosen_simple_root: Optional[Root]
    pairing_value: Optional[int]
    h1: H1Status

    def __init__(self, weight, case_tag, chosen_simple_root, pairing_value, h1):
        # Each slot is set once through its descriptor: a generated frozen
        # ``__init__`` would call ``object.__setattr__`` once per field.
        _set_row_weight(self, weight)
        _set_row_case(self, case_tag)
        _set_row_root(self, chosen_simple_root)
        _set_row_pairing(self, pairing_value)
        _set_row_h1(self, h1)

    def to_json(self) -> dict:
        return {
            "weight": self.weight.to_json(),
            "case": self.case_tag,
            "simple_root": None
            if self.chosen_simple_root is None
            else self.chosen_simple_root.vector.to_json(),
            "pairing": self.pairing_value,
            "h1": self.h1.to_json(),
        }


_set_row_weight = CaseRow.weight.__set__
_set_row_case = CaseRow.case_tag.__set__
_set_row_root = CaseRow.chosen_simple_root.__set__
_set_row_pairing = CaseRow.pairing_value.__set__
_set_row_h1 = CaseRow.h1.__set__


@dataclass(frozen=True, slots=True)
class ConditionCheck:
    holds: bool
    detail: str

    def to_json(self) -> dict:
        return {"holds": self.holds, "detail": self.detail}


@dataclass(frozen=True, slots=True)
class Certificate:
    """Structured record of the full case analysis and the final verdict."""

    d: int
    N: int
    p: int
    rows: tuple[CaseRow, ...]
    condition_i: ConditionCheck
    condition_ii: ConditionCheck
    condition_iii: ConditionCheck
    rigidity_mod_p_squared: RigidityVerdict
    rigidity_char_zero: RigidityVerdict
    assumptions: tuple[str, ...] = STANDING_ASSUMPTIONS

    @property
    def rigidity_no_lift(self) -> bool:
        return not (
            self.rigidity_mod_p_squared.lift_possible or self.rigidity_char_zero.lift_possible
        )

    @property
    def final_verdict(self) -> str:
        """``no_lift_where_p_nonzero`` iff every condition and both rigidity checks pass."""
        if any(row.h1.status == "undetermined" for row in self.rows):
            return VERDICT_INCONCLUSIVE  # soundness guard, whatever the conditions say
        conditions = (self.condition_i, self.condition_ii, self.condition_iii)
        holds = all(c.holds for c in conditions) and self.rigidity_no_lift
        return VERDICT_NO_LIFT if holds else VERDICT_INCONCLUSIVE

    def to_json(self) -> dict:
        return {
            "inputs": {"d": self.d, "N": self.N, "p": self.p},
            "rows": [row.to_json() for row in self.rows],
            "conditions": {
                "i": self.condition_i.to_json(),
                "ii": self.condition_ii.to_json(),
                "iii": self.condition_iii.to_json(),
            },
            "assumptions": list(self.assumptions),
            "rigidity": {
                "mod_p_squared": self.rigidity_mod_p_squared.to_json(),
                "char_zero": self.rigidity_char_zero.to_json(),
            },
            "verdict": self.final_verdict,
        }


def classify_weight(mu: Weight, p: int) -> CaseRow:
    """Classify one End-bundle weight mu = p(l_i - l_j) into its case row.

    Records the case's standard simple root (l_j - l_{j+1} for i < j,
    l_{i-1} - l_i for i > j, none on the diagonal), the pairing of the
    dot-reflected weight with that root, and the H^1 status of mu.  An
    off-diagonal status without a largest weight (every far row) is decided
    once per process and taken from ``_h1_memo`` afterwards.  The pairing is
    read from the labels of mu and checked against its closed form, p - 2
    for the far cases and 2p - 2 for the adjacent case; a mismatch raises
    ``InternalInconsistencyError``.
    """
    require_prime(p)
    datum = mu.datum
    if datum.family != "GL":
        raise WeightShapeError(f"End-weight classification expects a GL datum, got {datum.name}")
    coords = mu.coords
    support = list(compress(range(len(coords)), coords))
    if not support:
        return CaseRow(mu, CASE_DIAGONAL, None, None, andersen_h1(mu, p))
    # The shape p(l_i - l_j): exactly two nonzero coordinates, p and -p.
    a, b = support[0], support[-1]
    x = coords[a]
    if len(support) != 2 or x + coords[b] or (x != p and x != -p):
        raise WeightShapeError(
            f"{mu!r} is not of the shape p(l_i - l_j) for p = {p}"
        )
    i, j = (a + 1, b + 1) if x == p else (b + 1, a + 1)
    if i < j:
        case = CASE_UPPER_FAR
        if j >= datum.rank:
            raise WeightShapeError(
                f"case i < j needs the simple root l_{j} - l_{j + 1}, "
                f"which does not exist in {datum.name}"
            )
        k = j - 1
        expected = p - 2
    elif i == j + 1:
        case = CASE_ADJACENT
        k = i - 2
        expected = 2 * p - 2
    else:
        case = CASE_LOWER_FAR
        k = i - 2
        expected = p - 2
    # Keyed by the procedure too, so a substituted one decides for itself.
    key = (andersen_h1, datum, p, i, j)
    h1 = _h1_memo.get(key)
    if h1 is None:
        h1 = andersen_h1(mu, p)
        if h1.highest_weight is None:  # an N-coordinate weight is never kept
            if len(_h1_memo) >= _H1_MEMO_MAX:
                _h1_memo.clear()
            _h1_memo[key] = h1
    # <s_alpha . mu, alpha^vee> = -<mu, alpha^vee> - 2, from the labels of mu.
    value = -dynkin_labels(mu).get(k, 0) - 2
    if value != expected:
        raise InternalInconsistencyError(f"pairing {value} != closed form {expected} for {mu!r}")
    return CaseRow(mu, case, datum.simple_roots[k], value, h1)


def _validate_parameters(d: int, n: int, p: int) -> None:
    _check_grassmannian(d, n, "certificate")
    if d > DENSE_LISTING_MAX:
        # A certificate holds d^2 End weights of length N.
        raise RankRangeError(f"certificate d = {d} exceeds the bound {DENSE_LISTING_MAX}")
    require_prime(p)
    if p < 5:
        raise NotPrimeError(f"certificate supports p >= 5 only, got p = {p}")


def certificate_from_rows(d: int, n: int, p: int, rows: Iterable[CaseRow]) -> Certificate:
    """Assemble a certificate from already-classified rows.

    Exposed separately so the soundness guard can be exercised with
    fault-injected rows; ``check_equivariant_smoothness`` is the normal
    entry point.
    """
    _validate_parameters(d, n, p)
    rows = tuple(rows)

    off_diagonal = 0
    dominant_off = []
    for row in rows:
        w = row.weight
        if not w.is_zero():
            off_diagonal += 1
            if is_dominant(w):
                dominant_off.append(w)
    cond_i = ConditionCheck(
        holds=not dominant_off,
        detail=(
            f"all {off_diagonal} off-diagonal End weights are non-dominant, so "
            "H^0(X, End) is filtered by trivial modules and H^2(G, -) of a trivial "
            "module vanishes for reductive G"
            if not dominant_off
            else f"dominant off-diagonal weights {sorted(w.coords for w in dominant_off)} "
            "contribute unknown H^0 summands"
        ),
    )

    aggregate = aggregate_h1_statuses([row.h1 for row in rows])
    cond_ii = ConditionCheck(
        holds=aggregate in (FiltrationH1.ZERO, FiltrationH1.TRIVIAL_MODULE),
        detail=f"H^1(X, End) aggregates to '{aggregate.value}' over the line-bundle filtration",
    )

    cond_iii = ConditionCheck(
        holds=True,
        detail=(
            "H^1(G, k) = 0 holds for every reductive group, in particular GL_N; "
            "the two-condition summary form of the smoothness criterion omits this "
            "hypothesis, so it is recorded explicitly here"
        ),
    )

    rig_p2 = frobenius_rigidity_verdict(make_datum("GL", d), RingChar.prime_power(p, 2))
    rig_zero = frobenius_rigidity_verdict(make_datum("GL", d), RingChar.zero(), p=p)
    return Certificate(
        d=d,
        N=n,
        p=p,
        rows=rows,
        condition_i=cond_i,
        condition_ii=cond_ii,
        condition_iii=cond_iii,
        rigidity_mod_p_squared=rig_p2,
        rigidity_char_zero=rig_zero,
    )


def check_equivariant_smoothness(d: int, n: int, p: int) -> Certificate:
    """Full non-liftability certificate for P(F*S) on Gr(d, N) at prime p.

    Classifies all d^2 weights of End(F*S), evaluates the three
    smoothness conditions, and combines them with the Frobenius rigidity
    verdicts over Witt length two and characteristic zero.
    """
    _validate_parameters(d, n, p)
    twisted = frobenius_twist(tautological_weights(d, n), p)
    filtration = pullback_filtration(end_weights(twisted))
    rows = tuple(classify_weight(mu, p) for mu in filtration)
    if len(rows) != d * d:
        raise InternalInconsistencyError(f"{len(rows)} End weights classified, expected {d * d}")
    return certificate_from_rows(d, n, p, rows)
