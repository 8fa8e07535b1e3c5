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

from _thread import allocate_lock
from functools import lru_cache
from itertools import compress
from operator import attrgetter, itemgetter
from typing import Iterable, Optional

from .arith import require_prime
from .errors import (
    DatumMismatchError,
    DimensionMismatchError,
    InternalInconsistencyError,
    NotPrimeError,
    RankRangeError,
    WeightShapeError,
)
from .bundles import (
    _check_grassmannian,
    end_weights,
    pullback_filtration,
    tautological_weights,
)
from .cohomology import (
    _AGGREGATES,
    FiltrationH1,
    H1Status,
    aggregate_h1_statuses,
    andersen_h1,
)
from .lattice import (
    DENSE_LISTING_MAX,
    Root,
    RootDatum,
    Weight,
    _trusted_weight,
    _Value,
    dynkin_labels,
    is_dominant,
    make_datum,
)
from .rootmorph import RigidityVerdict, RingChar, frobenius_rigidity_verdict

CASE_DIAGONAL = "diagonal"
CASE_UPPER_FAR = "upper_far"
CASE_LOWER_FAR = "lower_far"
CASE_ADJACENT = "adjacent"

STANDING_ASSUMPTIONS = ("grassmannian_rigid", "h2_structure_sheaf_vanishes")

VERDICT_NO_LIFT = "no_lift_where_p_nonzero"
VERDICT_INCONCLUSIVE = "inconclusive"

# The finished rows: one _RowTable per (andersen_h1, datum, p), least
# recently used first; and the memo's counted size.  See
# ``check_equivariant_smoothness`` and ``_fill``.
_ROW_MEMO_MAX = 1 << 16
_row_memo: dict = {}
_row_memo_size = 0
_row_lock = allocate_lock()  # threading.Lock, without importing threading


class _RowTable(dict):
    """Finished rows, keyed i * 256 + j for p(l_i - l_j) and 0 for the diagonal.

    ``corners`` holds the least corner max(i, j) of a row stored through
    ``keep`` with each of three properties, or 256, past every corner:
    [0] an unexpected dominance fact (not None at key 0, not False
    elsewhere), [1] an H^1 of kind 1 (a trivial module), [2] one of kind
    2.  The rows of Gr(d, N) are those of corner at most d.
    """

    __slots__ = ("corners",)

    def __init__(self):
        self.corners = [256] * 3

    def keep(self, index: int, row: CaseRow) -> None:
        self[index] = row
        corners = self.corners
        corner = max(divmod(index, 256))
        fact = row._dominant
        if (fact is not False if index else fact is not None) and corner < corners[0]:
            corners[0] = corner
        kind = row.h1._kind
        if kind and corner < corners[kind]:
            corners[kind] = corner


class CaseRow(_Value):
    """One End-bundle weight with its case tag and H^1 classification.

    ``_dominant`` is the fact condition (i) reads: None for a zero weight
    (a diagonal row), else whether the weight is dominant.  The
    constructor sets it from the weight; it takes no part in equality,
    hashing or ``repr``.
    """

    __slots__ = ("weight", "case_tag", "chosen_simple_root", "pairing_value", "h1", "_dominant")
    _fields = ("weight", "case_tag", "chosen_simple_root", "pairing_value", "h1")

    weight: Weight
    case_tag: str
    chosen_simple_root: Optional[Root]
    pairing_value: Optional[int]
    h1: H1Status

    def __init__(self, weight, case_tag, chosen_simple_root, pairing_value, h1):
        _set_row_weight(self, weight)
        _set_row_case(self, case_tag)
        _set_row_root(self, chosen_simple_root)
        _set_row_pairing(self, pairing_value)
        _set_row_h1(self, h1)
        _set_row_dominant(self, None if weight.is_zero() else is_dominant(weight))

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
_set_row_dominant = CaseRow._dominant.__set__
_row_dominant = attrgetter("_dominant")
_row_h1 = attrgetter("h1")


class ConditionCheck(_Value):
    __slots__ = _fields = ("holds", "detail")

    holds: bool
    detail: str

    def __init__(self, holds, detail):
        self._set_fields(holds, detail)

    def to_json(self) -> dict:
        return {"holds": self.holds, "detail": self.detail}


# Condition (iii) holds for every reductive group: one check serves every certificate.
_CONDITION_III = ConditionCheck(
    holds=True,
    detail=(
        "H^1(G, k) = 0 holds for every reductive group, in particular GL_N; "
        "the two-condition summary form of the smoothness criterion omits this "
        "hypothesis, so it is recorded explicitly here"
    ),
)

# Condition (ii), one check per aggregate.
_CONDITION_II = {
    aggregate: ConditionCheck(
        holds=aggregate in (FiltrationH1.ZERO, FiltrationH1.TRIVIAL_MODULE),
        detail=f"H^1(X, End) aggregates to '{aggregate.value}' over the line-bundle filtration",
    )
    for aggregate in FiltrationH1
}


@lru_cache(maxsize=DENSE_LISTING_MAX)  # d^2 - d for every d a certificate takes
def _non_dominant(off_diagonal: int) -> ConditionCheck:
    """Condition (i) when none of ``off_diagonal`` End weights is dominant."""
    return ConditionCheck(
        holds=True,
        detail=f"all {off_diagonal} off-diagonal End weights are non-dominant, so "
        "H^0(X, End) is filtered by trivial modules and H^2(G, -) of a trivial "
        "module vanishes for reductive G",
    )


class Certificate(_Value):
    """Structured record of the full case analysis and the final verdict."""

    __slots__ = _fields = (
        "d",
        "N",
        "p",
        "rows",
        "condition_i",
        "condition_ii",
        "condition_iii",
        "rigidity_mod_p_squared",
        "rigidity_char_zero",
        "assumptions",
    )

    d: int
    N: int
    p: int
    rows: tuple[CaseRow, ...]
    condition_i: ConditionCheck
    condition_ii: ConditionCheck
    condition_iii: ConditionCheck
    rigidity_mod_p_squared: RigidityVerdict
    rigidity_char_zero: RigidityVerdict
    assumptions: tuple[str, ...]

    def __init__(
        self,
        d,
        N,
        p,
        rows,
        condition_i,
        condition_ii,
        condition_iii,
        rigidity_mod_p_squared,
        rigidity_char_zero,
        assumptions=STANDING_ASSUMPTIONS,
    ):
        _set_cert_d(self, d)
        _set_cert_n(self, N)
        _set_cert_p(self, p)
        _set_cert_rows(self, rows)
        _set_cert_i(self, condition_i)
        _set_cert_ii(self, condition_ii)
        _set_cert_iii(self, condition_iii)
        _set_cert_mod_p_squared(self, rigidity_mod_p_squared)
        _set_cert_char_zero(self, rigidity_char_zero)
        _set_cert_assumptions(self, assumptions)

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


# Bound once: a certificate is built on every call, warm ones included.
_set_cert_d = Certificate.d.__set__
_set_cert_n = Certificate.N.__set__
_set_cert_p = Certificate.p.__set__
_set_cert_rows = Certificate.rows.__set__
_set_cert_i = Certificate.condition_i.__set__
_set_cert_ii = Certificate.condition_ii.__set__
_set_cert_iii = Certificate.condition_iii.__set__
_set_cert_mod_p_squared = Certificate.rigidity_mod_p_squared.__set__
_set_cert_char_zero = Certificate.rigidity_char_zero.__set__
_set_cert_assumptions = Certificate.assumptions.__set__


def classify_weight(mu: Weight, p: int) -> CaseRow:
    """Classify one End-bundle weight mu = p(l_i - l_j) into its case row.

    Records the case's standard simple root (l_j - l_{j+1} for i < j,
    l_{i-1} - l_i for i > j, none on the diagonal), the pairing of the
    dot-reflected weight with that root, and the H^1 status of mu.  Every
    check runs on every call: the prime, family and shape checks, and the
    closed-form check, which reads the pairing from the labels of mu and
    checks it against p - 2 for the far cases and 2p - 2 for the adjacent
    case; a mismatch raises ``InternalInconsistencyError``.
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
        raise WeightShapeError(f"{mu!r} is not of the shape p(l_i - l_j) for p = {p}")
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
    h1 = andersen_h1(mu, p)
    # <s_alpha . mu, alpha^vee> = -<mu, alpha^vee> - 2, from the labels of mu.
    value = -dynkin_labels(mu).get(k, 0) - 2
    if value != expected:
        raise InternalInconsistencyError(f"pairing {value} != closed form {expected} for {mu!r}")
    return CaseRow(mu, case, datum.simple_roots[k], value, h1)


def _end_weight(datum: RootDatum, p: int, i: int, j: int) -> Weight:
    """p(l_i - l_j) in GL(N), or its zero weight for i = j = 0; canonical as built."""
    coords = [0] * datum.rank
    if i:
        coords[i - 1] = p
        coords[j - 1] = -p
    return _trusted_weight(tuple(coords), datum)


@lru_cache(maxsize=DENSE_LISTING_MAX)  # every d a certificate takes
def _row_order(d: int) -> tuple[tuple[int, ...], itemgetter]:
    """The rows of End(F*S) on Gr(d, N) in filtration order, as table keys.

    p(l_i - l_j) sorts as l_i - l_j does for every p > 0, and its
    coordinates past d are zero, so the order depends on d alone: it is
    read from the pipeline on Gr(d, d + 2).  Row (i, j) is keyed
    i * 256 + j, one-to-one as d <= DENSE_LISTING_MAX < 256; the diagonal
    is 0.  Returns the d^2 keys and an ``itemgetter`` that takes their
    rows from a table in one call.
    """
    keys = []
    for w in pullback_filtration(end_weights(tautological_weights(d, d + 2))):
        coords = w.coords
        keys.append((coords.index(1) + 1) * 256 + coords.index(-1) + 1 if any(coords) else 0)
    return tuple(keys), itemgetter(*keys)


def _fill(key: tuple, table: _RowTable, keys: tuple[int, ...]) -> None:
    """Classify the rows of ``keys`` missing from ``table`` and keep the table.

    Each row is stored only once ``classify_weight`` has returned it, so a
    row whose check raised is never kept, and the rows before it are.  A
    row counts 1 + N for its weight of GL(N).  The bound is checked here,
    once the certificate's rows are in, never while they are classified:
    a table that alone passes ``_ROW_MEMO_MAX`` is not kept, and
    otherwise whole least recently used tables are dropped until the
    count fits.
    """
    global _row_memo_size
    _, datum, p = key
    cost = 1 + datum.rank
    if not _row_memo:  # emptied elsewhere: recount
        _row_memo_size = len(table) * cost
    before = len(table)
    # Read once per fill, from the module global, so a substituted procedure still decides.
    classify, keep = classify_weight, table.keep
    try:
        for index in keys:
            if index not in table:
                i, j = divmod(index, 256)
                keep(index, classify(_end_weight(datum, p, i, j), p))
    finally:
        count = len(table) * cost
        if not count or count > _ROW_MEMO_MAX:  # empty, or alone past the cap
            _row_memo_size -= before * cost
        else:
            _row_memo_size += count - before * cost
            _row_memo[key] = table
            while _row_memo_size > _ROW_MEMO_MAX:
                oldest = next(iter(_row_memo))
                _row_memo_size -= len(_row_memo.pop(oldest)) * (1 + oldest[1].rank)


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
    entry point.  The rows must be the certificate's: exactly d^2 of
    them (else ``DimensionMismatchError``), each with a weight of GL(N)
    (else ``DatumMismatchError``).  Each row is judged on its own weight
    and status, so an injected row of GL(N) stays allowed.
    """
    _validate_parameters(d, n, p)
    rows = tuple(rows)
    if len(rows) != d * d:
        raise DimensionMismatchError(
            f"a certificate on Gr({d}, {n}) takes {d * d} End rows, got {len(rows)}"
        )
    datum = make_datum("GL", n)
    for row in rows:
        if row.weight.datum is not datum:
            raise DatumMismatchError(
                f"row weight {row.weight!r} is not a weight of {datum.name}, "
                f"the datum of Gr({d}, {n})"
            )

    # Each row carries its weight's dominance, None on the diagonal.
    facts = list(map(_row_dominant, rows))
    dominant_off = [row.weight for row in compress(rows, facts)]
    cond_i = (
        ConditionCheck(
            holds=False,
            detail=f"dominant off-diagonal weights {sorted(w.coords for w in dominant_off)} "
            "contribute unknown H^0 summands",
        )
        if dominant_off
        else _non_dominant(len(facts) - facts.count(None))
    )
    cond_ii = _CONDITION_II[aggregate_h1_statuses(map(_row_h1, rows))]
    verdicts = _rigidity_verdicts(frobenius_rigidity_verdict, d, p)
    return Certificate(d, n, p, rows, cond_i, cond_ii, _CONDITION_III, *verdicts)


# Keyed by the procedure too: callers pass the module global
# frobenius_rigidity_verdict, so a substituted one decides for itself.
@lru_cache(maxsize=1 << 10)
def _rigidity_verdicts(procedure, d: int, p: int) -> tuple[RigidityVerdict, RigidityVerdict]:
    """Both rigidity verdicts of GL_d at p by ``procedure``: Witt length two, char 0."""
    gl = make_datum("GL", d)
    return procedure(gl, RingChar.prime_power(p, 2)), procedure(gl, RingChar.zero(), p=p)


def check_equivariant_smoothness(d: int, n: int, p: int) -> Certificate:
    """Full non-liftability certificate for P(F*S) on Gr(d, N) at prime p.

    Classifies all d^2 weights of End(F*S), evaluates the three
    smoothness conditions, and combines them with the Frobenius rigidity
    verdicts over Witt length two and characteristic zero.

    A row is classified once per process and per decision procedure:
    ``_row_memo`` keeps each finished row in the table of (andersen_h1,
    datum, p), and a later certificate that needs the row takes that very
    object; when all its rows are there, it takes them in one call.  The
    rows of Gr(d, N) are the d x d corner of those of Gr(d + 1, N), so a
    sweep over d meets them again and again.  A certificate whose corner
    has no unexpected dominance fact reads conditions (i) and (ii) from
    the table's ``corners``; any other scans its rows in
    ``certificate_from_rows``.
    """
    _validate_parameters(d, n, p)
    datum = make_datum("GL", n)
    keys, take = _row_order(d)
    if len(keys) != d * d:
        raise InternalInconsistencyError(f"{len(keys)} End weights classified, expected {d * d}")
    # Keyed by the procedure too, so a substituted one decides for itself.
    key = (andersen_h1, datum, p)
    with _row_lock:  # one thread at a time reads and changes the memo
        table = _row_memo.pop(key, None) or _RowTable()
        try:
            rows = take(table)
        except KeyError:
            _fill(key, table, keys)
            rows = take(table)
        else:
            _row_memo[key] = table  # most recently used last
        unexpected, trivial, unknown = table.corners
    if unexpected <= d:  # a fact the constants do not stand for: scan the rows
        return certificate_from_rows(d, n, p, rows)
    cond_ii = _CONDITION_II[_AGGREGATES[2 if unknown <= d else 1 if trivial <= d else 0]]
    cond_i = _non_dominant(d * d - d)
    verdicts = _rigidity_verdicts(frobenius_rigidity_verdict, d, p)
    return Certificate(d, n, p, rows, cond_i, cond_ii, _CONDITION_III, *verdicts)
