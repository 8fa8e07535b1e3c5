"""Decision procedures for H^i(G/B, L_lambda) in characteristic p.

Implements Kempf vanishing, the degree-one criterion of Andersen with its
base-p digit analysis (Jantzen, *Representations of Algebraic Groups*,
II.4.5 and II.5.15), a filtration aggregation rule, and a classical
characteristic-zero Borel--Weil--Bott oracle for cross-checks.

Statuses are qualitative: the procedures decide vanishing and, for a
non-vanishing H^1, record only its largest weight.  Multiplicities and
module structure are out of scope.  Whenever the criterion's hypotheses
fail, the answer is an explicit ``undetermined`` status, never a guess.
"""

from __future__ import annotations

from enum import Enum
from typing import Iterable, Optional

from .errors import DomainError, InternalInconsistencyError, UnsupportedDatumError
from .arith import require_prime
from .lattice import Root, RootDatum, Weight, _shifted, _Value, cartan_column, dynkin_labels
from .lattice import is_dominant, pairing, positive_root_sum


def _require_type_a(datum: RootDatum) -> None:
    if datum.family not in ("GL", "SL"):
        raise UnsupportedDatumError(
            f"operation implemented for type A data (GL/SL) only, got {datum.name}"
        )


# ---------------------------------------------------------------------------
# Base-p digits


def _digits(m: int, p: int) -> list[int]:
    """Base-p digits of m >= 1, least significant first; p is checked by the caller."""
    digits = []
    while m:
        m, d = divmod(m, p)
        digits.append(d)
    return digits


# ---------------------------------------------------------------------------
# Statuses


class H1Status(_Value):
    """Verdict for H^1(G/B, L_mu): zero, nonzero with largest weight, or open.

    The constructor sets ``_kind``, which aggregation reads and which takes
    no part in equality, hashing or ``repr``: 0 for zero, 1 for nonzero
    with largest weight zero (a trivial module), 2 for anything else.
    """

    __slots__ = ("status", "highest_weight", "reason", "_kind")
    _fields = ("status", "highest_weight", "reason")

    status: str  # "zero" | "nonzero" | "undetermined"
    highest_weight: Optional[Weight]
    reason: Optional[str]

    def __init__(self, status, highest_weight=None, reason=None):
        _set_status(self, status)
        _set_highest_weight(self, highest_weight)
        _set_reason(self, reason)
        trivial = status == "nonzero" and highest_weight is not None and highest_weight.is_zero()
        _set_kind(self, 0 if status == "zero" else 1 if trivial else 2)

    @classmethod
    def nonzero(cls, highest_weight: Weight) -> "H1Status":
        if not is_dominant(highest_weight):
            raise InternalInconsistencyError(
                f"largest weight {highest_weight!r} of a nonzero H^1 is not dominant"
            )
        return cls("nonzero", highest_weight)

    @classmethod
    def undetermined(cls, reason: str) -> "H1Status":
        return cls("undetermined", reason=reason)

    @property
    def is_zero(self) -> bool:
        return self.status == "zero"

    @property
    def is_trivial_module(self) -> bool:
        """Nonzero with largest weight zero: a trivial G-module downstream."""
        return self._kind == 1

    def to_json(self) -> dict:
        return {
            "status": self.status,
            "highest_weight": None
            if self.highest_weight is None
            else self.highest_weight.to_json(),
            "undetermined_reason": self.reason,
        }


_set_status = H1Status.status.__set__
_set_highest_weight = H1Status.highest_weight.__set__
_set_reason = H1Status.reason.__set__
_set_kind = H1Status._kind.__set__
_ZERO = H1Status("zero")


# ---------------------------------------------------------------------------
# Andersen's H^1 criterion


def andersen_h1(mu: Weight, p: int) -> H1Status:
    """Decide H^1(G/B, L_mu) over a field of characteristic p (type A).

    For non-dominant mu, every simple root alpha with
    ``<mu, alpha^vee> <= -2`` is inverted through the dot action to
    ``lam = s_alpha . mu`` and, when ``<lam, alpha^vee> > 0``, classified:

    * ``<lam, alpha^vee> = a p^k - 1`` with ``0 < a < p``: H^1 is nonzero
      iff lam is dominant, with largest weight lam.
    * otherwise, with digits ``a_0..a_n`` of the pairing and some
      ``a_j < p-1`` for j < n: H^1 is nonzero iff ``mu + a_n p^n alpha``
      is dominant; the largest weight is lam when lam is dominant, else
      ``mu + sum_{t=m'}^n a_t p^t alpha`` for the minimal applicable m'.

    Every candidate is ``mu + t alpha``, whose labels are those of mu plus
    t times the Cartan column of alpha, so each dominance test reads at
    most three labels; a dense weight is built only for a reported
    largest weight.  A negative label of mu off alpha's column stays
    negative in every candidate, for every t >= 1, so no candidate is
    dominant and both parts give zero: such a root is decided zero
    without its base-p digits.

    All applicable simple roots are evaluated and must agree with the
    first; a conflicting definite verdict raises
    InternalInconsistencyError naming both roots (a bug, not a
    mathematical outcome).  If no simple root is applicable the status is
    undetermined.
    """
    datum = mu.datum
    _require_type_a(datum)
    require_prime(p)
    labels = dynkin_labels(mu)
    negatives = 0
    for c in labels.values():
        if c < 0:
            negatives += 1
    if not negatives:
        return _ZERO
    simple = datum.simple_roots
    label = labels.get
    first = status = None
    for k, c in labels.items():
        if c > -2:
            continue
        alpha = simple[k]
        column = cartan_column(alpha)
        # m = <lam, alpha^vee> for lam = s_alpha . mu = mu - (c + 1) alpha,
        # read through the column's diagonal <alpha, alpha^vee>; and the
        # negative labels of mu on the column, c itself counted (a column
        # without its diagonal leaves m = c and fails the check below).
        m = c
        covered = 1
        for j, a in column:
            if j == k:
                m -= (c + 1) * a
            elif label(j, 0) < 0:
                covered += 1
        if m != -c - 2:
            raise InternalInconsistencyError(
                f"<s_alpha . mu, alpha^vee> = {m} != {-c - 2} for {mu!r} and {alpha!r}"
            )
        if m <= 0:
            continue  # criterion needs <lam, alpha^vee> > 0
        if covered < negatives:  # a negative label off the column: no candidate is dominant
            verdict = _ZERO
        else:
            verdict = _andersen_one_root(mu, labels, negatives, alpha, column, m, p)
        if first is None:
            first, status = alpha, verdict
        elif verdict is not status and verdict != status:
            raise InternalInconsistencyError(
                f"simple roots give conflicting H^1 verdicts for {mu!r}: "
                f"{[(first, status), (alpha, verdict)]}"
            )
    if first is None:
        return H1Status.undetermined(
            "no simple root with <mu, alpha^vee> <= -3; criterion not applicable"
        )
    return status


def _shift_is_dominant(labels, negatives: int, column: tuple, t: int) -> bool:
    """Whether mu + t alpha is dominant, given the labels of mu and alpha's column.

    mu + t alpha moves only the labels on the column's support: it is
    dominant iff those stay >= 0 and they hold every negative label of mu.
    """
    cleared = 0
    for k, a in column:
        c = labels.get(k, 0)
        if c + t * a < 0:
            return False
        if c < 0:
            cleared += 1
    return cleared == negatives


def _andersen_one_root(
    mu: Weight, labels, negatives: int, alpha: Root, column: tuple, m: int, p: int
) -> H1Status:
    t_lam = m + 1  # lam = s_alpha . mu = mu + t_lam alpha
    # Part a): m = a p^k - 1 with 0 < a < p.
    s = t_lam
    while s % p == 0:
        s //= p
    if s < p:
        if _shift_is_dominant(labels, negatives, column, t_lam):
            return H1Status.nonzero(_shifted(mu, alpha.support, t_lam))
        return _ZERO
    # Part b): part a) failed, so some digit of m below the top one is < p-1
    # (m = a p^k - 1 exactly when all of them are p-1).  The candidate
    # mu + (sum_{t >= j} a_t p^t) alpha has shift m - (m mod p^j).
    digits = _digits(m, p)  # andersen_h1 checked p; m > 0 here
    n = len(digits) - 1
    if not _shift_is_dominant(labels, negatives, column, m - m % p**n):
        return _ZERO
    if _shift_is_dominant(labels, negatives, column, t_lam):
        return H1Status.nonzero(_shifted(mu, alpha.support, t_lam))
    m_low = 0
    while digits[m_low] == p - 1:
        m_low += 1
    for j in range(m_low, n + 1):
        tail = m - m % p**j
        if _shift_is_dominant(labels, negatives, column, tail):
            return H1Status.nonzero(_shifted(mu, alpha.support, tail))
    raise InternalInconsistencyError(
        f"dominant tail weight not found for {mu!r} though nu_n was dominant"
    )


# ---------------------------------------------------------------------------
# Filtration aggregation


class FiltrationH1(str, Enum):
    ZERO = "zero"
    TRIVIAL_MODULE = "trivial_module"
    UNKNOWN = "unknown"


_AGGREGATES = (FiltrationH1.ZERO, FiltrationH1.TRIVIAL_MODULE, FiltrationH1.UNKNOWN)  # by kind


def aggregate_h1_statuses(statuses: Iterable[H1Status]) -> FiltrationH1:
    """Combine per-quotient H^1 statuses of a line-bundle filtration.

    A bundle filtered by line bundles whose H^1 are each zero or trivial
    has H^1 zero or a trivial module; any undetermined status or nonzero
    largest weight, or a nonzero status without one, degrades the
    aggregate to unknown.  The aggregate is ``_AGGREGATES`` at the
    largest ``_kind``.
    """
    return _AGGREGATES[max((st._kind for st in statuses), default=0)]


# ---------------------------------------------------------------------------
# Characteristic-zero oracle


class BwbStatus(_Value):
    """Classical Borel--Weil--Bott answer: all-zero, or one cohomology degree."""

    __slots__ = _fields = ("degree", "highest_weight")

    degree: Optional[int]
    highest_weight: Optional[Weight]

    def __init__(self, degree=None, highest_weight=None):
        self._set_fields(degree, highest_weight)

    @property
    def all_zero(self) -> bool:
        return self.degree is None

    def to_json(self) -> dict:
        return {
            "all_zero": self.all_zero,
            "degree": self.degree,
            "highest_weight": None
            if self.highest_weight is None
            else self.highest_weight.to_json(),
        }


def bwb_char0(lam: Weight) -> BwbStatus:
    """Characteristic-zero cohomology of L_lam on GL_n/B by the sort rule.

    lam + rho singular (a repeated coordinate) kills all cohomology;
    otherwise the single nonzero group sits in degree equal to the number
    of inversions needed to sort lam + rho strictly decreasing, with
    highest weight w(lam + rho) - rho.
    """
    _require_type_a(lam.datum)
    shifted = (lam + lam.datum.weyl_vector).coords
    if len(set(shifted)) < len(shifted):
        return BwbStatus()
    inversions = sum(
        1
        for i in range(len(shifted))
        for j in range(i + 1, len(shifted))
        if shifted[i] < shifted[j]
    )
    dominant_shift = lam.datum.weight(sorted(shifted, reverse=True))
    return BwbStatus(
        degree=inversions,
        highest_weight=dominant_shift - lam.datum.weyl_vector,
    )


def weyl_dim(lam: Weight) -> int:
    """Dimension of the irreducible of highest weight lam (characteristic 0).

    Weyl dimension formula over the true half sum of positive roots; the
    intermediate arithmetic is exact (denominators cancel against the
    doubled half sum, which is integral).
    """
    if not is_dominant(lam):
        raise DomainError(f"weyl_dim requires a dominant weight, got {lam!r}")
    rho2 = positive_root_sum(lam.datum)  # twice the half sum
    num = den = 1
    for beta in lam.datum.positive_roots:
        b = pairing(rho2, beta)
        num *= 2 * pairing(lam, beta) + b
        den *= b
    q, r = divmod(num, den)
    if r:
        raise InternalInconsistencyError(
            f"Weyl dimension {num}/{den} of {lam!r} did not come out integral"
        )
    return q
