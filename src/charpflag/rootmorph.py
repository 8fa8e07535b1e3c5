"""Validation of rigidified morphisms (p-morphisms) between root data.

A rigidified morphism between root data is a lattice map
``h : X(T') -> X(T)`` together with a root bijection ``d : R -> R'`` and a
multiplier function ``q : R -> Z_{>0}`` satisfying

    h(d(alpha)) = q(alpha) * alpha        h^t(alpha^vee) = q(alpha) * d(alpha)^vee.

Over a base ring, ``x -> x^q`` is an additive endomorphism only for
``q = 1`` or ``q = p^k`` with ``p = 0`` in the ring, so the multiplier is
admissible exactly in those cases.  The Frobenius of a split reductive
group is the special case ``h = p * id``, ``d = id``, ``q == p``; its
rigidification is discrete and hence pinned by the special fibre, which
forces ``q == p`` and rules out deformations over any base where p is
nonzero.  Both checks are implemented here.
"""

from __future__ import annotations

from itertools import compress
from typing import Mapping, Optional

from .arith import require_prime
from .errors import DatumMismatchError, DimensionMismatchError, DomainError, ResiduePrimeError
from .lattice import Root, RootDatum, _Value


class RingChar(_Value):
    """Characteristic tag of the coefficient ring.

    ``prime_power`` (exponent >= 2) models Artinian rings where p is
    nonzero but nilpotent, e.g. Witt vectors of length two; ``zero``
    models characteristic-zero bases.  A kind takes only its own fields:
    ``zero`` neither p nor n, ``prime`` no n.
    """

    __slots__ = _fields = ("kind", "p", "n")

    kind: str  # "zero" | "prime" | "prime_power"
    p: Optional[int]
    n: Optional[int]

    def __init__(self, kind, p=None, n=None):
        if kind not in ("zero", "prime", "prime_power"):
            raise DomainError(f"ring kind must be zero, prime or prime_power, got {kind!r}")
        # A field the kind ignores would make two equal rings unequal.
        if kind == "zero" and p is not None:
            raise DomainError(f"ring kind zero takes no prime, got p = {p!r}")
        if kind != "prime_power" and n is not None:
            raise DomainError(f"ring kind {kind} takes no exponent, got n = {n!r}")
        if kind != "zero":
            label = "ring characteristic " if kind == "prime" else "prime_power ring prime p = "
            require_prime(p, label)
        if kind == "prime_power":
            if type(n) is not int:
                raise DomainError(f"prime_power exponent must be an integer, got {n!r}")
            if n < 2:
                raise DomainError(f"prime_power needs exponent >= 2, got {n}")
        self._set_fields(kind, p, n)

    @classmethod
    def zero(cls) -> "RingChar":
        return cls("zero")

    @classmethod
    def prime(cls, p: int) -> "RingChar":
        return cls("prime", p=p)

    @classmethod
    def prime_power(cls, p: int, n: int) -> "RingChar":
        return cls("prime_power", p=p, n=n)

    def describe(self) -> str:
        if self.kind == "zero":
            return "characteristic 0"
        if self.kind == "prime":
            return f"characteristic {self.p}"
        return f"characteristic {self.p}^{self.n} (p nonzero, nilpotent)"


def q_admissible(q: int, ring_char: RingChar) -> bool:
    """Whether x -> x^q is an additive endomorphism over the given ring.

    True for q = 1 always, and for q = p^k exactly when the ring has
    characteristic p (p = 0 in the ring).  Everything else is rejected.
    q is divided by the ring's prime, never factored, so a q of any size
    takes O(log q) divisions.
    """
    if q == 1:
        return True
    if ring_char.kind != "prime" or q < 1:
        return False
    while q % ring_char.p == 0:
        q //= ring_char.p
    return q == 1


class MorphismFailure(_Value):
    __slots__ = _fields = ("relation", "root", "detail")

    relation: str
    root: Root
    detail: str

    def __init__(self, relation, root, detail):
        self._set_fields(relation, root, detail)

    def to_json(self) -> dict:
        return {
            "relation": self.relation,
            "root": self.root.vector.to_json(),
            "detail": self.detail,
        }


class MorphismVerdict(_Value):
    __slots__ = _fields = ("failures",)

    failures: tuple[MorphismFailure, ...]

    def __init__(self, failures=()):
        self._set_fields(failures)

    @property
    def valid(self) -> bool:
        return not self.failures

    def to_json(self) -> dict:
        return {"valid": self.valid, "failures": [f.to_json() for f in self.failures]}


class PMorphismData(_Value):
    """Candidate rigidified-isogeny data between two root data.

    ``h`` maps target characters to source characters (rows indexed by
    source coordinates, columns by target coordinates).  ``d_map`` sends
    each source root to a target root; ``q`` assigns each source root its
    positive multiplier.  ``ring_char`` defaults to ``RingChar.zero()``.
    """

    __slots__ = _fields = ("source", "target", "h", "d_map", "q", "ring_char")

    source: RootDatum
    target: RootDatum
    h: tuple[tuple[int, ...], ...]
    d_map: Mapping[Root, Root]
    q: Mapping[Root, int]
    ring_char: RingChar

    def __init__(self, source, target, h, d_map, q, ring_char=None):
        ring_char = RingChar.zero() if ring_char is None else ring_char
        self._set_fields(source, target, h, d_map, q, ring_char)


def _mat_vec(mat: tuple[tuple[int, ...], ...], vec: tuple[int, ...]) -> tuple[int, ...]:
    """mat * vec, reading only the columns of vec's nonzero coordinates.

    A classical root or coroot has at most two nonzero coordinates, so
    most roots cost O(rank), not O(rank^2); only the canonical vector of an
    SL root whose zero-sum lift meets the last coordinate is dense.
    """
    out = [0] * len(mat)
    for j in compress(range(len(vec)), vec):
        c = vec[j]
        out = [o + row[j] * c for o, row in zip(out, mat)]
    return tuple(out)


def _transpose(mat: tuple[tuple[int, ...], ...]) -> tuple[tuple[int, ...], ...]:
    return tuple(zip(*mat))


def _entry(mapping: Mapping[Root, object], name: str, alpha: Root):
    try:
        return mapping[alpha]
    except KeyError:
        raise DimensionMismatchError(
            f"{name} has no entry for the source root {alpha.vector.coords}"
        ) from None


def validate_p_morphism(data: PMorphismData) -> MorphismVerdict:
    """Check the two lattice relations and q-admissibility, per source root.

    An ``h`` that is not a source rank x target rank matrix of ``int``, a
    ``d_map`` that is not a bijection onto the target's roots, or a ``q``
    without an ``int`` for each source root raises a typed error.
    """
    src, tgt = data.source, data.target
    if len(data.h) != src.rank or any(len(row) != tgt.rank for row in data.h):
        raise DimensionMismatchError(
            f"h must be a {src.rank} x {tgt.rank} integer matrix "
            f"(source rank x target rank), got {len(data.h)} rows"
        )
    for i, row in enumerate(data.h):
        for j, c in enumerate(row):
            if type(c) is not int:
                raise DomainError(f"h entry ({i}, {j}) must be an int, got {c!r}")
    n_source, n_target = len(src.roots), len(tgt.roots)
    if n_source != n_target:
        raise DomainError(
            f"d_map cannot be a bijection: {n_source} source roots, {n_target} target roots"
        )
    h_t = _transpose(data.h)
    failures: list[MorphismFailure] = []
    images: set[Root] = set()
    for alpha in src.roots:
        image = _entry(data.d_map, "d_map", alpha)
        if not isinstance(image, Root) or image.datum is not tgt:
            raise DatumMismatchError(
                f"d_map sends the source root {alpha.vector.coords} to {image!r}, "
                f"which is not a root of {tgt.name}"
            )
        if image in images:
            raise DomainError("d_map is not a bijection: some target root is hit twice")
        images.add(image)
        q = _entry(data.q, "q", alpha)
        if type(q) is not int:
            raise DomainError(
                f"q of the source root {alpha.vector.coords} must be an int, got {q!r}"
            )
        if q < 1:
            failures.append(
                MorphismFailure("q_positive", alpha, f"q = {q} must be a positive integer")
            )
            continue
        lhs = _mat_vec(data.h, image.vector.coords)
        rhs = tuple(q * c for c in alpha.vector.coords)
        if lhs != rhs:
            failures.append(
                MorphismFailure(
                    "h(d(alpha)) = q(alpha) * alpha",
                    alpha,
                    f"h({image.vector.coords}) = {lhs} != {rhs}",
                )
            )
        lhs_co = _mat_vec(h_t, alpha.coroot)
        rhs_co = tuple(q * c for c in image.coroot)
        if lhs_co != rhs_co:
            failures.append(
                MorphismFailure(
                    "h^t(alpha^vee) = q(alpha) * d(alpha)^vee",
                    alpha,
                    f"h^t({alpha.coroot}) = {lhs_co} != {rhs_co}",
                )
            )
        if not q_admissible(q, data.ring_char):
            failures.append(
                MorphismFailure(
                    "q_admissible",
                    alpha,
                    f"x -> x^{q} is not an additive endomorphism over a ring of "
                    f"{data.ring_char.describe()}",
                )
            )
    return MorphismVerdict(tuple(failures))


# ---------------------------------------------------------------------------
# Frobenius rigidity


class RigidityVerdict(_Value):
    """Whether a Frobenius lifting can exist over the given base."""

    __slots__ = _fields = ("lift_possible", "reason", "note")

    lift_possible: bool
    reason: Optional[str]
    note: Optional[str]

    def __init__(self, lift_possible, reason=None, note=None):
        self._set_fields(lift_possible, reason, note)

    def to_json(self) -> dict:
        return {
            "verdict": "lift_possible" if self.lift_possible else "no_lift",
            "reason": self.reason,
            "note": self.note,
        }


def frobenius_rigidity_verdict(
    datum: RootDatum, ring_char: RingChar, p: Optional[int] = None
) -> RigidityVerdict:
    """Decide liftability of the Frobenius homomorphism over a base ring.

    The rigidification of any Frobenius lifting is discrete, hence pinned
    to ``h = p * id, d = id, q == p`` by the special fibre.  That data
    satisfies both lattice relations on every root, so the verdict is
    ``q_admissible(p, ring_char)``.  A toral datum (no roots) carries no
    multiplier constraint: the multiplication-by-p endomorphism lifts
    Frobenius over every base.  A given ``p`` must be prime for every datum.
    """
    if ring_char.p is not None:
        if p is not None and p != ring_char.p:
            raise ResiduePrimeError(
                f"residue prime {p} conflicts with ring {ring_char.describe()}"
            )
        p = ring_char.p
    if p is not None:
        require_prime(p, "Frobenius multiplier ")
    # A datum has roots iff it has simple roots (a custom datum's simple
    # roots are checked to be a base), so its full list is never built here.
    if not datum.simple_roots:
        return RigidityVerdict(
            lift_possible=True,
            note="toral datum: Frobenius deforms by the multiplication-by-p map",
        )
    if p is None:
        raise ResiduePrimeError("residue prime p required for a characteristic-zero base")
    if q_admissible(p, ring_char):
        return RigidityVerdict(lift_possible=True)
    return RigidityVerdict(
        lift_possible=False,
        reason=(
            f"forced Frobenius data (h = {p}*id, d = id, q == {p}) is inadmissible over "
            f"a base of {ring_char.describe()}: x -> x^{p} is additive only where {p} = 0"
        ),
    )
