"""Exact integer models of root data for the classical groups.

Weights live in the character lattice of a fixed maximal torus and are
stored as integer coordinate vectors in the standard character basis
``l_1, ..., l_n`` (for GL(n), ``l_i`` reads off the i-th diagonal entry of
the torus).  All arithmetic is exact integer arithmetic.

Coordinate conventions per family:

* ``GL(n)``    -- X(T) = Z^n; roots ``l_i - l_j``, coroots ``e_i - e_j``.
* ``SL(n)``    -- Z^n modulo the all-ones vector; every weight is stored
  as the canonical representative with last coordinate zero.
* ``Sp(2n)``   -- rank n; roots ``+-l_i +- l_j`` and ``+-2 l_i``.
* ``SO(2n)``   -- rank n; roots ``+-l_i +- l_j``.
* ``SO(2n+1)`` -- rank n, coordinates in *half-character* units l_i/2,
  i.e. the spin weight lattice: valid coordinate vectors have all entries
  of equal parity and pairings carry a denominator of 2.  The plain SO
  character lattice contains no integral vector pairing to 1 with every
  simple coroot, which the Weyl-vector convention below requires.

The stored ``weyl_vector`` is an exact integral solution of
``<rho, alpha^vee> = 1`` for every simple root ``alpha``.  For GL(n) it is
``(n-1, n-2, ..., 0)``: this differs from the half sum of positive roots
by a central (Weyl-invariant) shift, so it induces the same shifted
("dot") action ``s_alpha . lam = s_alpha(lam) - alpha`` on simple
reflections.

All types in this module are immutable values (a ``Weight`` fills its
Dynkin labels, a ``Root`` its dense views and Cartan column, and a
``RootDatum`` its checked root list, once, on first access, with equal
values whichever thread gets there first) and all operations are pure, so
everything here is safe to call concurrently.
"""

from __future__ import annotations

import weakref
from _thread import allocate_lock
from functools import lru_cache
from itertools import chain, compress, repeat
from math import factorial, gcd
from operator import add, mul, neg, sub
from types import MappingProxyType
from typing import Callable, Iterable, Mapping, Optional, Sequence

from .errors import (
    CharpFlagError,
    DatumMismatchError,
    InternalInconsistencyError,
    InvalidRootDatumError,
    LatticeMembershipError,
    NonSimpleRootError,
    RankRangeError,
    UnsupportedDatumError,
    _FrozenFieldError,
)

# Rank bound for building a datum.  The root list of a rank-n classical
# datum, built on first access, holds O(n^2) roots.
MAX_RANK = 1024

# Rank bound for enumerating the Weyl group: 2^8 8! = 10,321,920 elements.
WEYL_GROUP_MAX_RANK = 8

# Bound on a count of objects that is listed densely: the rank of a
# ``roots`` listing (every root and coroot, O(n^3) bytes) and of an
# ``isogeny-check`` datum (rank x rank matrices against every root, O(n^4)
# for GL(n)), and a certificate's d (d^2 End weights of length N).
DENSE_LISTING_MAX = 64

# Canonical family tags accepted by make_datum.
FAMILIES = ("GL", "SL", "Sp", "SO_odd", "SO_even", "Torus")

_CANONICAL_FAMILIES = frozenset(FAMILIES)
_FAMILY_ALIASES = {name.lower().replace("_", ""): name for name in FAMILIES}


def normalize_family(family: str) -> str:
    """The canonical name, one of ``FAMILIES``, of a datum family.

    Case, hyphens, underscores and spaces are ignored, so ``"gl"`` and
    ``"so-odd"`` name GL and SO_odd.  A plain ``str`` that is already
    canonical is returned as it is, before any string is built; a ``str``
    subclass takes the folding path, so the result is always a plain
    ``str``.  Anything that is not a string, or names no family, raises
    ``RankRangeError``.
    """
    if type(family) is str and family in _CANONICAL_FAMILIES:
        return family
    if isinstance(family, str):
        key = family.lower().replace("-", "").replace("_", "").replace(" ", "")
        if key in _FAMILY_ALIASES:
            return _FAMILY_ALIASES[key]
    raise RankRangeError(f"unknown datum family {family!r}; expected one of {', '.join(FAMILIES)}")


class RootDatum:
    """A root datum: lattice rank, simple roots, Weyl vector, roots with coroots.

    Roots are stored sparsely (see ``Root``).  A datum is built from its
    simple roots, each with its coroot, and its Weyl vector, which the
    constructor checks in O(rank).  The full root list comes from the
    datum's generator of positive (support, coroot support) pairs on first
    access to ``roots`` or ``positive_roots``; ``_materialize`` checks the
    positive roots, derives the negatives by negation, and publishes the
    lists only after every check has passed, so every root a caller sees
    has been checked.  A certificate on GL(N) reads only the N-1 simple
    roots and never builds the N(N-1) others.  Instances compare by
    identity; ``make_datum`` caches construction so repeated calls with
    the same arguments return the same handle while it is in use.
    """

    __slots__ = (
        "family",
        "rank",
        "simple_roots",
        "weyl_vector",
        "pairing_denominator",
        "name",
        "_coroot_index",
        "_positive_pairs",
        "_root_lists",
        "__weakref__",
    )

    family: str
    rank: int
    simple_roots: "tuple[Root, ...]"
    weyl_vector: "Optional[Weight]"
    pairing_denominator: int
    name: str

    def __init__(
        self,
        family: str,
        rank: int,
        simple_pairs: Iterable[RootPair],
        weyl_vector_coords: Optional[tuple[int, ...]],
        positive_pairs: Callable[[], Iterable[RootPair]],
        pairing_denominator: int = 1,
        name: Optional[str] = None,
    ):
        self.family = family
        self.rank = rank
        self.pairing_denominator = pairing_denominator
        self.name = name if name is not None else family
        if pairing_denominator < 1:
            raise self._invalid(f"pairing denominator must be >= 1, got {pairing_denominator}")
        self._positive_pairs = positive_pairs
        self._root_lists = None
        if weyl_vector_coords is None:
            self.weyl_vector, rho = None, (0,) * rank
        else:
            self.weyl_vector = Weight(tuple(weyl_vector_coords), self)
            rho = self.weyl_vector.coords
        # One pass over the simple roots builds each root, checks
        # <alpha, alpha^vee> = 2 (``_sparse_dot``, inlined), fills the index
        # from coordinate i to the k whose simple coroot has a nonzero i-th
        # coordinate, so that labels cost O(|supp lam|), and pairs the Weyl
        # vector with the coroot.  A Weyl vector that fails is reported only
        # after every root check, the lattice checks included, has passed.
        two = 2 * pairing_denominator
        simple, index, off_rho = [], [()] * rank, None
        for k, (sup, co) in enumerate(simple_pairs):
            a = Root(self, sup, co)
            simple.append(a)
            norm = num = 0
            for i, c in co:
                index[i] += (k,)
                num += rho[i] * c
                for j, d in sup:
                    if i == j:
                        norm += d * c
            if norm != two:
                raise self._invalid(f"<alpha, alpha^vee> != 2 for {a!r}")
            if num != pairing_denominator and off_rho is None and self.weyl_vector is not None:
                off_rho = num, a
        self.simple_roots = tuple(simple)
        if family != "custom":
            # A classical datum's entries recur in every larger datum of its
            # family; a custom datum's stay its own, so no input grows the table.
            index = map(_INDEX_ENTRIES.setdefault, index, index)
        self._coroot_index = tuple(index)
        self._check_lattice(self.simple_roots)
        if off_rho is not None:
            num, a = off_rho
            g = gcd(num, pairing_denominator)
            num, den = num // g, pairing_denominator // g
            raise self._invalid(
                f"Weyl vector pairs to {num if den == 1 else f'{num}/{den}'} "
                f"!= 1 with simple root {a.vector.coords}"
            )

    def __reduce__(self):
        # A classical datum pickles as the arguments that build it, so
        # unpickling returns the handle ``make_datum`` caches in this process.
        if self.family == "custom":
            raise UnsupportedDatumError(f"{self.name}: a custom datum cannot be pickled")
        return make_datum, (self.family, self.rank)

    @property
    def positive_roots(self) -> "tuple[Root, ...]":
        lists = self._root_lists
        return (self._materialize() if lists is None else lists)[0]

    @property
    def roots(self) -> "tuple[Root, ...]":
        """The positive roots, then their negatives in the same order."""
        lists = self._root_lists
        return (self._materialize() if lists is None else lists)[1]

    # -- lattice membership ------------------------------------------------

    def _canonical(self, coords: tuple[int, ...]) -> tuple[int, ...]:
        """Canonical stored form of a coordinate vector, or raise."""
        _check_coords(coords, self.rank, self.name)
        return self._reduce(coords)

    def _reduce(self, coords: tuple[int, ...]) -> tuple[int, ...]:
        """Canonical stored form of a point of Z^rank, or raise off the lattice."""
        if self.family == "SL":
            last = coords[-1]
            if last:
                coords = tuple(c - last for c in coords)
        elif self.family == "SO_odd":
            parities = {c & 1 for c in coords}
            if len(parities) > 1:
                raise LatticeMembershipError(
                    f"{self.name} weights need all coordinates of equal parity "
                    "(coordinates are in half-character units); got "
                    f"{coords}"
                )
        return coords

    def weight(self, coords: Iterable[int]) -> "Weight":
        """Build a Weight of this datum from raw coordinates."""
        return Weight(coords, self)

    def zero(self) -> "Weight":
        return Weight((0,) * self.rank, self)

    def fundamental_character(self, i: int) -> "Weight":
        """The basis character l_i (1-indexed) as a Weight of this datum."""
        if type(i) is not int:
            raise LatticeMembershipError(f"character index {i!r} is not an integer")
        if not 1 <= i <= self.rank:
            raise LatticeMembershipError(f"character index {i} outside 1..{self.rank}")
        coords = [0] * self.rank
        coords[i - 1] = 2 if self.family == "SO_odd" else 1
        # A point of Z^rank by construction; only the family's reduction is left.
        return _trusted_weight(self._reduce(tuple(coords)), self)

    # -- plumbing ----------------------------------------------------------

    def _invalid(self, message: str) -> CharpFlagError:
        """The error for data violating the root-datum axioms.

        Custom data come from the caller, so a violation is an input error;
        the classical families are built here, so it is a bug.
        """
        if self.family == "custom":
            return InvalidRootDatumError(f"{self.name}: {message}")
        return InternalInconsistencyError(f"{self.name}: {message}")

    def _check_lattice(self, roots: "Sequence[Root]") -> None:
        """Check that each root and coroot lies in the family's lattice."""
        if self.family == "SL":
            # The zero-sum lift is unique in its class mod the all-ones
            # vector, so supports then identify roots; zero-sum coroots
            # make pairings independent of the representative.
            for r in roots:
                if sum(c for _, c in r.support) or sum(c for _, c in r.co_support):
                    raise self._invalid(f"root or coroot with nonzero coordinate sum at {r!r}")
        elif self.family == "SO_odd":
            for r in roots:
                parities = {c & 1 for _, c in r.support}
                if len(r.support) < self.rank:
                    parities.add(0)
                if len(parities) > 1:
                    raise self._invalid(
                        f"root {_dense(r.support, self.rank)} is not in the lattice"
                    )

    def _materialize(self) -> "tuple[tuple[Root, ...], tuple[Root, ...]]":
        """Generate, check and publish (positive roots, roots).

        The negatives are the negations of the positive roots, in order.
        Only the positives are checked, since negation keeps
        <alpha, alpha^vee> = 2 and lattice membership; a support that is
        the negation of another is a duplicate.  The lists are published in
        one assignment after every check has passed; threads racing here
        build equal values.
        """
        positives = [Root(self, sup, co) for sup, co in self._positive_pairs()]
        index = {r.support: k for k, r in enumerate(positives)}
        for a in self.simple_roots:
            k = index.get(a.support)
            if k is None or positives[k] != a:
                raise self._invalid(
                    f"simple root {_dense(a.support, self.rank)} is not a positive root of "
                    f"{self.name}"
                )
            positives[k] = a  # one object per simple root, with its dense views
        negatives = []
        for r in positives:
            sup = _negated(r.support)
            co = sup if r.co_support is r.support else _negated(r.co_support)
            negatives.append(Root(self, sup, co))
        if len(index) != len(positives) or any(r.support in index for r in negatives):
            raise self._invalid("duplicate roots")
        two = 2 * self.pairing_denominator
        for r in positives:
            if _sparse_dot(r.support, r.co_support) != two:
                raise self._invalid(f"<alpha, alpha^vee> != 2 for {r!r}")
        self._check_lattice(positives)
        lists = (tuple(positives), tuple(positives + negatives))
        self._root_lists = lists
        return lists

    def to_json(self) -> dict:
        return {"type": self.family, "n": self.rank}

    def __repr__(self) -> str:  # short: the full object graph is cyclic
        return f"RootDatum({self.name})"


class _Value:
    """Base of the package's immutable value classes.

    A subclass names its fields in ``_fields``, keeps them in slots, and
    writes an ``__init__`` that sets each slot once: through
    ``_set_fields``, or, in a class built on every certificate, through
    slot setters bound once at module level.  Equality (same class, equal
    field tuples), hashing, the ``Name(field=value, ...)`` repr and
    pickling (through the constructor) all read ``_fields``; assigning or
    deleting any attribute raises an ``AttributeError`` naming it.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _astuple(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def _set_fields(self, *values) -> None:
        """Set one value per field, in ``_fields`` order."""
        for name, value in zip(self._fields, values, strict=True):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise _FrozenFieldError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise _FrozenFieldError(f"cannot delete field {name!r}")

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._astuple() == other._astuple()

    def __hash__(self) -> int:
        return hash(self._astuple())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        return self.__class__, self._astuple()


class Weight(_Value):
    """Integer vector in the character lattice of a datum's maximal torus.

    Value semantics: two weights are equal iff their datum handles and
    stored coordinates agree.  Construction requires integer coordinates,
    canonicalizes (SL) and validates lattice membership (SO_odd parity).
    ``dynkin_labels`` keeps the weight's labels in ``_labels`` on first
    use; they take no part in equality, hashing, ``repr`` or pickling.
    """

    __slots__ = ("coords", "datum", "_labels")
    _fields = ("coords", "datum")

    coords: tuple[int, ...]
    datum: RootDatum
    _labels: Optional[Mapping[int, int]]

    def __init__(self, coords: Iterable[int], datum: RootDatum):
        _set_coords(self, datum._canonical(tuple(coords)))
        _set_datum(self, datum)
        _set_labels(self, None)

    # The arithmetic below builds its results with ``_trusted_weight``,
    # skipping the constructor's checks: sums, differences, negatives and
    # integer multiples of lattice points of one datum keep the coordinate
    # count, keep an SL last coordinate at 0 and keep SO_odd coordinates of
    # equal parity, so they are canonical lattice points already.

    def __add__(self, other: "Weight") -> "Weight":
        if other.datum is not self.datum:
            raise _mismatch(self, other)
        return _trusted_weight(tuple(map(add, self.coords, other.coords)), self.datum)

    def __sub__(self, other: "Weight") -> "Weight":
        if other.datum is not self.datum:
            raise _mismatch(self, other)
        return _trusted_weight(tuple(map(sub, self.coords, other.coords)), self.datum)

    def __neg__(self) -> "Weight":
        return _trusted_weight(tuple(map(neg, self.coords)), self.datum)

    def __mul__(self, k: int) -> "Weight":
        if not isinstance(k, int):
            return NotImplemented
        return _trusted_weight(tuple(map(mul, repeat(k), self.coords)), self.datum)

    __rmul__ = __mul__

    def __deepcopy__(self, memo) -> "Weight":
        # An immutable value, like a tuple; copying would also copy its
        # datum, which compares by identity, and the read-only labels.
        return self

    def is_zero(self) -> bool:
        return not any(self.coords)

    def to_json(self) -> list[int]:
        return list(self.coords)

    def __repr__(self) -> str:
        return f"Weight({self.coords} @ {self.datum.name})"


_set_coords = Weight.coords.__set__
_set_datum = Weight.datum.__set__
_set_labels = Weight._labels.__set__


def _trusted_weight(coords: tuple[int, ...], datum: RootDatum) -> Weight:
    """A Weight from coordinates already known to be canonical."""
    w = object.__new__(Weight)
    _set_coords(w, coords)
    _set_datum(w, datum)
    _set_labels(w, None)
    return w


def _shifted(lam: Weight, support: Iterable[tuple[int, int]], t: int) -> Weight:
    """lam + t * v, for the sparse vector v given by its (index, value) ``support``.

    v must lie in lam's lattice, as any representative of its class (an SL
    root's zero-sum lift, say): the datum's ``_reduce`` makes the sum canonical.
    """
    coords = list(lam.coords)
    for i, c in support:
        coords[i] += t * c
    datum = lam.datum
    return _trusted_weight(datum._reduce(tuple(coords)), datum)


# A sparse vector: its nonzero coordinates as (index, value) pairs, in
# increasing index order.
Support = tuple[tuple[int, int], ...]

# A root's support with its coroot's support.
RootPair = tuple[Support, Support]


def _negated(support: Support) -> Support:
    return tuple([(i, -c) for i, c in support])


def _sparse_dot(a: Support, b: Support) -> int:
    # Quadratic in the support sizes, which are at most 2 for classical roots.
    total = 0
    for i, c in a:
        for j, d in b:
            if i == j:
                total += c * d
    return total


def _dense(support: Support, rank: int) -> tuple[int, ...]:
    out = [0] * rank
    for i, c in support:
        out[i] = c
    return tuple(out)


def _check_coords(coords: tuple, rank: int, name: str) -> None:
    """Raise unless ``coords`` are ``rank`` integers, a point of Z^rank."""
    if len(coords) != rank:
        raise LatticeMembershipError(f"expected {rank} coordinates for {name}, got {len(coords)}")
    for c in coords:
        if type(c) is not int:
            raise LatticeMembershipError(f"coordinate {c!r} for {name} is not an integer")


class Root:
    """A root: the sparse supports of its vector and of its coroot.

    A classical root or coroot has at most two nonzero coordinates.  For
    SL the vector's support is its lift with coordinate sum zero, and
    ``vector`` is the canonical representative with last coordinate zero.
    The dense views ``vector`` and ``coroot``, and the labels
    ``cartan_column``, are built on first access and kept.  Roots compare
    by datum identity and the two supports.
    """

    __slots__ = ("datum", "support", "co_support", "_vector", "_coroot", "_column")

    def __init__(self, datum: RootDatum, support: Support, co_support: Support):
        self.datum = datum
        self.support = support
        self.co_support = co_support
        self._vector = None
        self._coroot = None
        self._column = None

    @property
    def vector(self) -> Weight:
        if self._vector is None:
            self._vector = Weight(_dense(self.support, self.datum.rank), self.datum)
        return self._vector

    @property
    def coroot(self) -> tuple[int, ...]:
        if self._coroot is None:
            self._coroot = _dense(self.co_support, self.datum.rank)
        return self._coroot

    def __eq__(self, other) -> bool:
        if not isinstance(other, Root):
            return NotImplemented
        return (
            self.datum is other.datum
            and self.support == other.support
            and self.co_support == other.co_support
        )

    def __hash__(self) -> int:
        return hash((id(self.datum), self.support, self.co_support))

    def __repr__(self) -> str:
        return f"Root({self.vector.coords}, coroot={self.coroot})"


def _mismatch(a, b) -> DatumMismatchError:
    return DatumMismatchError(f"operands live in different data: {a.datum.name} vs {b.datum.name}")


# ---------------------------------------------------------------------------
# Core operations


def pairing(lam: Weight, alpha: Root) -> int:
    """The canonical pairing <lam, alpha^vee>, an exact integer."""
    datum = lam.datum
    if alpha.datum is not datum:
        raise _mismatch(lam, alpha)
    coords = lam.coords
    num = 0
    for i, c in alpha.co_support:
        num += coords[i] * c
    den = datum.pairing_denominator
    if den == 1:
        return num
    q, r = divmod(num, den)
    if r:
        # Weights of the classical families are checked on construction, so
        # only a custom datum's caller can supply a point off the lattice.
        error = LatticeMembershipError if datum.family == "custom" else InternalInconsistencyError
        raise error(
            f"non-integral pairing {num}/{den} of {lam.coords} with the coroot "
            f"{alpha.coroot} of {datum.name}: not a point of its lattice"
        )
    return q


def dynkin_labels(lam: Weight) -> Mapping[int, int]:
    """The nonzero labels ``{k: <lam, alpha_k^vee>}`` in increasing k, read-only.

    k indexes ``simple_roots``.  Only a simple root whose coroot meets the
    support of lam can pair nonzero with it: the datum's coordinate index
    finds those and ``pairing`` evaluates each, so the work is
    O(|supp lam|) and a point off the lattice raises ``pairing``'s error.
    The labels are computed on the first call and kept on lam.
    """
    labels = lam._labels
    if labels is not None:
        return labels
    coords = lam.coords
    index = lam.datum._coroot_index
    simple = lam.datum.simple_roots
    found = {}
    # The simple roots whose coroot meets a nonzero coordinate, in one pass:
    # ``compress`` picks the index entries of the nonzero coordinates.
    for k in sorted(set(chain.from_iterable(compress(index, coords)))):
        c = pairing(lam, simple[k])
        if c:
            found[k] = c
    labels = MappingProxyType(found)
    _set_labels(lam, labels)
    return labels


def cartan_column(alpha: Root) -> tuple[tuple[int, int], ...]:
    """The nonzero labels ``(k, <alpha, alpha_k^vee>)`` of the root alpha.

    For a simple alpha_j this is column j of the Cartan matrix, and
    ``mu + t * alpha`` has the labels of mu plus t times it; in type A it
    has at most 3 entries.  Built on first use and kept.
    """
    column = alpha._column
    if column is None:
        column = alpha._column = tuple(dynkin_labels(alpha.vector).items())
    return column


def reflect(lam: Weight, alpha: Root) -> Weight:
    """Reflection s_alpha(lam) = lam - <lam, alpha^vee> alpha."""
    return lam - pairing(lam, alpha) * alpha.vector


def dot_reflect(lam: Weight, alpha: Root) -> Weight:
    """Shifted reflection s_alpha . lam = s_alpha(lam) - alpha, for simple alpha.

    Equals ``reflect(lam + rho, alpha) - rho`` for any rho with
    ``<rho, alpha^vee> = 1``, in particular the datum's Weyl vector.
    """
    if alpha not in lam.datum.simple_roots:
        raise NonSimpleRootError(f"{alpha!r} is not a simple root of {lam.datum.name}")
    return reflect(lam, alpha) - alpha.vector


def is_dominant(lam: Weight) -> bool:
    """True iff <lam, alpha^vee> >= 0 for every simple root alpha."""
    for c in dynkin_labels(lam).values():
        if c < 0:
            return False
    return True


# ---------------------------------------------------------------------------
# The Weyl group


def positive_root_sum(datum: RootDatum) -> Weight:
    """2 rho, the sum of the positive roots."""
    return sum((beta.vector for beta in datum.positive_roots), datum.zero())


def weyl_group(datum: RootDatum) -> frozenset[Weight]:
    """The Weyl group W as the W-orbit of 2 rho, one weight per element.

    2 rho, the sum of the positive roots, is a lattice point that pairs to
    2 with every simple coroot, so it is regular, and W acts simply
    transitively on the Weyl chambers (Bourbaki, *Lie* VI 1.5).  The orbit
    is the closure of 2 rho under ``reflect`` by the simple roots; it never
    reads the Weyl vector, so its size checks ``weyl_group_order``.  Bounded
    at rank ``WEYL_GROUP_MAX_RANK`` and, so that custom data with an infinite
    group raise, at 2^n n! weights, the largest classical W of rank n.
    """
    n = datum.rank
    if n > WEYL_GROUP_MAX_RANK:
        raise RankRangeError(f"rank {n} exceeds the Weyl group bound {WEYL_GROUP_MAX_RANK}")
    two_rho = positive_root_sum(datum)
    labels = dynkin_labels(two_rho)
    for k, alpha in enumerate(datum.simple_roots):
        if labels.get(k, 0) < 1:
            raise datum._invalid(
                f"the positive roots sum to {two_rho.coords}, which pairs to "
                f"{labels.get(k, 0)} with the simple root {alpha.vector.coords}: not regular"
            )
    bound = 2**n * factorial(n)
    orbit, frontier = {two_rho}, [two_rho]
    for lam in frontier:  # breadth first: the frontier grows while it is read
        for alpha in datum.simple_roots:
            w = reflect(lam, alpha)
            if w not in orbit:
                if len(orbit) == bound:
                    raise UnsupportedDatumError(
                        f"the Weyl group of {datum.name} has more than {bound} elements, "
                        f"more than any classical datum of rank {n}"
                    )
                orbit.add(w)
                frontier.append(w)
    return frozenset(orbit)


def weyl_group_order(datum: RootDatum) -> int:
    """|W| by Kostant's height formula, without enumerating W.

    The height of a positive coroot is its pairing with the Weyl vector.
    With n_k positive roots of height k, the exponents are the dual
    partition of (n_1, n_2, ...), so |W| = prod_k (k+1)^(n_k - n_{k+1})
    (Kostant, Amer. J. Math. 81 (1959); the coroots have the same Weyl
    group).
    """
    rho = datum.weyl_vector
    if rho is None:
        raise UnsupportedDatumError(
            f"{datum.name} has no Weyl vector; its Weyl group order needs one"
        )
    counts: dict[int, int] = {}
    for beta in datum.positive_roots:
        height = pairing(rho, beta)
        if height < 1:
            raise datum._invalid(f"positive root {beta!r} has coroot height {height} < 1")
        counts[height] = counts.get(height, 0) + 1
    order = 1
    for k in range(1, max(counts, default=0) + 1):
        exponent_count = counts.get(k, 0) - counts.get(k + 1, 0)
        if exponent_count < 0:
            # Only custom data can get here: a root system has at least as
            # many positive roots of height k as of height k + 1.
            raise datum._invalid(
                f"{counts.get(k + 1, 0)} positive roots of height {k + 1} but "
                f"{counts.get(k, 0)} of height {k}: not a root system"
            )
        order *= (k + 1) ** exponent_count
    return order


# ---------------------------------------------------------------------------
# Construction of the classical data


# The datum cache.  ``make_datum`` returns the same handle for the same
# (family, rank) while any object (a weight, a root, a memo key) holds the
# datum, through the weak ``_live_data``; ``_recent_datum`` holds the
# ``_DATUM_CACHE_SIZE`` data asked for most recently, so that only those
# and the data still in use stay in memory.
_DATUM_CACHE_SIZE = 64
_live_data = weakref.WeakValueDictionary()
_datum_lock = allocate_lock()  # threading.Lock, without importing threading


def make_datum(family: str, n: int) -> RootDatum:
    """Construct (and cache) the root datum of a classical family.

    ``n`` is the rank of the character lattice: GL(n), SL(n), Sp(2n)
    [rank n], SO(2n+1) [rank n], SO(2n) [rank n], or a rank-n torus.
    """
    family = normalize_family(family)
    # Checked before the cache, where 2.0 would find the entry for 2.
    _check_rank(n, family, 1 if family in ("GL", "SL", "Torus") else 2)
    return _recent_datum(family, n)


@lru_cache(maxsize=_DATUM_CACHE_SIZE)
def _recent_datum(family: str, n: int) -> RootDatum:
    # Threads that miss together build under the lock, so all get one handle.
    key = (family, n)
    with _datum_lock:
        datum = _live_data.get(key)
        if datum is None:
            datum = _live_data[key] = _build_datum(family, n)
    return datum


def make_torus(n: int) -> RootDatum:
    """A rank-n torus datum: empty root set."""
    return make_datum("Torus", n)


def _check_rank(rank, label: str, least: int = 0) -> None:
    """Raise ``RankRangeError`` unless rank is an int with least <= rank <= MAX_RANK."""
    if type(rank) is not int:
        raise RankRangeError(f"{label} rank must be an integer, got {rank!r}")
    if rank < least:
        raise RankRangeError(f"{label} requires n >= {least}, got {rank}")
    if rank > MAX_RANK:
        raise RankRangeError(f"{label} rank {rank} exceeds the bound {MAX_RANK}")


# The supports ((k, s), (k + 1, -s)) of the simple roots l_k - l_{k+1},
# scaled by s, for k = 0, 1, ...: A_{n-1} sits inside A_n, so every datum
# takes its first n - 1 chain supports from one list per scale, grown
# under ``_datum_lock`` to the largest rank built (at most MAX_RANK - 1
# supports).  A new datum then leaves few objects for the cyclic collector
# to track, so building one rarely pulls a collection into its caller.
_CHAINS: dict[int, list[Support]] = {1: [], 2: []}

# One copy of each coroot-index entry of a classical datum, kept by
# ``RootDatum.__init__``: tuples of at most three consecutive indices below
# MAX_RANK, so the table stays small.
_INDEX_ENTRIES: dict[tuple[int, ...], tuple[int, ...]] = {}


def _chain(s: int, n: int) -> list[Support]:
    """The first n - 1 chain supports of scale s.  Call with ``_datum_lock`` held."""
    supports = _CHAINS[s]
    supports.extend(((k, s), (k + 1, -s)) for k in range(len(supports), n - 1))
    return supports[: n - 1]


def _build_datum(family: str, n: int) -> RootDatum:
    """The classical datum (family, n).  Call with ``_datum_lock`` held."""

    # Supports of l_i - l_j and l_i + l_j (i < j) and of l_i, scaled by s.
    def minus(s: int) -> list[Support]:
        return [((i, s), (j, -s)) for i in range(n) for j in range(i + 1, n)]

    def plus(s: int) -> list[Support]:
        return [((i, s), (j, s)) for i in range(n) for j in range(i + 1, n)]

    def single(s: int) -> list[Support]:
        return [((i, s),) for i in range(n)]

    def same(supports: list[Support]) -> list[RootPair]:
        return [(sup, sup) for sup in supports]

    # Each family gives its simple (root, coroot) pairs, its Weyl vector
    # and a generator of its positive pairs, which the datum calls on
    # first access to its root list.
    den, name = 1, f"{family}({n})"
    if family == "Torus":
        simples, rho, positives, name = [], (0,) * n, lambda: [], f"T({n})"
    elif family in ("GL", "SL"):
        steps = _chain(1, n)
        simples, rho = zip(steps, steps), tuple(range(n - 1, -1, -1))
        positives = lambda: same(minus(1))
    elif family == "Sp":
        steps = _chain(1, n)
        simples = chain(zip(steps, steps), [(((n - 1, 2),), ((n - 1, 1),))])
        rho = tuple(range(n, 0, -1))
        positives = lambda: same(minus(1)) + same(plus(1)) + list(zip(single(2), single(1)))
        name = f"Sp({2 * n})"
    elif family == "SO_even":
        steps, last = _chain(1, n), ((n - 2, 1), (n - 1, 1))
        simples, rho = chain(zip(steps, steps), [(last, last)]), tuple(range(n - 1, -1, -1))
        positives = lambda: same(minus(1)) + same(plus(1))
        name = f"SO({2 * n})"
    elif family == "SO_odd":
        # Spin weight lattice, half-character units: every plain vector
        # is doubled; short coroots stay doubled, long coroots are the
        # plain e_i -+ e_j.
        last = ((n - 1, 2),)
        simples = chain(zip(_chain(2, n), _chain(1, n)), [(last, last)])
        rho = tuple(2 * (n - i) - 1 for i in range(n))
        positives = lambda: (
            list(zip(minus(2), minus(1))) + list(zip(plus(2), plus(1))) + same(single(2))
        )
        den, name = 2, f"SO({2 * n + 1})"
    return RootDatum(family, n, simples, rho, positives, pairing_denominator=den, name=name)


def custom_datum(
    rank: int,
    positive_pairs: Iterable[tuple[tuple[int, ...], tuple[int, ...]]],
    simple_coords: Iterable[tuple[int, ...]],
    weyl_vector_coords: Optional[tuple[int, ...]] = None,
    pairing_denominator: int = 1,
    name: str = "custom",
) -> RootDatum:
    """A hand-built root datum, e.g. for isogeny sources/targets.

    ``positive_pairs`` lists the positive roots as (vector, coroot); the
    negatives are their negations.  ``weyl_vector_coords`` may be
    omitted for lattices that contain no vector pairing to 1 with every
    simple coroot (adjoint data).  The data come from the caller, so the
    root list is built and checked here: data violating the root-datum
    axioms, more simple roots than the rank, simple roots that are not a
    base of the positive roots, or linearly dependent simple roots, raise
    ``InvalidRootDatumError``; a rank that is not an ``int``, is negative
    or is above ``MAX_RANK`` raises ``RankRangeError``.
    """
    _check_rank(rank, name)

    def support(coords: Iterable[int]) -> Support:
        coords = tuple(coords)
        _check_coords(coords, rank, name)
        return tuple((i, c) for i, c in enumerate(coords) if c)

    positives = [(support(vec), support(cov)) for vec, cov in positive_pairs]
    coroot_of = dict(positives)
    simples = {}
    for coords in simple_coords:
        sup = support(coords)
        if sup not in coroot_of:
            raise InvalidRootDatumError(
                f"{name}: simple root {_dense(sup, rank)} is not a positive root of {name}"
            )
        if sup in simples:
            raise InvalidRootDatumError(f"{name}: simple root {_dense(sup, rank)} is repeated")
        simples[sup] = coroot_of[sup]
    if len(simples) > rank:
        raise InvalidRootDatumError(
            f"{name}: {len(simples)} simple roots exceed the rank {rank}; a base is linearly "
            "independent"
        )
    datum = RootDatum(
        "custom",
        rank,
        simples.items(),
        weyl_vector_coords,
        lambda: positives,
        pairing_denominator=pairing_denominator,
        name=name,
    )
    datum._materialize()
    _check_base(name, rank, [sup for sup, _ in positives], list(simples))
    _check_independent(name, rank, simples)
    return datum


def _check_independent(name: str, rank: int, simples: Iterable[Support]) -> None:
    """Raise unless the simple roots are linearly independent over Q.

    Exact fraction-free elimination on the sparse supports.  Each kept row
    leads at its least coordinate, and no two kept rows lead at the same
    one.  A root is reduced against the kept row at its lead, by integer
    cross-multiplication, which clears that coordinate, and divided by the
    gcd of its entries; it is kept once its lead is free, and is dependent
    on the roots before it if it vanishes.
    """
    kept: dict[int, dict[int, int]] = {}
    for sup in simples:
        row = dict(sup)
        while row:
            lead = min(row)
            pivot = kept.get(lead)
            if pivot is None:
                kept[lead] = row
                break
            a, b = pivot[lead], row[lead]
            row = {i: a * row.get(i, 0) - b * pivot.get(i, 0) for i in row.keys() | pivot.keys()}
            row = {i: c for i, c in row.items() if c}
            g = gcd(*row.values())
            row = {i: c // g for i, c in row.items()}
        if not row:
            raise InvalidRootDatumError(
                f"{name}: simple root {_dense(sup, rank)} is a rational combination of the "
                "simple roots before it; a base is linearly independent"
            )


def _check_base(name: str, rank: int, positives: list[Support], simples: list[Support]) -> None:
    """Raise unless the simple roots form a base of the positive roots.

    Following Humphreys, *Introduction to Lie Algebras and Representation
    Theory*, 10.1-10.2: every positive root is reached from the simple
    roots by adding one simple root at a time without leaving R+, and no
    simple root minus a positive root is positive, so no simple root is a
    sum of two positive roots.  O(|R+| |S|) set lookups.
    """

    def plus(a: Support, b: Support, s: int) -> Support:
        out = dict(a)
        for i, c in b:
            out[i] = out.get(i, 0) + s * c
        return tuple(sorted((i, c) for i, c in out.items() if c))

    positive = set(positives)
    reached, frontier = set(simples), list(simples)
    for beta in frontier:  # breadth first: the frontier grows while it is read
        for alpha in simples:
            gamma = plus(beta, alpha, 1)
            if gamma in positive and gamma not in reached:
                reached.add(gamma)
                frontier.append(gamma)
    for beta in positives:
        if beta not in reached:
            raise InvalidRootDatumError(
                f"{name}: positive root {_dense(beta, rank)} is not reached from the simple "
                "roots by adding simple roots: the simple roots are not a base"
            )
    for alpha in simples:
        for beta in positives:
            if plus(alpha, beta, -1) in positive:
                raise InvalidRootDatumError(
                    f"{name}: simple root {_dense(alpha, rank)} minus the positive root "
                    f"{_dense(beta, rank)} is a positive root: the simple roots are not a base"
                )
