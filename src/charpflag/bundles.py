"""Weight-level model of equivariant vector bundles on Grassmannians.

An equivariant bundle on GL_N/P is determined by a P-representation; this
module tracks only its multiset of torus weights, as a tuple of weights
with multiplicity, so the bundle's rank is the tuple's length.  That
shadow suffices for the tautological bundle on Gr(d, N), its Frobenius
twist (which multiplies every weight by p), the endomorphism bundle
(pairwise weight differences), and the induced line-bundle filtration
after pulling back to the Borel.
"""

from __future__ import annotations

from itertools import compress
from operator import attrgetter

from .errors import RankRangeError
from .arith import require_prime
from .lattice import Weight, _mismatch, _shifted, make_datum


def _check_grassmannian(d: int, n: int, what: str) -> None:
    """Raise ``RankRangeError`` unless d and N are ints with 2 <= d <= N - 2."""
    if type(d) is not int or type(n) is not int:
        raise RankRangeError(f"{what} requires integer d and N, got d={d!r}, N={n!r}")
    if not 2 <= d <= n - 2:
        raise RankRangeError(f"{what} requires 2 <= d <= N - 2, got d={d}, N={n}")


def tautological_weights(d: int, n: int) -> tuple[Weight, ...]:
    """Weights (l_1, ..., l_d) of the tautological subbundle on Gr(d, N).

    The parabolic of d x (N-d) block type acts on the fiber through the
    projection onto the d x d block.
    """
    _check_grassmannian(d, n, "tautological bundle")
    datum = make_datum("GL", n)
    return tuple(datum.fundamental_character(i) for i in range(1, d + 1))


def frobenius_twist(weights: tuple[Weight, ...], p: int) -> tuple[Weight, ...]:
    """Frobenius pullback: every weight multiplied by p, rank unchanged."""
    require_prime(p)
    return tuple(_shifted(w, _support(w), p - 1) for w in weights)  # w + (p-1) w


def end_weights(weights: tuple[Weight, ...]) -> tuple[Weight, ...]:
    """Weights of End(E): all pairwise differences w - v, with multiplicity.

    Cardinality is rank^2 and the zero weight occurs at least rank times
    (the diagonal).  The weights must share one datum: a difference across
    data would mix coordinates of two lattices, so it raises
    ``DatumMismatchError``.
    """
    for v in weights:
        if v.datum is not weights[0].datum:
            raise _mismatch(weights[0], v)
    supports = [_support(v) for v in weights]
    return tuple(_shifted(w, sup, -1) for w in weights for sup in supports)


def _support(w: Weight) -> list[tuple[int, int]]:
    """The nonzero coordinates of w as (index, value) pairs."""
    coords = w.coords
    return [(i, coords[i]) for i in compress(range(len(coords)), coords)]


def pullback_filtration(weights: tuple[Weight, ...]) -> tuple[Weight, ...]:
    """The weights in the fixed filtration order (lexicographic).

    Models the equivariant line-bundle filtration of the pullback to G/B.
    The true filtration order is not canonical; a fixed total order keeps
    reports deterministic, and every consumer here is order-independent.
    """
    return tuple(sorted(weights, key=attrgetter("coords")))
