"""Weight-level model of equivariant vector bundles on Grassmannians.

An equivariant bundle on GL_N/P is determined by a P-representation; this
module tracks only its multiset of torus weights.  That shadow suffices
for the tautological bundle on Gr(d, N), its Frobenius twist (which
multiplies every weight by p), the endomorphism bundle (pairwise weight
differences), and the induced line-bundle filtration after pulling back
to the Borel.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from operator import attrgetter

from .errors import DatumMismatchError, RankRangeError
from .arith import require_prime
from .lattice import RootDatum, Weight, _shifted, make_datum


@dataclass(frozen=True, slots=True)
class EquivariantBundleWeights:
    """Multiset of torus weights of the defining P-representation.

    The multiset cardinality equals the bundle rank; weights are kept with
    multiplicity (repeated weights matter for rank bookkeeping).
    """

    datum: RootDatum
    weights: tuple[Weight, ...]
    label: str

    def __post_init__(self):
        datum = self.datum
        for w in self.weights:
            if w.datum is not datum:
                raise DatumMismatchError(
                    f"weight {w!r} of bundle {self.label} is not a weight of {self.datum.name}"
                )

    @property
    def rank(self) -> int:
        return len(self.weights)


def tautological_weights(d: int, n: int) -> EquivariantBundleWeights:
    """Weights {l_1, ..., l_d} of the tautological subbundle on Gr(d, N).

    The parabolic of d x (N-d) block type acts on the fiber through the
    projection onto the d x d block.
    """
    if not 2 <= d <= n - 2:
        raise RankRangeError(f"tautological bundle requires 2 <= d <= N - 2, got d={d}, N={n}")
    datum = make_datum("GL", n)
    return EquivariantBundleWeights(
        datum=datum,
        weights=tuple(datum.fundamental_character(i) for i in range(1, d + 1)),
        label=f"S(d={d},N={n})",
    )


def frobenius_twist(bundle: EquivariantBundleWeights, p: int) -> EquivariantBundleWeights:
    """Frobenius pullback: every weight multiplied by p, rank unchanged."""
    require_prime(p)
    return EquivariantBundleWeights(
        datum=bundle.datum,
        weights=tuple(_shifted(w, _support(w), p - 1) for w in bundle.weights),  # w + (p-1) w
        label=f"F*{bundle.label}",
    )


def end_weights(bundle: EquivariantBundleWeights) -> EquivariantBundleWeights:
    """Weights of End(E): all pairwise differences, with multiplicity.

    Cardinality is rank^2 and the zero weight occurs at least rank times
    (the diagonal).
    """
    supports = [_support(v) for v in bundle.weights]
    diffs = tuple(_shifted(w, sup, -1) for w in bundle.weights for sup in supports)
    return EquivariantBundleWeights(
        datum=bundle.datum, weights=diffs, label=f"End({bundle.label})"
    )


def _support(w: Weight) -> list[tuple[int, int]]:
    """The nonzero coordinates of w as (index, value) pairs."""
    coords = w.coords
    return [(i, coords[i]) for i in compress(range(len(coords)), coords)]


def pullback_filtration(bundle: EquivariantBundleWeights) -> tuple[Weight, ...]:
    """The bundle's weights in the fixed filtration order (lexicographic).

    Models the equivariant line-bundle filtration of the pullback to G/B.
    The true filtration order is not canonical; a fixed total order keeps
    reports deterministic, and every consumer here is order-independent.
    """
    return tuple(sorted(bundle.weights, key=attrgetter("coords")))
