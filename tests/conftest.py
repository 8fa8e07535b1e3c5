"""Shared hypothesis strategies and references for charpflag tests."""

from hypothesis import strategies as st

from charpflag import PMorphismData, make_datum

CLASSICAL_FAMILIES = ("GL", "SL", "Sp", "SO_odd", "SO_even")
FAMILY_MIN_RANK = {"GL": 1, "SL": 2, "Sp": 2, "SO_odd": 2, "SO_even": 2}


@st.composite
def classical_datums(draw, families=CLASSICAL_FAMILIES, min_rank=2, max_rank=8):
    family = draw(st.sampled_from(families))
    n = draw(st.integers(max(min_rank, FAMILY_MIN_RANK[family]), max_rank))
    return make_datum(family, n)


@st.composite
def weights_of(draw, datum, coord_bound=60):
    base = draw(st.tuples(*([st.integers(-coord_bound, coord_bound)] * datum.rank)))
    if datum.family == "SO_odd":
        parity = draw(st.integers(0, 1))
        base = tuple(2 * c + parity for c in base)
    return datum.weight(base)


@st.composite
def datum_weights(draw, coord_bound=60, **datum_kwargs):
    datum = draw(classical_datums(**datum_kwargs))
    return draw(weights_of(datum, coord_bound=coord_bound))


@st.composite
def weight_root_pairs(draw, simple_only=False, **kwargs):
    w = draw(datum_weights(**kwargs))
    pool = w.datum.simple_roots if simple_only else w.datum.roots
    return w, draw(st.sampled_from(pool))


def rebuilt(value, **changes):
    """``value`` built again through its class's constructor, with ``changes``."""
    fields = {name: getattr(value, name) for name in type(value)._fields}
    fields.update(changes)
    return type(value)(**fields)


def prime_power_reference(q):
    """(p, k) with q = p^k, k >= 1, by trial division over every f; None otherwise."""
    for f in range(2, q + 1):
        if q % f == 0:
            k = 0
            while q % f == 0:
                q //= f
                k += 1
            return (f, k) if q == 1 else None
    return None


def scalar_p_morphism(datum, k, ring_char):
    """The data h = k*id, d = id, q == k on datum: the identity for k = 1,
    the Frobenius for k = p."""
    h = tuple(tuple(k if i == j else 0 for j in range(datum.rank)) for i in range(datum.rank))
    return PMorphismData(
        source=datum,
        target=datum,
        h=h,
        d_map={a: a for a in datum.roots},
        q={a: k for a in datum.roots},
        ring_char=ring_char,
    )
