"""charpflag: exact characteristic-p computations on flag varieties.

Root data and Weyl combinatorics for the classical groups, decision
procedures for H^i(G/B, L_lambda) in characteristic p, weight-level
Frobenius twists of tautological bundles on Grassmannians, validation of
rigidified root-datum isogenies, and automated non-liftability
certificates for projectivized Frobenius pullbacks.
"""

__version__ = "0.1.0"

from .errors import (
    CharpFlagError,
    DatumMismatchError,
    DimensionMismatchError,
    DomainError,
    IntegerBoundError,
    InternalInconsistencyError,
    InvalidRootDatumError,
    LatticeMembershipError,
    NonSimpleRootError,
    NotPrimeError,
    RankRangeError,
    ResiduePrimeError,
    UnsupportedDatumError,
    WeightShapeError,
)
from .lattice import (
    Root,
    RootDatum,
    Weight,
    cartan_column,
    custom_datum,
    dot_reflect,
    dynkin_labels,
    is_dominant,
    make_datum,
    make_torus,
    pairing,
    reflect,
    weyl_group,
    weyl_group_order,
)
from .cohomology import (
    BwbStatus,
    FiltrationH1,
    H1Status,
    andersen_h1,
    bwb_char0,
    weyl_dim,
)
from .bundles import (
    end_weights,
    frobenius_twist,
    pullback_filtration,
    tautological_weights,
)
from .rootmorph import (
    MorphismVerdict,
    PMorphismData,
    RigidityVerdict,
    RingChar,
    frobenius_rigidity_verdict,
    validate_p_morphism,
)
from .certificate import (
    CaseRow,
    Certificate,
    VERDICT_INCONCLUSIVE,
    VERDICT_NO_LIFT,
    certificate_from_rows,
    check_equivariant_smoothness,
    classify_weight,
)

__all__ = [
    "__version__",
    # errors
    "CharpFlagError",
    "DatumMismatchError",
    "DimensionMismatchError",
    "DomainError",
    "IntegerBoundError",
    "InternalInconsistencyError",
    "InvalidRootDatumError",
    "LatticeMembershipError",
    "NonSimpleRootError",
    "NotPrimeError",
    "RankRangeError",
    "ResiduePrimeError",
    "UnsupportedDatumError",
    "WeightShapeError",
    # lattice
    "Root",
    "RootDatum",
    "Weight",
    "cartan_column",
    "custom_datum",
    "dot_reflect",
    "dynkin_labels",
    "is_dominant",
    "make_datum",
    "make_torus",
    "pairing",
    "reflect",
    "weyl_group",
    "weyl_group_order",
    # cohomology
    "BwbStatus",
    "FiltrationH1",
    "H1Status",
    "andersen_h1",
    "bwb_char0",
    "weyl_dim",
    # bundles
    "end_weights",
    "frobenius_twist",
    "pullback_filtration",
    "tautological_weights",
    # rootmorph
    "MorphismVerdict",
    "PMorphismData",
    "RigidityVerdict",
    "RingChar",
    "frobenius_rigidity_verdict",
    "validate_p_morphism",
    # certificate
    "CaseRow",
    "Certificate",
    "VERDICT_INCONCLUSIVE",
    "VERDICT_NO_LIFT",
    "certificate_from_rows",
    "check_equivariant_smoothness",
    "classify_weight",
]
