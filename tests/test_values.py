"""The value classes' contract: equality, hashing, repr, pickling, immutability."""

import pickle

import pytest

from charpflag import (
    BwbStatus,
    CaseRow,
    Certificate,
    H1Status,
    MorphismVerdict,
    PMorphismData,
    RigidityVerdict,
    RingChar,
    Weight,
    frobenius_rigidity_verdict,
    make_datum,
    make_torus,
)
from charpflag.certificate import ConditionCheck
from charpflag.rootmorph import MorphismFailure

from conftest import rebuilt

GL3 = make_datum("GL", 3)
ALPHA, BETA = GL3.simple_roots


class FrozenMap(dict):
    """A hashable mapping, so that a PMorphismData built on it hashes."""

    def __hash__(self):
        return hash(frozenset(self.items()))


def _weight(*coords):
    return Weight(coords, GL3)


def _row():
    return CaseRow(_weight(5, 0, -5), "upper_far", BETA, 3, H1Status("zero"))


def _check(holds=True):
    return ConditionCheck(holds, "detail")


# For each class: a function that builds a fresh instance, and for each field
# a value that differs from the one it builds.
VALUES = {
    Weight: (
        lambda: _weight(1, 0, -1),
        {"coords": (0, 1, -1), "datum": make_torus(3)},
    ),
    H1Status: (
        lambda: H1Status("nonzero", _weight(1, 0, 0), "reason"),
        {"status": "zero", "highest_weight": _weight(1, 1, 0), "reason": None},
    ),
    BwbStatus: (
        lambda: BwbStatus(1, _weight(1, 1, 0)),
        {"degree": 2, "highest_weight": None},
    ),
    CaseRow: (
        _row,
        {
            "weight": _weight(0, 5, -5),
            "case_tag": "lower_far",
            "chosen_simple_root": ALPHA,
            "pairing_value": 4,
            "h1": H1Status("undetermined", reason="injected"),
        },
    ),
    ConditionCheck: (_check, {"holds": False, "detail": "other"}),
    Certificate: (
        lambda: Certificate(
            2,
            6,
            5,
            (_row(),),
            _check(),
            _check(),
            _check(),
            RigidityVerdict(False, "reason"),
            RigidityVerdict(False, "reason"),
        ),
        {
            "d": 3,
            "N": 7,
            "p": 7,
            "rows": (),
            "condition_i": _check(False),
            "condition_ii": _check(False),
            "condition_iii": _check(False),
            "rigidity_mod_p_squared": RigidityVerdict(True),
            "rigidity_char_zero": RigidityVerdict(True),
            "assumptions": (),
        },
    ),
    RingChar: (
        lambda: RingChar.prime_power(5, 2),
        {"kind": "prime", "p": 7, "n": 3},
    ),
    MorphismFailure: (
        lambda: MorphismFailure("q_positive", ALPHA, "detail"),
        {"relation": "q_admissible", "root": BETA, "detail": "other"},
    ),
    MorphismVerdict: (
        lambda: MorphismVerdict((MorphismFailure("q_positive", ALPHA, "detail"),)),
        {"failures": ()},
    ),
    PMorphismData: (
        lambda: PMorphismData(
            GL3,
            GL3,
            ((1, 0, 0), (0, 1, 0), (0, 0, 1)),
            FrozenMap({a: a for a in GL3.roots}),
            FrozenMap({a: 1 for a in GL3.roots}),
            RingChar.prime(5),
        ),
        {
            "source": make_datum("SL", 3),
            "target": make_datum("SL", 3),
            "h": ((2, 0, 0), (0, 2, 0), (0, 0, 2)),
            "d_map": FrozenMap(),
            "q": FrozenMap({a: 2 for a in GL3.roots}),
            "ring_char": RingChar.zero(),
        },
    ),
    RigidityVerdict: (
        lambda: RigidityVerdict(False, "reason", "note"),
        {"lift_possible": True, "reason": None, "note": "other"},
    ),
}

# Fields that a variation changes along with its own, where the class
# rejects the variation alone: a prime ring takes no exponent.
ALONG = {(RingChar, "kind"): {"n": None}}


def test_every_value_class_is_covered():
    assert len(VALUES) == 11
    for cls, (make, changes) in VALUES.items():
        assert set(changes) == set(cls._fields), cls.__name__


@pytest.mark.parametrize("cls", VALUES, ids=lambda cls: cls.__name__)
def test_value_contract(cls):
    make, changes = VALUES[cls]
    a, b = make(), make()
    assert type(a) is cls and a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b) and repr(a) == repr(b)
    assert pickle.loads(pickle.dumps(a)) == a
    assert not hasattr(a, "__dict__")
    for name, value in changes.items():
        changed = rebuilt(a, **{**ALONG.get((cls, name), {}), name: value})
        assert changed != a and getattr(changed, name) == value, name
        with pytest.raises(AttributeError, match=f"^cannot assign to field '{name}'$"):
            setattr(a, name, value)
        with pytest.raises(AttributeError, match=f"^cannot delete field '{name}'$"):
            delattr(a, name)
    with pytest.raises(AttributeError, match="^cannot assign to field 'extra'$"):
        a.extra = 1
    assert a == b


def test_reprs_keep_their_format():
    # Error messages embed these reprs, the conflicting-verdicts one among them.
    status = H1Status.nonzero(make_datum("GL", 3).zero())
    assert repr(status) == (
        "H1Status(status='nonzero', highest_weight=Weight((0, 0, 0) @ GL(3)), reason=None)"
    )
    verdict = frobenius_rigidity_verdict(make_torus(2), RingChar.zero())
    assert repr(verdict) == (
        "RigidityVerdict(lift_possible=True, reason=None, "
        "note='toral datum: Frobenius deforms by the multiplication-by-p map')"
    )


def test_defaults_are_filled_by_the_constructors():
    assert PMorphismData(GL3, GL3, (), {}, {}).ring_char == RingChar.zero()
    assert (BwbStatus().degree, BwbStatus().highest_weight) == (None, None)
    assert MorphismVerdict().failures == ()
    assert H1Status("zero") == H1Status("zero", None, None)
    assert RigidityVerdict(True) == RigidityVerdict(lift_possible=True, reason=None, note=None)


def test_values_of_different_classes_are_unequal():
    assert H1Status("zero") != BwbStatus()
    assert RigidityVerdict(True) != ConditionCheck(True, None)
