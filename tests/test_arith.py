from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from charpflag import (
    IntegerBoundError,
    NotPrimeError,
    RingChar,
    andersen_h1,
    check_equivariant_smoothness,
    classify_weight,
    make_datum,
)
from charpflag.arith import (
    TRIAL_DIVISION_BOUND,
    _smallest_factor,
    is_prime,
    prime_power_base,
    require_prime,
)

from conftest import prime_power_reference


@given(st.integers(-5, 20000))
def test_primality_and_splitting_match_the_reference(n):
    split = prime_power_reference(n)
    assert prime_power_base(n) == split
    assert is_prime(n) == (split is not None and split[0] == n)


def test_trial_division_is_bounded():
    assert prime_power_base(TRIAL_DIVISION_BOUND) == (2, 31)
    assert is_prime(TRIAL_DIVISION_BOUND - 1)  # 2^31 - 1
    for n in (TRIAL_DIVISION_BOUND + 1, 2**61 - 1):
        with pytest.raises(IntegerBoundError, match="exceeds the trial-division bound"):
            is_prime(n)
        with pytest.raises(IntegerBoundError, match="exceeds the trial-division bound"):
            prime_power_base(n)


def test_a_certificate_trial_divides_its_prime_once():
    # Each of its 2 d^2 + 6 primality checks asks the same question.
    _smallest_factor.cache_clear()
    cert = check_equivariant_smoothness(3, 6, 1000003)
    assert cert.final_verdict == "no_lift_where_p_nonzero"
    info = _smallest_factor.cache_info()
    assert info.misses == 1 and info.hits > 0


# A float, a bool or a Fraction equal to a prime is not one: only an int
# can be a prime or a prime power.
NON_INTEGERS = [7.5, 7.0, 5.0, 25.0, True, Fraction(7), Fraction(25), Fraction(15, 2)]


@pytest.mark.parametrize("n", NON_INTEGERS, ids=repr)
def test_only_integers_are_primes_or_prime_powers(n):
    assert not is_prime(n)
    assert prime_power_base(n) is None
    with pytest.raises(NotPrimeError, match="is not prime"):
        require_prime(n)


@pytest.mark.parametrize("p", NON_INTEGERS, ids=repr)
def test_entry_points_reject_non_integer_primes(p):
    gl6 = make_datum("GL", 6)
    mu = gl6.weight((0, 0, -5, 5, 0, 0))
    calls = [
        lambda: check_equivariant_smoothness(3, 6, p),
        lambda: classify_weight(gl6.zero(), p),
        lambda: andersen_h1(mu, p),
        lambda: RingChar.prime(p),
        lambda: RingChar.prime_power(p, 2),
    ]
    for call in calls:
        with pytest.raises(NotPrimeError):
            call()
