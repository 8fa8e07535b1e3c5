import pytest
from hypothesis import given
from hypothesis import strategies as st

from charpflag import IntegerBoundError
from charpflag.arith import TRIAL_DIVISION_BOUND, is_prime, prime_power_base

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
