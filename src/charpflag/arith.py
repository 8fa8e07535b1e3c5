"""Primality and prime-power splitting of integers, by trial division."""

from __future__ import annotations

from functools import lru_cache
from typing import Optional

from .errors import IntegerBoundError, NotPrimeError

# Largest integer that is tested or split by trial division: at this size
# one trial division takes a few milliseconds, and larger inputs are
# rejected rather than left to run for minutes.
TRIAL_DIVISION_BOUND = 2**31


@lru_cache(maxsize=256)
def _smallest_factor(n: int) -> int:
    """Smallest prime factor of 2 <= n <= TRIAL_DIVISION_BOUND.

    Kept for the last 256 n, since a certificate checks its p once per row.
    Callers pass only an ``int``: the cache would answer ``7.0`` as ``7``.
    """
    if n > TRIAL_DIVISION_BOUND:
        raise IntegerBoundError(f"{n} exceeds the trial-division bound {TRIAL_DIVISION_BOUND}")
    if n % 2 == 0:
        return 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return f
        f += 2
    return n


def is_prime(p: int) -> bool:
    """Whether p is a prime; only an ``int`` can be one (not a bool, float or Fraction)."""
    return type(p) is int and p >= 2 and _smallest_factor(p) == p


def require_prime(p: int, label: str = "p = ") -> None:
    """Raise ``NotPrimeError`` with the message ``{label}{p} is not prime``."""
    if not is_prime(p):
        raise NotPrimeError(f"{label}{p} is not prime")


def prime_power_base(q: int) -> Optional[tuple[int, int]]:
    """(p, k) with q = p^k, k >= 1, or None if q is not a prime power (or not an ``int``)."""
    if type(q) is not int or q < 2:
        return None
    p = _smallest_factor(q)
    k = 0
    while q % p == 0:
        q //= p
        k += 1
    return (p, k) if q == 1 else None
