"""Primality and prime-power splitting of integers, by trial division."""

from __future__ import annotations

from typing import Optional


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p < 4:
        return True
    if p % 2 == 0:
        return False
    f = 3
    while f * f <= p:
        if p % f == 0:
            return False
        f += 2
    return True


def prime_power_base(q: int) -> Optional[tuple[int, int]]:
    """(p, k) with q = p^k, k >= 1, or None if q is not a prime power."""
    if q < 2:
        return None
    f = 2
    while f * f <= q:
        if q % f == 0:
            k = 0
            while q % f == 0:
                q //= f
                k += 1
            return (f, k) if q == 1 else None
        f += 1
    return (q, 1)
