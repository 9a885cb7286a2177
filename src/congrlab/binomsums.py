"""Central binomial sums over half ranges, with several weight families.

All modular evaluators stream in a single O(p) pass, maintaining the
central binomial coefficient, the power of t and the weight sequence
incrementally on raw integers.  Exact-rational twins (suffix ``_exact``)
recompute the same sums over Q for pinning tests and sharpness checks.

Families (p an odd prime, working modulus p^k from the ring):

* ``s1(t, d)``   = sum_{k=0}^{(p-3)/2} C(2k,k) t^k / (2k+1)^(d+1)
* ``s2(t, d)``   = sum_{k=1}^{(p-1)/2} C(2k,k) t^k / k^d
* ``weighted_sums(t)`` = the pair
  (sum_{k=0}^{(p-3)/2} C(2k,k) t^k Hbar_k(2)/(2k+1),
   sum_{k=0}^{(p-1)/2} C(2k,k) t^k Hbar_k(2))
* ``fib_lucas_sum(kind)`` = sum_{k=0}^{(p-3)/2} C(2k,k) W_{2k+1}/((2k+1) 16^k)
  with W = F (Fibonacci) or L (Lucas)
* ``rhs_lucas_sum(kind, c, d)`` = sum_{k=1}^{p-1} s_k(c)/k^d with s = u or v
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .errors import PreconditionViolated
from .harmonic import _powers
from .modring import PrimePower, Residue, inverse_table
from .sequences import central_binomials

__all__ = [
    "s1",
    "s2",
    "weighted_sums",
    "fib_lucas_sum",
    "rhs_lucas_sum",
    "s1_exact",
    "s2_exact",
    "weighted_sums_exact",
    "fib_lucas_sum_exact",
]


def _check_d(d: int) -> None:
    if d not in (0, 1):
        raise PreconditionViolated(f"sum exponent d must be 0 or 1, got {d}")


def s1(t: Fraction, d: int, ring: PrimePower) -> Residue:
    """sum_{k=0}^{(p-3)/2} C(2k,k) t^k / (2k+1)^(d+1) in the ring."""
    _check_d(d)
    table = central_binomials(ring)
    p, m = ring.p, ring.modulus
    tv = ring.from_fraction(t).value
    inv = inverse_table(ring)
    total = 0
    tp = 1
    for k in range((p - 1) // 2):
        w = inv[2 * k + 1]
        if d:
            w = w * w % m
        total = (total + table[k] * tp % m * w) % m
        tp = tp * tv % m
    return Residue(total, ring)


def s2(t: Fraction, d: int, ring: PrimePower) -> Residue:
    """sum_{k=1}^{(p-1)/2} C(2k,k) t^k / k^d in the ring."""
    _check_d(d)
    table = central_binomials(ring)
    p, m = ring.p, ring.modulus
    tv = ring.from_fraction(t).value
    inv = inverse_table(ring)
    total = 0
    tp = tv
    for k in range(1, (p - 1) // 2 + 1):
        term = table[k] * tp % m
        if d:
            term = term * inv[k] % m
        total = (total + term) % m
        tp = tp * tv % m
    return Residue(total, ring)


def weighted_sums(t: Fraction, ring: PrimePower) -> tuple[Residue, Residue]:
    """The pair of Hbar_k(2)-weighted central binomial sums at t."""
    table = central_binomials(ring)
    p, m = ring.p, ring.modulus
    tv = ring.from_fraction(t).value
    inv = inverse_table(ring)
    half = (p - 1) // 2
    first = second = 0
    hbar = 0  # Hbar_k(2), advanced after use
    tp = 1
    for k in range(half + 1):
        ct = table[k] * tp % m
        if k < half:
            first = (first + ct * inv[2 * k + 1] % m * hbar) % m
        second = (second + ct * hbar) % m
        tp = tp * tv % m
        if k < half:
            io = inv[2 * k + 1]
            hbar = (hbar + io * io) % m
    return Residue(first, ring), Residue(second, ring)


def fib_lucas_sum(kind: str, ring: PrimePower) -> Residue:
    """sum_{k=0}^{(p-3)/2} C(2k,k) W_{2k+1} / ((2k+1) 16^k), W in {F, L}."""
    if kind not in ("F", "L"):
        raise PreconditionViolated(f"kind must be 'F' or 'L', got {kind!r}")
    table = central_binomials(ring)
    p, m = ring.p, ring.modulus
    inv = inverse_table(ring)
    inv16 = pow(16, -1, m)
    a, b = (1, 1) if kind == "F" else (1, 3)  # (W_1, W_2)
    total = 0
    sixt = 1
    for k in range((p - 1) // 2):
        total = (total + table[k] * sixt % m * inv[2 * k + 1] % m * a) % m
        a, b = (a + b) % m, (a + 2 * b) % m
        sixt = sixt * inv16 % m
    return Residue(total, ring)


@lru_cache(maxsize=64)
def rhs_lucas_sum(kind: str, c: Fraction, d: int, ring: PrimePower) -> Residue:
    """sum_{k=1}^{p-1} s_k(c)/k^d with s = u (kind 'u') or v (kind 'v').

    Needed only mod p by its consumers, but computed in whatever ring is
    passed; c is the one-parameter recurrence coefficient (y = 1).  Cached
    because two pairs of checks read the same sums at every (p, t).
    """
    if kind not in ("u", "v"):
        raise PreconditionViolated(f"kind must be 'u' or 'v', got {kind!r}")
    if d not in (2, 3):
        raise PreconditionViolated(f"sum exponent d must be 2 or 3, got {d}")
    m = ring.modulus
    cv = ring.from_fraction(c).value
    prev, cur = (0, 1) if kind == "u" else (2, cv)
    total = 0
    for w in _powers(ring, d)[1:]:
        total += cur * w
        prev, cur = cur, (cv * cur - prev) % m
    return Residue(total % m, ring)


# -- exact-rational twins (for pinning and sharpness tests) ---------------


def s1_exact(p: int, t: Fraction, d: int) -> Fraction:
    _check_d(d)
    t = Fraction(t)
    total = Fraction(0)
    for k in range((p - 1) // 2):
        total += Fraction(math.comb(2 * k, k), (2 * k + 1) ** (d + 1)) * t**k
    return total


def s2_exact(p: int, t: Fraction, d: int) -> Fraction:
    _check_d(d)
    t = Fraction(t)
    total = Fraction(0)
    for k in range(1, (p - 1) // 2 + 1):
        total += Fraction(math.comb(2 * k, k), k**d) * t**k
    return total


def weighted_sums_exact(p: int, t: Fraction) -> tuple[Fraction, Fraction]:
    t = Fraction(t)
    half = (p - 1) // 2
    first = second = Fraction(0)
    hbar = Fraction(0)
    for k in range(half + 1):
        ct = math.comb(2 * k, k) * t**k
        if k < half:
            first += ct * hbar / (2 * k + 1)
        second += ct * hbar
        hbar += Fraction(1, (2 * k + 1) ** 2)
    return first, second


def fib_lucas_sum_exact(p: int, kind: str) -> Fraction:
    if kind not in ("F", "L"):
        raise PreconditionViolated(f"kind must be 'F' or 'L', got {kind!r}")
    a, b = (1, 1) if kind == "F" else (1, 3)
    total = Fraction(0)
    for k in range((p - 1) // 2):
        total += Fraction(math.comb(2 * k, k) * a, (2 * k + 1) * 16**k)
        a, b = a + b, a + 2 * b
    return total
