"""Exact-rational oracles that the tests check the library against.

Each one recomputes over Q, term by term with ``Fraction``, a value that the
package computes mod p^k from raw-integer columns, so they share no logic
with the code under test.  The tests reduce them into Z/p^k with
``PrimePower.from_fraction``.
"""

from __future__ import annotations

import math
from fractions import Fraction


def p_adic_valuation(q: Fraction | int, p: int) -> int | float:
    """nu_p(q): the exponent of p in q, negative for p in the denominator.

    Returns +inf for q = 0 (the conventional valuation of zero).
    """
    if q == 0:
        return math.inf
    q = Fraction(q)
    v = 0
    n = q.numerator
    while n % p == 0:
        n //= p
        v += 1
    d = q.denominator
    while d % p == 0:
        d //= p
        v -= 1
    return v


def s1_exact(p: int, t: Fraction, d: int) -> Fraction:
    """sum_{k=0}^{(p-3)/2} C(2k,k) t^k / (2k+1)^(d+1) over Q."""
    t = Fraction(t)
    total = Fraction(0)
    for k in range((p - 1) // 2):
        total += Fraction(math.comb(2 * k, k), (2 * k + 1) ** (d + 1)) * t**k
    return total


def s2_exact(p: int, t: Fraction, d: int) -> Fraction:
    """sum_{k=1}^{(p-1)/2} C(2k,k) t^k / k^d over Q."""
    t = Fraction(t)
    total = Fraction(0)
    for k in range(1, (p - 1) // 2 + 1):
        total += Fraction(math.comb(2 * k, k), k**d) * t**k
    return total


def weighted_sums_exact(p: int, t: Fraction) -> tuple[Fraction, Fraction]:
    """The Hbar_k(2)-weighted pair of ``binomsums.weighted_sums`` over Q."""
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
    """sum_{k=0}^{(p-3)/2} C(2k,k) W_{2k+1} / ((2k+1) 16^k) over Q, W = F or L."""
    a, b = (1, 1) if kind == "F" else (1, 3)
    total = Fraction(0)
    for k in range((p - 1) // 2):
        total += Fraction(math.comb(2 * k, k) * a, (2 * k + 1) * 16**k)
        a, b = a + b, a + 2 * b
    return total
