"""Oracles that the tests check the library against.

The sums recompute over Q, term by term with ``Fraction``, a value that the
package computes mod p^k from raw-integer columns, so they share no logic
with the code under test; ``harmonic_mod_p`` runs the plain depth-wise
recursion mod p, for ranges too long to sum term by term.  The tests
reduce them into Z/p^k with ``PrimePower.from_fraction``.  The two power-sum routes to B_m and E_m
raise every base to the power m with ``pow``, where the package reads the
powers off its cached tables of inverse powers.  ``records`` is the input
of the general JSON encoder that the streamed report writer must match
byte for byte.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, repeat


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


@lru_cache(maxsize=None)
def harmonic_over_q(n: int, comp: tuple, odd: bool = False) -> Fraction:
    """H_n(comp), or Hbar_n(comp) if ``odd``, summed over Q term by term, one
    term per increasing tuple of denominators: comp[0] goes with the smallest."""
    dens = range(1, 2 * n, 2) if odd else range(1, n + 1)
    terms = (math.prod(Fraction(1, d**a) for d, a in zip(ds, comp)) for ds in combinations(dens, len(comp)))
    return sum(terms, Fraction(0))


def harmonic_mod_p(n: int, comp: tuple, p: int) -> int:
    """H_n(comp) mod p, n < p, by the depth-wise recursion over the indices
    1..n, each 1/i^a by ``pow``: acc[d] sums the products of the first d
    parts.  No power table, no walk and no fold; what ``harmonic_over_q``
    gives where its term-by-term sum is too long to run."""
    acc = [1] + [0] * len(comp)
    for i in range(1, n + 1):
        for d in range(len(comp), 0, -1):
            acc[d] = (acc[d] + acc[d - 1] * pow(i, -comp[d - 1], p)) % p
    return acc[-1]


def bernoulli_by_pow(m: int, p: int) -> int:
    """B_m mod p for even 2 <= m <= p-3 from the power sum
    sum_{x=1}^{p-1} x^m = p*B_m (mod p^2), each x^m by ``pow``."""
    m2 = p * p
    return sum(map(pow, range(1, p), repeat(m), repeat(m2))) % m2 // p


def euler_by_pow(m: int, p: int) -> int:
    """E_m mod p for even 0 <= m <= p-3 as sum_{k=0}^{p-1} (-1)^k (2k+1)^m,
    each (2k+1)^m by ``pow``."""
    plus = sum(map(pow, range(1, 2 * p, 4), repeat(m), repeat(p)))
    minus = sum(map(pow, range(3, 2 * p, 4), repeat(m), repeat(p)))
    return (plus - minus) % p


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


def weighted_sums_by_horner(t, ring) -> tuple:
    """The ``weighted_sums`` pair in the ring, by Horner's rule on its t-free
    coefficients C(2k,k) Hbar_k(2)/(2k+1) and C(2k,k) Hbar_k(2), each from
    ``math.comb`` and ``pow``: no table and no panel pass."""
    p, m = ring.p, ring.modulus
    coeffs, hbar, half = [], 0, (p - 1) // 2
    for k in range(half):
        c = math.comb(2 * k, k) * hbar
        coeffs.append((c * pow(2 * k + 1, -1, m), c))
        hbar += pow(2 * k + 1, -2, m)
    coeffs.append((0, math.comb(2 * half, half) * hbar))
    tv, first, second = ring.value_of(t), 0, 0
    for a, b in reversed(coeffs):
        first, second = (first * tv + a) % m, (second * tv + b) % m
    return ring.from_int(first), ring.from_int(second)


def alternating_v_sum(t, odd: bool, ring):
    """The signed v-series at t over the half range, v = v(t, 1), in the ring.

    With ``odd`` True: sum_{k=0}^{(p-3)/2} (-1)^k v_{2k+1}(t)/(2k+1).
    Otherwise: sum_{k=1}^{(p-1)/2} (-1)^k v_{2k}(t)/k.  Each column is a
    ``recurrence_column`` that steps the index by two, s_{k+1} = v_2*s_k -
    s_{k-1} with v_2 = t^2 - 2, with the sign (-1)^k folded in by negating
    v_2, and each weight comes from ``pow``: the package's panel pass steps
    both columns in one loop against its own coefficient tables.
    """
    from congrlab.sequences import recurrence_column

    p, m = ring.p, ring.modulus
    tv = ring.value_of(t)
    v2 = (tv * tv - 2) % m
    if odd:  # from v_1, -v_3
        column = recurrence_column((p - 1) // 2, tv, -(v2 * tv - tv), -v2, m)
        total = sum(v * pow(2 * k + 1, -1, m) for k, v in enumerate(column))
    else:  # from v_0, -v_2; the k = 0 term is dropped
        column = recurrence_column((p + 1) // 2, 2, -v2, -v2, m)
        total = sum(v * pow(k, -1, m) for k, v in enumerate(column) if k)
    return ring.from_int(total)


def records(report) -> list[dict]:
    """The rows of a ``Report`` in the pinned report schema, as plain dicts."""
    return [r.record() for r in report.results]
