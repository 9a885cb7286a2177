"""Bernoulli and Euler numbers modulo p, by independent routes.

The sweep reads every special value through an O(p) route, and the two
power-sum routes read their powers off the prime's cached power tables
(entry x of ``harmonic._powers(ring, a)`` is x^-a mod p^k), so no ``pow``
runs per value:

* ``bernoulli_powersum``: for even m with 2 <= m <= p-3, the power sum
  S_m = sum_{x=1}^{p-1} x^m satisfies S_m = p*B_m (mod p^2) (Faulhaber plus
  von Staudt-Clausen p-integrality; Z.-H. Sun, Discrete Appl. Math. 105
  (2000)), so one O(p) pass mod p^2 yields B_m mod p.  As x^m =
  x^(p-1) * x^-(p-1-m) for p not dividing x, S_m is one dot product of the
  cached table of x^(p-1) mod p^2 with ``_powers(Z/p^2, p-1-m)``: the tables
  for j = p-1-m = 2, 4, 6 are the ones the prime's harmonic sums build.
* ``euler_number``: for even m with 0 <= m <= p-3,
  E_m = sum_{k=0}^{p-1} (-1)^k (2k+1)^m (mod p), one O(p) pass.  An odd
  2k+1 > p is the even residue 2k+1-p, so the sum is four strided slices of
  ``_powers(Z/p, p-1-m)``, whose entry x is x^m mod p.
* ``bernoulli_third``: B_{p-2}(1/3) = 2*(p/3)*H_{floor(p/3)}(2) (mod p),
  E. Lehmer's congruence, from one O(p) harmonic sum.

The O(p^2) routes are independent test oracles, sharing no logic with the
fast ones, and keep their tables for one unit, like every kernel.  They
stay here, unlike the exact oracles in ``tests/oracles.py``, because the
benchmark's tracer (``perfbench/tracer.py``) wraps them by name:

* ``bernoulli_table``: the classical recurrence
  sum_{j=0}^{n} C(n+1, j)*B_j = 0 solved for B_n over Z/p, as raw integers,
  with ``bernoulli_poly_value`` evaluating B_m(x) from it;
* ``euler_numbers``: the recurrence sum_k C(2n, 2k)*E_{2k} = 0.

Only mod-p precision is provided: the catalog brings these values into its
working ring through ``catalog.ModP`` terms, which multiply them by the
power p^e that their statement gives them.  Each such statement holds mod
p^(e+1), so higher precision is never needed.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import repeat
from operator import mul

from .errors import IndexOutOfRange
from .harmonic import _powers, mhs
from .modring import Residue, inverse_table, legendre, prime_power, unit_cached

__all__ = [
    "bernoulli_powersum",
    "bernoulli_number",
    "bernoulli_table",
    "bernoulli_poly_value",
    "bernoulli_third",
    "euler_numbers",
    "euler_number",
]


@unit_cached
def _fermat_powers(p: int) -> tuple[int, ...]:
    """x^(p-1) mod p^2 for 0 <= x < p; entry 0 is 0."""
    return tuple(map(pow, range(p), repeat(p - 1), repeat(p * p)))


@unit_cached
def bernoulli_powersum(m: int, p: int) -> Residue:
    """B_m mod p for even 2 <= m <= p-3: the power sum S_m = p*B_m mod p^2,
    summed as the dot product of x^(p-1) with x^-(p-1-m) mod p^2 over
    1 <= x < p, divided exactly by p."""
    if m % 2 != 0 or not 2 <= m <= p - 3:
        raise IndexOutOfRange(f"powersum route needs even m in [2, p-3], got m={m}, p={p}")
    ring = prime_power(p, 2)
    s = sum(map(mul, _fermat_powers(p), _powers(ring, p - 1 - m))) % ring.modulus
    return Residue(s // p % p, prime_power(p, 1))


def bernoulli_number(m: int, p: int) -> Residue:
    """B_m mod p for 0 <= m <= p-2, routing each index class appropriately.

    B_0 = 1, B_1 = -1/2, odd m >= 3 gives 0, and even m goes through the
    power-sum route.  All such B_m are p-integral (no index is divisible by
    p-1), so the reduction mod p is well defined.
    """
    ring = prime_power(p, 1)
    if m < 0 or m > p - 2:
        raise IndexOutOfRange(f"B_{m} mod {p} outside the p-integral range 0..p-2")
    if m == 0:
        return ring.one()
    if m == 1:
        return ring.from_fraction(Fraction(-1, 2))
    if m % 2 == 1:
        return ring.zero()
    return bernoulli_powersum(m, p)


@unit_cached
def bernoulli_table(p: int) -> tuple[int, ...]:
    """B_0..B_{p-2} mod p as raw integers, from sum_j C(n+1, j)*B_j = 0."""
    ring = prime_power(p, 1)
    inv = inverse_table(ring)
    vals = [0] * (p - 1)
    vals[0] = 1
    row = [1, 1]
    for n in range(1, p - 1):
        # Advance the Pascal row from C(n, .) to C(n+1, .).
        nxt = [1] * (n + 2)
        for j in range(1, n + 1):
            nxt[j] = (row[j - 1] + row[j]) % p
        row = nxt
        s = 0
        for j in range(n):
            if vals[j]:
                s += row[j] * vals[j]
        vals[n] = -s * inv[n + 1] % p
    return tuple(vals)


def bernoulli_poly_value(m: int, x: Fraction, p: int, table: tuple[int, ...]) -> Residue:
    """B_m(x) = sum_k C(m, k)*B_k*x^(m-k) mod p, for 0 <= m <= p-2, with
    ``table`` the ``bernoulli_table(p)``."""
    if not 0 <= m <= p - 2:
        raise IndexOutOfRange(f"B_{m}(x) mod {p} outside the supported range 0..p-2")
    if len(table) != p - 1:
        raise IndexOutOfRange(f"table holds B_0..B_{len(table) - 1}, evaluation asked for p={p}")
    ring = prime_power(p, 1)
    inv = inverse_table(ring)
    xv = ring.value_of(x)
    # Accumulate C(m, k)*B_k*x^(m-k), updating the binomial multiplicatively.
    xpow = pow(xv, m, p)
    xinv = pow(xv, -1, p) if xv else 0
    total = xpow  # k = 0 term: B_0 = 1
    c = 1
    for k in range(1, m + 1):
        c = c * ((m - k + 1) % p) % p * inv[k] % p
        if xv:
            xpow = xpow * xinv % p
        else:
            xpow = 1 if k == m else 0
        b = table[k]
        if b:
            total = (total + c * b % p * xpow) % p
    return Residue(total % p, ring)


def bernoulli_third(p: int) -> Residue:
    """B_{p-2}(1/3) mod p for p >= 5, in O(p).

    E. Lehmer, "On congruences involving Bernoulli numbers and the quotients
    of Fermat and Wilson", Ann. of Math. 39 (1938):
    H_{floor(p/3)}(2) = (1/2)*(p/3)*B_{p-2}(1/3)  (mod p).
    ``bernoulli_poly_value`` over ``bernoulli_table`` is the O(p^2) oracle.
    """
    if p < 5:
        raise IndexOutOfRange(f"B_(p-2)(1/3) needs p >= 5, got p={p}")
    ring = prime_power(p, 1)
    return mhs(p // 3, (2,), ring) * (2 * legendre(p, 3))


@unit_cached
def euler_numbers(limit: int, p: int) -> tuple[Residue, ...]:
    """E_0, E_1, ..., E_limit mod p from sum_k C(2n, 2k)*E_{2k} = 0.

    Odd-index Euler numbers are zero; even ones come from the recurrence with
    binomials updated multiplicatively (all factors below p are units).
    """
    if limit > p - 3:
        raise IndexOutOfRange(f"Euler table limit {limit} above p-3 for p={p}")
    ring = prime_power(p, 1)
    inv = inverse_table(ring)
    half = limit // 2
    evens = [0] * (half + 1)
    evens[0] = 1
    for n in range(1, half + 1):
        c = 1
        s = evens[0]
        for k in range(1, n):
            c = c * ((2 * n - 2 * k + 2) * (2 * n - 2 * k + 1) % p) % p * inv[2 * k - 1] % p * inv[2 * k] % p
            s = (s + c * evens[k]) % p
        evens[n] = -s % p
    out = []
    for i in range(limit + 1):
        out.append(ring.from_int(evens[i // 2] if i % 2 == 0 else 0))
    return tuple(out)


def euler_number(m: int, p: int) -> Residue:
    """E_m mod p: zero for odd m >= 0, and for even 0 <= m <= p-3

        E_m = sum_{k=0}^{p-1} (-1)^k (2k+1)^m  (mod p).

    The Euler polynomials satisfy E_m(x) + E_m(x+1) = 2x^m, so the
    alternating sum of (1/2 + k)^m over 0 <= k < p telescopes to
    (E_m(1/2) + E_m(1/2 + p))/2, and both terms are E_m/2^m mod p.  For
    m > 0 the term 2k+1 = p vanishes, an odd 2k+1 < p is x = 1, 3, ... with
    sign (-1)^((x-1)/2), and an odd 2k+1 > p is the even residue x = 2k+1-p
    with sign (-1)^((p-1)/2 + x/2).  So the sum is four strided slices of
    x^m = x^-(p-1-m) mod p, read off ``_powers(Z/p, p-1-m)``;
    ``euler_numbers`` is the independent O(p^2) oracle.
    """
    if m < 0:
        raise IndexOutOfRange(f"E_{m} has a negative index")
    ring = prime_power(p, 1)
    if m % 2 == 1:
        return ring.zero()
    if m > p - 3:
        raise IndexOutOfRange(f"E_{m} mod {p} outside the supported range 0..p-3")
    if m == 0:
        return ring.one()
    x = _powers(ring, p - 1 - m)  # entry 0 is 0
    odd = sum(x[1::4]) - sum(x[3::4])
    even = sum(x[4::4]) - sum(x[2::4])
    return ring.from_int(odd - even if p % 4 == 3 else odd + even)
