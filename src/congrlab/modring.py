"""Exact arithmetic in Z/p^k for odd primes p and small exponents k.

The two central objects are :class:`PrimePower` (a validated modulus p^k
with constructors for its elements) and :class:`Residue` (a canonical least
non-negative representative attached to its ring).  Everything is built on
Python integers, which are exact at any size; p < 2^32 and k <= 8 keep
residues comfortably machine-friendly.
"""

from __future__ import annotations

from contextlib import contextmanager
from fractions import Fraction
from functools import lru_cache, wraps
from itertools import compress
from math import isqrt

from .errors import (
    CompositeModulus,
    DenominatorDivisibleByP,
    ExponentOutOfRange,
    MixedModuli,
    NotAUnit,
    NotDivisibleByP,
)

__all__ = [
    "is_prime",
    "primes_in_range",
    "PrimePower",
    "Residue",
    "prime_power",
    "divide_by_p",
    "legendre",
    "inverse_table",
    "unit_cached",
    "unit_scope",
]

MAX_EXPONENT = 8

# Witnesses making Miller-Rabin deterministic for all n < 3.3 * 10^24,
# far beyond the supported 2^32 bound.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test (exact for n < 2^64)."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def primes_in_range(lo: int, hi: int) -> list[int]:
    """All primes p with lo <= p <= hi, by a sieve segmented over [lo, hi].

    It marks the multiples of the primes up to sqrt(hi), which come from the
    same sieve over [2, sqrt(hi)], so memory is O(hi - lo + sqrt(hi)).
    """
    lo = max(lo, 2)
    if hi < lo:
        return []
    segment = bytearray([1]) * (hi - lo + 1)
    for q in primes_in_range(2, isqrt(hi)):
        first = max(q * q, -(-lo // q) * q)
        segment[first - lo :: q] = bytes(len(range(first, hi + 1, q)))
    return list(compress(range(lo, hi + 1), segment))


class PrimePower:
    """The ring Z/p^k for an odd prime p < 2^32 and 1 <= k <= 8: one object
    per (p, k), so rings compare by identity.  ``PrimePower(p, k)``, a copy
    and an unpickled ring are all ``prime_power(p, k)``.

    ``zero`` / ``one`` / ``from_int`` / ``from_fraction`` build its elements.
    """

    __slots__ = ("p", "k", "modulus")

    def __new__(cls, p: int, k: int):
        return prime_power(p, k)

    def __reduce__(self):
        return PrimePower, (self.p, self.k)

    def __repr__(self) -> str:
        return f"PrimePower({self.p}, {self.k})"

    # -- element constructors ------------------------------------------

    def zero(self) -> Residue:
        return Residue(0, self)

    def one(self) -> Residue:
        return Residue(1 % self.modulus, self)

    def from_int(self, n: int) -> Residue:
        return Residue(n % self.modulus, self)

    def from_fraction(self, q: Fraction) -> Residue:
        """Embed the rational q; requires p coprime to its denominator."""
        return Residue(self.value_of(q), self)

    def value_of(self, q: int | Fraction | Residue) -> int:
        """The raw integer of q: an integer, a rational or a residue of this ring."""
        m = self.modulus
        if isinstance(q, int):
            return q % m
        if isinstance(q, Residue):
            if q.ring is self:
                return q.value
            raise MixedModuli(f"cannot mix {self!r} and {q.ring!r}")
        b = q.denominator
        if b % self.p == 0:
            raise DenominatorDivisibleByP(f"denominator {b} divisible by p={self.p}")
        return q.numerator * pow(b, -1, m) % m


#: The tables of every `unit_cached` kernel, and whether a unit is open.
_UNIT_TABLES = []
_memoizing = False


def unit_cached(fn):
    """``fn``, memoized while a `unit_scope` is open.  Called with no unit
    open, it runs in a unit of its own: nothing outlives the call."""
    cached = lru_cache(maxsize=None)(fn)
    _UNIT_TABLES.append(cached)

    @wraps(fn)
    def memo(*args, **kwargs):
        if _memoizing:
            return cached(*args, **kwargs)
        with unit_scope():
            return cached(*args, **kwargs)

    memo.cache_info = cached.cache_info
    return memo


@contextmanager
def unit_scope():
    """Memoize the `unit_cached` kernels in the block, then empty all their
    tables.  A kernel called outside any unit runs in one of its own.  A
    scope opened inside an open one joins it: the tables are emptied only
    when the outermost scope closes."""
    global _memoizing
    outer, _memoizing = _memoizing, True
    try:
        yield
    finally:
        _memoizing = outer
        if not outer:
            for table in _UNIT_TABLES:
                table.cache_clear()


@lru_cache(maxsize=None, typed=True)
def prime_power(p: int, k: int) -> PrimePower:
    """The one ring Z/p^k, validated once.  A p or k that is not an int, or
    is a bool, is rejected; the key is typed, so ``prime_power(7, 2.0)`` does
    not find ``prime_power(7, 2)``.  It interns within one thread, as
    `unit_scope` assumes: threads racing on a miss may each build a ring."""
    if type(k) is not int or not 1 <= k <= MAX_EXPONENT:
        raise ExponentOutOfRange(f"exponent {k!r} outside 1..{MAX_EXPONENT}")
    if type(p) is not int or p % 2 == 0 or p >= 1 << 32 or not is_prime(p):
        raise CompositeModulus(f"{p!r} is not an odd prime below 2^32")
    ring = object.__new__(PrimePower)
    ring.p, ring.k, ring.modulus = p, k, p**k
    return ring


class Residue:
    """An element of Z/p^k, stored as its least non-negative representative."""

    __slots__ = ("value", "ring")

    def __init__(self, value: int, ring: PrimePower):
        self.value = value
        self.ring = ring

    def _raw(self, other) -> int | None:
        """``other`` as a raw integer of this ring (an int as given), or None."""
        if isinstance(other, Residue) and other.ring is self.ring:
            return other.value
        if isinstance(other, int):
            return other
        if isinstance(other, (Residue, Fraction)):
            return self.ring.value_of(other)
        return None

    def __add__(self, other):
        o = self._raw(other)
        if o is None:
            return NotImplemented
        return Residue((self.value + o) % self.ring.modulus, self.ring)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._raw(other)
        if o is None:
            return NotImplemented
        return Residue((self.value - o) % self.ring.modulus, self.ring)

    def __rsub__(self, other):
        o = self._raw(other)
        if o is None:
            return NotImplemented
        return Residue((o - self.value) % self.ring.modulus, self.ring)

    def __mul__(self, other):
        o = self._raw(other)
        if o is None:
            return NotImplemented
        return Residue(self.value * o % self.ring.modulus, self.ring)

    __rmul__ = __mul__

    def __neg__(self):
        return Residue(-self.value % self.ring.modulus, self.ring)

    def __pow__(self, e: int):
        if not isinstance(e, int):
            return NotImplemented
        if e < 0:
            return self.inv() ** (-e)
        return Residue(pow(self.value, e, self.ring.modulus), self.ring)

    def inv(self) -> "Residue":
        try:
            return Residue(pow(self.value, -1, self.ring.modulus), self.ring)
        except ValueError:
            raise NotAUnit(f"{self.value} is not a unit mod {self.ring.p}^{self.ring.k}") from None

    def __truediv__(self, other):
        o = self._raw(other)
        if o is None:
            return NotImplemented
        return self * self.ring.from_int(o).inv()

    def __rtruediv__(self, other):
        o = self._raw(other)
        if o is None:
            return NotImplemented
        return self.inv() * o

    def __eq__(self, other) -> bool:
        """Whether the ring embeds ``other`` (a residue, int or rational) as this value."""
        if not isinstance(other, (Residue, int, Fraction)):
            return NotImplemented
        try:
            return self.value == self.ring.value_of(other)
        except (MixedModuli, DenominatorDivisibleByP):
            return False

    def __int__(self) -> int:
        return self.value

    def __repr__(self) -> str:
        return f"Residue({self.value}, {self.ring.p}^{self.ring.k})"

    def __str__(self) -> str:
        return str(self.value)

    def valuation(self) -> int:
        """p-adic valuation of this residue, capped at the ring exponent k."""
        if self.value == 0:
            return self.ring.k
        v = 0
        x = self.value
        p = self.ring.p
        while x % p == 0:
            x //= p
            v += 1
        return v


def divide_by_p(x: Residue) -> Residue:
    """Exact division by p: maps p*u in Z/p^k to u in Z/p^(k-1).

    The quotient is only determined modulo p^(k-1), hence the smaller ring.
    """
    ring = x.ring
    if ring.k == 1:
        raise ExponentOutOfRange("cannot divide by p at exponent 1 (target ring Z/p^0 is trivial)")
    if x.value % ring.p != 0:
        raise NotDivisibleByP(f"{x.value} is not divisible by p={ring.p}")
    return Residue(x.value // ring.p, prime_power(ring.p, ring.k - 1))


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a/p) via Euler's criterion; p an odd prime."""
    a %= p
    if a == 0:
        return 0
    e = pow(a, (p - 1) // 2, p)
    return 1 if e == 1 else -1


@unit_cached
def inverse_table(ring: PrimePower) -> tuple[int, ...]:
    """Inverses of 1..p-1 mod m = p^k in one pass: m = floor(m/i)*i + (m mod
    i) gives 1/i = (m - floor(m/i)) * inv[m mod i] (mod m), where m mod i < i
    is a unit, as every i < p is.

    Entry i holds the inverse of i; entry 0 is a zero placeholder.  A sweep
    reads about six rings per prime, each table for one unit (`unit_scope`).
    """
    p, m = ring.p, ring.modulus
    inv = [0, 1]
    for i in range(2, p):
        inv.append((m - m // i) * inv[m % i] % m)
    return tuple(inv)
