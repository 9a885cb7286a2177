"""Exact arithmetic in Z/p^k for odd primes p and small exponents k.

The two central objects are :class:`PrimePower` (a validated modulus p^k
with constructors for its elements) and :class:`Residue` (a canonical least
non-negative representative attached to its ring).  Everything is built on
Python integers, which are exact at any size; p < 2^32 and k <= 8 keep
residues comfortably machine-friendly.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
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
    "rational_residue",
    "divide_by_p",
    "reduce_residue",
    "legendre",
    "inverse_table",
]

MAX_EXPONENT = 8

# Witnesses making Miller-Rabin deterministic for all n < 3.3 * 10^24,
# far beyond the supported 2^32 bound.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test (exact for n < 2^64)."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
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
    """The ring Z/p^k for an odd prime p < 2^32 and 1 <= k <= 8.

    ``zero`` / ``one`` / ``from_int`` / ``from_fraction`` build its elements.
    """

    __slots__ = ("p", "k", "modulus")

    def __init__(self, p: int, k: int):
        if not (1 <= k <= MAX_EXPONENT):
            raise ExponentOutOfRange(f"exponent {k} outside 1..{MAX_EXPONENT}")
        if p % 2 == 0 or p >= 1 << 32 or not is_prime(p):
            raise CompositeModulus(f"{p} is not an odd prime below 2^32")
        self.p = p
        self.k = k
        self.modulus = p**k

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PrimePower) and (self.p, self.k) == (other.p, other.k)

    def __hash__(self) -> int:
        return hash((self.p, self.k))

    def __repr__(self) -> str:
        return f"PrimePower({self.p}, {self.k})"

    def residue(self, n: int) -> Residue:
        return Residue(n % self.modulus, self)

    # -- element constructors ------------------------------------------

    def zero(self) -> Residue:
        return Residue(0, self)

    def one(self) -> Residue:
        return Residue(1 % self.modulus, self)

    def from_int(self, n: int) -> Residue:
        return Residue(n % self.modulus, self)

    def from_fraction(self, q: Fraction) -> Residue:
        return rational_residue(q.numerator, q.denominator, self)


@lru_cache(maxsize=None)
def prime_power(p: int, k: int) -> PrimePower:
    """Cached constructor for PrimePower rings (validation is not free)."""
    return PrimePower(p, k)


class Residue:
    """An element of Z/p^k, stored as its least non-negative representative."""

    __slots__ = ("value", "ring")

    def __init__(self, value: int, ring: PrimePower):
        self.value = value
        self.ring = ring

    def _coerce(self, other) -> "Residue | None":
        if isinstance(other, Residue):
            if other.ring is self.ring or other.ring == self.ring:
                return other
            raise MixedModuli(f"cannot mix {self.ring!r} and {other.ring!r}")
        if isinstance(other, int):
            return self.ring.from_int(other)
        if isinstance(other, Fraction):
            return self.ring.from_fraction(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Residue((self.value + o.value) % self.ring.modulus, self.ring)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Residue((self.value - o.value) % self.ring.modulus, self.ring)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Residue((o.value - self.value) % self.ring.modulus, self.ring)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Residue(self.value * o.value % self.ring.modulus, self.ring)

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
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inv()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inv()

    def __eq__(self, other) -> bool:
        if isinstance(other, Residue):
            return self.ring == other.ring and self.value == other.value
        if isinstance(other, int):
            return self.value == other % self.ring.modulus
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.value, self.ring.p, self.ring.k))

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


def rational_residue(a: int, b: int, ring: PrimePower) -> Residue:
    """Embed the rational a/b in Z/p^k; requires p coprime to b."""
    if b % ring.p == 0:
        raise DenominatorDivisibleByP(f"denominator {b} divisible by p={ring.p}")
    m = ring.modulus
    return Residue(a * pow(b, -1, m) % m, ring)


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


def reduce_residue(x: Residue, j: int) -> Residue:
    """Reduce a residue mod p^k to the smaller ring mod p^j (1 <= j <= k)."""
    if not (1 <= j <= x.ring.k):
        raise ExponentOutOfRange(f"cannot reduce exponent {x.ring.k} to {j}")
    if j == x.ring.k:
        return x
    tgt = prime_power(x.ring.p, j)
    return Residue(x.value % tgt.modulus, tgt)


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a/p) via Euler's criterion; p an odd prime."""
    a %= p
    if a == 0:
        return 0
    e = pow(a, (p - 1) // 2, p)
    return 1 if e == 1 else -1


@lru_cache(maxsize=16)
def inverse_table(ring: PrimePower) -> tuple[int, ...]:
    """Inverses of 1..p-1 mod p^k via the batched product trick.

    Entry i holds the inverse of i; entry 0 is a zero placeholder.  One
    modular inversion plus O(p) multiplications in total.  A sweep reads
    about six rings per prime and moves on to the next prime, so a small
    bound keeps large primes from piling up O(p) tables.
    """
    p, m = ring.p, ring.modulus
    prefix = [1] * p
    acc = 1
    for i in range(1, p):
        acc = acc * i % m
        prefix[i] = acc
    inv = [0] * p
    acc = pow(prefix[p - 1], -1, m)
    for i in range(p - 1, 0, -1):
        inv[i] = acc * prefix[i - 1] % m
        acc = acc * i % m
    return tuple(inv)
