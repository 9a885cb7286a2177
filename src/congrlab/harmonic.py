"""Multiple harmonic sums and their odd-indexed and alternating variants.

Conventions (the index order matters and is guarded by tests):

* H_n(a_1, ..., a_r) sums 1/(k_1^a_1 * ... * k_r^a_r) over
  0 < k_1 < k_2 < ... < k_r <= n, with a_1 attached to the SMALLEST index.
* The odd variant Hbar_n(a_1, ..., a_r) sums over odd denominators
  2k_i + 1 with 0 <= k_1 < ... < k_r < n.
* The empty composition gives 1 (empty product convention); any nonempty
  composition at n = 0 gives 0 (empty sum).

H and Hbar run one depth-wise dynamic program on raw integers, O(depth * n)
multiplications.  The modular path feeds it slices of cached power tables
(entry i of ``_powers(ring, a)`` is i^-a mod p^k, so no ``pow`` in the
loop) and reduces mod p^k once.  The exact path writes 1/i^a as
(L/i)^a / L^a, L the lcm of the denominators, and divides the integer sum
once by L^|comp|.  The alternating sum, mod p^k only, is a difference of two
slices of one power table.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from math import lcm
from operator import mul

from .errors import NonUnitDenominator, PreconditionViolated
from .exactalg import QQ, RationalField
from .modring import PrimePower, Residue, inverse_table, unit_cached

__all__ = [
    "repeated",
    "mhs",
    "odd_mhs",
    "alternating_half_sum",
]


def repeated(a: int, r: int) -> tuple[int, ...]:
    """The composition {a}^r: r copies of the part a."""
    if a < 1 or r < 0:
        raise PreconditionViolated(f"repeated({a}, {r}): need a >= 1, r >= 0")
    return (a,) * r


def _validated(n: int, comp) -> tuple[int, ...]:
    if n < 0:
        raise PreconditionViolated(f"index n must be non-negative, got {n}")
    comp = tuple(comp)
    if any(not isinstance(a, int) or a < 1 for a in comp):
        raise PreconditionViolated(f"composition parts must be positive integers: {comp}")
    return comp


@unit_cached
def _powers(ring: PrimePower, a: int) -> tuple[int, ...]:
    """``inverse_table(ring)`` with every entry raised to the power a >= 1.

    Squares the table for a // 2, so a table costs one or two products per
    entry and the recursion is only log2(a) deep.
    """
    inv = inverse_table(ring)
    if a == 1:
        return inv
    m = ring.modulus
    half = _powers(ring, a // 2)
    if a % 2:
        return tuple([y * y % m * x % m for y, x in zip(half, inv)])
    return tuple([y * y % m for y in half])


def _dp_sum(columns) -> int:
    """The depth-wise DP on raw integers, unreduced.

    ``columns[d]`` holds x_1^comp[d], x_2^comp[d], ... for one sequence
    x_1, x_2, ...; the result sums prod_d x_{i_d}^comp[d] over
    i_1 < ... < i_r, so comp[0] sits on the smallest index.  Depth d weights
    entry j by the depth d-1 sum over the indices before j.  The caller
    reduces or divides once at the end: skipping the per-entry reduction
    nearly halves the cost of the modular loop.
    """
    if not columns:
        return 1
    terms = columns[0]
    for col in columns[1:]:
        terms = list(map(mul, accumulate(terms, initial=0), col))
    return sum(terms)


def _exact_sum(ring, dens: range, comp: tuple[int, ...]) -> Fraction:
    """The DP at x_i = 1/i over the denominators ``dens``, in Q."""
    if not isinstance(ring, RationalField):
        raise PreconditionViolated(f"harmonic sums need QQ or a PrimePower ring, got {ring!r}")
    L = lcm(*dens)
    scaled = [L // i for i in dens]
    return Fraction(_dp_sum([[x**a for x in scaled] for a in comp]), L ** sum(comp))


@unit_cached
def _mhs_mod(n: int, comp: tuple[int, ...], ring: PrimePower) -> int:
    if n >= ring.p:
        raise NonUnitDenominator(f"H_{n} mod {ring.p}^{ring.k} hits the denominator p")
    return _dp_sum([_powers(ring, a)[1 : n + 1] for a in comp]) % ring.modulus


@unit_cached
def _odd_mhs_mod(n: int, comp: tuple[int, ...], ring: PrimePower) -> int:
    if 2 * n - 1 >= ring.p:
        raise NonUnitDenominator(f"Hbar_{n} mod {ring.p}^{ring.k} hits the denominator p")
    return _dp_sum([_powers(ring, a)[1 : 2 * n : 2] for a in comp]) % ring.modulus


def mhs(n: int, comp, ring=QQ):
    """H_n(a_1, ..., a_r): a ``Fraction`` in QQ, a ``Residue`` in a PrimePower."""
    comp = _validated(n, comp)
    if isinstance(ring, PrimePower):
        return Residue(_mhs_mod(n, comp, ring), ring)
    return _exact_sum(ring, range(1, n + 1), comp)


def odd_mhs(n: int, comp, ring=QQ):
    """Hbar_n(a_1, ..., a_r): the odd-denominator variant."""
    comp = _validated(n, comp)
    if isinstance(ring, PrimePower):
        return Residue(_odd_mhs_mod(n, comp, ring), ring)
    return _exact_sum(ring, range(1, 2 * n, 2), comp)


def alternating_half_sum(n: int, d: int, ring: PrimePower) -> Residue:
    """sum of (-1)^k/(2k+1)^d over 0 <= k <= n-1, in the ring: the
    denominators 1, 5, 9, ... minus 3, 7, 11, ..., read off one power table."""
    if n < 0:
        raise PreconditionViolated(f"index n must be non-negative, got {n}")
    if d < 1:
        raise PreconditionViolated(f"exponent d must be positive, got {d}")
    if 2 * n - 1 >= ring.p:
        raise NonUnitDenominator(f"alternating sum to {2 * n - 1} hits the denominator p")
    powers = _powers(ring, d)
    return Residue((sum(powers[1 : 2 * n : 4]) - sum(powers[3 : 2 * n : 4])) % ring.modulus, ring)
