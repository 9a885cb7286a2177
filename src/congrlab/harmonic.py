"""Multiple harmonic sums and their odd-indexed and alternating variants.

Conventions (the index order matters and is guarded by tests):

* H_n(a_1, ..., a_r) sums 1/(k_1^a_1 * ... * k_r^a_r) over
  0 < k_1 < k_2 < ... < k_r <= n, with a_1 attached to the SMALLEST index.
* The odd variant Hbar_n(a_1, ..., a_r) sums over odd denominators
  2k_i + 1 with 0 <= k_1 < ... < k_r < n.
* The empty composition gives 1 (empty product convention); any nonempty
  composition at n = 0 gives 0 (empty sum).

All three are computed by one depth-wise dynamic program in O(depth * n)
ring operations over a table of inverse denominators.  The modular
instantiation runs on raw integers over slices of cached power tables
(entry i of ``_powers(ring, a)`` is i^-a mod p^k), so its inner loop is one
prefix sum and one multiplication per entry and depth, with no ``pow``; the
alternating sum is the difference of two slice sums.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate
from operator import mul

from .errors import NonUnitDenominator, PreconditionViolated
from .exactalg import QQ
from .modring import PrimePower, Residue, inverse_table

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


def _validated(comp) -> tuple[int, ...]:
    comp = tuple(comp)
    if any(not isinstance(a, int) or a < 1 for a in comp):
        raise PreconditionViolated(f"composition parts must be positive integers: {comp}")
    return comp


@lru_cache(maxsize=64)
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


def _dp_mod(columns, m: int) -> int:
    """The depth-wise DP on raw integers mod m.

    ``columns[d]`` holds x_1^comp[d], x_2^comp[d], ... for one sequence
    x_1, x_2, ...; the result sums prod_d x_{i_d}^comp[d] over
    i_1 < ... < i_r, so comp[0] sits on the smallest index.  Depth d weights
    entry j by the depth d-1 sum over the indices before j.  Entries are
    reduced only once, at the end: at depth d they stay below (n*m)^d, and
    skipping the per-entry reduction nearly halves the cost of the loop.
    """
    if not columns:
        return 1
    terms = columns[0]
    for col in columns[1:]:
        terms = list(map(mul, accumulate(terms, initial=0), col))
    return sum(terms) % m


def _dp(inverses, comp: tuple[int, ...], ring):
    """Ring-generic DP for the exact paths; the reference for ``_dp_mod``."""
    r = len(comp)
    acc = [ring.one()] + [ring.zero()] * r
    for x in inverses:
        for d in range(r, 0, -1):
            acc[d] = acc[d] + acc[d - 1] * x ** comp[d - 1]
    return acc[r]


def _exact_inverses(ring, start: int, stop: int, step: int = 1) -> list:
    """[1/i for i in range(start, stop, step)]: the exact twin of a slice of
    ``inverse_table``."""
    one = ring.one()
    return [ring.div(one, ring.from_int(i)) for i in range(start, stop, step)]


@lru_cache(maxsize=8192)
def _mhs_mod(n: int, comp: tuple[int, ...], ring: PrimePower) -> int:
    if n >= ring.p:
        raise NonUnitDenominator(f"H_{n} mod {ring.p}^{ring.k} hits the denominator p")
    return _dp_mod([_powers(ring, a)[1 : n + 1] for a in comp], ring.modulus)


@lru_cache(maxsize=8192)
def _odd_mhs_mod(n: int, comp: tuple[int, ...], ring: PrimePower) -> int:
    if 2 * n - 1 >= ring.p:
        raise NonUnitDenominator(f"Hbar_{n} mod {ring.p}^{ring.k} hits the denominator p")
    return _dp_mod([_powers(ring, a)[1 : 2 * n : 2] for a in comp], ring.modulus)


def mhs(n: int, comp, ring=QQ):
    """H_n(a_1, ..., a_r) in the given coefficient ring."""
    comp = _validated(comp)
    if isinstance(ring, PrimePower):
        return Residue(_mhs_mod(n, comp, ring), ring)
    return _dp(_exact_inverses(ring, 1, n + 1), comp, ring)


def odd_mhs(n: int, comp, ring=QQ):
    """Hbar_n(a_1, ..., a_r): the odd-denominator variant."""
    comp = _validated(comp)
    if isinstance(ring, PrimePower):
        return Residue(_odd_mhs_mod(n, comp, ring), ring)
    return _dp(_exact_inverses(ring, 1, 2 * n, 2), comp, ring)


def alternating_half_sum(n: int, d: int, odd_denominators: bool, ring=QQ):
    """Signed one-row sums used by the alternating-series checks.

    With ``odd_denominators`` True: sum of (-1)^k/(2k+1)^d over 0 <= k <= n-1.
    Otherwise: sum of (-1)^k/k^d over 1 <= k <= n.
    """
    if d < 1:
        raise PreconditionViolated(f"exponent d must be positive, got {d}")
    # (start, stop, step) of the denominators whose terms are added / subtracted
    if odd_denominators:
        top, plus, minus = 2 * n - 1, (1, 2 * n, 4), (3, 2 * n, 4)
    else:
        top, plus, minus = n, (2, n + 1, 2), (1, n + 1, 2)
    if isinstance(ring, PrimePower):
        if top >= ring.p:
            raise NonUnitDenominator(f"alternating sum to {top} hits the denominator p")
        powers = _powers(ring, d)
        total = sum(powers[slice(*plus)]) - sum(powers[slice(*minus)])
        return Residue(total % ring.modulus, ring)
    return _dp(_exact_inverses(ring, *plus), (d,), ring) - _dp(
        _exact_inverses(ring, *minus), (d,), ring
    )
