"""Multiple harmonic sums and their odd-indexed and alternating variants.

Conventions (the index order matters and is guarded by tests):

* H_n(a_1, ..., a_r) sums 1/(k_1^a_1 * ... * k_r^a_r) over
  0 < k_1 < k_2 < ... < k_r <= n, with a_1 attached to the SMALLEST index.
* The odd variant Hbar_n(a_1, ..., a_r) sums over odd denominators
  2k_i + 1 with 0 <= k_1 < ... < k_r < n.
* The empty composition gives 1 (empty product convention); any nonempty
  composition at n = 0 gives 0 (empty sum).

All three are computed by one depth-wise dynamic program in O(depth * n)
ring operations over a table of inverse denominators; the alternating sum
is the difference of two depth-one runs.  The modular instantiation runs on
raw integers over slices of the batched inverse table.
"""

from __future__ import annotations

from functools import lru_cache

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


def _dp_mod(inverses, comp: tuple[int, ...], m: int) -> int:
    """The depth-wise DP on raw integers mod m.

    Sums prod_j x_{i_j}^comp[j] over i_1 < ... < i_r, where x_1, x_2, ...
    are the entries of ``inverses`` in order and comp[0] sits on the
    smallest index.
    """
    r = len(comp)
    acc = [1] + [0] * r
    for x in inverses:
        for d in range(r, 0, -1):
            acc[d] = (acc[d] + acc[d - 1] * pow(x, comp[d - 1], m)) % m
    return acc[r]


def _dp(inverses, comp: tuple[int, ...], ring):
    """Ring-generic twin of ``_dp_mod`` for the exact paths."""
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
    return _dp_mod(inverse_table(ring)[1 : n + 1], comp, ring.modulus)


@lru_cache(maxsize=8192)
def _odd_mhs_mod(n: int, comp: tuple[int, ...], ring: PrimePower) -> int:
    if 2 * n - 1 >= ring.p:
        raise NonUnitDenominator(f"Hbar_{n} mod {ring.p}^{ring.k} hits the denominator p")
    return _dp_mod(inverse_table(ring)[1 : 2 * n : 2], comp, ring.modulus)


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
        inv, m = inverse_table(ring), ring.modulus
        total = _dp_mod(inv[slice(*plus)], (d,), m) - _dp_mod(inv[slice(*minus)], (d,), m)
        return Residue(total % m, ring)
    return _dp(_exact_inverses(ring, *plus), (d,), ring) - _dp(
        _exact_inverses(ring, *minus), (d,), ring
    )
