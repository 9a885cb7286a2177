"""Central binomial sums over half ranges, with several weight families.

Each modular evaluator is one sum of elementwise products (``_dot``) of
raw-integer columns over k: C(2k,k) t^k from ``binomial_column``, a
``recurrence_column`` of a Lucas-type sequence, and slices of the cached
power tables 1/i^a of ``harmonic``.  What several checks read at one
(p, t) is built once: ``binomial_column`` and ``weighted_sums`` are cached
per (t, ring), and ``rhs_lucas_sum`` reads both of its kinds off the cached
sums of one u column.  The exact-rational oracles that recompute the same
sums over Q live with the tests, in ``tests/oracles.py``.

Families (p an odd prime, working modulus p^k from the ring):

* ``s1(t, d)``   = sum_{k=0}^{(p-3)/2} C(2k,k) t^k / (2k+1)^(d+1)
* ``s2(t, d)``   = sum_{k=1}^{(p-1)/2} C(2k,k) t^k / k^d
* ``weighted_sums(t)`` = the pair
  (sum_{k=0}^{(p-3)/2} C(2k,k) t^k Hbar_k(2)/(2k+1),
   sum_{k=0}^{(p-1)/2} C(2k,k) t^k Hbar_k(2))
* ``fib_lucas_sum(kind)`` = sum_{k=0}^{(p-3)/2} C(2k,k) W_{2k+1}/((2k+1) 16^k)
  with W = F (Fibonacci) or L (Lucas)
* ``rhs_lucas_sum(kind, c, d)`` = sum_{k=1}^{p-1} s_k(c)/k^d with s = u or v
* ``alternating_v_sum(t, odd)`` = sum_{k=0}^{(p-3)/2} (-1)^k v_{2k+1}(t)/(2k+1)
  (odd) or sum_{k=1}^{(p-1)/2} (-1)^k v_{2k}(t)/k, with v = v(t, 1)
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from operator import mul

from .errors import PreconditionViolated
from .harmonic import _powers
from .modring import PrimePower, Residue, inverse_table
from .sequences import central_binomials, recurrence_column

__all__ = [
    "binomial_column",
    "s1",
    "s2",
    "weighted_sums",
    "fib_lucas_sum",
    "rhs_lucas_sum",
    "alternating_v_sum",
]


def _check_d(d: int) -> None:
    if d not in (0, 1):
        raise PreconditionViolated(f"sum exponent d must be 0 or 1, got {d}")


@lru_cache(maxsize=64)
def binomial_column(t: Fraction, ring: PrimePower) -> tuple[int, ...]:
    """C(2k,k) t^k mod p^k for 0 <= k <= (p-1)/2, as raw integers.

    Cached: the checks at one prime read 25 distinct (t, ring) columns.
    """
    m = ring.modulus
    tv = ring.from_fraction(t).value
    out = []
    tp = 1
    for c in central_binomials(ring):
        out.append(c * tp % m)
        tp = tp * tv % m
    return tuple(out)


def _dot(ring: PrimePower, first, *rest) -> Residue:
    """sum_k first[k] * rest[0][k] * ... in the ring, reduced once at the end.

    Unequal lengths raise: a slice one entry short would drop a term silently.
    """
    terms = first
    for col in rest:
        if len(col) != len(first):
            raise ValueError(f"column lengths differ: {len(first)} and {len(col)}")
        terms = map(mul, terms, col)
    return Residue(sum(terms) % ring.modulus, ring)


def _odd_powers(ring: PrimePower, a: int) -> tuple[int, ...]:
    """1/(2k+1)^a for 0 <= k <= (p-3)/2."""
    return _powers(ring, a)[1 : ring.p - 1 : 2]


def _half_inverses(ring: PrimePower) -> tuple[int, ...]:
    """1/k for 0 <= k <= (p-1)/2; entry 0 is 0, which drops a k = 0 term."""
    return inverse_table(ring)[: (ring.p + 1) // 2]


def s1(t: Fraction, d: int, ring: PrimePower) -> Residue:
    """sum_{k=0}^{(p-3)/2} C(2k,k) t^k / (2k+1)^(d+1) in the ring."""
    _check_d(d)
    return _dot(ring, binomial_column(t, ring)[:-1], _odd_powers(ring, d + 1))


def s2(t: Fraction, d: int, ring: PrimePower) -> Residue:
    """sum_{k=1}^{(p-1)/2} C(2k,k) t^k / k^d in the ring."""
    _check_d(d)
    column = binomial_column(t, ring)
    if d:
        return _dot(ring, column, _half_inverses(ring))
    return _dot(ring, column[1:])


@lru_cache(maxsize=32)
def weighted_sums(t: Fraction, ring: PrimePower) -> tuple[Residue, Residue]:
    """The pair of Hbar_k(2)-weighted central binomial sums at t.

    Cached because one check reads each element at every (p, t).  Its column
    is built uncached: nothing else reads the mod-p columns it needs, so
    they would only fill the cache of ``binomial_column``.
    """
    column = binomial_column.__wrapped__(t, ring)
    hbar = list(accumulate(_odd_powers(ring, 2), initial=0))  # Hbar_k(2), k <= (p-1)/2
    first = _dot(ring, column[:-1], hbar[:-1], _odd_powers(ring, 1))
    return first, _dot(ring, column, hbar)


def fib_lucas_sum(kind: str, ring: PrimePower) -> Residue:
    """sum_{k=0}^{(p-3)/2} C(2k,k) W_{2k+1} / ((2k+1) 16^k), W in {F, L}."""
    if kind not in ("F", "L"):
        raise PreconditionViolated(f"kind must be 'F' or 'L', got {kind!r}")
    weights = _odd_powers(ring, 1)
    # W_{2k+3} = 3*W_{2k+1} - W_{2k-1}, from (W_1, W_3)
    odd_terms = recurrence_column(len(weights), 1, 2 if kind == "F" else 4, 3, 1, ring.modulus)
    return _dot(ring, binomial_column(Fraction(1, 16), ring)[:-1], weights, odd_terms)


@lru_cache(maxsize=32)
def _u_sums(c: Fraction, ring: PrimePower) -> tuple[tuple[Residue, Residue], ...]:
    """For d = 2, 3 in turn: (sum_{k=1}^{p-1} u_k/k^d, sum_{k=1}^{p-1} u_{k+1}/k^d).

    Both come from one column u_0..u_p of u(c, 1); only the sums are kept,
    since the column holds p + 1 entries.
    """
    u = recurrence_column(ring.p + 1, 0, 1, ring.from_fraction(c).value, 1, ring.modulus)
    # entry 0 of the power tables is 0, which drops the k = 0 term
    weights = (_powers(ring, 2), _powers(ring, 3))
    return tuple((_dot(ring, u[:-1], w), _dot(ring, u[1:], w)) for w in weights)


def rhs_lucas_sum(kind: str, c: Fraction, d: int, ring: PrimePower) -> Residue:
    """sum_{k=1}^{p-1} s_k(c)/k^d with s = u (kind 'u') or v (kind 'v').

    Needed only mod p by its consumers, but computed in whatever ring is
    passed; c is the one-parameter recurrence coefficient (y = 1).  Both
    kinds read the cached sums of one u column, since v_k = 2u_{k+1} - c*u_k:
    the v-sum is 2*sum u_{k+1}/k^d - c*sum u_k/k^d.
    """
    if kind not in ("u", "v"):
        raise PreconditionViolated(f"kind must be 'u' or 'v', got {kind!r}")
    if d not in (2, 3):
        raise PreconditionViolated(f"sum exponent d must be 2 or 3, got {d}")
    below, above = _u_sums(c, ring)[d - 2]
    if kind == "u":
        return below
    return above * 2 - below * c


def alternating_v_sum(t: Fraction, odd: bool, ring: PrimePower) -> Residue:
    """The signed v-series at t over the half range, with v = v(t, 1).

    With ``odd`` True: sum_{k=0}^{(p-3)/2} (-1)^k v_{2k+1}(t)/(2k+1).
    Otherwise: sum_{k=1}^{(p-1)/2} (-1)^k v_{2k}(t)/k.  Both columns step the
    index by two, s_{k+1} = v_2*s_k - s_{k-1} with v_2 = t^2 - 2, and the
    sign (-1)^k is folded in by negating v_2.
    """
    tv = ring.from_fraction(t).value
    v2 = tv * tv - 2
    if odd:
        seeds, weights = (tv, -(v2 * tv - tv)), _odd_powers(ring, 1)  # v_1, -v_3
    else:
        seeds, weights = (2, -v2), _half_inverses(ring)  # v_0, -v_2
    return _dot(ring, recurrence_column(len(weights), *seeds, -v2, 1, ring.modulus), weights)

