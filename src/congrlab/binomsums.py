"""Central binomial sums over half ranges, with several weight families.

Each modular evaluator is one sum of elementwise products (``_dot``) of
raw-integer columns over k (C(2k,k) t^k from ``binomial_column``, a
Lucas-type ``recurrence_column``, slices of the power tables 1/i^a of
``harmonic``) but ``weighted_sums``: two polynomials in t, by Horner's rule.
Within a unit (``modring.unit_scope``) what several checks read at one
(p, t) is built once: ``binomial_column`` and ``weighted_sums`` keyed by t's
residue, the polynomials' coefficients once per ring, and the u-column sums
of ``rhs_lucas_sum``.  A call outside a unit runs in one of its own and
keeps nothing.  The oracles over Q live with the tests, in ``tests/oracles.py``.

Families (p an odd prime, working modulus p^k from the ring):

* ``s1(t, d)``   = sum_{k=0}^{(p-3)/2} C(2k,k) t^k / (2k+1)^(d+1)
* ``s2(t, d)``   = sum_{k=1}^{(p-1)/2} C(2k,k) t^k / k^d
* ``weighted_sums(t)`` = the pair
  (sum_{k=0}^{(p-3)/2} C(2k,k) t^k Hbar_k(2)/(2k+1),
   sum_{k=0}^{(p-1)/2} C(2k,k) t^k Hbar_k(2))
* ``fib_lucas_sum(kind)`` = sum_{k=0}^{(p-3)/2} C(2k,k) W_{2k+1}/((2k+1) 16^k)
  with W = F (Fibonacci) or L (Lucas)
* ``rhs_lucas_sum(kind, c)`` = sum_{k=1}^{p-1} u_k(c)/k^2 (kind u) or
  sum_{k=1}^{p-1} v_k(c)/k^3 (kind v); in Z/p both fold onto the half
  range (``_u_sums``)
* ``alternating_v_sum(t, odd)`` = sum_{k=0}^{(p-3)/2} (-1)^k v_{2k+1}(t)/(2k+1)
  (odd) or sum_{k=1}^{(p-1)/2} (-1)^k v_{2k}(t)/k, with v = v(t, 1)
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from operator import mul

from .errors import PreconditionViolated
from .harmonic import _powers
from .modring import PrimePower, Residue, inverse_table, legendre, unit_cached
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


def binomial_column(t: int | Fraction, ring: PrimePower) -> tuple[int, ...]:
    """C(2k,k) t^k mod p^k for 0 <= k <= (p-1)/2, as raw integers.

    Memoized by t's residue in ``_column`` for the open unit: the checks at
    one prime read 26 distinct columns at p = 101.
    """
    return _column(ring.value_of(t), ring)


@unit_cached
def _column(tv: int, ring: PrimePower) -> tuple[int, ...]:
    """``binomial_column`` at the raw integer tv of the ring."""
    m = ring.modulus
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


def s1(t: int | Fraction, d: int, ring: PrimePower) -> Residue:
    """sum_{k=0}^{(p-3)/2} C(2k,k) t^k / (2k+1)^(d+1) in the ring."""
    _check_d(d)
    return _dot(ring, binomial_column(t, ring)[:-1], _odd_powers(ring, d + 1))


def s2(t: int | Fraction, d: int, ring: PrimePower) -> Residue:
    """sum_{k=1}^{(p-1)/2} C(2k,k) t^k / k^d in the ring."""
    _check_d(d)
    column = binomial_column(t, ring)
    if d:
        return _dot(ring, column, _half_inverses(ring))
    return _dot(ring, column[1:])


def weighted_sums(t: int | Fraction, ring: PrimePower) -> tuple[Residue, Residue]:
    """The pair of Hbar_k(2)-weighted central binomial sums at t, memoized by
    t's residue: L31.A2 and L31.A3 each read one element, C52 the first."""
    return _weighted_sums(ring.value_of(t), ring)


@unit_cached
def _weighted_sums(tv: int, ring: PrimePower) -> tuple[Residue, Residue]:
    """``weighted_sums`` at the raw integer tv, by Horner's rule on the t-free
    coefficients of ``_hbar_weights``: no column of t^k is built."""
    m = ring.modulus
    over_odd, hbar = _hbar_weights(ring)
    x, y = 0, hbar[0]
    for a, b in zip(over_odd, hbar[1:]):
        x, y = (x * tv + a) % m, (y * tv + b) % m
    return Residue(x, ring), Residue(y, ring)


@unit_cached
def _hbar_weights(ring: PrimePower) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The ``_weighted_sums`` coefficients, top degree first: C(2k,k) Hbar_k(2)
    / (2k+1) for k <= (p-3)/2 and C(2k,k) Hbar_k(2) for k <= (p-1)/2."""
    m = ring.modulus
    hbar = [c * h % m for c, h in zip(central_binomials(ring), accumulate(_odd_powers(ring, 2), initial=0))]
    return tuple([h * w % m for h, w in zip(hbar, _odd_powers(ring, 1))][::-1]), tuple(hbar[::-1])


def fib_lucas_sum(kind: str, ring: PrimePower) -> Residue:
    """sum_{k=0}^{(p-3)/2} C(2k,k) W_{2k+1} / ((2k+1) 16^k), W in {F, L}."""
    if kind not in ("F", "L"):
        raise PreconditionViolated(f"kind must be 'F' or 'L', got {kind!r}")
    weights = _odd_powers(ring, 1)
    # W_{2k+3} = 3*W_{2k+1} - W_{2k-1}, from (W_1, W_3)
    odd_terms = recurrence_column(len(weights), 1, 2 if kind == "F" else 4, 3, ring.modulus)
    return _dot(ring, binomial_column(pow(16, -1, ring.modulus), ring)[:-1], weights, odd_terms)


@unit_cached
def _u_sums(c: int, ring: PrimePower) -> tuple[Residue, Residue]:
    """(sum_{k=1}^{p-1} u_k/k^2, sum_{k=1}^{p-1} v_k/k^3) at u = u(c, 1),
    v = v(c, 1), c a raw integer of the ring.

    Both come from one u column, as v_k = 2u_{k+1} - c*u_k; only the sums
    are kept.  In Z/p with e = ((c^2-4)/p) nonzero, u_{p-k} = -u_{k-e} and
    v_{p-k} = v_{k-e}, while 1/(p-k)^a = (-1)^a/k^a, so the sums fold onto
    k <= n = (p-1)/2 through d_k = u_k - u_{k-e}: sum d_k/k^2 and
    sum (2d_{k+1} - c*d_k)/k^3, from u_0..u_{n+2}.  At c = +-2 (e = 0), and
    in Z/p^k for k >= 2, the column runs over u_0..u_p.
    """
    p = ring.p
    # entry 0 of the power tables is 0, which drops the k = 0 term
    squares, cubes = _powers(ring, 2), _powers(ring, 3)
    e = legendre(c * c - 4, p) if ring.k == 1 else 0
    if not e:
        u = recurrence_column(p + 1, 0, 1, c, ring.modulus)
        return _dot(ring, u[:-1], squares), _dot(ring, u[1:], cubes) * 2 - _dot(ring, u[:-1], cubes) * c
    n = (p - 1) // 2
    u = recurrence_column(n + 3, 0, 1, c, p)
    d = [0] + [u[k] - u[k - e] for k in range(1, n + 2)]  # d_0 is dropped with the k = 0 term
    squares, cubes = squares[: n + 1], cubes[: n + 1]
    return _dot(ring, d[:-1], squares), _dot(ring, d[1:], cubes) * 2 - _dot(ring, d[:-1], cubes) * c


def rhs_lucas_sum(kind: str, c: int | Fraction, ring: PrimePower) -> Residue:
    """sum_{k=1}^{p-1} u_k(c)/k^2 (kind 'u') or sum_{k=1}^{p-1} v_k(c)/k^3
    (kind 'v'): the two u/v-series sums that L31 and T32 state.

    Needed only mod p by its consumers, but computed in whatever ring is
    passed; c is the one-parameter recurrence coefficient (y = 1), read as
    its representative in the ring.  Both kinds read the cached sums of one
    u column: in Z/p folded onto k <= (p-1)/2 unless c = +-2, and in
    Z/p^k for k >= 2 over the whole range (see `_u_sums`).
    """
    if kind not in ("u", "v"):
        raise PreconditionViolated(f"kind must be 'u' or 'v', got {kind!r}")
    return _u_sums(ring.value_of(c), ring)[kind == "v"]


def alternating_v_sum(t: int | Fraction, odd: bool, ring: PrimePower) -> Residue:
    """The signed v-series at t over the half range, with v = v(t, 1).

    With ``odd`` True: sum_{k=0}^{(p-3)/2} (-1)^k v_{2k+1}(t)/(2k+1).
    Otherwise: sum_{k=1}^{(p-1)/2} (-1)^k v_{2k}(t)/k.  Both columns step the
    index by two, s_{k+1} = v_2*s_k - s_{k-1} with v_2 = t^2 - 2, and the
    sign (-1)^k is folded in by negating v_2.
    """
    tv = ring.value_of(t)
    v2 = (tv * tv - 2) % ring.modulus
    if odd:
        seeds, weights = (tv, -(v2 * tv - tv)), _odd_powers(ring, 1)  # v_1, -v_3
    else:
        seeds, weights = (2, -v2), _half_inverses(ring)  # v_0, -v_2
    return _dot(ring, recurrence_column(len(weights), *seeds, -v2, ring.modulus), weights)

