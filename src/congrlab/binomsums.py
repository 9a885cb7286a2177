"""Central binomial sums over half ranges, with several weight families.

The panel checks read one pass per (p, t), ``panel_sums``, in the largest
ring that the unit's panel terms read.  Every other modular evaluator is
one sum of elementwise products (``_dot``) of raw-integer columns over k:
C(2k,k) t^k from ``binomial_column`` (memoized by t's residue), a
``recurrence_column``, slices of the power tables 1/i^a of ``harmonic``.
A call outside a unit runs in one of its own and keeps nothing.  The
oracles over Q live with the tests, in ``tests/oracles.py``.

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
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from operator import mul

from .errors import PreconditionViolated
from .harmonic import _powers
from .modring import PrimePower, Residue, inverse_table, legendre, top_ring, unit_cached
from .sequences import central_binomials, recurrence_column

__all__ = [
    "binomial_column",
    "s1",
    "s2",
    "weighted_sums",
    "fib_lucas_sum",
    "rhs_lucas_sum",
    "PANEL_SUMS",
    "panel_sums",
]


def _check_d(d: int) -> None:
    if d not in (0, 1):
        raise PreconditionViolated(f"sum exponent d must be 0 or 1, got {d}")


def binomial_column(t: int | Fraction, ring: PrimePower) -> tuple[int, ...]:
    """C(2k,k) t^k mod p^k for 0 <= k <= (p-1)/2, as raw integers, memoized
    by t's residue in ``_column``: the fixed-t checks read 11 at p = 101."""
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
    """The pair of Hbar_k(2)-weighted central binomial sums at t, from the panel pass."""
    sums, m = panel_sums(t, ring), ring.modulus
    return Residue(sums["odd_weighted"] % m, ring), Residue(sums["weighted"] % m, ring)


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


#: The panel pass's sums at t, u = t^2/16: s1(t, 0), s0 = 1 + s2(t, 0), the
#: ``weighted_sums`` pair, s1(u, 1), s2(u, 1), sum_{k<n} (-1)^k v_{2k+1}(t)/(2k+1)
#: and sum_{1<=k<=n} (-1)^k v_{2k}(t)/k, v = v(t, 1) and n = (p-1)/2.
PANEL_SUMS = ("s1", "s0", "odd_weighted", "weighted", "quad_s1", "quad_s2", "odd_v", "even_v")


def panel_sums(t: int | Fraction, ring: PrimePower) -> dict:
    """name -> sum at t for `PANEL_SUMS`, raw integers of ring or a larger one."""
    top = top_ring(ring, "panel")
    return _panel_pass(top.value_of(t), top)


@unit_cached
def _panel_pass(tv: int, ring: PrimePower) -> dict:
    """`panel_sums` at tv: one loop over k steps t^k, u^k and (-1)^k v_(2k+1),
    (-1)^k v_(2k) (s_(k+1) = (2-t^2)*s_k - s_(k-1) from s_(-1), s_0 = -t, t
    and 2-t^2, 2) against the rows of `_pass_rows`, and reduces each sum once."""
    m = ring.modulus
    u, x = tv * tv * pow(16, -1, m) % m, (2 - tv * tv) % m
    tk = uk = 1
    odd, odd_prev, even, even_prev = tv, -tv, 2, x
    s1 = s0 = odd_weighted = weighted = quad_s1 = quad_s2 = odd_v = even_v = 0
    for c, c_odd, h, h_odd, c_odd2, c_k, i_odd, i_k in _pass_rows(ring):
        s1 += c_odd * tk
        s0 += c * tk
        odd_weighted += h_odd * tk
        weighted += h * tk
        quad_s1 += c_odd2 * uk
        quad_s2 += c_k * uk
        odd_v += odd * i_odd
        even_v += even * i_k
        tk, uk = tk * tv % m, uk * u % m
        odd, odd_prev = (x * odd - odd_prev) % m, odd
        even, even_prev = (x * even - even_prev) % m, even
    sums = (s1, s0, odd_weighted, weighted, quad_s1, quad_s2, odd_v, even_v)
    return dict(zip(PANEL_SUMS, [v % m for v in sums]))


@unit_cached
def _pass_rows(ring: PrimePower) -> tuple[tuple[int, ...], ...]:
    """`_panel_pass`'s row per k <= n: C(2k,k) times 1, 1/(2k+1), Hbar_k(2),
    Hbar_k(2)/(2k+1), 1/(2k+1)^2 and 1/k, then 1/(2k+1) and 1/k (0 at n, 0)."""
    m = ring.modulus
    c, inv = central_binomials(ring), _half_inverses(ring)
    odd, odd2 = _odd_powers(ring, 1) + (0,), _odd_powers(ring, 2) + (0,)
    h = [x * y % m for x, y in zip(c, accumulate(odd2, initial=0))]
    pairs = ((c, odd), (h, odd), (c, odd2), (c, inv))
    c_odd, h_odd, c_odd2, c_k = ([x * y % m for x, y in zip(a, b)] for a, b in pairs)
    return tuple(zip(c, c_odd, h, h_odd, c_odd2, c_k, odd, inv))
