"""Multiple harmonic sums and their odd-indexed and alternating variants.

Conventions (the index order matters and is guarded by tests):

* H_n(a_1, ..., a_r) sums 1/(k_1^a_1 * ... * k_r^a_r) over
  0 < k_1 < k_2 < ... < k_r <= n, with a_1 attached to the SMALLEST index.
* The odd variant Hbar_n(a_1, ..., a_r) sums over odd denominators
  2k_i + 1 with 0 <= k_1 < ... < k_r < n.
* The empty composition gives 1 (empty product convention); any nonempty
  composition at n = 0 gives 0 (empty sum).

H and Hbar run one dynamic program on raw integers, `_walk`: a depth-first
walk of the prefix tree of a set of compositions, which accumulates each
prefix's running sums once and costs one O(n) product pass per composition
that extends it.  The modular path feeds it iterators over cached power
tables (entry i of ``_powers(ring, a)`` is i^-a mod p^k, so no ``pow`` in
the loop, and no table is copied) and reduces mod p^k once.  Within a
prime unit the set is a group of the unit's plan: every composition that
the unit's checks sum to one N in one ring, with one parity, taken by
``catalog`` from the `Harmonic` terms of the checks it runs and entered by
`_plan_walks` into `_unit_plan`, a unit table like every other; the first
sum of a group walks the whole group.  Any other sum, and every sum outside
a planned unit, walks alone: its one composition, or the halves of a folded
sum as one group.

Mod p a full-range sum is not walked: 1/(p-k)^a = (-1)^a/k^a pairs the
indices above (p-1)/2 with those below, so H_(p-1)(comp) is a signed sum of
products of half-range sums (`_folded_sum`), and the plan folds the
full-range group mod p into the half-range one.  In Z/p^k for k >= 2 the
full range keeps the direct walk: the pairing holds there only with the
p-adic correction that Lemma 2.1 (the L21.C1 checks) states, so using it
would check those statements against themselves.

The exact path writes 1/i^a as (L/i)^a / L^a, L the lcm of the
denominators, and divides the integer sum once by L^|comp|.  The
alternating sum, mod p^k only, is a difference of two slices of the
inverse table.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate, islice
from math import lcm
from operator import mul

from .errors import NonUnitDenominator, PreconditionViolated
from .exactalg import QQ, RationalField
from .modring import PrimePower, Residue, inverse_table, unit_cached

__all__ = [
    "mhs",
    "odd_mhs",
    "alternating_half_sum",
]


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


def _walk(column, comps) -> dict:
    """The DP of every composition in ``comps`` on raw integers, unreduced:
    one depth-first walk of their prefix tree, a dict from each node of the
    tree (every composition and every prefix of one) to its sum.

    ``column(a)`` gives x_1^a, x_2^a, ... for one sequence x_1, x_2, ...;
    the sum of comp sums prod_d x_{i_d}^comp[d] over i_1 < ... < i_r, so
    comp[0] sits on the smallest index.  A prefix's terms are its products
    ending at each index.  Their running sums, accumulated once per prefix,
    weight the column of each part that extends it: a composition costs one
    product pass more than its parent, and a leaf sums its products in that
    pass.  Only the lists of the prefixes on the current path are alive.  The
    caller reduces or divides once at the end: skipping the per-entry
    reduction nearly halves the cost of the modular loop.
    """
    tree: dict = {}
    for comp in comps:
        node = tree
        for a in comp:
            node = node.setdefault(a, {})
    sums = {(): 1}
    _visit(column, tree, (), None, sums)
    return sums


def _visit(column, node: dict, prefix: tuple, running, sums: dict) -> None:
    """Enter the sums of the children of ``prefix`` and their subtrees into
    ``sums``; ``running`` holds the running sums of prefix's terms (None at
    the root, whose terms are all 1)."""
    for a, children in node.items():
        comp = prefix + (a,)
        terms = column(a) if running is None else map(mul, running, column(a))
        if children:
            weights = list(accumulate(terms, initial=0))
            sums[comp] = weights[-1]
            _visit(column, children, comp, weights, sums)
        else:
            sums[comp] = sum(terms)


def _exact_sum(ring, dens: range, comp: tuple[int, ...]) -> Fraction:
    """The DP at x_i = 1/i over the denominators ``dens``, in Q."""
    if not isinstance(ring, RationalField):
        raise PreconditionViolated(f"harmonic sums need QQ or a PrimePower ring, got {ring!r}")
    L = lcm(*dens)
    scaled = [L // i for i in dens]
    return Fraction(_walk(lambda a: [x**a for x in scaled], (comp,))[comp], L ** sum(comp))


@unit_cached
def _unit_plan(p: int) -> dict:
    """The open unit's walk plan at the prime p: (p^k, n, odd) -> the
    frozenset of compositions whose H_n (Hbar_n if odd) the unit's checks
    read in Z/p^k.  Empty until `_plan_walks` fills it, so empty outside a
    planned unit."""
    return {}


def _halves(comps) -> frozenset:
    """The half-range sums that fold H_(p-1)(comp) mod p for each comp in
    comps (see `_folded_sum`): every nonempty prefix of comp and every
    nonempty suffix, reversed."""
    return frozenset([part for comp in comps for j in range(len(comp)) for part in (comp[: j + 1], comp[j:][::-1])])


def _plan_walks(p: int, groups: dict) -> None:
    """Plan the harmonic sums of the open unit at the prime p.

    ``groups`` maps (k, half, odd) to a frozenset of compositions, summed to
    N = (p-1)/2 if half else p-1 in Z/p^k.  The full-range group in Z/p
    joins the half-range one as the halves of its sums (`_folded_sum`), so
    Z/p is walked once, over the half range.  The first sum of a group that
    the unit computes walks the whole group; a sum outside every group
    walks alone.
    """
    plan: dict = {}
    for (k, half, odd), comps in groups.items():
        if (k, half, odd) == (1, False, False):
            half, comps = True, _halves(comps)
        key = (p**k, (p - 1) // 2 if half else p - 1, odd)
        plan[key] = plan.get(key, frozenset()) | comps
    _unit_plan(p).update(plan)


@unit_cached
def _group_sums(n: int, comps: frozenset, ring: PrimePower, odd: bool) -> dict:
    """comp -> H_n(comp) (Hbar_n(comp) if odd) mod p^k for every comp in
    comps, from one `_walk` over the power tables.  Each column is an
    iterator over its table, so the walk copies no table."""
    m = ring.modulus
    stop, step = (2 * n, 2) if odd else (n + 1, 1)
    sums = _walk(lambda a: islice(_powers(ring, a), 1, stop, step), comps)
    return {comp: sums[comp] % m for comp in comps}


def _planned_sums(n: int, comps: frozenset, ring: PrimePower, odd: bool) -> dict:
    """The sums of `_group_sums` for a group that holds comps: the plan's
    group if it holds them all, else comps alone."""
    group = _unit_plan(ring.p).get((ring.modulus, n, odd))
    return _group_sums(n, group if group is not None and comps <= group else comps, ring, odd)


def _folded_sum(comp: tuple[int, ...], ring: PrimePower) -> int:
    """H_(p-1)(comp) mod p from sums over the half range n = (p-1)/2.

    Mod p, 1/(p-k)^a = (-1)^a/k^a pairs each index above n with one below,
    so with the first j indices at most n and the rest above,
    H_(p-1)(a_1, ..., a_r) = sum_j H_n(a_1, ..., a_j) * (-1)^(a_(j+1) + ... + a_r)
    * H_n(a_r, ..., a_(j+1)), j = 0..r, H_n() = 1.  The halves are read
    from the plan's half-range group mod p when it holds them all, else
    walked as one group.  Exact only mod p (see the module docstring).
    """
    sums = _planned_sums((ring.p - 1) // 2, _halves((comp,)), ring, False)
    total = 0
    for j in range(len(comp) + 1):
        prefix, suffix = comp[:j], comp[j:]
        term = sums.get(prefix, 1) * sums.get(suffix[::-1], 1)  # H_n() = 1 is in no group
        total += -term if sum(suffix) % 2 else term
    return total % ring.modulus


@unit_cached
def _mhs_mod(n: int, comp: tuple[int, ...], ring: PrimePower) -> int:
    if n >= ring.p:
        raise NonUnitDenominator(f"H_{n} mod {ring.p}^{ring.k} hits the denominator p")
    if ring.k == 1 and n == ring.p - 1:
        return _folded_sum(comp, ring)
    return _planned_sums(n, frozenset((comp,)), ring, False)[comp]


@unit_cached
def _odd_mhs_mod(n: int, comp: tuple[int, ...], ring: PrimePower) -> int:
    if 2 * n - 1 >= ring.p:
        raise NonUnitDenominator(f"Hbar_{n} mod {ring.p}^{ring.k} hits the denominator p")
    return _planned_sums(n, frozenset((comp,)), ring, True)[comp]


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


def alternating_half_sum(n: int, ring: PrimePower) -> Residue:
    """sum of (-1)^k/(2k+1) over 0 <= k <= n-1, in the ring: the
    denominators 1, 5, 9, ... minus 3, 7, 11, ..., read off the inverse table."""
    if n < 0:
        raise PreconditionViolated(f"index n must be non-negative, got {n}")
    if 2 * n - 1 >= ring.p:
        raise NonUnitDenominator(f"alternating sum to {2 * n - 1} hits the denominator p")
    inv = _powers(ring, 1)  # the inverse table, as memoized with the other powers
    return Residue((sum(inv[1 : 2 * n : 4]) - sum(inv[3 : 2 * n : 4])) % ring.modulus, ring)
