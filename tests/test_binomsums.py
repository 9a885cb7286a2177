"""Tests for the central binomial sum evaluators, against exact oracles."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from congrlab.errors import DenominatorDivisibleByP, PreconditionViolated
from congrlab.binomsums import (
    _column,
    _dot,
    _hbar_weights,
    _weighted_sums,
    alternating_v_sum,
    binomial_column,
    fib_lucas_sum,
    rhs_lucas_sum,
    s1,
    s2,
    weighted_sums,
)
from congrlab.catalog import DEFAULT_T_PANEL
from congrlab.harmonic import odd_mhs
from congrlab.modring import legendre, primes_in_range, prime_power, unit_scope
from congrlab.sequences import lucas_u_upto, lucas_v_upto, recurrence_column
from oracles import fib_lucas_sum_exact, s1_exact, s2_exact, weighted_sums_exact

T_VALUES = [Fraction(1, 4), Fraction(-1, 4), Fraction(1, 16), Fraction(3, 16), Fraction(2)]


class TestFrozenValues:
    def test_s1_at_seven_sixteenth(self):
        # k = 0..2: 1 + 2*(1/16)/3 + 6*(1/256)/5 = 2009/1920.
        assert s1_exact(7, Fraction(1, 16), 0) == Fraction(2009, 1920)

    def test_s2_at_five_sixteenth(self):
        # k = 1..2: 2*(1/16) + 6*(1/256)/2 = 35/256.
        assert s2_exact(5, Fraction(1, 16), 1) == Fraction(35, 256)
        ring = prime_power(5, 2)
        assert int(ring.from_fraction(Fraction(35, 256))) == 10

    def test_fib_sum_at_seven(self):
        # k = 0..2: F_1 + 2*F_3/(3*16) + 6*F_5/(5*256) = 1 + 1/12 + 3/128.
        assert fib_lucas_sum_exact(7, "F") == Fraction(425, 384)
        assert int(prime_power(7, 2).from_fraction(Fraction(425, 384))) == 2

    def test_weighted_pair_small(self):
        first, second = weighted_sums_exact(7, Fraction(1, 4))
        # Direct expansion with Hbar_k(2) weights.
        h = [odd_mhs(k, (2,)) for k in range(4)]
        want_first = sum(
            Fraction(math.comb(2 * k, k), 4**k) * h[k] / (2 * k + 1) for k in range(3)
        )
        want_second = sum(Fraction(math.comb(2 * k, k), 4**k) * h[k] for k in range(4))
        assert (first, second) == (want_first, want_second)


# p = 3 and 5 have the shortest columns (one or two terms), so a slice one
# entry short or long shows there at once.
@pytest.mark.parametrize("p,k", [(7, 2), (13, 4), (31, 3), (3, 1), (3, 3), (5, 2), (997, 3)])
def test_modular_paths_match_exact(p, k):
    ring = prime_power(p, k)
    for t in T_VALUES:
        for d in (0, 1):
            assert s1(t, d, ring) == ring.from_fraction(s1_exact(p, t, d))
            assert s2(t, d, ring) == ring.from_fraction(s2_exact(p, t, d))
        got = weighted_sums(t, ring)
        want = weighted_sums_exact(p, t)
        assert got[0] == ring.from_fraction(want[0])
        assert got[1] == ring.from_fraction(want[1])
    for kind in ("F", "L"):
        assert fib_lucas_sum(kind, ring) == ring.from_fraction(fib_lucas_sum_exact(p, kind))


@pytest.mark.parametrize("p,k", [(3, 1), (7, 2), (13, 4)])
def test_binomial_column(p, k):
    ring = prime_power(p, k)
    for t in T_VALUES:
        want = [ring.from_fraction(math.comb(2 * j, j) * t**j).value for j in range((p + 1) // 2)]
        assert binomial_column(t, ring) == tuple(want)


def _v_sums_exact(p: int, t: Fraction) -> tuple[Fraction, Fraction]:
    vs = lucas_v_upto(p, t, Fraction(1))
    half = (p - 1) // 2
    odd = sum(Fraction((-1) ** k) * vs[2 * k + 1] / (2 * k + 1) for k in range(half))
    even = sum(Fraction((-1) ** k) * vs[2 * k] / k for k in range(1, half + 1))
    return odd, even


@pytest.mark.parametrize("p", [3, 5, 7, 13, 199])
def test_alternating_v_sums_match_exact(p):
    for t in DEFAULT_T_PANEL:
        if t.denominator % p == 0:
            with pytest.raises(DenominatorDivisibleByP):
                alternating_v_sum(t, True, prime_power(p, 1))
            continue
        odd, even = _v_sums_exact(p, t)
        for k in (1, 2, 3, 4):
            ring = prime_power(p, k)
            assert alternating_v_sum(t, True, ring) == ring.from_fraction(odd), (t, k)
            assert alternating_v_sum(t, False, ring) == ring.from_fraction(even), (t, k)


def test_fib_lucas_sum_uses_odd_indices():
    # The exact twin walks W_1, W_3, W_5, ...; pin against the closed sequences.
    p = 13
    for kind, seq in (("F", lucas_u_upto(p, 1, -1)), ("L", lucas_v_upto(p, 1, -1))):
        want = sum(
            Fraction(math.comb(2 * k, k) * seq[2 * k + 1], (2 * k + 1) * 16**k)
            for k in range((p - 1) // 2)
        )
        assert fib_lucas_sum_exact(p, kind) == want


@pytest.mark.parametrize("p", [7, 13, 29])
def test_rhs_lucas_sum_matches_iteration(p):
    ring = prime_power(p, 1)
    for c in (Fraction(3), Fraction(-1), Fraction(5, 2)):
        us = lucas_u_upto(p - 1, c, Fraction(1))
        vs = lucas_v_upto(p - 1, c, Fraction(1))
        want_u = sum(us[k] / Fraction(k) ** 2 for k in range(1, p))
        want_v = sum(vs[k] / Fraction(k) ** 3 for k in range(1, p))
        assert rhs_lucas_sum("u", c, ring) == ring.from_fraction(want_u)
        assert rhs_lucas_sum("v", c, ring) == ring.from_fraction(want_v)


def test_rhs_lucas_sum_mod_p_at_every_c():
    # Every c mod p at the primes 5..61, so the half-range fold meets
    # ((c^2-4)/p) = 1 and -1, and c = +-2 its full-range path, against the
    # exact u and v iterated over the integers and reduced term by term.
    seen = set()
    for p in primes_in_range(5, 61):
        ring = prime_power(p, 1)
        for c in range(p):
            us, vs = lucas_u_upto(p - 1, c, 1), lucas_v_upto(p - 1, c, 1)
            want_u = sum(us[k] * pow(k, -2, p) for k in range(1, p))
            want_v = sum(vs[k] * pow(k, -3, p) for k in range(1, p))
            assert (rhs_lucas_sum("u", c, ring), rhs_lucas_sum("v", c, ring)) == (want_u, want_v), (p, c)
            seen.add(legendre(c * c - 4, p))
    assert seen == {1, -1, 0}


def _rhs_lucas_sum_per_kind(kind, c, ring):
    """Oracle for ``rhs_lucas_sum``: one recurrence column per kind, u from
    seeds (0, 1) with weights 1/k^2 and v from (2, c) with weights 1/k^3."""
    m = ring.modulus
    cv = ring.from_fraction(c).value
    seeds, d = ((0, 1), 2) if kind == "u" else ((2, cv), 3)
    terms = recurrence_column(ring.p, *seeds, cv, m)
    return ring.from_int(sum(s * pow(k, -d, m) for k, s in enumerate(terms) if k))


@pytest.mark.parametrize("k", [1, 2])
def test_rhs_lucas_sum_matches_per_kind_columns(k):
    # Every panel value the sweep keeps at every prime 5..200, c = 2 - 16t as
    # the L31 and s1/s2 mod p^3 checks pass it.
    for p in primes_in_range(5, 200):
        ring = prime_power(p, k)
        for t in DEFAULT_T_PANEL:
            if t.numerator % p == 0 or t.denominator % p == 0:
                continue
            c = 2 - 16 * t
            for kind in ("u", "v"):
                assert rhs_lucas_sum(kind, c, ring) == _rhs_lucas_sum_per_kind(kind, c, ring), (p, t, kind)


def test_cached_columns_keep_rings_apart():
    # One t at two rings of one prime: each call returns its own ring's values,
    # whichever ring was filled first.
    p, t = 13, Fraction(3, 16)
    rings = (prime_power(p, 1), prime_power(p, 2))
    want_pair = weighted_sums_exact(p, t)
    with unit_scope():
        for ring in rings + rings:
            column = tuple(ring.from_fraction(math.comb(2 * j, j) * t**j).value for j in range((p + 1) // 2))
            assert binomial_column(t, ring) == column
            assert weighted_sums(t, ring) == tuple(ring.from_fraction(w) for w in want_pair)
        assert binomial_column(t, rings[0]) != binomial_column(t, rings[1])
        assert weighted_sums(t, rings[0])[1].ring is rings[0]


def test_one_column_per_residue_of_t():
    # The caches are keyed by t's residue: a rational t and its raw integer
    # in the ring share one column, and so do t and t + p^k.
    ring = prime_power(101, 2)
    tv = ring.value_of(Fraction(1, 4))
    with unit_scope():
        assert s2(Fraction(1, 4), 1, ring) == s2(tv + ring.modulus, 1, ring)
        s1(tv, 1, ring)
        assert _column.cache_info().misses == 1
        assert weighted_sums(Fraction(1, 4), ring) == weighted_sums(tv, ring)
        assert _weighted_sums.cache_info().misses == 1


def test_weight_columns_once_per_ring():
    # The Hbar_k(2) weights do not depend on t: the sums at three values of t
    # in one ring build them once, and another ring builds its own.
    rings = (prime_power(101, 2), prime_power(101, 3))
    with unit_scope():
        for ring in rings:
            for t in (Fraction(1, 4), Fraction(-1, 16), Fraction(5, 3)):
                assert weighted_sums(t, ring) == tuple(map(ring.from_fraction, weighted_sums_exact(101, t)))
        assert _hbar_weights.cache_info().misses == 2


class TestGuards:
    def test_exponent_range(self):
        ring = prime_power(7, 2)
        with pytest.raises(PreconditionViolated):
            s1(Fraction(1, 4), 2, ring)
        with pytest.raises(PreconditionViolated):
            s2(Fraction(1, 4), -1, ring)

    def test_kind_guards(self):
        ring = prime_power(7, 2)
        with pytest.raises(PreconditionViolated):
            fib_lucas_sum("G", ring)
        with pytest.raises(PreconditionViolated):
            fib_lucas_sum("X", ring)
        with pytest.raises(PreconditionViolated):
            rhs_lucas_sum("w", Fraction(1), ring)

    def test_unequal_columns_rejected(self):
        # A column one entry short would otherwise drop a term silently.
        ring = prime_power(7, 2)
        with pytest.raises(ValueError):
            _dot(ring, (1, 2, 3), (1, 2))
        with pytest.raises(ValueError):
            _dot(ring, (1, 2), (1, 2), (1, 2, 3))
        assert _dot(ring, (1, 2), (3, 4), (5, 6)) == 1 * 3 * 5 + 2 * 4 * 6

    def test_denominator_guard(self):
        ring = prime_power(7, 2)
        with pytest.raises(DenominatorDivisibleByP):
            s1(Fraction(1, 7), 0, ring)
        with pytest.raises(DenominatorDivisibleByP):
            weighted_sums(Fraction(3, 14), ring)


@given(
    st.sampled_from((7, 13, 31)),
    st.fractions(max_denominator=30),
    st.sampled_from((0, 1)),
)
@settings(max_examples=60, deadline=None)
def test_exact_vs_modular_property(p, t, d):
    if t.denominator % p == 0:
        return
    ring = prime_power(p, 3)
    assert s1(t, d, ring) == ring.from_fraction(s1_exact(p, t, d))
    assert s2(t, d, ring) == ring.from_fraction(s2_exact(p, t, d))
