"""Tests for Lucas sequences, quotients, and central binomial tables."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from congrlab.errors import BaseDivisibleByP
from congrlab.exactalg import Poly
from congrlab.modring import prime_power
from congrlab.sequences import (
    LucasParams,
    central_binomials,
    fermat_quotient,
    lucas_pair_mod,
    lucas_quotient,
    lucas_u_upto,
    lucas_v_upto,
    recurrence_column,
    w_value,
    w_value_mod,
)

FIB = [0, 1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233, 377, 610, 987, 1597, 2584, 4181, 6765]
LUC = [2, 1, 3, 4, 7, 11, 18, 29, 47, 76, 123, 199, 322, 521, 843, 1364, 2207, 3571, 5778, 9349]
FIB_LUCAS = LucasParams(1, -1)  # u_n = F_n, v_n = L_n


class TestIntegerSequences:
    def test_fibonacci_table(self):
        fib = lucas_u_upto(50, FIB_LUCAS)
        assert fib[:21] == FIB
        assert fib[50] == 12586269025

    def test_lucas_table(self):
        assert lucas_v_upto(19, FIB_LUCAS) == LUC

    def test_upto_tables(self):
        assert lucas_u_upto(0, FIB_LUCAS) == [0]
        assert lucas_v_upto(0, FIB_LUCAS) == [2]
        assert lucas_u_upto(1, FIB_LUCAS) == [0, 1]
        assert lucas_v_upto(1, FIB_LUCAS) == [2, 1]

    def test_pell_numbers(self):
        # u_n for (x, y) = (2, -1): 0, 1, 2, 5, 12, 29, 70, ...
        assert lucas_u_upto(6, LucasParams(2, -1)) == [0, 1, 2, 5, 12, 29, 70]

    def test_rational_parameters(self):
        params = LucasParams(Fraction(1, 2), Fraction(-1, 3))
        us = lucas_u_upto(4, params)
        assert us[2] == Fraction(1, 2)
        assert us[3] == us[2] * Fraction(1, 2) + Fraction(1, 3) * us[1]


class TestLucasPairMod:
    @pytest.mark.parametrize("p,k", [(7, 1), (7, 3), (101, 2)])
    def test_matches_iteration(self, p, k):
        ring = prime_power(p, k)
        for x, y in [(1, -1), (2, -1), (3, 5), (p + 4, 2)]:
            params = LucasParams(x, y)
            us = lucas_u_upto(30, params)
            vs = lucas_v_upto(30, params)
            for n in (0, 1, 2, 7, 29, 30):
                u, v = lucas_pair_mod(n, x, y, ring)
                assert int(u) == us[n] % ring.modulus
                assert int(v) == vs[n] % ring.modulus

    def test_accepts_residue_coefficients(self):
        ring = prime_power(13, 2)
        u, v = lucas_pair_mod(10, ring.from_int(1), ring.from_int(-1), ring)
        assert int(u) == FIB[10] % 169
        assert int(v) == LUC[10] % 169

    @given(
        st.integers(min_value=0, max_value=10**6),
        st.integers(min_value=-50, max_value=50),
        st.integers(min_value=-50, max_value=50),
    )
    @settings(max_examples=60, deadline=None)
    def test_doubling_consistency(self, n, x, y):
        ring = prime_power(97, 2)
        u2, v2 = lucas_pair_mod(2 * n, x, y, ring)
        u, v = lucas_pair_mod(n, x, y, ring)
        # u_{2n} = u_n * v_n  and  v_{2n} = v_n^2 - 2*y^n.
        assert u2 == u * v
        assert v2 == v * v - 2 * pow(y, n, ring.modulus)


class TestRecurrenceColumn:
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 40])
    def test_matches_upto_tables(self, n):
        m = 13**3
        for x, y in [(1, -1), (3, 1), (2, -1), (5, 7), (-4, 1), (m + 6, 1)]:
            params = LucasParams(x, y)
            us = [u % m for u in lucas_u_upto(n, params)[:n]]
            vs = [v % m for v in lucas_v_upto(n, params)[:n]]
            assert recurrence_column(n, 0, 1, x, y, m) == us
            assert recurrence_column(n, 2, x, x, y, m) == vs

    def test_every_other_term(self):
        # F_{2k+1} and L_{2k+1} run at (3, 1), v_2 = L_2 = 3 for Fibonacci/Lucas;
        # negating the multiplier gives (-1)^k * s_k.
        m = 10**9
        fib, luc = lucas_u_upto(41, FIB_LUCAS), lucas_v_upto(41, FIB_LUCAS)
        assert recurrence_column(20, 1, 2, 3, 1, m) == [fib[2 * k + 1] % m for k in range(20)]
        assert recurrence_column(20, 1, 4, 3, 1, m) == [luc[2 * k + 1] % m for k in range(20)]
        signed = [(-1) ** k * luc[2 * k] % m for k in range(20)]
        assert recurrence_column(20, 2, -3, -3, 1, m) == signed


class TestWPolynomials:
    def test_small_values(self):
        x = Poly([0, 1])
        assert w_value(0, x).coeffs == (Fraction(1),)
        assert w_value(1, x).coeffs == (Fraction(1), Fraction(2))
        # w_2 = 4x^2 + 2x - 1
        assert w_value(2, x).coeffs == (Fraction(-1), Fraction(2), Fraction(4))

    def test_int_argument(self):
        # w_n(1) = 2n + 1: w_0 = 1, w_1 = 3, and w_(n+1) = 2*w_n - w_(n-1).
        assert [w_value(n, 1) for n in range(5)] == [1, 3, 5, 7, 9]

    def test_mod_matches_exact(self):
        ring = prime_power(13, 2)
        for x in (1, 2, 5):
            for n in (0, 1, 5, 20):
                assert int(w_value_mod(n, x, ring)) == w_value(n, x) % 169

    @pytest.mark.parametrize("p", [3, 5, 7, 13, 199, 997])
    def test_mod_matches_exact_at_prime_powers(self, p):
        for k in (1, 2, 3, 4, 6):
            ring = prime_power(p, k)
            for n in (0, 1, (p - 1) // 2):
                for x in (0, 1, 2, -3, ring.modulus - 1):
                    assert w_value_mod(n, x, ring) == ring.from_int(w_value(n, x))
                # the catalog's arguments: x = 1 - 8t and 8t - 1 at a panel t
                for x in (Fraction(-1), Fraction(3, 2), Fraction(-7, 5)):
                    if x.denominator % p:
                        want = ring.from_fraction(w_value(n, x))
                        assert w_value_mod(n, ring.from_fraction(x), ring) == want


class TestQuotients:
    def test_fermat_quotient_values(self):
        # q_5(2) = (16 - 1)/5 = 3; q_7(2) = (64 - 1)/7 = 9 = 2 mod 7.
        assert int(fermat_quotient(2, 5)) == 3
        assert int(fermat_quotient(2, 7)) == 2
        assert int(fermat_quotient(2, 5, k=3)) == 3
        assert int(fermat_quotient(3, 5)) == (81 - 1) // 5 % 5

    def test_fermat_quotient_log_property(self):
        # q_p(ab) = q_p(a) + q_p(b) mod p.
        p = 101
        for a, b in [(2, 3), (5, 7), (12, 34)]:
            assert fermat_quotient(a * b, p) == fermat_quotient(a, p) + fermat_quotient(b, p)

    def test_fermat_quotient_guard(self):
        with pytest.raises(BaseDivisibleByP):
            fermat_quotient(14, 7)

    def test_lucas_quotient_values(self):
        # L_5 = 11 -> (11-1)/5 = 2; L_7 = 29 -> (29-1)/7 = 4.
        assert int(lucas_quotient(5)) == 2
        assert int(lucas_quotient(7)) == 4
        luc = lucas_v_upto(31, FIB_LUCAS)
        for p in (11, 13, 31):
            assert int(lucas_quotient(p)) == (luc[p] - 1) // p % p
        assert int(lucas_quotient(11, k=2)) == (luc[11] - 1) // 11 % 121


class TestCentralBinomials:
    @pytest.mark.parametrize("p,k", [(7, 1), (13, 3), (997, 1)])
    def test_matches_math_comb(self, p, k):
        ring = prime_power(p, k)
        table = central_binomials(ring)
        assert len(table) == (p - 1) // 2 + 1
        for j in range(len(table)):
            assert table[j] == math.comb(2 * j, j) % ring.modulus

    def test_cached(self):
        ring = prime_power(11, 2)
        assert central_binomials(ring) is central_binomials(prime_power(11, 2))
