"""Tests for Bernoulli and Euler numbers modulo p.

The two Bernoulli routes (power sums mod p^2 and the binomial recurrence) are
deliberately independent implementations; their agreement is asserted both
here and in the acceptance suite.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

from congrlab.errors import DenominatorDivisibleByP, IndexOutOfRange
from congrlab.modring import prime_power, primes_in_range
from congrlab.specialnum import (
    bernoulli_number,
    bernoulli_poly_value,
    bernoulli_powersum,
    bernoulli_table,
    bernoulli_third,
    euler_number,
    euler_numbers,
)

# Exact small Bernoulli numbers (even indices) and Euler numbers.
EXACT_B = {
    0: Fraction(1),
    1: Fraction(-1, 2),
    2: Fraction(1, 6),
    4: Fraction(-1, 30),
    6: Fraction(1, 42),
    8: Fraction(-1, 30),
    10: Fraction(5, 66),
    12: Fraction(-691, 2730),
}
EXACT_E = {0: 1, 2: -1, 4: 5, 6: -61, 8: 1385, 10: -50521}


class TestBernoulliRoutes:
    @pytest.mark.parametrize("p", [13, 23, 101])
    def test_powersum_matches_exact_values(self, p):
        for m, b in EXACT_B.items():
            if m % 2 or not 2 <= m <= p - 3:
                continue
            expect = b.numerator * pow(b.denominator, -1, p) % p
            assert int(bernoulli_powersum(m, p)) == expect

    @pytest.mark.parametrize("p", [13, 23, 101])
    def test_recurrence_matches_exact_values(self, p):
        table = bernoulli_table(p)
        for m, b in EXACT_B.items():
            if m > p - 2:
                continue
            expect = b.numerator * pow(b.denominator, -1, p) % p
            assert int(table[m]) == expect

    @pytest.mark.parametrize("p", primes_in_range(5, 60))
    def test_routes_agree(self, p):
        table = bernoulli_table(p)
        for m in range(2, p - 2, 2):
            assert bernoulli_powersum(m, p) == table[m]
            assert bernoulli_number(m, p) == table[m]

    def test_index_classes(self):
        p = 23
        assert int(bernoulli_number(0, p)) == 1
        assert bernoulli_number(1, p) == prime_power(p, 1).from_fraction(Fraction(-1, 2))
        for m in (3, 5, 7, 9):
            assert int(bernoulli_number(m, p)) == 0

    def test_range_guards(self):
        with pytest.raises(IndexOutOfRange):
            bernoulli_powersum(3, 23)  # odd index
        with pytest.raises(IndexOutOfRange):
            bernoulli_powersum(22, 23)  # above p-3
        with pytest.raises(IndexOutOfRange):
            bernoulli_number(22, 23)  # p-1 is not p-integral
        assert len(bernoulli_table(23)) == 22  # B_0..B_21


class TestBernoulliPolynomial:
    def test_known_values(self):
        p = 23
        table = bernoulli_table(p)
        ring = prime_power(p, 1)
        # B_2(x) = x^2 - x + 1/6, so B_2(1/3) = 1/9 - 1/3 + 1/6 = -1/18.
        assert bernoulli_poly_value(2, Fraction(1, 3), p, table) == ring.from_fraction(
            Fraction(-1, 18)
        )
        # B_3(x) = x^3 - (3/2)x^2 + (1/2)x, so B_3(2) = 8 - 6 + 1 = 3.
        assert int(bernoulli_poly_value(3, Fraction(2), p, table)) == 3
        # B_m(0) = B_m and B_m(1) = B_m for m != 1.
        for m in (0, 2, 3, 4, 6):
            assert bernoulli_poly_value(m, Fraction(0), p, table) == table[m]
            assert bernoulli_poly_value(m, Fraction(1), p, table) == table[m]

    @pytest.mark.parametrize("p", [11, 29])
    def test_difference_identity(self, p):
        # B_m(x+1) - B_m(x) = m*x^(m-1) characterizes the Bernoulli polynomials.
        table = bernoulli_table(p)
        ring = prime_power(p, 1)
        for m in range(1, p - 2):
            for x in (Fraction(0), Fraction(2), Fraction(1, 2), Fraction(-3, 5)):
                lhs = bernoulli_poly_value(m, x + 1, p, table) - bernoulli_poly_value(
                    m, x, p, table
                )
                assert lhs == ring.from_fraction(m * x ** (m - 1) if m > 1 else Fraction(m))

    def test_table_of_another_prime_rejected(self):
        with pytest.raises(IndexOutOfRange):
            bernoulli_poly_value(2, Fraction(1, 3), 11, bernoulli_table(13))

    def test_bad_evaluation_point(self):
        p = 11
        with pytest.raises(DenominatorDivisibleByP):
            bernoulli_poly_value(2, Fraction(1, 22), p, bernoulli_table(p))


class TestEuler:
    @pytest.mark.parametrize("p", [13, 23, 101])
    def test_matches_exact_values(self, p):
        for m, e in EXACT_E.items():
            if m > p - 3:
                continue
            assert int(euler_number(m, p)) == e % p

    def test_odd_indices_vanish(self):
        for m in (1, 3, 5, 99):
            assert int(euler_number(m, 101)) == 0

    def test_table_shape(self):
        vals = euler_numbers(8, 23)
        assert len(vals) == 9
        assert [int(v) for v in vals] == [1, 0, 22, 0, 5, 0, (-61) % 23, 0, 1385 % 23]

    def test_limit_guard(self):
        with pytest.raises(IndexOutOfRange):
            euler_numbers(21, 23)

    @pytest.mark.parametrize("m", [-2, -1, -3, 10, 12])
    def test_index_guard(self, m):
        # Negative m and even m above p-3 are outside the supported range.
        with pytest.raises(IndexOutOfRange):
            euler_number(m, 11)

    def test_smallest_primes(self):
        assert int(euler_number(0, 3)) == 1
        assert int(euler_number(0, 5)) == 1 and int(euler_number(2, 5)) == 4
        assert int(euler_number(1, 3)) == 0

    def test_sum_route_matches_recurrence(self):
        # The O(p) alternating-sum route against the O(p^2) recurrence.
        for p in primes_in_range(7, 400):
            table = euler_numbers(p - 3, p)
            for m in range(0, p - 2, 2):
                assert euler_number(m, p) == table[m], (m, p)


class TestLehmer:
    def test_matches_bernoulli_polynomial(self):
        # Every prime up to the cap of the C42 checks, against the table route.
        for p in primes_in_range(5, 600):
            want = bernoulli_poly_value(p - 2, Fraction(1, 3), p, bernoulli_table(p))
            assert bernoulli_third(p) == want, p

    def test_small_prime_guard(self):
        with pytest.raises(IndexOutOfRange):
            bernoulli_third(3)
