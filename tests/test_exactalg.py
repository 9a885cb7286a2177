"""Tests for exact coefficient rings: rationals, polynomials, quadratic fields."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from congrlab.errors import DivisionFailure, MixedExtension
from congrlab.exactalg import QQ, Poly, PolyRing, QuadExt, p_adic_valuation


class TestValuation:
    def test_known_values(self):
        assert p_adic_valuation(Fraction(49, 3), 7) == 2
        assert p_adic_valuation(Fraction(3, 49), 7) == -2
        assert p_adic_valuation(Fraction(16807, 1920), 7) == 5
        assert p_adic_valuation(12, 2) == 2
        assert p_adic_valuation(0, 7) == math.inf

    @given(st.sampled_from((3, 5, 7, 13)), st.fractions(max_denominator=10**4))
    @settings(max_examples=100, deadline=None)
    def test_valuation_is_additive(self, p, q):
        if q == 0:
            return
        assert p_adic_valuation(q * q, p) == 2 * p_adic_valuation(q, p)
        assert p_adic_valuation(q * p, p) == p_adic_valuation(q, p) + 1


class TestRationalField:
    def test_protocol(self):
        assert QQ.zero() == 0
        assert QQ.one() == 1
        assert QQ.from_int(-3) == Fraction(-3)
        assert QQ.from_fraction(Fraction(2, 4)) == Fraction(1, 2)
        assert QQ.div(Fraction(1), Fraction(3)) == Fraction(1, 3)


class TestPoly:
    def test_normalization(self):
        assert Poly([1, 2, 0, 0]).coeffs == (Fraction(1), Fraction(2))
        assert Poly([]).is_zero() and Poly([0, 0]).is_zero()
        assert Poly([]).degree() == -1

    def test_arithmetic(self):
        x = PolyRing().x()
        f = (1 + 2 * x) * (1 + 2 * x)  # 1 + 4x + 4x^2
        assert f.coeffs == (Fraction(1), Fraction(4), Fraction(4))
        assert (f - f).is_zero()
        assert (f * 0).is_zero()
        g = f - (x**2).scale(4)
        assert g.coeffs == (Fraction(1), Fraction(4))

    def test_coeff_padding(self):
        f = Poly([1, 2])
        assert f.coeff(5) == 0
        assert f.coeff(1) == 2

    def test_evaluate_in_foreign_ring(self):
        from congrlab.modring import prime_power

        ring = prime_power(7, 2)
        f = Poly([Fraction(1, 2), 0, 1])  # x^2 + 1/2
        assert int(f.evaluate(ring.from_int(3))) == int(
            ring.from_int(9) + ring.from_fraction(Fraction(1, 2))
        )
        assert f.evaluate(Fraction(2)) == Fraction(9, 2)

    def test_integrate_and_shift(self):
        x = PolyRing().x()
        f = 1 + 2 * x  # integral: x + x^2
        assert f.integrate_from_zero().coeffs == (Fraction(0), Fraction(1), Fraction(1))
        assert f.integrate_from_zero().shift_down().coeffs == (Fraction(1), Fraction(1))
        with pytest.raises(DivisionFailure):
            f.shift_down()

    def test_nested_ring_two_variables(self):
        inner = PolyRing()
        f = Poly([inner.one(), inner.x()], inner)  # 1 + x*y with y the outer variable
        assert f.degree() == 1
        assert f.coeff(1) == inner.x()
        assert f.coeff(0) == inner.one()
        assert (f - f).is_zero()
        sq = f * f  # 1 + 2x*y + x^2*y^2
        assert sq.coeff(1) == inner.x().scale(2)
        assert sq.coeff(2) == inner.x() * inner.x()

    def test_ring_division_by_constant(self):
        ring = PolyRing()
        f = Poly([2, 4])
        assert ring.div(f, Poly([2])).coeffs == (Fraction(1), Fraction(2))


class TestQuadExt:
    def test_arithmetic_in_sqrt5(self):
        r = QuadExt(0, 1, 5)
        x = (1 + r) / 2  # golden ratio
        assert x * x == x + 1  # phi^2 = phi + 1
        assert (r * r) == 5

    def test_conjugate_and_norm(self):
        z = QuadExt(3, 2, 5)
        assert z.conjugate() == QuadExt(3, -2, 5)
        assert z.norm() == 9 - 4 * 5
        assert z * z.conjugate() == z.norm()

    def test_inverse(self):
        z = QuadExt(Fraction(1, 2), Fraction(3, 4), 5)
        assert z * z.inv() == 1
        assert (1 / z) * z == 1

    def test_mixed_extensions_rejected(self):
        with pytest.raises(MixedExtension):
            _ = QuadExt(1, 1, 5) + QuadExt(1, 1, 3)


@given(
    st.fractions(max_denominator=100),
    st.fractions(max_denominator=100),
    st.fractions(max_denominator=100),
    st.fractions(max_denominator=100),
)
@settings(max_examples=80, deadline=None)
def test_quad_field_laws(a1, b1, a2, b2):
    x = QuadExt(a1, b1, 5)
    y = QuadExt(a2, b2, 5)
    assert x + y == y + x
    assert x * y == y * x
    assert (x * y).conjugate() == x.conjugate() * y.conjugate()
    assert (x * y).norm() == x.norm() * y.norm()
    if y != QuadExt(0, 0, 5):
        assert (x / y) * y == x


@given(st.lists(st.fractions(max_denominator=30), max_size=6), st.fractions(max_denominator=30))
@settings(max_examples=100, deadline=None)
def test_poly_evaluation_is_a_homomorphism(cs, x):
    f = Poly(cs)
    g = Poly(list(reversed(cs)))
    assert (f + g).evaluate(x) == f.evaluate(x) + g.evaluate(x)
    assert (f * g).evaluate(x) == f.evaluate(x) * g.evaluate(x)
