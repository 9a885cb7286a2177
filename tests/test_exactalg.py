"""Tests for exact arithmetic (rationals, polynomials over Q, Q(sqrt(5))) and the
p-adic valuation oracle."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from congrlab.errors import DivisionFailure, MixedExtension
from congrlab.exactalg import QQ, Poly, QuadExt
from oracles import p_adic_valuation


def horner(f: Poly, x: Fraction) -> Fraction:
    """f(x), an evaluation independent of Poly's own arithmetic."""
    acc = Fraction(0)
    for c in reversed(f.coeffs):
        acc = acc * x + c
    return acc


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
        assert Poly([]).coeffs == Poly([0, 0]).coeffs == ()
        # int coefficients become Fraction; str() of the value depends on it.
        assert all(type(c) is Fraction for c in Poly([1, Fraction(1, 2), 3]).coeffs)

    def test_arithmetic(self):
        x = Poly([0, 1])
        f = (1 + 2 * x) * (1 + 2 * x)  # 1 + 4x + 4x^2
        assert f.coeffs == (Fraction(1), Fraction(4), Fraction(4))
        assert (f - f).coeffs == ()
        assert (f * 0).coeffs == ()
        g = f - (x**2).scale(4)
        assert g.coeffs == (Fraction(1), Fraction(4))
        assert str(f - 1) == "4*x + 4*x^2" and str(x**0) == "1" and str(f * 0) == "0"

    def test_integrate_and_shift(self):
        x = Poly([0, 1])
        f = 1 + 2 * x  # integral: x + x^2
        assert f.integrate_from_zero().coeffs == (Fraction(0), Fraction(1), Fraction(1))
        assert f.integrate_from_zero().shift_down().coeffs == (Fraction(1), Fraction(1))
        with pytest.raises(DivisionFailure):
            f.shift_down()


class TestQuadExt:
    def test_arithmetic_in_sqrt5(self):
        r = QuadExt(0, 1, 5)
        x = (1 + r) * Fraction(1, 2)  # golden ratio
        assert x * x == x + 1  # phi^2 = phi + 1
        assert (r * r) == 5
        assert x**0 == 1 and x**3 == 2 * x + 1
        assert str(x - 1) == "-1/2 + 1/2*sqrt(5)"

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
    assert (x + y) * y == x * y + y * y
    assert (x - y) + y == x
    # The norm a^2 - 5b^2 is multiplicative.
    assert (x * y).a ** 2 - 5 * (x * y).b ** 2 == (x.a**2 - 5 * x.b**2) * (y.a**2 - 5 * y.b**2)


@given(st.lists(st.fractions(max_denominator=30), max_size=6), st.fractions(max_denominator=30))
@settings(max_examples=100, deadline=None)
def test_poly_evaluation_is_a_homomorphism(cs, x):
    f = Poly(cs)
    g = Poly(list(reversed(cs)))
    assert horner(f + g, x) == horner(f, x) + horner(g, x)
    assert horner(f - g, x) == horner(f, x) - horner(g, x)
    assert horner(f * g, x) == horner(f, x) * horner(g, x)
