"""Exact rational, polynomial and quadratic-extension arithmetic.

Rationals are stdlib ``fractions.Fraction`` (exact, always reduced, positive
denominator) re-exported as :data:`Rational`.  Polynomials are dense
coefficient lists over an arbitrary exact coefficient ring (rationals by
default; nesting a polynomial ring gives two-variable polynomials, which
only the exactalg tests use).  ``QuadExt`` implements Q(sqrt(d)) with componentwise
equality and the field norm.

The rational and polynomial rings (``QQ``, ``PolyRing``) expose the same
adapter protocol as ``PrimePower``: ``zero`` / ``one`` / ``from_int`` /
``from_fraction`` / ``div``, which ``Poly`` uses for its coefficients.  The
generic Lucas-sequence code needs only element arithmetic, so it runs
unchanged over Z/p^k, Q, Q(sqrt(d)) and polynomial rings.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import DivisionFailure, IndexOutOfRange, MixedExtension

__all__ = [
    "Rational",
    "p_adic_valuation",
    "RationalField",
    "QQ",
    "Poly",
    "PolyRing",
    "QuadExt",
]

Rational = Fraction


def p_adic_valuation(q: Fraction | int, p: int) -> int | float:
    """nu_p(q): the exponent of p in q, negative for p in the denominator.

    Returns +inf for q = 0 (the conventional valuation of zero).
    """
    if q == 0:
        return math.inf
    q = Fraction(q)
    v = 0
    n = q.numerator
    while n % p == 0:
        n //= p
        v += 1
    d = q.denominator
    while d % p == 0:
        d //= p
        v -= 1
    return v


class RationalField:
    """Coefficient-ring adapter for exact rationals."""

    def zero(self) -> Fraction:
        return Fraction(0)

    def one(self) -> Fraction:
        return Fraction(1)

    def from_int(self, n: int) -> Fraction:
        return Fraction(n)

    def from_fraction(self, q: Fraction) -> Fraction:
        return q

    def div(self, a: Fraction, b: Fraction) -> Fraction:
        return Fraction(a) / b

    def __eq__(self, other) -> bool:
        return isinstance(other, RationalField)

    def __hash__(self) -> int:
        return hash("RationalField")

    def __repr__(self) -> str:
        return "QQ"


QQ = RationalField()


class Poly:
    """Dense univariate polynomial over an exact coefficient ring.

    Coefficients are stored ascending by degree with trailing zeros stripped;
    the zero polynomial has an empty coefficient tuple.  The coefficient ring
    is any adapter from this module (QQ by default, or a PolyRing for nested /
    two-variable work).
    """

    __slots__ = ("coeffs", "base")

    def __init__(self, coeffs, base=QQ):
        zero = base.zero()
        cs = []
        for c in coeffs:
            if isinstance(c, int):
                c = base.from_int(c)
            elif isinstance(c, Fraction) and not isinstance(zero, Fraction):
                c = base.from_fraction(c)
            cs.append(c)
        while cs and cs[-1] == zero:
            cs.pop()
        self.coeffs = tuple(cs)
        self.base = base

    # -- basics ---------------------------------------------------------

    def degree(self) -> int:
        """Degree, with the usual convention deg 0 = -1."""
        return len(self.coeffs) - 1

    def coeff(self, i: int):
        if i < 0:
            raise IndexOutOfRange(f"coefficient index {i} negative")
        if i >= len(self.coeffs):
            return self.base.zero()
        return self.coeffs[i]

    def is_zero(self) -> bool:
        return not self.coeffs

    def _wrap(self, other) -> "Poly | None":
        if isinstance(other, Poly):
            return other
        if isinstance(other, (int, Fraction)):
            return Poly([self.base.from_fraction(Fraction(other))], self.base)
        return None

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        o = self._wrap(other)
        if o is None:
            return NotImplemented
        a, b = self.coeffs, o.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return Poly(out, self.base)

    __radd__ = __add__

    def __neg__(self):
        return Poly([-c for c in self.coeffs], self.base)

    def __sub__(self, other):
        o = self._wrap(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        o = self._wrap(other)
        if o is None:
            return NotImplemented
        if not self.coeffs or not o.coeffs:
            return Poly([], self.base)
        zero = self.base.zero()
        out = [zero] * (len(self.coeffs) + len(o.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == zero:
                continue
            for j, b in enumerate(o.coeffs):
                out[i + j] = out[i + j] + a * b
        return Poly(out, self.base)

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if not isinstance(e, int) or e < 0:
            return NotImplemented
        result = Poly([self.base.one()], self.base)
        square = self
        while e:
            if e & 1:
                result = result * square
            e >>= 1
            if e:
                square = square * square
        return result

    def __eq__(self, other) -> bool:
        o = self._wrap(other)
        if o is None:
            return NotImplemented
        return self.coeffs == o.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    # -- calculus and evaluation ----------------------------------------

    def scale(self, q) -> "Poly":
        """Multiply every coefficient by the scalar q."""
        if isinstance(q, (int, Fraction)):
            q = self.base.from_fraction(Fraction(q))
        return Poly([c * q for c in self.coeffs], self.base)

    def evaluate(self, x):
        """Horner evaluation at x.

        The result lives in the ring of x, so evaluating a constant
        polynomial at a modular residue still yields a residue.
        """
        one = x ** 0
        acc = x * 0
        for c in reversed(self.coeffs):
            acc = acc * x + one * c
        return acc

    def integrate_from_zero(self) -> "Poly":
        """Formal integral with zero constant term: x^i -> x^(i+1)/(i+1)."""
        out = [self.base.zero()]
        for i, c in enumerate(self.coeffs):
            out.append(self.base.div(c, self.base.from_int(i + 1)))
        return Poly(out, self.base)

    def shift_down(self) -> "Poly":
        """Exact division by x; requires a vanishing constant term."""
        if self.coeffs and self.coeffs[0] != self.base.zero():
            raise DivisionFailure("constant term nonzero: polynomial not divisible by x")
        return Poly(self.coeffs[1:], self.base)

    def __repr__(self) -> str:
        return f"Poly({list(self.coeffs)!r})"

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == self.base.zero():
                continue
            if i == 0:
                parts.append(str(c))
            elif i == 1:
                parts.append(f"{c}*x")
            else:
                parts.append(f"{c}*x^{i}")
        return " + ".join(parts)


class PolyRing:
    """Coefficient-ring adapter for Poly over a given base ring."""

    def __init__(self, base=QQ):
        self.base = base

    def zero(self) -> Poly:
        return Poly([], self.base)

    def one(self) -> Poly:
        return Poly([self.base.one()], self.base)

    def from_int(self, n: int) -> Poly:
        return Poly([self.base.from_int(n)], self.base)

    def from_fraction(self, q: Fraction) -> Poly:
        return Poly([self.base.from_fraction(q)], self.base)

    def x(self) -> Poly:
        """The generator of this polynomial ring."""
        return Poly([self.base.zero(), self.base.one()], self.base)

    def div(self, a: Poly, b: Poly) -> Poly:
        """Division by a scalar (degree-0) polynomial only."""
        if b.degree() > 0:
            raise DivisionFailure("polynomial division only by scalars")
        if b.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        c = b.coeffs[0]
        return Poly([self.base.div(a_i, c) for a_i in a.coeffs], self.base)

    def __eq__(self, other) -> bool:
        return isinstance(other, PolyRing) and self.base == other.base

    def __hash__(self) -> int:
        return hash(("PolyRing", self.base))

    def __repr__(self) -> str:
        return f"PolyRing({self.base!r})"


class QuadExt:
    """An element a + b*sqrt(d) of Q(sqrt(d)), d a non-square integer."""

    __slots__ = ("a", "b", "d")

    def __init__(self, a, b, d: int):
        self.a = Fraction(a)
        self.b = Fraction(b)
        self.d = d

    def _coerce(self, other) -> "QuadExt | None":
        if isinstance(other, QuadExt):
            if other.d != self.d:
                raise MixedExtension(f"cannot mix sqrt({self.d}) and sqrt({other.d})")
            return other
        if isinstance(other, (int, Fraction)):
            return QuadExt(other, 0, self.d)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QuadExt(self.a + o.a, self.b + o.b, self.d)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QuadExt(self.a - o.a, self.b - o.b, self.d)

    def __rsub__(self, other):
        return -(self - other)

    def __neg__(self):
        return QuadExt(-self.a, -self.b, self.d)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QuadExt(self.a * o.a + self.d * self.b * o.b, self.a * o.b + self.b * o.a, self.d)

    __rmul__ = __mul__

    def conjugate(self) -> "QuadExt":
        return QuadExt(self.a, -self.b, self.d)

    def norm(self) -> Fraction:
        """Field norm N(a + b*sqrt(d)) = a^2 - d*b^2."""
        return self.a * self.a - self.d * self.b * self.b

    def inv(self) -> "QuadExt":
        n = self.norm()
        if n == 0:
            raise ZeroDivisionError("inverse of zero (or of a zero-norm element)")
        return QuadExt(self.a / n, -self.b / n, self.d)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inv()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inv()

    def __pow__(self, e: int):
        if not isinstance(e, int) or e < 0:
            return NotImplemented
        result = QuadExt(1, 0, self.d)
        square = self
        while e:
            if e & 1:
                result = result * square
            e >>= 1
            if e:
                square = square * square
        return result

    def __eq__(self, other) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.a == o.a and self.b == o.b

    def __hash__(self) -> int:
        return hash((self.a, self.b, self.d))

    def __repr__(self) -> str:
        return f"QuadExt({self.a}, {self.b}, d={self.d})"

    def __str__(self) -> str:
        return f"{self.a} + {self.b}*sqrt({self.d})"

