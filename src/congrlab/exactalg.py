"""Exact rational, polynomial and quadratic-extension arithmetic.

Rationals are stdlib ``fractions.Fraction`` (exact, always reduced, positive
denominator) re-exported as :data:`Rational`; ``QQ`` is the ring object that
the harmonic sums accept for their exact path.  ``Poly`` is a dense
univariate polynomial over Q, and ``QuadExt`` an element of Q(sqrt(d)) with
the ring arithmetic of the golden-ratio identity.  The generic Lucas-sequence
code needs only element arithmetic, so it runs unchanged over Z/p^k, Q, Q[x]
and Q(sqrt(d)).
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DivisionFailure, MixedExtension

__all__ = [
    "Rational",
    "RationalField",
    "QQ",
    "Poly",
    "QuadExt",
]

Rational = Fraction

_ZERO = Fraction(0)


class RationalField:
    """The ring Q: the ring argument that selects the exact harmonic sums.

    Its element constructors match those of ``PrimePower``.
    """

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
    """Dense univariate polynomial over Q.

    Coefficients are stored ascending by degree with trailing zeros stripped;
    the zero polynomial has an empty coefficient tuple.  ``int`` coefficients
    become ``Fraction``; ``Fraction`` coefficients are kept as they are.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        cs = [Fraction(c) if isinstance(c, int) else c for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        self.coeffs = tuple(cs)

    @staticmethod
    def _wrap(other) -> "Poly | None":
        if isinstance(other, Poly):
            return other
        if isinstance(other, (int, Fraction)):
            return Poly([other])
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
        return Poly(out)

    __radd__ = __add__

    def __neg__(self):
        return Poly([-c for c in self.coeffs])

    def __sub__(self, other):
        o = self._wrap(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __mul__(self, other):
        o = self._wrap(other)
        if o is None:
            return NotImplemented
        if not self.coeffs or not o.coeffs:
            return Poly([])
        out = [_ZERO] * (len(self.coeffs) + len(o.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(o.coeffs):
                out[i + j] = out[i + j] + a * b
        return Poly(out)

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if not isinstance(e, int) or e < 0:
            return NotImplemented
        result = Poly([1])
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

    # -- scaling and calculus --------------------------------------------

    def scale(self, q) -> "Poly":
        """Multiply every coefficient by the scalar q."""
        return Poly([c * q for c in self.coeffs])

    def integrate_from_zero(self) -> "Poly":
        """Formal integral with zero constant term: x^i -> x^(i+1)/(i+1)."""
        return Poly([_ZERO] + [c / (i + 1) for i, c in enumerate(self.coeffs)])

    def shift_down(self) -> "Poly":
        """Exact division by x; requires a vanishing constant term."""
        if self.coeffs and self.coeffs[0]:
            raise DivisionFailure("constant term nonzero: polynomial not divisible by x")
        return Poly(self.coeffs[1:])

    def __repr__(self) -> str:
        return f"Poly({list(self.coeffs)!r})"

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            if i == 0:
                parts.append(str(c))
            elif i == 1:
                parts.append(f"{c}*x")
            else:
                parts.append(f"{c}*x^{i}")
        return " + ".join(parts)


class QuadExt:
    """An element a + b*sqrt(d) of Q(sqrt(d)), d a non-square integer.

    Ring arithmetic only (``+``, ``-``, ``*``, non-negative powers) and
    componentwise equality.
    """

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

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QuadExt(self.a * o.a + self.d * self.b * o.b, self.a * o.b + self.b * o.a, self.d)

    __rmul__ = __mul__

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

    def __repr__(self) -> str:
        return f"QuadExt({self.a}, {self.b}, d={self.d})"

    def __str__(self) -> str:
        return f"{self.a} + {self.b}*sqrt({self.d})"
