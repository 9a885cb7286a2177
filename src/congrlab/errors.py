"""Error taxonomy shared by all congrlab modules.

Every failure mode that callers are expected to handle gets its own class so
that tests (and the sweep runner, which maps evaluator exceptions to ERROR
records) can discriminate precisely.
"""

from __future__ import annotations

__all__ = [
    "CongrlabError",
    "CompositeModulus",
    "ExponentOutOfRange",
    "MixedModuli",
    "NotAUnit",
    "NotDivisibleByP",
    "DenominatorDivisibleByP",
    "MixedExtension",
    "IndexOutOfRange",
    "NonUnitDenominator",
    "BaseDivisibleByP",
    "DivisionFailure",
    "PreconditionViolated",
]


class CongrlabError(Exception):
    """Base class for all congrlab-specific errors."""


class CompositeModulus(CongrlabError):
    """The requested modulus base is not an odd prime."""


class ExponentOutOfRange(CongrlabError):
    """Prime-power exponent outside the supported range."""


class MixedModuli(CongrlabError):
    """Arithmetic attempted between residues of different rings."""


class NotAUnit(CongrlabError):
    """Inversion of a residue divisible by p."""


class NotDivisibleByP(CongrlabError):
    """Exact division by p requested for a value not divisible by p."""


class DenominatorDivisibleByP(NotAUnit):
    """A rational a/b cannot be embedded in Z/p^k because p | b."""


class MixedExtension(CongrlabError):
    """Arithmetic attempted between elements of Q(sqrt(d)) for different d."""


class IndexOutOfRange(CongrlabError):
    """Table lookup outside the precomputed index range."""


class NonUnitDenominator(CongrlabError):
    """A scheduled sum hit a denominator divisible by p (config error)."""


class BaseDivisibleByP(CongrlabError):
    """Fermat quotient q_p(a) requested with p | a."""


class DivisionFailure(CongrlabError):
    """An exact division guaranteed by theory failed (internal diagnostic)."""


class PreconditionViolated(CongrlabError):
    """A check was invoked outside its declared applicability range."""
