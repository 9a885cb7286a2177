"""Exact verification of prime-power congruences for central binomial sums.

The package provides exact arithmetic in Z/p^k and Q, multiple harmonic
sums, Bernoulli and Euler numbers modulo p, Lucas-type sequences and their
quotients, evaluators for central binomial sums, and a catalog of
congruence and identity checks runnable over prime ranges via
`run_suite` or the `congrlab` command-line tool.
"""

from __future__ import annotations

from .binomsums import (
    fib_lucas_sum,
    rhs_lucas_sum,
    s1,
    s2,
    weighted_sums,
)
from .catalog import (
    DEFAULT_T_PANEL,
    CheckResult,
    CongruenceCheck,
    IdentityCheck,
    Report,
    builtin_checks,
    lookup,
    run_congruence,
    run_identity,
    run_suite,
    select_checks,
)
from .errors import (
    BaseDivisibleByP,
    CompositeModulus,
    CongrlabError,
    DenominatorDivisibleByP,
    DivisionFailure,
    ExponentOutOfRange,
    IndexOutOfRange,
    MixedExtension,
    MixedModuli,
    NonUnitDenominator,
    NotAUnit,
    NotDivisibleByP,
    PreconditionViolated,
)
from .exactalg import QQ, Poly, QuadExt, RationalField
from .harmonic import alternating_half_sum, mhs, odd_mhs, repeated
from .modring import (
    MAX_EXPONENT,
    PrimePower,
    Residue,
    divide_by_p,
    inverse_table,
    is_prime,
    legendre,
    prime_power,
    primes_in_range,
    rational_residue,
    reduce_residue,
)
from .sequences import (
    LucasParams,
    central_binomials,
    fermat_quotient,
    lucas_pair_mod,
    lucas_quotient,
    lucas_u_upto,
    lucas_v_upto,
    w_value,
    w_value_mod,
)
from .specialnum import bernoulli_number, bernoulli_powersum, bernoulli_third, euler_number

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # rings and residues
    "MAX_EXPONENT",
    "PrimePower",
    "Residue",
    "prime_power",
    "rational_residue",
    "reduce_residue",
    "divide_by_p",
    "inverse_table",
    "is_prime",
    "primes_in_range",
    "legendre",
    # exact algebra
    "QQ",
    "RationalField",
    "Poly",
    "QuadExt",
    # harmonic sums
    "mhs",
    "odd_mhs",
    "alternating_half_sum",
    "repeated",
    # special numbers
    "bernoulli_number",
    "bernoulli_powersum",
    "bernoulli_third",
    "euler_number",
    # sequences
    "LucasParams",
    "lucas_pair_mod",
    "lucas_u_upto",
    "lucas_v_upto",
    "w_value",
    "w_value_mod",
    "fermat_quotient",
    "lucas_quotient",
    "central_binomials",
    # binomial sums
    "s1",
    "s2",
    "weighted_sums",
    "fib_lucas_sum",
    "rhs_lucas_sum",
    # catalog and execution
    "DEFAULT_T_PANEL",
    "CongruenceCheck",
    "IdentityCheck",
    "CheckResult",
    "Report",
    "builtin_checks",
    "lookup",
    "select_checks",
    "run_congruence",
    "run_identity",
    "run_suite",
    # errors
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
