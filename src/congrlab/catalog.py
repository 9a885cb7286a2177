"""Catalog of congruence and identity checks, and the sweep runner.

Congruence checks compare two residues in Z/p^k for every applicable odd
prime p (optionally for every parameter t drawn from a panel of rational
test values).  Identity checks compare exact objects -- rationals,
polynomials, or quadratic-field elements -- over a fixed finite family of
parameters.  `run_suite` schedules all requested instances, optionally
across worker processes, and collects a deterministic `Report`.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fnmatch import fnmatchcase
from fractions import Fraction
from functools import lru_cache
from math import comb, inf

from .binomsums import (
    _dot,
    alternating_v_sum,
    binomial_column,
    fib_lucas_sum,
    rhs_lucas_sum,
    s1,
    s2,
    weighted_sums,
)
from .exactalg import Poly, QuadExt
from .harmonic import alternating_half_sum, mhs, odd_mhs, repeated
from .modring import (
    PrimePower,
    Residue,
    divide_by_p,
    inverse_table,
    legendre,
    prime_power,
    primes_in_range,
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
from .specialnum import bernoulli_number, bernoulli_third, euler_number

__all__ = [
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
]

#: Default panel of rational parameters for t-dependent checks.  A value is
#: skipped at a prime dividing its numerator or denominator.
DEFAULT_T_PANEL: tuple[Fraction, ...] = tuple(
    Fraction(s)
    for s in (
        "1/4", "-1/4", "1/8", "1/16", "-1/16", "3/16", "-1/32",
        "1/2", "1", "2", "3", "-1", "5/3",
    )
)


@dataclass(frozen=True)
class CongruenceCheck:
    """A single congruence verified per prime (and per panel value t)."""

    id: str
    description: str
    statement: str
    target_exponent: int
    evaluator: object  # callable (p, t) -> (Residue, Residue)
    min_prime: int = 3
    excluded_primes: frozenset[int] = frozenset()
    uses_t_panel: bool = False
    prime_cap: int | None = None

    @property
    def kind(self) -> str:
        return "congruence"


@dataclass(frozen=True)
class IdentityCheck:
    """An exact identity verified over a fixed finite parameter family."""

    id: str
    description: str
    statement: str
    cases: tuple[tuple[tuple[str, object], ...], ...]
    evaluator: object  # callable (params: dict) -> (lhs, rhs)

    @property
    def kind(self) -> str:
        return "identity"


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one scheduled check instance."""

    check_id: str
    prime: int | None
    t: str | None
    target: int | float
    valuation: int | float
    passed: bool
    lhs: str
    rhs: str
    error: str | None = None

    def sort_key(self) -> tuple:
        return (self.check_id, self.prime if self.prime is not None else -1, self.t or "")

    def record(self) -> dict:
        """Serializable row in the pinned report schema."""
        return {
            "check": self.check_id,
            "prime": self.prime,
            "t": self.t,
            "target": "inf" if self.target == inf else self.target,
            "valuation": "inf" if self.valuation == inf else self.valuation,
            "pass": self.passed,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "us": 0,
        }


@dataclass
class Report:
    """Sorted results of a sweep plus aggregate status."""

    results: tuple[CheckResult, ...]
    wall_seconds: float = 0.0

    @property
    def status(self) -> str:
        if any(r.error is not None for r in self.results):
            return "error"
        if any(not r.passed for r in self.results):
            return "fail"
        return "pass"

    @property
    def exit_code(self) -> int:
        return {"pass": 0, "fail": 1, "error": 2}[self.status]

    def counts(self) -> tuple[int, int, int]:
        """(passed, failed, errored) tallies."""
        errs = sum(1 for r in self.results if r.error is not None)
        fails = sum(1 for r in self.results if r.error is None and not r.passed)
        return (len(self.results) - fails - errs, fails, errs)

    def records(self) -> list[dict]:
        return [r.record() for r in self.results]


# ---------------------------------------------------------------------------
# small helpers shared by evaluators


def _neg_one_pow(e: int) -> int:
    return 1 if e % 2 == 0 else -1


def _sign_half(p: int, offset: int) -> int:
    """(-1)**((p+offset)/2) for offset in {-1, +1}."""
    return _neg_one_pow((p + offset) // 2)


def _div_p_times(x: Residue, times: int) -> Residue:
    for _ in range(times):
        x = divide_by_p(x)
    return x


def _h1_over_p(p: int, j: int) -> Residue:
    """H_(p-1)(1)/p^j in Z/p^(5-j); p^2 divides H_(p-1)(1) for p >= 5."""
    return _div_p_times(mhs(p - 1, (1,), prime_power(p, 5)), j)


def _mod_p_term(ring: PrimePower, coeff: int | Fraction, x: Residue) -> Residue:
    """coeff * p^(k-1) * x in the ring Z/p^k, for a value x known only mod p.

    Evaluators bring every mod-p value -- a Bernoulli or Euler number,
    B_(p-2)(1/3), a u/v-series sum -- into their working ring through this
    term.  The factor p^(k-1) kills any lift x + p*r, so every representative
    of x gives the same residue and the same report row.
    """
    return ring.from_fraction(Fraction(coeff)) * ring.p ** (ring.k - 1) * x.value


# ---------------------------------------------------------------------------
# congruence evaluators
#
# Each evaluator returns (lhs, rhs) as residues in a common ring whose
# exponent is at least the check's target.


def _eval_mhs_bernoulli(half: bool, comp: tuple[int, ...], k: int, coeff: Fraction):
    """H_N(comp) = coeff * p^(k-1) * B_(p-w-k+1)  (mod p^k), w = sum(comp),
    N = (p-1)/2 if half else p-1."""
    w = sum(comp)

    def ev(p: int, t=None):
        ring = prime_power(p, k)
        lhs = mhs((p - 1) // 2 if half else p - 1, comp, ring)
        return lhs, _mod_p_term(ring, coeff, bernoulli_number(p - w - k + 1, p))

    return ev


def _eval_full_h1_expansion(p: int, t=None):
    ring = prime_power(p, 5)
    lhs = mhs(p - 1, (1,), ring)
    rhs = (
        -(mhs(p - 1, (2,), ring) * Fraction(1, 2) * p)
        - mhs(p - 1, (3,), ring) * Fraction(1, 6) * (p * p)
    )
    return lhs, rhs


def _eval_full_h12(p: int, t=None):
    h1_div2 = _h1_over_p(p, 2)  # exponent 3
    ring = h1_div2.ring
    lhs = mhs(p - 1, (1, 2), ring)
    rhs = h1_div2 * (-3) + _mod_p_term(ring, Fraction(1, 2), bernoulli_number(p - 5, p))
    return lhs, rhs


def _eval_half_h1(p: int, t=None):
    ring = prime_power(p, 3)
    q = fermat_quotient(2, p, 3)
    lhs = mhs((p - 1) // 2, (1,), ring)
    rhs = (
        q * (-2)
        + q * q * p
        - q * q * q * Fraction(2, 3) * (p * p)
        - _mod_p_term(ring, Fraction(7, 12), bernoulli_number(p - 3, p))
    )
    return lhs, rhs


def _eval_full_from_half(r: int, a: int):
    def ev(p: int, t=None):
        ring = prime_power(p, a + 1)
        n = (p - 1) // 2
        lhs = mhs(p - 1, (r,), ring)
        acc = ring.zero()
        ppow = 1
        for k in range(a + 1):
            acc = acc + mhs(n, (r + k,), ring) * (comb(r - 1 + k, k) * ppow)
            ppow *= p
        rhs = mhs(n, (r,), ring) + acc * _neg_one_pow(r)
        return lhs, rhs

    return ev


def _eval_half_weighted_zero(p: int, t=None):
    ring = prime_power(p, 4)
    n = (p - 1) // 2
    lhs = (
        mhs(n, (2,), ring)
        + mhs(n, (3,), ring) * Fraction(7, 6) * p
        + mhs(n, (4,), ring) * Fraction(5, 8) * (p * p)
    )
    return lhs, ring.zero()


def _eval_h2_vs_h1(p: int, t=None):
    h1_div = _h1_over_p(p, 1)  # exponent 4
    ring = h1_div.ring
    lhs = mhs(p - 1, (2,), ring)
    rhs = h1_div * (-2) + _mod_p_term(ring, Fraction(2, 5), bernoulli_number(p - 5, p))
    return lhs, rhs


def _eval_half_h2_vs_h1(p: int, t=None):
    h1_div = _h1_over_p(p, 1)  # exponent 4
    ring = h1_div.ring
    lhs = mhs((p - 1) // 2, (2,), ring)
    rhs = h1_div * (-7) + _mod_p_term(ring, Fraction(17, 10), bernoulli_number(p - 5, p))
    return lhs, rhs


def _eval_half_h3_vs_h1(p: int, t=None):
    h1_div2 = _h1_over_p(p, 2)  # exponent 3
    ring = h1_div2.ring
    lhs = mhs((p - 1) // 2, (3,), ring)
    rhs = h1_div2 * 6 - _mod_p_term(ring, Fraction(81, 10), bernoulli_number(p - 5, p))
    return lhs, rhs


def _eval_half_h12_h13(p: int, t=None):
    h1_div2 = _h1_over_p(p, 2)  # exponent 3
    ring = h1_div2.ring
    n = (p - 1) // 2
    lhs = mhs(n, (1, 2), ring) + mhs(n, (1, 3), ring) * p
    b = bernoulli_number(p - 5, p)
    rhs = h1_div2 * Fraction(-9, 2) - _mod_p_term(ring, Fraction(49, 20), b)
    return lhs, rhs


def _eval_odd_depth2_expansion(r: int, s: int):
    def ev(p: int, t=None):
        ring = prime_power(p, 3)
        n = (p - 1) // 2
        lhs = odd_mhs(n, (r, s), ring)
        inner = (
            mhs(n, (s, r), ring)
            + (mhs(n, (s, r + 1), ring) * r + mhs(n, (s + 1, r), ring) * s)
            * Fraction(1, 2)
            * p
            + (
                mhs(n, (s, r + 2), ring) * comb(r + 1, 2)
                + mhs(n, (s + 1, r + 1), ring) * (r * s)
                + mhs(n, (s + 2, r), ring) * comb(s + 1, 2)
            )
            * Fraction(1, 4)
            * (p * p)
        )
        rhs = inner * Fraction(1, (-2) ** (r + s))
        return lhs, rhs

    return ev


def _eval_alternating_vs_odd(p: int, t=None):
    ring = prime_power(p, 5)
    n = (p - 1) // 2
    lhs = alternating_half_sum(n, 1, True, ring) * (2 * _neg_one_pow(n))
    rhs = (
        odd_mhs(n, (1,), ring)
        - odd_mhs(n, (2,), ring) * p
        - odd_mhs(n, (2, 1), ring) * (p * p)
        + odd_mhs(n, (2, 2), ring) * (p**3)
        + odd_mhs(n, (2, 2, 1), ring) * (p**4)
    )
    return lhs, rhs


def _eval_central_binomial_mod_p6(p: int, t=None):
    ring = prime_power(p, 6)
    n = (p - 1) // 2
    central = ring.residue(central_binomials(ring)[n])
    lhs = central * _neg_one_pow(n) / ring.residue(pow(4, p - 1, ring.modulus))
    rhs = (
        ring.one()
        - mhs(p - 1, (1,), ring) * Fraction(1, 4) * p
        - _mod_p_term(ring, Fraction(1, 80), bernoulli_number(p - 5, p))
    )
    return lhs, rhs


def _eval_weighted_first_mod_p(p: int, t: Fraction):
    ring = prime_power(p, 1)
    lhs = weighted_sums(t, ring)[0]
    base = ring.from_fraction(Fraction(-1) / t) ** ((p + 1) // 2)
    vsum = rhs_lucas_sum("v", 2 - 16 * t, 3, ring)
    rhs = base * vsum * Fraction(1, 64)
    return lhs, rhs


def _eval_weighted_second_mod_p(p: int, t: Fraction):
    ring = prime_power(p, 1)
    lhs = weighted_sums(t, ring)[1]
    base = ring.from_fraction(Fraction(-1) / t) ** ((p - 1) // 2)
    usum = rhs_lucas_sum("u", 2 - 16 * t, 2, ring)
    rhs = base * usum * Fraction(1, 2)
    return lhs, rhs


def _eval_s1_mod_p3(p: int, t: Fraction):
    ring4 = prime_power(p, 4)
    n = (p - 1) // 2
    wn = w_value_mod(n, ring4.from_fraction(1 - 8 * t), ring4)
    head = divide_by_p(wn - ring4.from_fraction(-16 * t) ** n)  # exponent 3
    ring = head.ring
    lhs = s1(t, 0, ring)
    modp = prime_power(p, 1)
    fac = (
        modp.from_fraction(Fraction(-1) / t) ** ((p + 1) // 2)
        * rhs_lucas_sum("v", 2 - 16 * t, 3, modp)
        * Fraction(1, 64)
    )
    rhs = head + _mod_p_term(ring, 1, fac)
    return lhs, rhs


def _eval_s2_mod_p3(p: int, t: Fraction):
    ring = prime_power(p, 3)
    n = (p - 1) // 2
    lhs = (ring.one() + s2(t, 0, ring)) * _neg_one_pow(n)
    modp = prime_power(p, 1)
    fac = (
        rhs_lucas_sum("u", 2 - 16 * t, 2, modp)
        / (modp.from_fraction(t) ** n * 2)
    )
    wn = w_value_mod(n, ring.from_fraction(8 * t - 1), ring)
    rhs = wn + _mod_p_term(ring, 1, fac)
    return lhs, rhs


def _eval_s1_quadratic_arg(p: int, t: Fraction):
    ring4 = prime_power(p, 4)
    n = (p - 1) // 2
    tr = ring4.from_fraction(t)
    vp = lucas_pair_mod(p, tr, 1, ring4)[1]
    x = ((vp - tr**p) * _neg_one_pow(n) + alternating_v_sum(t, True, ring4) * (2 * p)) / tr
    rhs = _div_p_times(x, 2)  # exponent 2
    lhs = s1(t * t / 16, 1, rhs.ring)
    return lhs, rhs


def _eval_s2_quadratic_arg(p: int, t: Fraction):
    ring = prime_power(p, 2)
    q = fermat_quotient(2, p, 2)
    lhs = s2(t * t / 16, 1, ring)
    rhs = q * 4 - q * q * (2 * p) + alternating_v_sum(t, False, ring)
    return lhs, rhs


def _eval_s1_quarter(p: int, t=None):
    ring = prime_power(p, 3)
    q = fermat_quotient(2, p, 3)
    lhs = s1(Fraction(1, 4), 0, ring)
    rhs = (
        q - _mod_p_term(ring, Fraction(1, 16), bernoulli_number(p - 3, p))
    ) * _sign_half(p, 1)
    return lhs, rhs


def _eval_s1_sixteenth(p: int, t=None):
    ring = prime_power(p, 3)
    lhs = s1(Fraction(1, 16), 0, ring)
    rhs = _mod_p_term(ring, Fraction(_sign_half(p, 1), 36), bernoulli_number(p - 3, p))
    return lhs, rhs


def _eval_s1_fermat(a: int, coeff: Fraction):
    """s1(a/16) = (-1)^((p+1)/2)*(a|p)*[q/2 - p/8*q^2 + p^2*(q^3/16 - coeff*B(p-3))]
    with q = q_p(a)."""

    def ev(p: int, t=None):
        ring = prime_power(p, 3)
        q = fermat_quotient(a, p, 3)
        lhs = s1(Fraction(a, 16), 0, ring)
        inner = (
            q * Fraction(1, 2)
            - q * q * Fraction(1, 8) * p
            + q * q * q * Fraction(1, 16) * (p * p)
            - _mod_p_term(ring, coeff, bernoulli_number(p - 3, p))
        )
        return lhs, inner * (_sign_half(p, 1) * legendre(a, p))

    return ev


def _eval_s1_neg_thirtysecond(p: int, t=None):
    ring = prime_power(p, 3)
    q = fermat_quotient(2, p, 3)
    lhs = s1(Fraction(-1, 32), 0, ring)
    inner = (
        q * 2
        - q * q * p
        + q * q * q * Fraction(2, 3) * (p * p)
        - _mod_p_term(ring, Fraction(7, 96), bernoulli_number(p - 3, p))
    )
    rhs = inner * legendre(2, p)
    return lhs, rhs


def _eval_s1_neg_sixteenth(p: int, t=None):
    ring = prime_power(p, 3)
    ql = lucas_quotient(p, 3)
    lhs = s1(Fraction(-1, 16), 0, ring)
    rhs = (
        ql
        - ql * ql * ql * Fraction(1, 30) * (p * p)
        - _mod_p_term(ring, Fraction(1, 15), bernoulli_number(p - 3, p))
    )
    return lhs, rhs


def _eval_s2_sixteenth_b13(p: int, t=None):
    ring = prime_power(p, 3)
    lhs = ring.one() + s2(Fraction(1, 16), 0, ring)
    rhs = ring.from_int(legendre(3, p)) + _mod_p_term(
        ring, Fraction(_sign_half(p, -1), 24), bernoulli_third(p)
    )
    return lhs, rhs


def _eval_s2_three_sixteenth_b13(p: int, t=None):
    ring = prime_power(p, 3)
    lhs = ring.one() + s2(Fraction(3, 16), 0, ring)
    rhs = ring.one() + _mod_p_term(ring, Fraction(legendre(-3, p), 12), bernoulli_third(p))
    return lhs, rhs


def _eval_fibonacci_weighted(p: int, t=None):
    fp = lucas_pair_mod(p, 1, -1, prime_power(p, 3))[0]
    head = divide_by_p(fp - legendre(p, 5))  # exponent 2
    ring = head.ring
    lhs = fib_lucas_sum("F", ring)
    rhs = head * _sign_half(p, 1)
    return lhs, rhs


def _eval_lucas_weighted(p: int, t=None):
    ring = prime_power(p, 2)
    lhs = fib_lucas_sum("L", ring)
    rhs = lucas_quotient(p, 2) * _sign_half(p, 1)
    return lhs, rhs


def _eval_s1_quarter_weight2(p: int, t=None):
    ring = prime_power(p, 2)
    q = fermat_quotient(2, p, 2)
    lhs = s1(Fraction(1, 4), 1, ring)
    inner = (
        q * q * Fraction(1, 2)
        - q * q * q * Fraction(1, 3) * p
        - _mod_p_term(ring, Fraction(1, 16), bernoulli_number(p - 3, p))
    )
    rhs = inner * _sign_half(p, 1)
    return lhs, rhs


def _eval_s2_quarter_weight1(p: int, t=None):
    ring = prime_power(p, 2)
    q = fermat_quotient(2, p, 2)
    lhs = s2(Fraction(1, 4), 1, ring)
    rhs = q * 2 - q * q * p + _mod_p_term(ring, 2 * _sign_half(p, 1), euler_number(p - 3, p))
    return lhs, rhs


def _eval_s1_sixteenth_mod_p5(p: int, t=None):
    ring = prime_power(p, 5)
    lhs = s1(Fraction(1, 16), 0, ring)
    rhs = (
        mhs(p - 1, (1,), ring) * Fraction(1, 12)
        + _mod_p_term(ring, Fraction(3, 160), bernoulli_number(p - 5, p))
    ) * _sign_half(p, -1)
    return lhs, rhs


def _eval_s1_neg_sixteenth_weight2(p: int, t=None):
    h1_div = _h1_over_p(p, 1)  # exponent 4
    ring = h1_div.ring
    lhs = s1(Fraction(-1, 16), 1, ring)
    rhs = h1_div * Fraction(1, 5) + _mod_p_term(ring, Fraction(7, 200), bernoulli_number(p - 5, p))
    return lhs, rhs


def _eval_weighted_first_sixteenth(p: int, t=None):
    h1_div2 = reduce_residue(_h1_over_p(p, 2), 2)
    ring = h1_div2.ring
    lhs = weighted_sums(Fraction(1, 16), ring)[0]
    rhs = h1_div2 * Fraction(1, 12) * _sign_half(p, -1)
    return lhs, rhs


def _eval_euler_criterion_refined(a: int):
    def ev(p: int, t=None):
        ring = prime_power(p, 4)
        q = fermat_quotient(a, p, 4)
        lhs = ring.residue(pow(a, (p - 1) // 2, ring.modulus))
        inner = (
            ring.one()
            + q * Fraction(1, 2) * p
            - q * q * Fraction(1, 8) * (p * p)
            + q * q * q * Fraction(1, 16) * (p**3)
        )
        rhs = inner * legendre(a, p)
        return lhs, rhs

    return ev


def _eval_central_squares(p: int, t=None):
    ring = prime_power(p, 2)
    lhs = _dot(ring, central_binomials(ring), binomial_column(Fraction(1, 16), ring))
    return lhs, ring.from_int(_neg_one_pow((p - 1) // 2))


def _eval_binomial_ratio_expansion(p: int, t=None):
    ring = prime_power(p, 5)
    m = ring.modulus
    n = (p - 1) // 2
    inv = inverse_table(ring)
    raw = central_binomials(ring)
    inv_neg16 = pow(-16, -1, m)
    p2, p3, p4 = p * p % m, p**3 % m, p**4 % m
    binom_inv = inv[n]  # 1/C(n+0, 1)
    scale = 1  # (-16)**(-k)
    h2 = h4 = h22 = 0
    last = None
    for k in range(n):
        io = inv[2 * k + 1]
        io2 = io * io % m
        lhs_k = raw[k] * scale % m * binom_inv % m
        rhs_k = (
            1
            + p * io
            + (io2 + h2) % m * p2
            + (io2 * io + h2 * io) % m * p3
            + (io2 * io2 + h2 * io2 + h4 + h22) % m * p4
        ) % m
        rhs_k = -2 * rhs_k % m
        if lhs_k != rhs_k:
            return ring.residue(lhs_k), ring.residue(rhs_k)
        last = (lhs_k, rhs_k)
        if k + 1 < n:
            h22 = (h22 + h2 * io2) % m
            h2 = (h2 + io2) % m
            h4 = (h4 + io2 * io2) % m
            scale = scale * inv_neg16 % m
            binom_inv = (
                binom_inv
                * ((2 * k + 2) * (2 * k + 3) % m)
                % m
                * inv[n + k + 1]
                % m
                * inv[n - k - 1]
                % m
            )
    return ring.residue(last[0]), ring.residue(last[1])


# ---------------------------------------------------------------------------
# identity evaluators


def _ident_odd_vs_even_depth1(params):
    n, r = params["n"], params["r"]
    lhs = odd_mhs(n, (r,))
    rhs = mhs(2 * n, (r,)) - mhs(n, (r,)) * Fraction(1, 2**r)
    return lhs, rhs


def _wz_weight(n: int, k: int) -> Fraction:
    return Fraction((-16) ** k * comb(n + k, 2 * k), comb(2 * k, k))


def _ident_wz_first(params):
    n = params["n"]
    lhs = sum(
        (_wz_weight(n, k) * Fraction(1, 2 * k + 1) for k in range(n + 1)),
        Fraction(0),
    )
    alt = sum((Fraction(_neg_one_pow(k), 2 * k + 1) for k in range(n)), Fraction(0))
    rhs = 2 * _neg_one_pow(n) * alt + Fraction(1, 2 * n + 1)
    return lhs, rhs


def _ident_wz_second(params):
    n = params["n"]
    lhs = sum(
        (_wz_weight(n, k) * Fraction(1, (2 * k + 1) ** 2) for k in range(n + 1)),
        Fraction(0),
    )
    return lhs, Fraction(1, (2 * n + 1) ** 2)


def _ident_product_mhs_forms(params):
    n, k = params["n"], params["k"]
    binform = _wz_weight(n, k)
    prodform = Fraction(1)
    for j in range(k):
        prodform *= 1 - Fraction((2 * n + 1) ** 2, (2 * j + 1) ** 2)
    mhsform = sum(
        (_neg_one_pow(j) * Fraction((2 * n + 1) ** (2 * j)) * odd_mhs(k, repeated(2, j)) for j in range(k + 1)),
        Fraction(0),
    )
    return (binform, prodform), (prodform, mhsform)


def _ident_w_expansion_odd_weights(params):
    n = params["n"]
    tvar, one = Poly([0, 1]), Poly([1])
    lhs = (w_value(n, one - tvar * 8) - (tvar * -16) ** n).scale(
        Fraction(1, 2 * n + 1)
    )
    coeffs = []
    for k in range(n):
        inner = sum(
            (
                _neg_one_pow(j) * Fraction((2 * n + 1) ** (2 * j)) * odd_mhs(k, repeated(2, j))
                for j in range(k + 1)
            ),
            Fraction(0),
        )
        coeffs.append(Fraction(comb(2 * k, k), 2 * k + 1) * inner)
    return lhs, Poly(coeffs)


def _ident_w_hypergeometric(params):
    n = params["n"]
    tvar, one = Poly([0, 1]), Poly([1])
    lhs = w_value(n, tvar * 8 - one).scale(Fraction(_neg_one_pow(n)))
    coeffs = []
    for k in range(n + 1):
        c = Fraction(comb(2 * k, k))
        for j in range(1, k + 1):
            c *= 1 - Fraction((2 * n + 1) ** 2, (2 * j - 1) ** 2)
        coeffs.append(c)
    return lhs, Poly(coeffs)


def _ident_integral_w_odd(params):
    n = params["n"]
    tvar, one = Poly([0, 1]), Poly([1])
    arg = one - (tvar * tvar).scale(Fraction(1, 2))
    lhs = w_value(n, arg).integrate_from_zero()
    vs = lucas_v_upto(2 * n + 1, LucasParams(tvar, one))
    rhs = Poly([])
    for k in range(n):
        rhs = rhs + vs[2 * k + 1].scale(Fraction(2 * _neg_one_pow(k), 2 * k + 1))
    rhs = rhs + vs[2 * n + 1].scale(Fraction(_neg_one_pow(n), 2 * n + 1))
    return lhs, rhs


def _ident_integral_w_even(params):
    n = params["n"]
    tvar, one = Poly([0, 1]), Poly([1])
    arg = (tvar * tvar).scale(Fraction(1, 2)) - one
    numerator = w_value(n, arg).scale(Fraction(_neg_one_pow(n))) - one
    lhs = numerator.shift_down().integrate_from_zero()
    vs = lucas_v_upto(2 * n, LucasParams(tvar, one))
    rhs = Poly([])
    for k in range(1, n + 1):
        rhs = rhs + vs[2 * k].scale(Fraction(_neg_one_pow(k), 2 * k))
    rhs = rhs - mhs(n, (1,))
    return lhs, rhs


def _ident_w_from_u(params):
    n = params["n"]
    xvar, one = Poly([0, 1]), Poly([1])
    us = lucas_u_upto(n + 1, LucasParams(xvar * 2, one))
    return w_value(n, xvar), us[n + 1] + us[n]


def _ident_apery_like_odd(params):
    n, r = params["n"], params["r"]
    h = (r - 1) // 2
    sign = Fraction(_neg_one_pow(h), 4)
    lhs = Fraction(0)
    for k in range(n):
        inner = sum(
            (
                _neg_one_pow(j)
                * odd_mhs(k, repeated(2, j))
                * Fraction(1, (2 * k + 1) ** (r - 2 * j))
                for j in range(h + 1)
            ),
            Fraction(0),
        )
        inner -= sign * odd_mhs(k, repeated(2, h)) * Fraction(1, 2 * k + 1)
        lhs += Fraction(comb(2 * k, k), 16**k) * inner
    rhs = sum(
        (Fraction(_neg_one_pow(k), (2 * k + 1) ** r) for k in range(n)), Fraction(0)
    )
    tail = Fraction(0)
    for k in range(n):
        tail += (
            Fraction(comb(2 * k, k), 16**k * comb(n + k, 2 * k + 1))
            * _neg_one_pow(n - k)
            * odd_mhs(k, repeated(2, h))
            * Fraction(1, 2 * k + 1)
        )
    return lhs, rhs + sign * tail


def _ident_apery_like_even(params):
    n, r = params["n"], params["r"]
    h = r // 2 - 1
    sign = Fraction(_neg_one_pow(h), 4)
    lhs = Fraction(0)
    for k in range(n):
        inner = sum(
            (
                _neg_one_pow(j)
                * odd_mhs(k, repeated(2, j))
                * Fraction(1, (2 * k + 1) ** (r - 2 * j))
                for j in range(h + 1)
            ),
            Fraction(0),
        )
        inner += sign * odd_mhs(k, repeated(2, h)) * Fraction(1, (2 * k + 1) ** 2)
        lhs += Fraction(comb(2 * k, k), (-16) ** k) * inner
    rhs = sum((Fraction(1, (2 * k + 1) ** r) for k in range(n)), Fraction(0))
    tail = Fraction(0)
    for k in range(n):
        tail += (
            Fraction(comb(2 * k, k), (-16) ** k * comb(n + k, 2 * k + 1))
            * odd_mhs(k, repeated(2, h))
            * Fraction(1, (2 * k + 1) ** 2)
        )
    return lhs, rhs + sign * tail


def _ident_w_golden_pair(params):
    p = params["p"]
    n = (p - 1) // 2
    phi_plus = QuadExt(Fraction(1, 2), Fraction(1, 2), 5)
    phi_minus = QuadExt(Fraction(1, 2), Fraction(-1, 2), 5)
    half = Fraction(1, 2)
    a = phi_plus * w_value(n, phi_minus * half)
    b = phi_minus * w_value(n, phi_plus * half)
    sign = _neg_one_pow(n)
    lhs = (a - b, a + b)
    rhs = (
        QuadExt(Fraction(0), Fraction(sign * legendre(p, 5)), 5),
        QuadExt(Fraction(sign), Fraction(0), 5),
    )
    return lhs, rhs


def _ident_w_special_values(params):
    p = params["p"]
    n = (p - 1) // 2
    lhs = (
        w_value(n, Fraction(0)),
        w_value(n, Fraction(-1, 2)),
        w_value(n, Fraction(1, 2)),
        w_value(n, Fraction(5, 4)),
    )
    sign = _neg_one_pow(n)
    rhs = (
        Fraction(sign * legendre(2, p)),
        Fraction(sign * legendre(3, p)),
        Fraction(sign),
        Fraction(2) ** ((p + 1) // 2) - Fraction(1, 2 ** ((p - 1) // 2)),
    )
    return lhs, rhs


# ---------------------------------------------------------------------------
# registry


def _congruence_checks() -> list[CongruenceCheck]:
    checks: list[CongruenceCheck] = []

    def add(cid, desc, stmt, target, ev, *, minp=3, excl=(), panel=False, cap=None):
        checks.append(
            CongruenceCheck(
                id=cid,
                description=desc,
                statement=stmt,
                target_exponent=target,
                evaluator=ev,
                min_prime=minp,
                excluded_primes=frozenset(excl),
                uses_t_panel=panel,
                prime_cap=cap,
            )
        )

    for r in (1, 3, 5):
        coeff = Fraction(-r * (r + 1), 2 * (r + 2))
        add(
            f"i.odd.r{r}",
            f"full harmonic sum of weight {r} against a Bernoulli multiple of p^2",
            f"H_(p-1)({r}) = -{r}*{r + 1}/(2*{r + 2}) * p^2 * B(p-{r + 2})  (mod p^3)",
            3, _eval_mhs_bernoulli(False, (r,), 3, coeff), minp=r + 3,
        )
    for r in (2, 4, 6):
        coeff = Fraction(r, r + 1)
        add(
            f"i.even.r{r}",
            f"full harmonic sum of weight {r} against a Bernoulli multiple of p",
            f"H_(p-1)({r}) = {r}/{r + 1} * p * B(p-{r + 1})  (mod p^2)",
            2, _eval_mhs_bernoulli(False, (r,), 2, coeff), minp=r + 3,
        )
    for w in range(2, 7):
        for s in range(1, w):
            r = w - s
            coeff = Fraction((-1) ** s * comb(w, s), w)
            add(
                f"ii.r{r}s{s}",
                f"depth-2 harmonic sum of weight ({r},{s}) against a Bernoulli value",
                f"H_(p-1)({r},{s}) = (-1)^{s}/{w} * C({w},{s}) * B(p-{w})  (mod p)",
                1, _eval_mhs_bernoulli(False, (r, s), 1, coeff), minp=w + 1,
            )
    for w in (3, 5, 7):
        for r in range(1, w - 1):
            for s in range(1, w - r):
                u = w - r - s
                if u < 1:
                    continue
                coeff = Fraction((-1) ** r * comb(w, r) - (-1) ** u * comb(w, u), 2 * w)
                add(
                    f"iii.r{r}s{s}t{u}",
                    f"depth-3 harmonic sum of weight ({r},{s},{u}) against a Bernoulli value",
                    f"H_(p-1)({r},{s},{u}) = [(-1)^{r}*C({w},{r}) - (-1)^{u}*C({w},{u})]/(2*{w}) * B(p-{w})  (mod p)",
                    1, _eval_mhs_bernoulli(False, (r, s, u), 1, coeff), minp=w + 1,
                )
    add(
        "iv.h1",
        "weight-1 full harmonic sum expanded through weights 2 and 3",
        "H_(p-1)(1) = -p/2*H_(p-1)(2) - p^2/6*H_(p-1)(3)  (mod p^5)",
        5, _eval_full_h1_expansion, minp=7,
    )
    add(
        "v.h12",
        "depth-2 (1,2) sum against the p-divided weight-1 sum",
        "H_(p-1)(1,2) = -3*H_(p-1)(1)/p^2 + p^2/2*B(p-5)  (mod p^3)",
        3, _eval_full_h12, minp=7,
    )
    add(
        "vi.1",
        "half-range weight-1 sum against Fermat-quotient powers",
        "H_n(1) = -2*q + p*q^2 - p^2*(2/3*q^3 + 7/12*B(p-3)), q = q_p(2), n = (p-1)/2  (mod p^3)",
        3, _eval_half_h1, minp=7,
    )
    for r in (2, 4):
        coeff = Fraction(r * (2 ** (r + 1) - 1), 2 * (r + 1))
        add(
            f"vi.even.r{r}",
            f"half-range weight-{r} sum against a Bernoulli multiple of p",
            f"H_n({r}) = {r}*(2^{r + 1}-1)/(2*{r + 1}) * p * B(p-{r + 1})  (mod p^2)",
            2, _eval_mhs_bernoulli(True, (r,), 2, coeff), minp=r + 5,
        )
    for r in (3, 5):
        coeff = Fraction(-(2**r - 2), r)
        add(
            f"vi.odd.r{r}",
            f"half-range weight-{r} sum against a Bernoulli value",
            f"H_n({r}) = -(2^{r}-2)/{r} * B(p-{r})  (mod p)",
            1, _eval_mhs_bernoulli(True, (r,), 1, coeff), minp=r + 5,
        )
    for r in (1, 2, 3):
        for a in (1, 2, 3):
            add(
                f"L21.C1.r{r}a{a}",
                f"full weight-{r} sum from half-range sums through order p^{a}",
                f"H_(p-1)({r}) = H_n({r}) + (-1)^{r} * sum_k C({r - 1}+k,k)*H_n({r}+k)*p^k, k=0..{a}  (mod p^{a + 1})",
                a + 1, _eval_full_from_half(r, a), minp=r + 3,
            )
    for w in (3, 5, 7):
        for s in range(1, w):
            r = w - s
            coeff = Fraction((-1) ** s * comb(w, s) + 2**w - 2, 2 * w)
            add(
                f"L21.C2.r{r}s{s}",
                f"half-range depth-2 sum of odd weight ({r},{s}) against a Bernoulli value",
                f"H_n({r},{s}) = B(p-{w})/(2*{w}) * ((-1)^{s}*C({w},{s}) + 2^{w} - 2)  (mod p)",
                1, _eval_mhs_bernoulli(True, (r, s), 1, coeff), minp=w + 1,
            )
    add(
        "T22.zero",
        "weighted half-range combination of weights 2,3,4 vanishing mod p^4",
        "H_n(2) + 7/6*p*H_n(3) + 5/8*p^2*H_n(4) = 0  (mod p^4)",
        4, _eval_half_weighted_zero, minp=5,
    )
    add(
        "C23.a",
        "full weight-2 sum against the p-divided weight-1 sum",
        "H_(p-1)(2) = -2*H_(p-1)(1)/p + 2/5*p^3*B(p-5)  (mod p^4)",
        4, _eval_h2_vs_h1, minp=7,
    )
    add(
        "C23.b",
        "half-range weight-2 sum against the p-divided weight-1 sum",
        "H_n(2) = -7*H_(p-1)(1)/p + 17/10*p^3*B(p-5)  (mod p^4)",
        4, _eval_half_h2_vs_h1, minp=7,
    )
    add(
        "C23.c",
        "half-range weight-3 sum against the p^2-divided weight-1 sum",
        "H_n(3) = 6*H_(p-1)(1)/p^2 - 81/10*p^2*B(p-5)  (mod p^3)",
        3, _eval_half_h3_vs_h1, minp=7,
    )
    add(
        "C23.d",
        "half-range (1,2) and (1,3) sums against the p^2-divided weight-1 sum",
        "H_n(1,2) + p*H_n(1,3) = -9/2*H_(p-1)(1)/p^2 - 49/20*p^2*B(p-5)  (mod p^3)",
        3, _eval_half_h12_h13, minp=7,
    )
    for r in (1, 2, 3):
        for s in (1, 2, 3):
            add(
                f"L25.r{r}s{s}",
                f"odd-index depth-2 sum ({r},{s}) from reversed half-range sums",
                f"Hbar_n({r},{s}) = (-2)^-{r + s} * [H_n({s},{r}) + p/2*({r}*H_n({s},{r + 1}) + {s}*H_n({s + 1},{r})) + p^2/4*(...)]  (mod p^3)",
                3, _eval_odd_depth2_expansion(r, s), minp=3,
            )
    add(
        "L26.alts",
        "alternating odd-denominator sum expanded in odd-index harmonic sums",
        "2*(-1)^n*sum((-1)^k/(2k+1)) = Hbar(1) - p*Hbar(2) - p^2*Hbar(2,1) + p^3*Hbar(2,2) + p^4*Hbar(2,2,1)  (mod p^5)",
        5, _eval_alternating_vs_odd, minp=7,
    )
    add(
        "C27.morley",
        "central binomial coefficient over 4^(p-1) to sixth order",
        "(-1)^n/4^(p-1)*C(p-1,n) = 1 - p/4*H_(p-1)(1) - p^5/80*B(p-5)  (mod p^6)",
        6, _eval_central_binomial_mod_p6, minp=7,
    )
    add(
        "L31.A2",
        "weighted central binomial sum with inner weight Hbar_k(2) against a v-series",
        "sum C(2k,k)t^k Hbar_k(2)/(2k+1) = 1/64*(-1/t)^((p+1)/2) * sum v_k(2-16t)/k^3  (mod p)",
        1, _eval_weighted_first_mod_p, minp=5, panel=True,
    )
    add(
        "L31.A3",
        "weighted central binomial sum with inner weight Hbar_k(2) against a u-series",
        "sum C(2k,k)t^k Hbar_k(2) = 1/2*(-1/t)^((p-1)/2) * sum u_k(2-16t)/k^2  (mod p)",
        1, _eval_weighted_second_mod_p, minp=5, panel=True,
    )
    add(
        "T32.first",
        "odd-denominator central binomial sum against a w-value to third order",
        "sum C(2k,k)t^k/(2k+1) = [w_n(1-8t) - (-16t)^n]/p + p^2/64*(-1/t)^((p+1)/2)*sum v_k(2-16t)/k^3  (mod p^3)",
        3, _eval_s1_mod_p3, minp=5, panel=True,
    )
    add(
        "T32.second",
        "plain central binomial sum against a w-value to third order",
        "(-1)^n sum C(2k,k)t^k = w_n(8t-1) + p^2/(2t^n)*sum u_k(2-16t)/k^2  (mod p^3)",
        3, _eval_s2_mod_p3, minp=5, panel=True,
    )
    add(
        "T34.first",
        "squared-denominator central binomial sum against odd-index v-values",
        "sum C(2k,k)(t/4)^(2k)/(2k+1)^2 = (-1)^n*(v_p(t)-t^p)/(t*p^2) + 2/(t*p)*sum (-1)^k v_(2k+1)(t)/(2k+1)  (mod p^2)",
        2, _eval_s1_quadratic_arg, minp=3, panel=True,
    )
    add(
        "T34.second",
        "k-divided central binomial sum against even-index v-values",
        "sum C(2k,k)(t/4)^(2k)/k = 4*q_p(2) - 2p*q_p(2)^2 + sum (-1)^k v_(2k)(t)/k  (mod p^2)",
        2, _eval_s2_quadratic_arg, minp=3, panel=True,
    )
    add(
        "C41.a",
        "odd-denominator central binomial sum at t=1/4",
        "s1(1/4) = (-1)^((p+1)/2)*(q_p(2) - p^2/16*B(p-3))  (mod p^3)",
        3, _eval_s1_quarter, minp=5,
    )
    add(
        "C41.b",
        "odd-denominator central binomial sum at t=1/16",
        "s1(1/16) = (-1)^((p+1)/2)/36*p^2*B(p-3)  (mod p^3)",
        3, _eval_s1_sixteenth, minp=5,
    )
    add(
        "C41.c",
        "odd-denominator central binomial sum at t=1/8",
        "s1(1/8) = (-1)^((p+1)/2)*(2|p)*[q/2 - p/8*q^2 + p^2/16*(q^3 - B(p-3)/8)]  (mod p^3)",
        3, _eval_s1_fermat(2, Fraction(1, 128)), minp=5,
    )
    add(
        "C41.d",
        "odd-denominator central binomial sum at t=3/16",
        "s1(3/16) = (-1)^((p+1)/2)*(3|p)*[q3/2 - p/8*q3^2 + p^2*(q3^3/16 - B(p-3)/27)]  (mod p^3)",
        3, _eval_s1_fermat(3, Fraction(1, 27)), minp=5,
    )
    add(
        "C41.e",
        "odd-denominator central binomial sum at t=-1/32",
        "s1(-1/32) = (2|p)*[2q - p*q^2 + p^2/3*(2q^3 - 7/32*B(p-3))]  (mod p^3)",
        3, _eval_s1_neg_thirtysecond, minp=5,
    )
    add(
        "C41.f",
        "odd-denominator central binomial sum at t=-1/16 against the Lucas quotient",
        "s1(-1/16) = q_L - p^2/15*(q_L^3/2 + B(p-3)), q_L = (L_p-1)/p  (mod p^3)",
        3, _eval_s1_neg_sixteenth, minp=7,
    )
    add(
        "C42.a",
        "plain central binomial sum at t=1/16 against a Bernoulli polynomial value",
        "sum_(k<=n) C(2k,k)/16^k = (3|p) + (-1|p)*p^2/24*B_(p-2)(1/3)  (mod p^3)",
        3, _eval_s2_sixteenth_b13, minp=5, cap=600,
    )
    add(
        "C42.b",
        "plain central binomial sum at t=3/16 against a Bernoulli polynomial value",
        "sum_(k<=n) C(2k,k)(3/16)^k = 1 + (-3|p)*p^2/12*B_(p-2)(1/3)  (mod p^3)",
        3, _eval_s2_three_sixteenth_b13, minp=5, cap=600,
    )
    add(
        "T43.F",
        "Fibonacci-weighted central binomial sum against the Fibonacci quotient",
        "sum C(2k,k)F_(2k+1)/((2k+1)16^k) = (-1)^((p+1)/2)*(F_p - (p|5))/p  (mod p^2)",
        2, _eval_fibonacci_weighted, minp=3, excl=(5,),
    )
    add(
        "T43.L",
        "Lucas-weighted central binomial sum against the Lucas quotient",
        "sum C(2k,k)L_(2k+1)/((2k+1)16^k) = (-1)^((p+1)/2)*(L_p - 1)/p  (mod p^2)",
        2, _eval_lucas_weighted, minp=3, excl=(5,),
    )
    add(
        "C45.a",
        "squared-denominator central binomial sum at t=1/4",
        "sum C(2k,k)/((2k+1)^2*4^k) = (-1)^((p+1)/2)*(q^2/2 - p*q^3/3 - p/16*B(p-3))  (mod p^2)",
        2, _eval_s1_quarter_weight2, minp=5,
    )
    add(
        "C45.b",
        "k-divided central binomial sum at t=1/4 against an Euler number",
        "sum C(2k,k)/(k*4^k) = 2q - p*q^2 + (-1)^((p+1)/2)*2p*E(p-3)  (mod p^2)",
        2, _eval_s2_quarter_weight1, minp=3,
    )
    add(
        "TM.mc1",
        "odd-denominator central binomial sum at t=1/16 to fifth order",
        "s1(1/16) = (-1)^n*(H_(p-1)(1)/12 + 3/160*p^4*B(p-5))  (mod p^5)",
        5, _eval_s1_sixteenth_mod_p5, minp=7,
    )
    add(
        "TM.mc2",
        "squared-denominator central binomial sum at t=-1/16 to fourth order",
        "s1(-1/16, squared) = H_(p-1)(1)/(5p) + 7/200*p^3*B(p-5)  (mod p^4)",
        4, _eval_s1_neg_sixteenth_weight2, minp=7,
    )
    add(
        "C52.weighted",
        "Hbar(2)-weighted central binomial sum at t=1/16 against the divided weight-1 sum",
        "sum C(2k,k)Hbar_k(2)/(16^k(2k+1)) = (-1)^n*H_(p-1)(1)/(12p^2)  (mod p^2)",
        2, _eval_weighted_first_sixteenth, minp=7,
    )
    for a in (2, 3, 5):
        add(
            f"eq11.a{a}",
            f"refined Euler criterion for a={a} to fourth order",
            f"{a}^((p-1)/2) = ({a}|p)*(1 + p/2*q - p^2/8*q^2 + p^3/16*q^3), q = q_p({a})  (mod p^4)",
            4, _eval_euler_criterion_refined(a), minp=3,
            excl=(a,) if a != 2 else (),
        )
    add(
        "rv.squares",
        "sum of squared central binomials over 16^k",
        "sum_(k<=n) C(2k,k)^2/16^k = (-1)^n  (mod p^2)",
        2, _eval_central_squares, minp=3,
    )
    add(
        "S5.conbin",
        "binomial ratio expanded in odd-index harmonic sums, per index k",
        "C(2k,k)/((-16)^k*C(n+k,2k+1)) = -2*[1 + p/(2k+1) + ... + p^4*(... + Hbar_k(4) + Hbar_k(2,2))]  (mod p^5)",
        5, _eval_binomial_ratio_expansion, minp=3,
    )
    return checks


def _identity_checks() -> list[IdentityCheck]:
    checks: list[IdentityCheck] = []

    def add(cid, desc, stmt, cases, ev):
        checks.append(
            IdentityCheck(
                id=cid, description=desc, statement=stmt,
                cases=tuple(cases), evaluator=ev,
            )
        )

    add(
        "L25.exact",
        "odd-index depth-1 sum from full and half sums",
        "Hbar_n(r) = H_(2n)(r) - H_n(r)/2^r",
        ((("n", n), ("r", r)) for n in range(1, 41) for r in range(1, 6)),
        _ident_odd_vs_even_depth1,
    )
    add(
        "L26.wz1",
        "telescoping evaluation of the signed binomial-ratio sum, linear weights",
        "sum (-16)^k*C(n+k,2k)/((2k+1)*C(2k,k)) = 2*(-1)^n*sum (-1)^k/(2k+1) + 1/(2n+1)",
        ((("n", n),) for n in range(0, 21)),
        _ident_wz_first,
    )
    add(
        "L26.wz2",
        "telescoping evaluation of the signed binomial-ratio sum, squared weights",
        "sum (-16)^k*C(n+k,2k)/((2k+1)^2*C(2k,k)) = 1/(2n+1)^2",
        ((("n", n),) for n in range(0, 21)),
        _ident_wz_second,
    )
    add(
        "CCC.forms",
        "three expressions for the signed binomial ratio agree",
        "(-16)^k*C(n+k,2k)/C(2k,k) = prod (1-(2n+1)^2/(2j+1)^2) = sum (-1)^j*(2n+1)^(2j)*Hbar_k(2,...,2)",
        ((("n", n), ("k", k)) for n in range(0, 13) for k in range(0, n + 1)),
        _ident_product_mhs_forms,
    )
    add(
        "A.exact",
        "w-polynomial minus geometric term expanded over central binomials",
        "[w_n(1-8t) - (-16t)^n]/(2n+1) = sum_k C(2k,k)t^k/(2k+1) * sum_j (-1)^j*(2n+1)^(2j)*Hbar_k({2}^j)",
        ((("n", n),) for n in range(0, 13)),
        _ident_w_expansion_odd_weights,
    )
    add(
        "eq15.exact",
        "hypergeometric expansion of the reflected w-polynomial",
        "(-1)^n*w_n(8t-1) = sum_k C(2k,k)*prod_j(1-(2n+1)^2/(2j-1)^2)*t^k",
        ((("n", n),) for n in range(0, 13)),
        _ident_w_hypergeometric,
    )
    add(
        "P33.intu",
        "integral of w_n(1-t^2/2) as odd-index v-values",
        "int_0^t w_n(1-x^2/2) dx = 2*sum (-1)^k*v_(2k+1)(t)/(2k+1) + (-1)^n*v_(2n+1)(t)/(2n+1)",
        ((("n", n),) for n in range(0, 16)),
        _ident_integral_w_odd,
    )
    add(
        "P33.intu1",
        "logarithmic integral of the centered w-polynomial as even-index v-values",
        "int_0^t [(-1)^n*w_n(x^2/2-1) - 1]/x dx = sum (-1)^k*v_(2k)(t)/(2k) - H_n(1)",
        ((("n", n),) for n in range(0, 16)),
        _ident_integral_w_even,
    )
    add(
        "eq08b.exact",
        "w-polynomial from consecutive u-values at doubled argument",
        "w_n(x) = u_(n+1)(2x) + u_n(2x)",
        ((("n", n),) for n in range(0, 31)),
        _ident_w_from_u,
    )
    add(
        "S5.idodd",
        "odd-weight rearrangement of central binomial sums with harmonic weights",
        "sum C(2k,k)/16^k*[...] = sum (-1)^k/(2k+1)^r + (-1)^((r-1)/2)/4 * sum C(2k,k)*(-1)^(n-k)*Hbar_k({2}^h)/(16^k*C(n+k,2k+1)*(2k+1))",
        ((("n", n), ("r", r)) for n in range(1, 13) for r in (1, 3, 5)),
        _ident_apery_like_odd,
    )
    add(
        "S5.ideven",
        "even-weight rearrangement of central binomial sums with harmonic weights",
        "sum C(2k,k)/(-16)^k*[...] = sum 1/(2k+1)^r + (-1)^(r/2-1)/4 * sum C(2k,k)*Hbar_k({2}^h)/((-16)^k*C(n+k,2k+1)*(2k+1)^2)",
        ((("n", n), ("r", r)) for n in range(1, 13) for r in (2, 4, 6)),
        _ident_apery_like_even,
    )
    add(
        "T43.w1w2",
        "golden-ratio w-values combine to the quadratic character of p mod 5",
        "phi+*w_n(phi-/2) -+ phi-*w_n(phi+/2) = (-1)^n*(p|5)*sqrt(5), (-1)^n",
        ((("p", p),) for p in primes_in_range(7, 100)),
        _ident_w_golden_pair,
    )
    add(
        "eq12.eq13",
        "closed forms of w_n at 0, -1/2, 1/2, 5/4",
        "w_n(0) = (-1)^n*(2|p); w_n(-1/2) = (-1)^n*(3|p); w_n(1/2) = (-1)^n; w_n(5/4) = 2^((p+1)/2) - 2^((1-p)/2)",
        ((("p", p),) for p in primes_in_range(5, 500)),
        _ident_w_special_values,
    )
    return checks


@lru_cache(maxsize=1)
def builtin_checks() -> tuple:
    """All registered checks, congruence families first, in stable order."""
    return tuple(_congruence_checks() + _identity_checks())


@lru_cache(maxsize=1)
def _registry() -> dict:
    reg = {}
    for check in builtin_checks():
        if check.id in reg:
            raise ValueError(f"duplicate check id {check.id!r}")
        reg[check.id] = check
    return reg


def lookup(check_id: str):
    """Return the registered check with the given id."""
    try:
        return _registry()[check_id]
    except KeyError:
        near = [c for c in _registry() if c.startswith(check_id)]
        hint = f"; prefixes match {near[:6]}" if near else ""
        raise KeyError(f"unknown check id {check_id!r}{hint}") from None


def select_checks(patterns) -> list:
    """Checks whose id equals, glob-matches, or extends any given pattern."""
    pats = list(patterns)
    if not pats or "all" in pats:
        return list(builtin_checks())
    out = []
    for check in builtin_checks():
        for pat in pats:
            if (
                check.id == pat
                or fnmatchcase(check.id, pat)
                or check.id.startswith(pat + ".")
            ):
                out.append(check)
                break
    return out


# ---------------------------------------------------------------------------
# execution


def _render_params(params: dict) -> str:
    return ",".join(f"{k}={v}" for k, v in params.items())


def _render_exact(x) -> str:
    if isinstance(x, tuple):
        return "(" + ", ".join(_render_exact(v) for v in x) + ")"
    return str(x)


def _graded(check_id: str, prime, t, target, evaluate) -> CheckResult:
    """Grade ``evaluate() -> (valuation, lhs, rhs)`` against the target.

    Any exception raised while evaluating becomes an ERROR row, so one bad
    instance never aborts a sweep.
    """
    try:
        valuation, lhs, rhs = evaluate()
    except Exception as exc:
        error = f"{type(exc).__name__}: {exc}"
        return CheckResult(check_id, prime, t, target, 0, False, f"ERROR: {error}", "", error)
    return CheckResult(check_id, prime, t, target, valuation, valuation >= target, lhs, rhs)


def run_congruence(check: CongruenceCheck, p: int, t: Fraction | None = None) -> CheckResult:
    """Evaluate one congruence instance and grade the p-adic valuation."""
    target = check.target_exponent

    def evaluate():
        lhs, rhs = check.evaluator(p, t) if check.uses_t_panel else check.evaluator(p)
        return (
            (lhs - rhs).valuation(),
            str(int(reduce_residue(lhs, target))),
            str(int(reduce_residue(rhs, target))),
        )

    return _graded(check.id, p, str(t) if t is not None else None, target, evaluate)


def run_identity(check: IdentityCheck, params: dict) -> CheckResult:
    """Evaluate one identity instance; equality grades as infinite valuation."""

    def evaluate():
        lhs, rhs = check.evaluator(params)
        return (inf if lhs == rhs else 0), _render_exact(lhs), _render_exact(rhs)

    return _graded(check.id, params.get("p"), _render_params(params), inf, evaluate)


def _applicable_ts(check: CongruenceCheck, p: int, panel) -> list:
    if not check.uses_t_panel:
        return [None]
    return [
        t for t in panel
        if t.numerator % p != 0 and t.denominator % p != 0
    ]


def _run_unit(unit) -> list[CheckResult]:
    if unit[0] == "c":
        _, p, items = unit
        return [
            run_congruence(_registry()[cid], p, Fraction(t_str) if t_str is not None else None)
            for cid, t_str in items
        ]
    _, cid, indices = unit
    check = _registry()[cid]
    return [run_identity(check, dict(check.cases[i])) for i in indices]


def run_suite(
    prime_lo: int = 7,
    prime_hi: int = 1000,
    patterns=("all",),
    jobs: int = 1,
    t_panel=DEFAULT_T_PANEL,
    fail_fast: bool = False,
    no_cap: bool = False,
    kinds=("congruence", "identity"),
) -> Report:
    """Run every applicable instance of the selected checks and report.

    Work is grouped into one unit per identity check plus one unit per
    prime (all congruence checks at that prime), so worker-local caches are
    reused.  The identity units go first, since the largest of them outlasts
    any prime unit, then the primes in ascending order.  A pool of
    min(jobs, units) worker processes runs them; with one unit or ``jobs=1``
    they run in this process.  Results are sorted by (check id, prime, t)
    regardless of job count, making reports byte-identical across schedules.
    """
    started = time.perf_counter()
    selected = select_checks(patterns)
    congruences = [c for c in selected if c.kind == "congruence" and "congruence" in kinds]
    identities = [c for c in selected if c.kind == "identity" and "identity" in kinds]

    units: list[tuple] = [("i", c.id, tuple(range(len(c.cases)))) for c in identities]
    for p in primes_in_range(prime_lo, prime_hi):
        items = []
        for check in congruences:
            if p < check.min_prime or p in check.excluded_primes:
                continue
            if check.prime_cap is not None and not no_cap and p > check.prime_cap:
                continue
            for t in _applicable_ts(check, p, t_panel):
                items.append((check.id, str(t) if t is not None else None))
        if items:
            units.append(("c", p, tuple(items)))

    results: list[CheckResult] = []
    # The pool starts all its workers at once, so start no idle ones.
    workers = min(jobs, len(units))
    pool = ProcessPoolExecutor(max_workers=workers) if workers > 1 else None
    mapper = map if pool is None else pool.map
    try:
        # _run_unit is looked up at call time so that profilers can replace it.
        for batch in mapper(_run_unit, units):
            results.extend(batch)
            if fail_fast and any(not r.passed for r in batch):
                break
    finally:
        if pool is not None:
            # Drop the units not yet started; pool.map submitted them all.
            pool.shutdown(cancel_futures=True)

    results.sort(key=CheckResult.sort_key)
    return Report(results=tuple(results), wall_seconds=time.perf_counter() - started)
