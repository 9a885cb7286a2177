"""Catalog of congruence and identity checks, and the sweep runner.

Congruence checks compare two residues in Z/p^k for every applicable odd
prime p (optionally for every parameter t drawn from a panel of rational
test values).  Identity checks compare exact objects -- rationals,
polynomials, or quadratic-field elements -- over a fixed finite family of
parameters.  `run_suite` schedules all requested instances, optionally
across worker processes, and collects a deterministic `Report`.
"""

from __future__ import annotations

import os
import sys
import time
from collections import namedtuple
from collections.abc import Iterator
from fnmatch import fnmatchcase
from fractions import Fraction
from functools import lru_cache, partial
from itertools import accumulate, chain
from math import comb, inf
from operator import mul

from . import harmonic, modring
from .binomsums import (
    _dot,
    _odd_powers,
    alternating_v_sum,
    binomial_column,
    fib_lucas_sum,
    rhs_lucas_sum,
    s1,
    s2,
    weighted_sums,
)
from .errors import MixedModuli, PreconditionViolated
from .exactalg import Poly, QuadExt
from .harmonic import alternating_half_sum, mhs, odd_mhs
from .modring import (
    PrimePower,
    Residue,
    divide_by_p,
    inverse_table,
    legendre,
    prime_power,
    primes_in_range,
)
from .sequences import (
    _fibonacci_quotient,
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
    "ClosedForm",
    "PerT",
    "Harmonic",
    "QuotientPoly",
    "ModP",
    "OverP",
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


class CongruenceCheck(
    namedtuple(
        "CongruenceCheck",
        "id statement target_exponent evaluator min_prime excluded_primes prime_cap",
        defaults=(3, frozenset(), None),
    )
):
    """A single congruence verified per prime (and per panel value t).

    A named tuple, like `CheckResult`, so that no start-up pays for importing
    ``dataclasses`` (with ``inspect``, ``ast`` and ``dis``).  Fields: ``id``,
    ``statement`` (the congruence as text, its lhs first and its modulus
    last, as ``--list-checks`` prints it), ``target_exponent``,
    ``evaluator`` (a callable (ring, t) -> (lhs, rhs), both sides residues
    of ``ring`` = Z/p^k, with t None for a check without a panel; the sweep
    passes k = target_exponent, and k sets only the precision of the sides;
    for a registered check a `ClosedForm`, a `PerT` of one, or S5.conbin's
    own), ``min_prime`` (3), ``excluded_primes`` (a frozenset, empty) and
    ``prime_cap`` (None, or the largest prime a sweep runs without
    ``no_cap``).  A check runs at each panel value t exactly when its
    evaluator is a `PerT`, which ``uses_t_panel`` reads.
    """

    __slots__ = ()
    kind = "congruence"

    @property
    def uses_t_panel(self) -> bool:
        return isinstance(self.evaluator, PerT)


class IdentityCheck(
    namedtuple("IdentityCheck", "id statement cases evaluator")
):
    """An exact identity verified over a fixed finite parameter family.

    A named tuple with fields ``id``, ``statement``, ``cases`` (a tuple of
    parameter tuples, each of (name, value) pairs) and ``evaluator``.  The
    evaluator takes a case's parameters by name, evaluator(**dict(case)) ->
    (lhs, rhs), so a case whose names differ from the evaluator's grades as
    a ``TypeError`` ERROR row.
    """

    __slots__ = ()
    kind = "identity"


class CheckResult(
    namedtuple(
        "CheckResult",
        "check_id prime t target valuation passed lhs rhs error",
        defaults=(None,),
    )
):
    """Outcome of one scheduled check instance.

    A named tuple: every row of a ``--jobs N`` sweep crosses the process
    pool, and a tuple builds, pickles and unpickles without per-field Python
    code.  Fields: ``check_id``, ``prime`` (None for an identity without
    one), ``t`` (the panel value or identity parameters as text, or None),
    ``target``, ``valuation``, ``passed``, ``lhs``, ``rhs`` and ``error``
    (None unless evaluating raised).
    """

    __slots__ = ()

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


class Report(namedtuple("Report", "results wall_seconds", defaults=(0.0,))):
    """Sorted results of a sweep plus aggregate status.

    A named tuple with fields ``results`` (a tuple of `CheckResult` rows)
    and ``wall_seconds`` (0.0).
    """

    __slots__ = ()

    @property
    def status(self) -> str:
        _, fails, errs = self.counts()
        return "error" if errs else "fail" if fails else "pass"

    @property
    def exit_code(self) -> int:
        return {"pass": 0, "fail": 1, "error": 2}[self.status]

    def counts(self) -> tuple[int, int, int]:
        """(passed, failed, errored) tallies."""
        errs = sum(1 for r in self.results if r.error is not None)
        fails = sum(1 for r in self.results if r.error is None and not r.passed)
        return (len(self.results) - fails - errs, fails, errs)


# ---------------------------------------------------------------------------
# small helpers shared by evaluators


def _neg_one_pow(e: int) -> int:
    return 1 if e % 2 == 0 else -1


def _sign_plus(p: int) -> int:
    """(-1)^((p+1)/2)."""
    return _neg_one_pow((p + 1) // 2)


def _sign_minus(p: int) -> int:
    """(-1)^((p-1)/2), that is (-1)^n for n = (p-1)/2."""
    return _neg_one_pow((p - 1) // 2)


def _mod_p_term(ring: PrimePower, coeff: int | Fraction, e: int, x: Residue) -> Residue:
    """coeff * p^e * x in the ring, for a value x that is needed only mod
    p^(k-e): a Bernoulli or Euler number, B_(p-2)(1/3) or a u/v-series sum,
    known only mod p, or T34's v-series sum, taken mod p^(k-1) for e = 1.

    In Z/p^k the factor p^e kills any lift x + p^(k-e)*r, so every
    representative of x gives the same row.  A value known only mod p thus
    needs e >= k-1: each statement with one holds mod p^(e+1).
    """
    return Residue(ring.value_of(coeff) * ring.p**e * x.value % ring.modulus, ring)


def _bernoulli_p(j: int):
    """p -> B_(p-j) mod p, looked up in this module's namespace at call time."""
    return lambda p: bernoulli_number(p - j, p)


def _uv_term(kind: str, t: Fraction, p: int) -> Residue:
    """scale * s^e * ``rhs_lucas_sum(kind, c)`` in Z/p, at c = 2-16t and
    s = -1/t, with (e, scale) = ((p+1)/2, 1/64) for v (sum v_k/k^3) and
    ((p-1)/2, 1/2) for u (sum u_k/k^2): the rhs of L31.A2 (v) and L31.A3 (u),
    and the p^2 terms of T32.first (v) and, times (-1)^((p-1)/2), T32.second
    (u)."""
    e, scale = ((p + 1) // 2, 64) if kind == "v" else ((p - 1) // 2, 2)
    modp = prime_power(p, 1)
    tr = modp.from_fraction(t)
    return rhs_lucas_sum(kind, 2 - 16 * tr.value, modp) * ((-tr.inv()) ** e * pow(scale, -1, p))


def _v_p_term(t: Fraction, ring: PrimePower) -> Residue:
    """[(-1)^n*(v_p(t) - t^p) + 2p*sum_(k<n) (-1)^k v_(2k+1)(t)/(2k+1)]/t in
    the ring, n = (p-1)/2: p^2 times the rhs of T34.first.  The sum is
    multiplied by p, so it is taken one power of p lower, in Z/p^(k-1)."""
    p = ring.p
    tr = ring.from_fraction(t)
    vp = lucas_pair_mod(p, tr, 1, ring)[1]
    vsum = _mod_p_term(ring, 2, 1, alternating_v_sum(t, True, prime_power(p, ring.k - 1)))
    return ((vp - tr**p) * _sign_minus(p) + vsum) / tr


# ---------------------------------------------------------------------------
# congruence evaluators
#
# Each evaluator takes (ring, t): ring is Z/p^k, t the panel value (None for
# a check without a panel), and returns (lhs, rhs) as residues of that ring.
# Every congruence but S5.conbin is a `ClosedForm` (for a panel check, one
# built at t by `PerT`), data whose terms each state their power of p in the
# registry: `Harmonic`, `QuotientPoly` and `ModP`, and `OverP` for a term
# divided by p^j, the one place that divides by a power of p.  The ring sets
# only the precision, so the sides in Z/p^(target+1) agree mod p^target with
# those in Z/p^target, where the sweep runs them.  A term reads every helper
# it calls from this module at call time, so a patched helper is the one read.


def _raw_sum(terms, ring: PrimePower) -> int:
    """The sum of the representatives of term(ring) over ``terms``,
    unreduced; a term in another ring raises `MixedModuli`."""
    total = 0
    for term in terms:
        x = term(ring)
        if x.ring is not ring:
            raise MixedModuli(f"cannot mix {ring!r} and {x.ring!r}")
        total += x.value
    return total


class ClosedForm(namedtuple("ClosedForm", "lhs terms sign", defaults=(None,))):
    """The evaluator of sum(lhs) = sign(p) * sum(terms) (mod p^k).

    ``lhs`` and ``terms`` are tuples of terms: `Harmonic`, `QuotientPoly`,
    `ModP`, `OverP`, or a callable ring -> residue with no power of p
    (``PrimePower.one``, a w-value).  Each side sums its terms'
    representatives as integers and reduces once; a side with no terms is 0,
    and a missing sign is 1.
    """

    __slots__ = ()

    def __call__(self, ring: PrimePower, t):
        total = _raw_sum(self.terms, ring) * (1 if self.sign is None else self.sign(ring.p))
        return Residue(_raw_sum(self.lhs, ring) % ring.modulus, ring), Residue(total % ring.modulus, ring)


class PerT(namedtuple("PerT", "build")):
    """A panel check's evaluator: build(t) is its `ClosedForm` at t, built at
    each call.  Its terms compute what they derive from t in their ring, so
    the sides depend on t only through its residue."""

    __slots__ = ()

    def __call__(self, ring: PrimePower, t):
        return self.build(t)(ring, t)


class OverP(namedtuple("OverP", "j term")):
    """The term term/p^j: ``term`` is computed in Z/p^(k+j) and divided
    exactly by p^j, which raises `NotDivisibleByP` unless p^j divides it."""

    __slots__ = ()

    def __call__(self, ring: PrimePower) -> Residue:
        x = self.term(prime_power(ring.p, ring.k + self.j))
        for _ in range(self.j):
            x = divide_by_p(x)
        return x


class Harmonic(namedtuple("Harmonic", "c e comp half odd", defaults=(True, False))):
    """The term c * p^e * S, S = Hbar_N(comp) if ``odd`` else H_N(comp), and
    N = (p-1)/2 if ``half`` else p-1.

    In Z/p^k, S is read in Z/p^max(k-e, 1): c * p^e * S mod p^k depends on
    S only mod p^(k-e), so the sum costs no more precision than the term
    keeps.  For e < 0 it is `OverP` of c * S, which needs p^-e to divide S:
    p^2 divides H_(p-1)(1), and p divides H_(p-1)(2), for p >= 5.
    """

    __slots__ = ()

    def __call__(self, ring: PrimePower) -> Residue:
        c, e, comp, half, odd = self
        if e < 0:
            return OverP(-e, self._replace(e=0))(ring)
        p = ring.p
        kernel = harmonic._odd_mhs_mod if odd else harmonic._mhs_mod
        x = kernel((p - 1) // 2 if half else p - 1, comp, prime_power(p, max(ring.k - e, 1)) if e else ring)
        return Residue(ring.value_of(c) * p**e * x % ring.modulus, ring)


class QuotientPoly(namedtuple("QuotientPoly", "quotient s coeffs")):
    """The term q^s * P(p*q), q = quotient(p, k) and P(x) = coeffs[0] +
    coeffs[1]*x + ..."""

    __slots__ = ()

    def __call__(self, ring: PrimePower) -> Residue:
        m, q = ring.modulus, self.quotient(ring.p, ring.k).value
        acc = 0
        for c in reversed(self.coeffs):
            acc = (acc * q * ring.p + ring.value_of(c)) % m
        return Residue(acc * pow(q, self.s, m) % m, ring)


class ModP(namedtuple("ModP", "c e value sign", defaults=(None,))):
    """The term sign(p) * c * p^e * X(p), ``value`` the map p -> X(p) for a
    value known only mod p.  A missing sign is 1.  The sign goes into the
    coefficient, so the representative of X(p) reaches the factor p^e as
    ``value`` gave it."""

    __slots__ = ()

    def __call__(self, ring: PrimePower) -> Residue:
        c = self.c if self.sign is None else self.c * self.sign(ring.p)
        return _mod_p_term(ring, c, self.e, self.value(ring.p))


def _eval_mhs_bernoulli(half: bool, comp: tuple[int, ...], h1: int, coeff: Fraction, e: int):
    """H_N(comp) = h1 * H_(p-1)(1)/p^(w-1) + coeff * p^e * B_(p-w-e),
    w = sum(comp), N = (p-1)/2 if half else p-1.

    With h1 = 0 the weight-1 sum is not computed at all.
    """
    w = sum(comp)
    return ClosedForm(
        (Harmonic(1, 0, comp, half),),
        ((Harmonic(h1, 1 - w, (1,), half=False),) if h1 else ()) + (ModP(coeff, e, _bernoulli_p(w + e)),),
    )


#: The t of S5.conbin's column C(2k,k)/(-16)^k, built once.
_CONBIN_T = Fraction(-1, 16)


def _eval_binomial_ratio_expansion(ring: PrimePower, t):
    """The sides of S5.conbin at the first k < n where they differ, else at
    k = n-1; Hbar_k(2), Hbar_k(4) and Hbar_k(2,2) are prefix sums of the odd
    power columns, and 1/C(n+k,2k+1) steps by (2k+2)(2k+3)/((n+k+1)(n-k-1))."""
    p, m = ring.p, ring.modulus
    n = (p - 1) // 2
    inv = inverse_table(ring)
    io, io2 = _odd_powers(ring, 1), _odd_powers(ring, 2)  # 1/(2k+1), k < n
    h2 = list(accumulate(io2, initial=0))
    h4 = accumulate(map(mul, io2, io2), initial=0)
    h22 = accumulate(map(mul, h2, io2), initial=0)
    binom_inv = accumulate(
        range(n - 1),
        lambda c, k: c * (2 * k + 2) * (2 * k + 3) * inv[n + k + 1] * inv[n - k - 1] % m,
        initial=inv[n],
    )
    ratio = map(mul, binomial_column(_CONBIN_T, ring), binom_inv)
    for r, o, o2, a2, a4, a22 in zip(ratio, io, io2, h2, h4, h22):
        lhs_k = r % m
        a = o2 + a2
        # -2 * [1 + p/(2k+1) + p^2*(1/(2k+1)^2 + Hbar_k(2)) + ...], in Horner form
        rhs_k = -2 * (1 + p * (o + p * (a + p * (o * a + p * (o2 * a + a4 + a22))))) % m
        if lhs_k != rhs_k:
            break
    return ring.from_int(lhs_k), ring.from_int(rhs_k)


# ---------------------------------------------------------------------------
# identity evaluators


def _ident_odd_vs_even_depth1(n, r):
    lhs = odd_mhs(n, (r,))
    rhs = mhs(2 * n, (r,)) - mhs(n, (r,)) * Fraction(1, 2**r)
    return lhs, rhs


def _wz_weight(n: int, k: int) -> Fraction:
    return Fraction((-16) ** k * comb(n + k, 2 * k), comb(2 * k, k))


def _ident_wz_first(n):
    lhs = sum(
        (_wz_weight(n, k) * Fraction(1, 2 * k + 1) for k in range(n + 1)),
        Fraction(0),
    )
    alt = sum((Fraction(_neg_one_pow(k), 2 * k + 1) for k in range(n)), Fraction(0))
    rhs = 2 * _neg_one_pow(n) * alt + Fraction(1, 2 * n + 1)
    return lhs, rhs


def _ident_wz_second(n):
    lhs = sum(
        (_wz_weight(n, k) * Fraction(1, (2 * k + 1) ** 2) for k in range(n + 1)),
        Fraction(0),
    )
    return lhs, Fraction(1, (2 * n + 1) ** 2)


def _hbar_series(k: int, x: int, top: int) -> Fraction:
    """sum_(j<=top) (-1)^j x^(2j) Hbar_k({2}^j), in Q."""
    return sum(
        (_neg_one_pow(j) * Fraction(x ** (2 * j)) * odd_mhs(k, (2,) * j) for j in range(top + 1)),
        Fraction(0),
    )


def _odd_ratio_product(n: int, k: int) -> Fraction:
    """prod_(j<k) (1 - (2n+1)^2/(2j+1)^2), in Q."""
    out = Fraction(1)
    for j in range(k):
        out *= 1 - Fraction((2 * n + 1) ** 2, (2 * j + 1) ** 2)
    return out


def _ident_product_mhs_forms(n, k):
    prodform = _odd_ratio_product(n, k)
    return (_wz_weight(n, k), prodform), (prodform, _hbar_series(k, 2 * n + 1, k))


def _ident_w_expansion_odd_weights(n):
    tvar, one = Poly([0, 1]), Poly([1])
    lhs = (w_value(n, one - tvar * 8) - (tvar * -16) ** n) * Fraction(1, 2 * n + 1)
    coeffs = [Fraction(comb(2 * k, k), 2 * k + 1) * _hbar_series(k, 2 * n + 1, k) for k in range(n)]
    return lhs, Poly(coeffs)


def _ident_w_hypergeometric(n):
    tvar, one = Poly([0, 1]), Poly([1])
    lhs = w_value(n, tvar * 8 - one) * Fraction(_neg_one_pow(n))
    return lhs, Poly([comb(2 * k, k) * _odd_ratio_product(n, k) for k in range(n + 1)])


def _ident_integral_w_odd(n):
    tvar, one = Poly([0, 1]), Poly([1])
    arg = one - tvar * tvar * Fraction(1, 2)
    lhs = w_value(n, arg).integrate_from_zero()
    vs = lucas_v_upto(2 * n + 1, tvar, one)
    rhs = Poly([])
    for k in range(n):
        rhs = rhs + vs[2 * k + 1] * Fraction(2 * _neg_one_pow(k), 2 * k + 1)
    rhs = rhs + vs[2 * n + 1] * Fraction(_neg_one_pow(n), 2 * n + 1)
    return lhs, rhs


def _ident_integral_w_even(n):
    tvar, one = Poly([0, 1]), Poly([1])
    arg = tvar * tvar * Fraction(1, 2) - one
    numerator = w_value(n, arg) * Fraction(_neg_one_pow(n)) - one
    lhs = numerator.shift_down().integrate_from_zero()
    vs = lucas_v_upto(2 * n, tvar, one)
    rhs = Poly([])
    for k in range(1, n + 1):
        rhs = rhs + vs[2 * k] * Fraction(_neg_one_pow(k), 2 * k)
    rhs = rhs - mhs(n, (1,))
    return lhs, rhs


def _ident_w_from_u(n):
    xvar, one = Poly([0, 1]), Poly([1])
    us = lucas_u_upto(n + 1, xvar * 2, one)
    return w_value(n, xvar), us[n + 1] + us[n]


def _ident_apery_like(n, r):
    """S5.idodd (r odd) and S5.ideven (r even), with h = (r-1)//2: the parity
    picks the base of the binomial weight, the power of 1/(2k+1) on the
    Hbar_k({2}^h) term and the sign s, whose powers alternate the odd sums."""
    h = (r - 1) // 2
    base, power, s = (16, 1, -1) if r % 2 else (-16, 2, 1)
    sign = Fraction(_neg_one_pow(h), 4)
    lhs = rhs = tail = Fraction(0)
    for k in range(n):
        o = 2 * k + 1
        top = odd_mhs(k, (2,) * h) / o**power
        weight = Fraction(comb(2 * k, k), base**k)
        lhs += weight * (_hbar_series(k, o, h) / o**r + s * sign * top)
        rhs += Fraction(s**k, o**r)
        tail += weight / comb(n + k, 2 * k + 1) * s ** (n - k) * top
    return lhs, rhs + sign * tail


def _ident_w_golden_pair(p):
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


def _ident_w_special_values(p):
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


def _congruence_checks() -> Iterator[CongruenceCheck]:
    def fermat(a):  # q_p(a) mod p^k, with fermat_quotient looked up at call time
        return lambda p, k: fermat_quotient(a, p, k)

    for r in (1, 3, 5):
        coeff = Fraction(-r * (r + 1), 2 * (r + 2))
        yield CongruenceCheck(
            f"i.odd.r{r}",
            f"H_(p-1)({r}) = -{r}*{r + 1}/(2*{r + 2}) * p^2 * B(p-{r + 2})  (mod p^3)",
            3, _eval_mhs_bernoulli(False, (r,), 0, coeff, 2), min_prime=r + 3,
        )
    for r in (2, 4, 6):
        coeff = Fraction(r, r + 1)
        yield CongruenceCheck(
            f"i.even.r{r}",
            f"H_(p-1)({r}) = {r}/{r + 1} * p * B(p-{r + 1})  (mod p^2)",
            2, _eval_mhs_bernoulli(False, (r,), 0, coeff, 1), min_prime=r + 3,
        )
    for w in range(2, 7):
        for s in range(1, w):
            r = w - s
            coeff = Fraction((-1) ** s * comb(w, s), w)
            yield CongruenceCheck(
                f"ii.r{r}s{s}",
                f"H_(p-1)({r},{s}) = (-1)^{s}/{w} * C({w},{s}) * B(p-{w})  (mod p)",
                1, _eval_mhs_bernoulli(False, (r, s), 0, coeff, 0), min_prime=w + 1,
            )
    for w in (3, 5, 7):
        for r in range(1, w - 1):
            for s in range(1, w - r):
                u = w - r - s
                coeff = Fraction((-1) ** r * comb(w, r) - (-1) ** u * comb(w, u), 2 * w)
                yield CongruenceCheck(
                    f"iii.r{r}s{s}t{u}",
                    f"H_(p-1)({r},{s},{u}) = [(-1)^{r}*C({w},{r}) - (-1)^{u}*C({w},{u})]/(2*{w}) * B(p-{w})  (mod p)",
                    1, _eval_mhs_bernoulli(False, (r, s, u), 0, coeff, 0), min_prime=w + 1,
                )
    yield CongruenceCheck(
        "iv.h1",
        "H_(p-1)(1) = -p/2*H_(p-1)(2) - p^2/6*H_(p-1)(3)  (mod p^5)",
        5, ClosedForm((Harmonic(1, 0, (1,), half=False),), (
            Harmonic(Fraction(-1, 2), 1, (2,), half=False),
            Harmonic(Fraction(-1, 6), 2, (3,), half=False),
        )), min_prime=7,
    )
    yield CongruenceCheck(
        "v.h12",
        "H_(p-1)(1,2) = -3*H_(p-1)(1)/p^2 + p^2/2*B(p-5)  (mod p^3)",
        3, _eval_mhs_bernoulli(False, (1, 2), -3, Fraction(1, 2), 2), min_prime=7,
    )
    yield CongruenceCheck(
        "vi.1",
        "H_n(1) = -2*q + p*q^2 - p^2*(2/3*q^3 + 7/12*B(p-3)), q = q_p(2), n = (p-1)/2  (mod p^3)",
        3, ClosedForm((Harmonic(1, 0, (1,)),), (
            QuotientPoly(fermat(2), 1, (-2, 1, Fraction(-2, 3))), ModP(Fraction(-7, 12), 2, _bernoulli_p(3)),
        )), min_prime=7,
    )
    for r in (2, 4):
        coeff = Fraction(r * (2 ** (r + 1) - 1), 2 * (r + 1))
        yield CongruenceCheck(
            f"vi.even.r{r}",
            f"H_n({r}) = {r}*(2^{r + 1}-1)/(2*{r + 1}) * p * B(p-{r + 1})  (mod p^2)",
            2, _eval_mhs_bernoulli(True, (r,), 0, coeff, 1), min_prime=r + 5,
        )
    for r in (3, 5):
        coeff = Fraction(-(2**r - 2), r)
        yield CongruenceCheck(
            f"vi.odd.r{r}",
            f"H_n({r}) = -(2^{r}-2)/{r} * B(p-{r})  (mod p)",
            1, _eval_mhs_bernoulli(True, (r,), 0, coeff, 0), min_prime=r + 5,
        )
    for r in (1, 2, 3):
        for a in (1, 2, 3):
            yield CongruenceCheck(
                f"L21.C1.r{r}a{a}",
                f"H_(p-1)({r}) = H_n({r}) + (-1)^{r} * sum_k C({r - 1}+k,k)*H_n({r}+k)*p^k, k=0..{a}  (mod p^{a + 1})",
                a + 1, ClosedForm((Harmonic(1, 0, (r,), half=False),), (
                    Harmonic(1, 0, (r,)),
                    *(Harmonic(_neg_one_pow(r) * comb(r - 1 + j, j), j, (r + j,)) for j in range(a + 1)),
                )), min_prime=r + 3,
            )
    for w in (3, 5, 7):
        for s in range(1, w):
            r = w - s
            coeff = Fraction((-1) ** s * comb(w, s) + 2**w - 2, 2 * w)
            yield CongruenceCheck(
                f"L21.C2.r{r}s{s}",
                f"H_n({r},{s}) = B(p-{w})/(2*{w}) * ((-1)^{s}*C({w},{s}) + 2^{w} - 2)  (mod p)",
                1, _eval_mhs_bernoulli(True, (r, s), 0, coeff, 0), min_prime=w + 1,
            )
    yield CongruenceCheck(
        "T22.zero",
        "H_n(2) + 7/6*p*H_n(3) + 5/8*p^2*H_n(4) = 0  (mod p^4)",
        4, ClosedForm((
            Harmonic(1, 0, (2,)), Harmonic(Fraction(7, 6), 1, (3,)), Harmonic(Fraction(5, 8), 2, (4,)),
        ), ()), min_prime=5,
    )
    yield CongruenceCheck(
        "C23.a",
        "H_(p-1)(2) = -2*H_(p-1)(1)/p + 2/5*p^3*B(p-5)  (mod p^4)",
        4, _eval_mhs_bernoulli(False, (2,), -2, Fraction(2, 5), 3), min_prime=7,
    )
    yield CongruenceCheck(
        "C23.b",
        "H_n(2) = -7*H_(p-1)(1)/p + 17/10*p^3*B(p-5)  (mod p^4)",
        4, _eval_mhs_bernoulli(True, (2,), -7, Fraction(17, 10), 3), min_prime=7,
    )
    yield CongruenceCheck(
        "C23.c",
        "H_n(3) = 6*H_(p-1)(1)/p^2 - 81/10*p^2*B(p-5)  (mod p^3)",
        3, _eval_mhs_bernoulli(True, (3,), 6, Fraction(-81, 10), 2), min_prime=7,
    )
    yield CongruenceCheck(
        "C23.d",
        "H_n(1,2) + p*H_n(1,3) = -9/2*H_(p-1)(1)/p^2 - 49/20*p^2*B(p-5)  (mod p^3)",
        3, ClosedForm((Harmonic(1, 0, (1, 2)), Harmonic(1, 1, (1, 3))), (
            Harmonic(Fraction(-9, 2), -2, (1,), half=False), ModP(Fraction(-49, 20), 2, _bernoulli_p(5)),
        )), min_prime=7,
    )
    for r in (1, 2, 3):
        for s in (1, 2, 3):
            yield CongruenceCheck(
                f"L25.r{r}s{s}",
                f"Hbar_n({r},{s}) = (-2)^-{r + s} * [H_n({s},{r}) + p/2*({r}*H_n({s},{r + 1}) + {s}*H_n({s + 1},{r})) + p^2/4*(...)]  (mod p^3)",
                3, ClosedForm((Harmonic(1, 0, (r, s), odd=True),), tuple(
                    Harmonic(Fraction(c, (-2) ** (r + s)), e, comp) for c, e, comp in (
                        (1, 0, (s, r)),
                        (Fraction(r, 2), 1, (s, r + 1)), (Fraction(s, 2), 1, (s + 1, r)),
                        (Fraction(comb(r + 1, 2), 4), 2, (s, r + 2)),
                        (Fraction(r * s, 4), 2, (s + 1, r + 1)),
                        (Fraction(comb(s + 1, 2), 4), 2, (s + 2, r)),
                    )
                )),
            )
    yield CongruenceCheck(
        "L26.alts",
        "2*(-1)^n*sum((-1)^k/(2k+1)) = Hbar(1) - p*Hbar(2) - p^2*Hbar(2,1) + p^3*Hbar(2,2) + p^4*Hbar(2,2,1)  (mod p^5)",
        5, ClosedForm((
            lambda ring: alternating_half_sum((ring.p - 1) // 2, ring) * (2 * _sign_minus(ring.p)),
        ), (
            Harmonic(1, 0, (1,), odd=True), Harmonic(-1, 1, (2,), odd=True),
            Harmonic(-1, 2, (2, 1), odd=True), Harmonic(1, 3, (2, 2), odd=True),
            Harmonic(1, 4, (2, 2, 1), odd=True),
        )), min_prime=7,
    )
    yield CongruenceCheck(
        "C27.morley",
        "(-1)^n/4^(p-1)*C(p-1,n) = 1 - p/4*H_(p-1)(1) - p^5/80*B(p-5)  (mod p^6)",
        6, ClosedForm((lambda ring: (
            ring.from_int(comb(ring.p - 1, (ring.p - 1) // 2)) * _sign_minus(ring.p)
            / ring.from_int(pow(4, ring.p - 1, ring.modulus))
        ),), (
            PrimePower.one, Harmonic(Fraction(-1, 4), 1, (1,), half=False),
            ModP(Fraction(-1, 80), 5, _bernoulli_p(5)),
        )), min_prime=7,
    )
    yield CongruenceCheck(
        "L31.A2",
        "sum C(2k,k)t^k Hbar_k(2)/(2k+1) = 1/64*(-1/t)^((p+1)/2) * sum v_k(2-16t)/k^3  (mod p)",
        1, PerT(lambda t: ClosedForm(
            (lambda ring: weighted_sums(t, ring)[0],), (ModP(1, 0, lambda p: _uv_term("v", t, p)),),
        )), min_prime=5,
    )
    yield CongruenceCheck(
        "L31.A3",
        "sum C(2k,k)t^k Hbar_k(2) = 1/2*(-1/t)^((p-1)/2) * sum u_k(2-16t)/k^2  (mod p)",
        1, PerT(lambda t: ClosedForm(
            (lambda ring: weighted_sums(t, ring)[1],), (ModP(1, 0, lambda p: _uv_term("u", t, p)),),
        )), min_prime=5,
    )
    yield CongruenceCheck(
        "T32.first",
        "sum C(2k,k)t^k/(2k+1) = [w_n(1-8t) - (-16t)^n]/p + p^2/64*(-1/t)^((p+1)/2)*sum v_k(2-16t)/k^3  (mod p^3)",
        3, PerT(lambda t: ClosedForm((lambda ring: s1(t, 0, ring),), (
            OverP(1, lambda ring: (
                w_value_mod((ring.p - 1) // 2, 1 - 8 * ring.from_fraction(t), ring)
                - (-16 * ring.from_fraction(t)) ** ((ring.p - 1) // 2)
            )),
            ModP(1, 2, lambda p: _uv_term("v", t, p)),
        ))), min_prime=5,
    )
    yield CongruenceCheck(
        "T32.second",
        "(-1)^n sum C(2k,k)t^k = w_n(8t-1) + p^2/(2t^n)*sum u_k(2-16t)/k^2  (mod p^3)",
        3, PerT(lambda t: ClosedForm((lambda ring: (ring.one() + s2(t, 0, ring)) * _sign_minus(ring.p),), (
            lambda ring: w_value_mod((ring.p - 1) // 2, 8 * ring.from_fraction(t) - 1, ring),
            ModP(1, 2, lambda p: _uv_term("u", t, p), sign=_sign_minus),
        ))), min_prime=5,
    )
    yield CongruenceCheck(
        "T34.first",
        "sum C(2k,k)(t/4)^(2k)/(2k+1)^2 = (-1)^n*(v_p(t)-t^p)/(t*p^2) + 2/(t*p)*sum (-1)^k v_(2k+1)(t)/(2k+1)  (mod p^2)",
        2, PerT(lambda t: ClosedForm(
            (lambda ring: s1((ring.from_fraction(t) ** 2 / 16).value, 1, ring),), (OverP(2, lambda ring: _v_p_term(t, ring)),),
        )),
    )
    yield CongruenceCheck(
        "T34.second",
        "sum C(2k,k)(t/4)^(2k)/k = 4*q_p(2) - 2p*q_p(2)^2 + sum (-1)^k v_(2k)(t)/k  (mod p^2)",
        2, PerT(lambda t: ClosedForm((lambda ring: s2((ring.from_fraction(t) ** 2 / 16).value, 1, ring),), (
            QuotientPoly(fermat(2), 1, (4, -2)), lambda ring: alternating_v_sum(t, False, ring),
        ))),
    )
    yield CongruenceCheck(
        "C41.a",
        "s1(1/4) = (-1)^((p+1)/2)*(q_p(2) - p^2/16*B(p-3))  (mod p^3)",
        3, ClosedForm((lambda ring, u=Fraction(1, 4): s1(u, 0, ring),), (
            QuotientPoly(fermat(2), 1, (1,)), ModP(Fraction(-1, 16), 2, _bernoulli_p(3)),
        ), sign=_sign_plus), min_prime=5,
    )
    yield CongruenceCheck(
        "C41.b",
        "s1(1/16) = (-1)^((p+1)/2)/36*p^2*B(p-3)  (mod p^3)",
        3, ClosedForm(
            (lambda ring, u=Fraction(1, 16): s1(u, 0, ring),),
            (ModP(Fraction(1, 36), 2, _bernoulli_p(3)),), sign=_sign_plus,
        ), min_prime=5,
    )
    yield CongruenceCheck(
        "C41.c",
        "s1(1/8) = (-1)^((p+1)/2)*(2|p)*[q/2 - p/8*q^2 + p^2/16*(q^3 - B(p-3)/8)]  (mod p^3)",
        3, ClosedForm((lambda ring, u=Fraction(1, 8): s1(u, 0, ring),), (
            QuotientPoly(fermat(2), 1, (Fraction(1, 2), Fraction(-1, 8), Fraction(1, 16))),
            ModP(Fraction(-1, 128), 2, _bernoulli_p(3)),
        ), sign=lambda p: _sign_plus(p) * legendre(2, p)), min_prime=5,
    )
    yield CongruenceCheck(
        "C41.d",
        "s1(3/16) = (-1)^((p+1)/2)*(3|p)*[q3/2 - p/8*q3^2 + p^2*(q3^3/16 - B(p-3)/27)]  (mod p^3)",
        3, ClosedForm((lambda ring, u=Fraction(3, 16): s1(u, 0, ring),), (
            QuotientPoly(fermat(3), 1, (Fraction(1, 2), Fraction(-1, 8), Fraction(1, 16))),
            ModP(Fraction(-1, 27), 2, _bernoulli_p(3)),
        ), sign=lambda p: _sign_plus(p) * legendre(3, p)), min_prime=5,
    )
    yield CongruenceCheck(
        "C41.e",
        "s1(-1/32) = (2|p)*[2q - p*q^2 + p^2/3*(2q^3 - 7/32*B(p-3))]  (mod p^3)",
        3, ClosedForm((lambda ring, u=Fraction(-1, 32): s1(u, 0, ring),), (
            QuotientPoly(fermat(2), 1, (2, -1, Fraction(2, 3))), ModP(Fraction(-7, 96), 2, _bernoulli_p(3)),
        ), sign=partial(legendre, 2)), min_prime=5,
    )
    yield CongruenceCheck(
        "C41.f",
        "s1(-1/16) = q_L - p^2/15*(q_L^3/2 + B(p-3)), q_L = (L_p-1)/p  (mod p^3)",
        3, ClosedForm((lambda ring, u=Fraction(-1, 16): s1(u, 0, ring),), (
            QuotientPoly(lucas_quotient, 1, (1, 0, Fraction(-1, 30))),
            ModP(Fraction(-1, 15), 2, _bernoulli_p(3)),
        )), min_prime=7,
    )
    yield CongruenceCheck(
        "C42.a",
        "sum_(k<=n) C(2k,k)/16^k = (3|p) + (-1|p)*p^2/24*B_(p-2)(1/3)  (mod p^3)",
        3, ClosedForm((lambda ring, u=Fraction(1, 16): ring.one() + s2(u, 0, ring),), (
            lambda ring: ring.from_int(legendre(3, ring.p)),
            ModP(Fraction(1, 24), 2, lambda p: bernoulli_third(p), sign=_sign_minus),
        )), min_prime=5, prime_cap=600,
    )
    yield CongruenceCheck(
        "C42.b",
        "sum_(k<=n) C(2k,k)(3/16)^k = 1 + (-3|p)*p^2/12*B_(p-2)(1/3)  (mod p^3)",
        3, ClosedForm((lambda ring, u=Fraction(3, 16): ring.one() + s2(u, 0, ring),), (
            PrimePower.one,
            ModP(Fraction(1, 12), 2, lambda p: bernoulli_third(p), sign=lambda p: legendre(-3, p)),
        )), min_prime=5, prime_cap=600,
    )
    yield CongruenceCheck(
        "T43.F",
        "sum C(2k,k)F_(2k+1)/((2k+1)16^k) = (-1)^((p+1)/2)*(F_p - (p|5))/p  (mod p^2)",
        2, ClosedForm(
            (lambda ring: fib_lucas_sum("F", ring),), (QuotientPoly(_fibonacci_quotient, 1, (1,)),),
            sign=_sign_plus,
        ), excluded_primes=frozenset({5}),
    )
    yield CongruenceCheck(
        "T43.L",
        "sum C(2k,k)L_(2k+1)/((2k+1)16^k) = (-1)^((p+1)/2)*(L_p - 1)/p  (mod p^2)",
        2, ClosedForm(
            (lambda ring: fib_lucas_sum("L", ring),), (QuotientPoly(lucas_quotient, 1, (1,)),),
            sign=_sign_plus,
        ), excluded_primes=frozenset({5}),
    )
    yield CongruenceCheck(
        "C45.a",
        "sum C(2k,k)/((2k+1)^2*4^k) = (-1)^((p+1)/2)*(q^2/2 - p*q^3/3 - p/16*B(p-3))  (mod p^2)",
        2, ClosedForm((lambda ring, u=Fraction(1, 4): s1(u, 1, ring),), (
            QuotientPoly(fermat(2), 2, (Fraction(1, 2), Fraction(-1, 3))),
            ModP(Fraction(-1, 16), 1, _bernoulli_p(3)),
        ), sign=_sign_plus), min_prime=5,
    )
    yield CongruenceCheck(
        "C45.b",
        "sum C(2k,k)/(k*4^k) = 2q - p*q^2 + (-1)^((p+1)/2)*2p*E(p-3)  (mod p^2)",
        2, ClosedForm((lambda ring, u=Fraction(1, 4): s2(u, 1, ring),), (
            QuotientPoly(fermat(2), 1, (2, -1)),
            ModP(2, 1, lambda p: euler_number(p - 3, p), sign=_sign_plus),
        )),
    )
    yield CongruenceCheck(
        "TM.mc1",
        "s1(1/16) = (-1)^n*(H_(p-1)(1)/12 + 3/160*p^4*B(p-5))  (mod p^5)",
        5, ClosedForm((lambda ring, u=Fraction(1, 16): s1(u, 0, ring),), (
            Harmonic(Fraction(1, 12), 0, (1,), half=False), ModP(Fraction(3, 160), 4, _bernoulli_p(5)),
        ), sign=_sign_minus), min_prime=7,
    )
    yield CongruenceCheck(
        "TM.mc2",
        "s1(-1/16, squared) = H_(p-1)(1)/(5p) + 7/200*p^3*B(p-5)  (mod p^4)",
        4, ClosedForm((lambda ring, u=Fraction(-1, 16): s1(u, 1, ring),), (
            Harmonic(Fraction(1, 5), -1, (1,), half=False), ModP(Fraction(7, 200), 3, _bernoulli_p(5)),
        )), min_prime=7,
    )
    yield CongruenceCheck(
        "C52.weighted",
        "sum C(2k,k)Hbar_k(2)/(16^k(2k+1)) = (-1)^n*H_(p-1)(1)/(12p^2)  (mod p^2)",
        2, ClosedForm(
            (lambda ring, u=Fraction(1, 16): weighted_sums(u, ring)[0],),
            (Harmonic(Fraction(1, 12), -2, (1,), half=False),), sign=_sign_minus,
        ), min_prime=7,
    )
    for a in (2, 3, 5):
        yield CongruenceCheck(
            f"eq11.a{a}",
            f"{a}^((p-1)/2) = ({a}|p)*(1 + p/2*q - p^2/8*q^2 + p^3/16*q^3), q = q_p({a})  (mod p^4)",
            4, ClosedForm(
                (lambda ring, a=a: ring.from_int(a) ** ((ring.p - 1) // 2),),
                (QuotientPoly(fermat(a), 0, (1, Fraction(1, 2), Fraction(-1, 8), Fraction(1, 16))),),
                sign=partial(legendre, a),
            ), excluded_primes=frozenset({a} - {2}),
        )
    yield CongruenceCheck(
        "rv.squares",
        "sum_(k<=n) C(2k,k)^2/16^k = (-1)^n  (mod p^2)",
        2, ClosedForm(
            (lambda ring, u=Fraction(1, 16): _dot(ring, central_binomials(ring), binomial_column(u, ring)),),
            (PrimePower.one,), sign=_sign_minus,
        ),
    )
    yield CongruenceCheck(
        "S5.conbin",
        "C(2k,k)/((-16)^k*C(n+k,2k+1)) = -2*[1 + p/(2k+1) + ... + p^4*(... + Hbar_k(4) + Hbar_k(2,2))]  (mod p^5)",
        5, _eval_binomial_ratio_expansion,
    )


def _identity_checks() -> Iterator[IdentityCheck]:
    yield IdentityCheck(
        "L25.exact",
        "Hbar_n(r) = H_(2n)(r) - H_n(r)/2^r",
        tuple((("n", n), ("r", r)) for n in range(1, 41) for r in range(1, 6)),
        _ident_odd_vs_even_depth1,
    )
    yield IdentityCheck(
        "L26.wz1",
        "sum (-16)^k*C(n+k,2k)/((2k+1)*C(2k,k)) = 2*(-1)^n*sum (-1)^k/(2k+1) + 1/(2n+1)",
        tuple((("n", n),) for n in range(0, 21)),
        _ident_wz_first,
    )
    yield IdentityCheck(
        "L26.wz2",
        "sum (-16)^k*C(n+k,2k)/((2k+1)^2*C(2k,k)) = 1/(2n+1)^2",
        tuple((("n", n),) for n in range(0, 21)),
        _ident_wz_second,
    )
    yield IdentityCheck(
        "CCC.forms",
        "(-16)^k*C(n+k,2k)/C(2k,k) = prod (1-(2n+1)^2/(2j+1)^2) = sum (-1)^j*(2n+1)^(2j)*Hbar_k(2,...,2)",
        tuple((("n", n), ("k", k)) for n in range(0, 13) for k in range(0, n + 1)),
        _ident_product_mhs_forms,
    )
    yield IdentityCheck(
        "A.exact",
        "[w_n(1-8t) - (-16t)^n]/(2n+1) = sum_k C(2k,k)t^k/(2k+1) * sum_j (-1)^j*(2n+1)^(2j)*Hbar_k({2}^j)",
        tuple((("n", n),) for n in range(0, 13)),
        _ident_w_expansion_odd_weights,
    )
    yield IdentityCheck(
        "eq15.exact",
        "(-1)^n*w_n(8t-1) = sum_k C(2k,k)*prod_j(1-(2n+1)^2/(2j-1)^2)*t^k",
        tuple((("n", n),) for n in range(0, 13)),
        _ident_w_hypergeometric,
    )
    yield IdentityCheck(
        "P33.intu",
        "int_0^t w_n(1-x^2/2) dx = 2*sum (-1)^k*v_(2k+1)(t)/(2k+1) + (-1)^n*v_(2n+1)(t)/(2n+1)",
        tuple((("n", n),) for n in range(0, 16)),
        _ident_integral_w_odd,
    )
    yield IdentityCheck(
        "P33.intu1",
        "int_0^t [(-1)^n*w_n(x^2/2-1) - 1]/x dx = sum (-1)^k*v_(2k)(t)/(2k) - H_n(1)",
        tuple((("n", n),) for n in range(0, 16)),
        _ident_integral_w_even,
    )
    yield IdentityCheck(
        "eq08b.exact",
        "w_n(x) = u_(n+1)(2x) + u_n(2x)",
        tuple((("n", n),) for n in range(0, 31)),
        _ident_w_from_u,
    )
    yield IdentityCheck(
        "S5.idodd",
        "sum C(2k,k)/16^k*[...] = sum (-1)^k/(2k+1)^r + (-1)^((r-1)/2)/4 * sum C(2k,k)*(-1)^(n-k)*Hbar_k({2}^h)/(16^k*C(n+k,2k+1)*(2k+1))",
        tuple((("n", n), ("r", r)) for n in range(1, 13) for r in (1, 3, 5)),
        _ident_apery_like,
    )
    yield IdentityCheck(
        "S5.ideven",
        "sum C(2k,k)/(-16)^k*[...] = sum 1/(2k+1)^r + (-1)^(r/2-1)/4 * sum C(2k,k)*Hbar_k({2}^h)/((-16)^k*C(n+k,2k+1)*(2k+1)^2)",
        tuple((("n", n), ("r", r)) for n in range(1, 13) for r in (2, 4, 6)),
        _ident_apery_like,
    )
    yield IdentityCheck(
        "T43.w1w2",
        "phi+*w_n(phi-/2) -+ phi-*w_n(phi+/2) = (-1)^n*(p|5)*sqrt(5), (-1)^n",
        tuple((("p", p),) for p in primes_in_range(7, 100)),
        _ident_w_golden_pair,
    )
    yield IdentityCheck(
        "eq12.eq13",
        "w_n(0) = (-1)^n*(2|p); w_n(-1/2) = (-1)^n*(3|p); w_n(1/2) = (-1)^n; w_n(5/4) = 2^((p+1)/2) - 2^((1-p)/2)",
        tuple((("p", p),) for p in primes_in_range(5, 500)),
        _ident_w_special_values,
    )


@lru_cache(maxsize=1)
def builtin_checks() -> tuple:
    """All registered checks, congruence families first, in stable order."""
    return (*_congruence_checks(), *_identity_checks())


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
    """Checks whose id glob-matches (so also equals) or extends any given
    pattern."""
    pats = list(patterns)
    if not pats or "all" in pats:
        return list(builtin_checks())
    out = []
    for check in builtin_checks():
        for pat in pats:
            if fnmatchcase(check.id, pat) or check.id.startswith(pat + "."):
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


def _stated_at(check: CongruenceCheck, p: int) -> bool:
    """Whether the statement covers p; the prime cap only bounds a sweep."""
    return p >= check.min_prime and p not in check.excluded_primes


def run_congruence(check: CongruenceCheck, p: int, t: Fraction | None = None) -> CheckResult:
    """Evaluate one congruence instance in Z/p^target and grade the p-adic
    valuation of lhs - rhs.  Every power of p in the statement is the
    evaluator's own; the ring Z/p^target sets only the precision.

    A prime the statement does not cover, a missing t for a panel check and
    a t for a check without a panel each raise `PreconditionViolated`, and a
    side outside Z/p^target raises `MixedModuli`; each grades as an ERROR
    row, since no verdict would say anything about the statement.  A
    row whose sides are equal holds one string for both, and the rows of one
    panel value share one interned ``str(t)``.
    """
    target = check.target_exponent

    def evaluate():
        if not _stated_at(check, p):
            excluded = f", p not in {sorted(check.excluded_primes)}" if check.excluded_primes else ""
            raise PreconditionViolated(f"{check.id} is stated for p >= {check.min_prime}{excluded}, not p = {p}")
        if (t is None) == check.uses_t_panel:
            stated = "at each panel value t" if check.uses_t_panel else "without a t"
            raise PreconditionViolated(f"{check.id} is stated {stated}, not t = {t}")
        ring = prime_power(p, target)
        lhs, rhs = check.evaluator(ring, t)
        for side in (lhs, rhs):
            if side.ring is not ring:
                raise MixedModuli(f"a side is in {side.ring!r}, not in {ring!r}")
        text = str(lhs)
        return (lhs - rhs).valuation(), text, text if lhs.value == rhs.value else str(rhs)

    return _graded(check.id, p, sys.intern(str(t)) if t is not None else None, target, evaluate)


def run_identity(check: IdentityCheck, params: dict) -> CheckResult:
    """Evaluate one identity instance; equality grades as infinite valuation."""

    def evaluate():
        lhs, rhs = check.evaluator(**params)
        return (inf if lhs == rhs else 0), _render_exact(lhs), _render_exact(rhs)

    return _graded(check.id, params.get("p"), _render_params(params), inf, evaluate)


@lru_cache(maxsize=None)
def _walk_groups(check_ids: tuple) -> dict:
    """The walk plan of a unit that runs these checks: (k, half, odd) -> the
    frozenset of the compositions that the `Harmonic` terms of their
    `ClosedForm`s sum in Z/p^k (see `harmonic._plan_walks`).  It holds
    compositions and ring exponents only, never a term, so no unit hashes a
    coefficient."""
    groups: dict = {}
    for cid in check_ids:
        check = _registry()[cid]
        if isinstance(check.evaluator, ClosedForm):
            for h in check.evaluator.lhs + check.evaluator.terms:
                if isinstance(h, Harmonic):
                    # The term sums in Z/p^max(k-e, 1), as `Harmonic` says.
                    k = max(check.target_exponent - h.e, 1)
                    groups.setdefault((k, h.half, h.odd), set()).add(h.comp)
    return {key: frozenset(comps) for key, comps in groups.items()}


def _run_unit(unit) -> list[CheckResult]:
    """The rows of one unit, in its order: at one prime p, the checks ``ids``
    in turn, each panel check over the whole of the panel values ``ts``; or
    the cases of one identity, in case order.

    Every table built for the unit, its harmonic walk plan included, lives
    as long as its `modring.unit_scope`, also in a pool worker: one prime's
    at a time.  A prime unit plans the harmonic sums of its checks by the
    groups `_walk_groups` derives once per distinct set of checks.
    """
    with modring.unit_scope():
        if unit[0] == "i":
            check = _registry()[unit[1]]
            return [run_identity(check, dict(case)) for case in check.cases]
        _, p, ids, ts = unit
        harmonic._plan_walks(p, _walk_groups(ids))
        checks = map(_registry().get, ids)
        return [run_congruence(c, p, t) for c in checks for t in (ts if c.uses_t_panel else (None,))]


def _repeated_value(values: tuple) -> object | None:
    """The first of ``values`` equal to an earlier one, or None."""
    return next((v for i, v in enumerate(values) if v in values[:i]), None)


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
    prime (all congruence checks at that prime), so the kernel tables of a
    prime are built once and read by all its checks, for one unit only:
    `_run_unit` opens a `modring.unit_scope`; a kernel called outside one
    opens its own and keeps nothing.  The identity units go first, since the
    largest of them outlasts any prime unit, then the primes in ascending
    order.  A pool of min(jobs, units, CPUs) worker processes runs them;
    with one unit or ``jobs=1`` they run in this process and
    ``concurrent.futures.process`` (with multiprocessing and pickle) is never
    imported.  A prime unit carries the ids of its checks and its panel
    values, as ``Fraction`` objects, and runs check by check in registry
    order, each panel check over the whole panel before the next check.
    Rows come back as `CheckResult` named tuples and are the only state
    kept across units but for the rings and each check set's walk groups.
    They are bucketed by check id as they arrive, and each bucket is sorted
    by (prime, t), so the results come out in (check id, prime, t) order
    regardless of job count, making reports byte-identical across schedules.
    A panel that repeats a value raises `PreconditionViolated`, the rule that
    the CLI's ``--t-panel`` applies.
    """
    started = time.perf_counter()
    selected = select_checks(patterns)
    congruences = [c for c in selected if c.kind == "congruence" and "congruence" in kinds]
    identities = [c for c in selected if c.kind == "identity" and "identity" in kinds]

    units: list[tuple] = [("i", c.id) for c in identities]
    # Evaluators take t as a Fraction; an int panel value would stay an int.
    t_panel = tuple(map(Fraction, t_panel))
    repeated = _repeated_value(t_panel)
    if repeated is not None:
        raise PreconditionViolated(f"t panel repeats the value {repeated}")
    for p in primes_in_range(prime_lo, prime_hi):
        ts = [t for t in t_panel if t.numerator % p and t.denominator % p]
        ids = tuple(c.id for c in congruences if _stated_at(c, p) and (ts or not c.uses_t_panel)
                    and (no_cap or c.prime_cap is None or p <= c.prime_cap))
        if ids:
            units.append(("c", p, ids, ts))

    buckets: dict[str, list[CheckResult]] = {}
    # The pool starts all its workers at once, so start no idle ones, and no
    # more than the machine has CPUs.
    workers = min(jobs, len(units), os.cpu_count() or 1)
    pool = None
    if workers > 1:
        # Imported only here: the pool machinery (multiprocessing, pickle,
        # socket, subprocess, logging) would add about a fifth to the
        # start-up of every serial run.
        from concurrent.futures import ProcessPoolExecutor

        pool = ProcessPoolExecutor(max_workers=workers)
    mapper = map if pool is None else pool.map
    try:
        # _run_unit is looked up at call time so that profilers can replace it.
        for batch in mapper(_run_unit, units):
            for row in batch:
                buckets.setdefault(row.check_id, []).append(row)
            if fail_fast and any(not r.passed for r in batch):
                break
    finally:
        if pool is not None:
            # Drop the units not yet started; pool.map submitted them all.
            pool.shutdown(cancel_futures=True)

    for bucket in buckets.values():
        bucket.sort(key=CheckResult.sort_key)
    results = tuple(chain.from_iterable(buckets[cid] for cid in sorted(buckets)))
    return Report(results=results, wall_seconds=time.perf_counter() - started)
