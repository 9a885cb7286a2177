"""Tests for the check catalog, runners, and report plumbing."""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import math
import pickle
import pkgutil
import subprocess
import sys
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

import congrlab
import congrlab.catalog as catalog
from congrlab import binomsums, harmonic, modring, sequences, specialnum
from congrlab.catalog import (
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
from congrlab.errors import MixedModuli, PreconditionViolated
from congrlab.modring import PrimePower, Residue, prime_power, primes_in_range, unit_scope
from oracles import harmonic_over_q, records


class TestRegistry:
    def test_census(self):
        checks = builtin_checks()
        assert len(checks) == 126
        assert sum(1 for c in checks if c.kind == "congruence") == 113
        assert sum(1 for c in checks if c.kind == "identity") == 13

    def test_ids_unique(self):
        ids = [c.id for c in builtin_checks()]
        assert len(ids) == len(set(ids))

    def test_expected_families_present(self):
        ids = {c.id for c in builtin_checks()}
        for want in (
            "i.odd.r1",
            "ii.r2s3",
            "iii.r1s1t1",
            "iv.h1",
            "v.h12",
            "vi.1",
            "L21.C1.r2a2",
            "T22.zero",
            "C23.a",
            "L26.alts",
            "C27.morley",
            "T32.first",
            "T34.second",
            "C41.a",
            "C42.b",
            "T43.F",
            "C45.b",
            "TM.mc1",
            "TM.mc2",
            "C52.weighted",
            "eq11.a2",
            "rv.squares",
            "S5.conbin",
            "L25.exact",
            "CCC.forms",
            "eq12.eq13",
            "T43.w1w2",
        ):
            assert want in ids, want

    def test_every_check_has_description_and_statement(self):
        for c in builtin_checks():
            assert c.description and c.statement, c.id
            if c.kind == "congruence":
                assert 1 <= c.target_exponent <= 8, c.id
            else:
                assert c.cases, c.id

    def test_hand_written_evaluators_census(self):
        # Every congruence but S5.conbin is a `ClosedForm` whose terms state
        # their powers of p in the registry: a panel check builds one per t
        # through `PerT`, and every other check holds one.  A hand-written
        # evaluator, a panel check among them, has to join this census on
        # purpose.
        built_by: dict[type, set] = {}
        for c in builtin_checks():
            if c.kind == "congruence":
                built_by.setdefault(type(c.evaluator), set()).add(c.id)
        panel = {"L31.A2", "L31.A3", "T32.first", "T32.second", "T34.first", "T34.second"}
        assert built_by.pop(catalog.PerT) == panel
        assert all(isinstance(lookup(cid).evaluator.build(Fraction(1, 4)), catalog.ClosedForm) for cid in panel)
        assert len(built_by.pop(catalog.ClosedForm)) == 113 - 1 - len(panel)
        assert list(built_by.values()) == [{"S5.conbin"}]

    def test_statement_names_the_target_modulus(self):
        for c in builtin_checks():
            if c.kind == "congruence":
                modulus = "p" if c.target_exponent == 1 else f"p^{c.target_exponent}"
                assert c.statement.endswith(f"(mod {modulus})"), c.id

    def test_metadata_pins(self):
        assert lookup("C42.a").prime_cap == 600
        assert lookup("C42.b").prime_cap == 600
        assert lookup("T43.F").excluded_primes == frozenset({5})
        assert lookup("T43.L").excluded_primes == frozenset({5})
        assert lookup("C23.a").min_prime == 7
        assert lookup("T32.first").uses_t_panel
        assert not lookup("TM.mc1").uses_t_panel
        assert lookup("TM.mc1").target_exponent == 5
        assert lookup("C27.morley").target_exponent == 6

    def test_lookup_exact_and_missing(self):
        assert lookup("v.h12").id == "v.h12"
        with pytest.raises(KeyError):
            lookup("v")
        with pytest.raises(KeyError):
            lookup("nosuchcheck")

    def test_select_semantics(self):
        assert len(select_checks(("all",))) == 126
        assert [c.id for c in select_checks(("v.h12",))] == ["v.h12"]
        assert len(select_checks(("ii",))) == 15  # family prefix
        assert {c.id for c in select_checks(("C4*",))} == {
            "C41.a",
            "C41.b",
            "C41.c",
            "C41.d",
            "C41.e",
            "C41.f",
            "C42.a",
            "C42.b",
            "C45.a",
            "C45.b",
        }
        assert select_checks(("nosuchcheck",)) == []
        # Union of patterns without duplicates.
        both = select_checks(("v.h12", "v.h12", "iv.h1"))
        assert sorted(c.id for c in both) == ["iv.h1", "v.h12"]

    def test_t_panel_contents(self):
        assert len(DEFAULT_T_PANEL) == 13
        for q in (Fraction(1, 4), Fraction(-1, 16), Fraction(1), Fraction(5, 3)):
            assert q in DEFAULT_T_PANEL


class TestRunCongruence:
    def test_pinned_passing_record(self):
        rec = run_congruence(lookup("TM.mc1"), 7).record()
        assert rec == {
            "check": "TM.mc1",
            "prime": 7,
            "t": None,
            "target": 5,
            "valuation": 5,
            "pass": True,
            "lhs": "10094",
            "rhs": "10094",
            "us": 0,
        }

    def test_panel_record(self):
        rec = run_congruence(lookup("T32.first"), 7, Fraction(-1)).record()
        assert rec["check"] == "T32.first"
        assert rec["t"] == "-1"
        assert rec["target"] == 3 and rec["valuation"] >= 3 and rec["pass"]
        assert rec["lhs"] == rec["rhs"]

    def test_failing_synthetic_check(self):
        bad = CongruenceCheck(
            id="synthetic.bad",
            description="always off by one",
            statement="1 = 2 mod p^3",
            target_exponent=3,
            evaluator=lambda ring, t: (ring.one(), ring.from_int(2)),
        )
        res = run_congruence(bad, 7)
        assert not res.passed
        assert res.valuation == 0
        assert res.record()["lhs"] == "1" and res.record()["rhs"] == "2"

    def test_error_record(self):
        res = run_congruence(lookup("T32.first"), 7, Fraction(1, 7))
        assert not res.passed
        assert res.error is not None and "DenominatorDivisibleByP" in res.error
        rec = res.record()
        assert rec["pass"] is False and rec["lhs"].startswith("ERROR:")

    @pytest.mark.parametrize("check_id,t,stated", [
        ("L31.A2", None, "L31.A2 is stated at each panel value t, not t = None"),
        ("C41.a", Fraction(1, 4), "C41.a is stated without a t, not t = 1/4"),
    ])
    def test_a_t_that_does_not_fit_the_check_is_an_error(self, check_id, t, stated):
        # A panel check needs its t, and a check without a panel reads none:
        # L31.A2 without a t raised a TypeError, and C41.a at t = 1/4 graded
        # PASS for a t it never read.
        res = run_congruence(lookup(check_id), 7, t)
        assert not res.passed and res.valuation == 0
        assert res.error == f"PreconditionViolated: {stated}"
        assert res.lhs == f"ERROR: {res.error}" and res.rhs == ""

    def test_non_library_exception_becomes_error_record(self):
        # An evaluator that divides by zero outside the error taxonomy.
        def evaluator(ring, t):
            return ring.one(), ring.from_int(1 // 0)

        crash = CongruenceCheck(
            id="synthetic.crash",
            description="an rhs that divides by zero",
            statement="1 = 1/0 mod p",
            target_exponent=1,
            evaluator=evaluator,
        )
        res = run_congruence(crash, 7)
        assert not res.passed and res.valuation == 0
        assert res.error is not None and res.error.startswith("ZeroDivisionError")
        assert res.lhs == f"ERROR: {res.error}" and res.rhs == ""
        assert Report(results=(res,)).exit_code == 2

    @pytest.mark.parametrize("check_id", [
        "L31.A2", "L31.A3", "T32.first", "T32.second", "T34.first", "T34.second",
    ])
    @pytest.mark.parametrize("t", [Fraction(0), Fraction(7), Fraction(14, 3), Fraction(1, 7)])
    def test_a_t_divisible_by_p_is_a_library_error(self, check_id, t):
        # Each panel form embeds t in Z/7^k and, but for T34.second, inverts
        # it there, so p | t raises from the ring, not as a bare
        # ZeroDivisionError or ValueError; T34.second holds at t = 0, 7, 14/3.
        res = run_congruence(lookup(check_id), 7, t)
        if check_id == "T34.second" and t.denominator % 7:
            assert res.passed and res.error is None
        else:
            assert not res.passed and res.error.startswith(("NotAUnit", "DenominatorDivisibleByP")), res

    def test_lhs_rhs_reduced_to_target(self):
        # Each evaluator works in Z/p^target, so the sides print as residues
        # mod p^target.
        res = run_congruence(lookup("C41.a"), 5)
        assert int(res.lhs) == 22 and int(res.rhs) == 22  # mod 5^3

    @pytest.mark.parametrize(
        "check_id,p",
        [
            ("L21.C2.r2s1", 3), ("L21.C2.r4s1", 5), ("L21.C2.r6s1", 7), ("L31.A2", 3),
            ("T32.first", 3), ("C41.a", 3), ("C41.c", 3), ("T43.L", 5), ("C52.weighted", 5),
            ("T43.F", 5),
        ],
    )
    def test_prime_outside_the_statement_is_an_error(self, check_id, p):
        # Below min_prime or at an excluded prime the statement says nothing,
        # so the row is an error, not a verdict: the first nine of these
        # graded FAIL and T43.F at 5 graded PASS.
        check = lookup(check_id)
        res = run_congruence(check, p, _panel_t(check))
        assert not res.passed and res.valuation == 0
        assert res.error is not None and res.error.startswith("PreconditionViolated")
        assert res.lhs == f"ERROR: {res.error}" and res.rhs == ""
        assert Report(results=(res,)).exit_code == 2

    def test_side_outside_the_target_ring_is_an_error(self):
        # Both sides in Z/7^3 for a target of 2: 1 and 50 agree mod 7^2, so
        # reduced to the target they would grade PASS and print 1 and 1.
        def evaluator(ring, t):
            above = prime_power(ring.p, ring.k + 1)
            return above.one(), above.from_int(50)

        off = CongruenceCheck(
            id="synthetic.above",
            description="both sides one exponent above the target",
            statement="1 = 50 mod p^2",
            target_exponent=2,
            evaluator=evaluator,
        )
        res = run_congruence(off, 7)
        assert not res.passed and res.valuation == 0
        assert res.error is not None and res.error.startswith("MixedModuli")
        assert res.lhs == f"ERROR: {res.error}" and res.rhs == ""
        assert Report(results=(res,)).exit_code == 2


def _shifted(original, shift, kind=None):
    """``original`` with ``shift`` added to the representative it returns;
    with a ``kind``, only on the calls whose first argument is that kind."""

    def supply(*args):
        value = original(*args)
        if kind is not None and args[0] != kind:
            return value
        return Residue(value.value + shift, value.ring)

    return supply


#: The cases that patch one series of ``catalog._uv_term``: the name of the
#: case and the kind of the series.
SERIES_TERMS = {"_v_term": "v", "_u_term": "u"}


def _patch_target(helper):
    """The name in ``catalog`` that the case ``helper`` patches, and the kind
    its calls must have (None: every call)."""
    if helper in SERIES_TERMS:
        return "_uv_term", SERIES_TERMS[helper]
    return helper, None


def _panel_t(check):
    return Fraction(1, 4) if check.uses_t_panel else None


#: Every congruence check that reads ``catalog.bernoulli_number``.
BERNOULLI_READERS = [
    c.id
    for c in builtin_checks()
    if c.id.startswith(
        ("i.", "ii.", "iii.", "v.h12", "vi.", "L21.C2.", "C23.", "C27.", "C41.", "C45.a", "TM.")
    )
]

#: The depth-3 checks with r = u: the coefficient of their Bernoulli value is
#: 0, so no shift of that value changes them.
ZERO_COEFFICIENT = {
    "iii.r1s1t1", "iii.r1s3t1", "iii.r2s1t2", "iii.r1s5t1", "iii.r2s3t2", "iii.r3s1t3",
}


class TestLiftInvariance:
    """A mod-p special value enters its check only through a factor p^e large
    enough that any lift of it, value + p*r, grades the same."""

    @pytest.mark.parametrize(
        "check_id,helper",
        [
            ("C42.a", "bernoulli_third"), ("C42.b", "bernoulli_third"), ("C45.b", "euler_number"),
            ("T32.first", "_v_term"), ("T32.second", "_u_term"),
            ("L31.A2", "_v_term"), ("L31.A3", "_u_term"),
        ],
    )
    @pytest.mark.parametrize("p", [7, 11, 13, 101])
    def test_lift_of_the_special_value_keeps_the_result(self, check_id, helper, p, monkeypatch):
        # The u/v-series sums of L31 and T32 are read at t = 1/4.
        check = lookup(check_id)
        t = _panel_t(check)
        term = catalog._mod_p_term
        received = []

        def spy(ring, coeff, e, x):
            received.append(x.value)
            return term(ring, coeff, e, x)

        monkeypatch.setattr(catalog, "_mod_p_term", spy)
        want = run_congruence(check, p, t)
        assert want.passed
        (value,) = received
        name, kind = _patch_target(helper)
        original = getattr(catalog, name)
        for r in (1, 2, p + 3, -1):
            received.clear()
            monkeypatch.setattr(catalog, name, _shifted(original, p * r, kind))
            assert run_congruence(check, p, t) == want, r
            # The lift reaches the factor p^e as the helper gave it: no sign
            # or other factor mod p reduces it on the way.
            assert received == [value + p * r], r
        # A shift that is not a multiple of p changes the verdict, so the
        # patched helper is the one the check reads.
        monkeypatch.setattr(catalog, name, _shifted(original, 1, kind))
        assert not run_congruence(check, p, t).passed

    def test_bernoulli_readers_census(self, monkeypatch):
        # Every check that reads the Bernoulli value is in BERNOULLI_READERS.
        original = catalog.bernoulli_number
        readers = set()
        for check in builtin_checks():
            if check.kind != "congruence":
                continue

            def record(*args, _id=check.id):
                readers.add(_id)
                return original(*args)

            monkeypatch.setattr(catalog, "bernoulli_number", record)
            run_congruence(check, 101, _panel_t(check))
        assert readers == set(BERNOULLI_READERS)
        assert len(BERNOULLI_READERS) == 75 and ZERO_COEFFICIENT < readers

    @pytest.mark.parametrize("check_id", BERNOULLI_READERS)
    def test_lift_of_the_bernoulli_value_keeps_the_result(self, check_id, monkeypatch):
        check = lookup(check_id)
        t = _panel_t(check)
        original = catalog.bernoulli_number
        flipped = []
        for p in (7, 11, 13, 101):
            if p < check.min_prime or p in check.excluded_primes:
                continue
            monkeypatch.setattr(catalog, "bernoulli_number", original)
            want = run_congruence(check, p, t)
            assert want.passed, p
            for r in (1, 2, p + 3, -1):
                monkeypatch.setattr(catalog, "bernoulli_number", _shifted(original, p * r))
                assert run_congruence(check, p, t) == want, (p, r)
            monkeypatch.setattr(catalog, "bernoulli_number", _shifted(original, 1))
            flipped.append(not run_congruence(check, p, t).passed)
        # A shift by 1 changes the verdict at some tested prime unless the
        # Bernoulli coefficient is 0.  It need not flip at every prime: the
        # coefficient can vanish mod p (vi.1's 7/12 at p = 7).
        assert any(flipped) == (check_id not in ZERO_COEFFICIENT)


def test_t34_takes_its_v_sum_one_power_lower(monkeypatch):
    # T34.first multiplies its v-series sum by 2p, so _v_p_term takes the sum
    # in Z/p^(k-1): the rows equal those with the sum in the full ring Z/p^k,
    # and a sum taken in Z/p^(k-2) changes some row.
    original = catalog.alternating_v_sum

    def rows(shift):
        def at(t, odd, ring):
            return original(t, odd, prime_power(ring.p, ring.k + shift))

        monkeypatch.setattr(catalog, "alternating_v_sum", at)
        return records(run_suite(7, 200, patterns=("T34.first",), kinds=("congruence",)))

    want = rows(0)
    assert len(want) == 43 * len(DEFAULT_T_PANEL) and all(r["pass"] for r in want)  # 43 primes
    assert rows(1) == want
    assert rows(-1) != want


#: Each helper that the panel checks' forms call, with the checks that call
#: it; ``_v_term`` and ``_u_term`` are the calls of ``_uv_term`` for one series.
PANEL_HELPERS = {
    "_v_term": {"L31.A2", "T32.first"},
    "_u_term": {"L31.A3", "T32.second"},
    "_mod_p_term": {"L31.A2", "L31.A3", "T32.first", "T32.second", "T34.first"},
    "w_value_mod": {"T32.first", "T32.second"},
    "_v_p_term": {"T34.first"},
    "alternating_v_sum": {"T34.first", "T34.second"},
}


@pytest.mark.parametrize("helper", list(PANEL_HELPERS))
def test_a_kept_panel_form_reads_its_helpers_at_call_time(helper, monkeypatch):
    # A panel form looks up each helper in ``catalog`` when it runs, so a
    # patched helper is called by exactly the panel checks that use it.
    panel = [c for c in builtin_checks() if c.kind == "congruence" and c.uses_t_panel]
    t, p = Fraction(1, 4), 101
    name, kind = _patch_target(helper)
    original = getattr(catalog, name)
    callers = []

    def spy(*args):
        if kind is None or args[0] == kind:
            callers.append(current)
        return original(*args)

    monkeypatch.setattr(catalog, name, spy)
    for check in panel:
        current = check.id
        assert run_congruence(check, p, t).passed
    assert set(callers) == PANEL_HELPERS[helper]


#: The helpers that the tests patch in ``catalog``.  A term looks each one up
#: at call time; a form that held one of these objects would freeze it.
PATCHED_HELPERS = (
    "_mod_p_term", "bernoulli_number", "bernoulli_third", "euler_number", "_uv_term",
    "binomial_column", "w_value_mod", "_v_p_term", "alternating_v_sum",
)


def _held(value, helpers) -> list:
    """The objects among ``helpers`` that ``value`` holds: a form or term
    and, recursively, its fields (a panel check's form at t = 1/4), the items
    of its tuples and the function and arguments of a ``partial``."""
    if isinstance(value, catalog.PerT):
        value = value.build(Fraction(1, 4))
    if isinstance(value, functools.partial):
        value = (value.func, *value.args)
    if isinstance(value, tuple):
        return [h for item in value for h in _held(item, helpers)]
    return [h for h in helpers if value is h]


def test_no_form_holds_a_patched_helper():
    helpers = [getattr(catalog, name) for name in PATCHED_HELPERS]
    evaluators = [c.evaluator for c in builtin_checks() if c.kind == "congruence"]
    assert _held(evaluators, helpers) == []
    # The walk finds a helper stored under an OverP and behind a partial.
    planted = catalog.ClosedForm((), (catalog.OverP(1, catalog.ModP(1, 2, catalog.bernoulli_third)),),
                                 sign=functools.partial(catalog.euler_number, 2))
    assert _held(planted, helpers) == [catalog.bernoulli_third, catalog.euler_number]


def _conbin_sides_over_q(p: int, k: int) -> tuple[Fraction, Fraction]:
    """Both sides of S5.conbin at index k, exactly over Q."""
    n, o = (p - 1) // 2, Fraction(1, 2 * k + 1)
    h2, h4, h22 = (harmonic.odd_mhs(k, comp) for comp in ((2,), (4,), (2, 2)))
    lhs = Fraction(math.comb(2 * k, k), (-16) ** k * math.comb(n + k, 2 * k + 1))
    rhs = -2 * (
        1 + p * o + p**2 * (o**2 + h2) + p**3 * (o**3 + h2 * o)
        + p**4 * (o**4 + h2 * o**2 + h4 + h22)
    )
    return lhs, rhs


class TestBinomialRatioExpansion:
    """S5.conbin grades the sides at the first index k < n where they differ,
    or at k = n-1 when they agree at every k."""

    PRIMES = [p for p in range(7, 62) if all(p % d for d in range(2, p))]

    @pytest.mark.parametrize("p", PRIMES)
    def test_every_index_against_exact_sides(self, p):
        ring = prime_power(p, 5)
        n = (p - 1) // 2
        sides = [tuple(map(ring.from_fraction, _conbin_sides_over_q(p, k))) for k in range(n)]
        assert all(lhs == rhs for lhs, rhs in sides)
        assert lookup("S5.conbin").evaluator(ring, None) == sides[-1]

    @pytest.mark.parametrize("p", PRIMES)
    def test_first_mismatch_is_reported(self, p, monkeypatch):
        ring = prime_power(p, 5)
        n = (p - 1) // 2
        k = n // 2  # an interior index: 0 < k < n-1 for p >= 7
        original = catalog.binomial_column

        def column(t, column_ring):
            assert t == Fraction(-1, 16)
            out = list(original(t, column_ring))
            out[k] += 1
            return tuple(out)

        monkeypatch.setattr(catalog, "binomial_column", column)
        lhs, rhs = lookup("S5.conbin").evaluator(ring, None)
        want_lhs, want_rhs = map(ring.from_fraction, _conbin_sides_over_q(p, k))
        # the entry k of C(2k,k)/(-16)^k grew by 1, so lhs_k by 1/C(n+k,2k+1)
        assert rhs == want_rhs
        assert lhs == want_lhs + ring.from_fraction(Fraction(1, math.comb(n + k, 2 * k + 1)))
        res = run_congruence(lookup("S5.conbin"), p)
        assert not res.passed and res.error is None and res.valuation < 5
        assert (res.lhs, res.rhs) == (str(lhs), str(rhs))


class TestClosedForm:
    """The shared closed-form evaluator, sign * (sum of its terms), and its term
    types, each against its formula over Q reduced mod p^k: every term states
    its own power of p, so k sets only the precision."""

    COEFFS = [
        (), (1,), (0, Fraction(-1, 8)), (2, 0, Fraction(2, 3)),
        (1, Fraction(1, 2), 0, Fraction(1, 16)),
    ]
    Q, H, C, X, Y = 123457, Fraction(-9, 2), Fraction(-1, 16), 5, Fraction(123457, 3)
    #: (comp, e, half, odd) of the `_harmonic` rows: every composition at
    #: e = 0..2 over the half range, plain and odd, and the full range, plain;
    #: e < 0 only where p^-e divides the full sum (p >= 5).
    HARMONIC = [
        (comp, e, half, odd)
        for comp in ((1,), (2,), (1, 2))
        for half, odd in ((True, False), (True, True), (False, False))
        for e in range(3)
    ] + [((1,), -2, False, False), ((1,), -1, False, False), ((2,), -1, False, False)]

    @pytest.mark.parametrize("p", [7, 11, 101])
    def test_rhs_against_the_formula_over_q(self, p):
        quotient = lambda qp, qk: prime_power(qp, qk).from_int(self.Q)
        value = lambda xp: prime_power(xp, 1).from_int(self.X)
        terms = [
            (f"q^{s}*P{c}", catalog.QuotientPoly(quotient, s, c),
             sum((a * self.Q ** (j + s) * p**j for j, a in enumerate(c)), Fraction(0)))
            for s in range(3) for c in self.COEFFS
        ]
        terms += [
            (f"p^{e}*{'Hbar' if odd else 'H'}_{'half' if half else 'full'}{comp}",
             catalog.Harmonic(self.H, e, comp, half, odd),
             self.H * Fraction(p) ** e * harmonic_over_q((p - 1) // 2 if half else p - 1, comp, odd))
            for comp, e, half, odd in self.HARMONIC
        ]
        terms += [
            (f"p^{e}*X", catalog.ModP(self.C, e, value), self.C * p**e * self.X) for e in range(5)
        ]
        # p^j * Y computed in Z/p^(k+j) and divided by p^j is Y mod p^k.
        terms += [
            (f"p^{j}*Y/p^{j}", catalog.OverP(j, lambda r, j=j: r.from_fraction(self.Y * r.p**j)), self.Y)
            for j in (1, 2)
        ]
        terms.append(("one", PrimePower.one, Fraction(1)))
        for k, sign in itertools.product(range(2, 6), (1, -1)):
            ring = prime_power(p, k)
            # With no terms the rhs is ring.zero().
            for chosen in [[]] + [[term] for term in terms] + [terms]:
                ev = catalog.ClosedForm(
                    (lambda r: r.from_int(17),), tuple(f for _, f, _ in chosen),
                    sign=None if sign == 1 else lambda xp: sign,
                )
                want = ring.from_fraction(sign * sum((w for _, _, w in chosen), Fraction(0)))
                assert ev(ring, None) == (ring.from_int(17), want), (
                    k, sign, [name for name, _, _ in chosen],
                )

    def test_a_term_in_another_ring_is_rejected(self):
        # The rhs adds the terms' representatives as integers, so it checks
        # their rings itself: a representative mod 7^4 read as one mod 7^3
        # would pass unnoticed.
        ring = prime_power(7, 3)
        for other in (prime_power(7, 4), prime_power(11, 3)):
            term = lambda r, other=other: other.from_int(400)
            with pytest.raises(MixedModuli):
                catalog.ClosedForm((PrimePower.one,), (term,))(ring, None)
            with pytest.raises(MixedModuli):
                catalog.ClosedForm((term,), ())(ring, None)
        # A ring equal to the sweep's but built apart is the same ring.
        term = lambda r: PrimePower(7, 3).from_int(400)
        assert catalog.ClosedForm((PrimePower.one,), (term,))(ring, None) == (ring.one(), ring.from_int(400))
        assert catalog.ClosedForm((term, term), ())(ring, None) == (ring.from_int(800), ring.zero())


class TestRunIdentity:
    def test_passing_case(self):
        chk = lookup("L25.exact")
        res = run_identity(chk, dict(chk.cases[0]))
        rec = res.record()
        assert rec["target"] == "inf" and rec["valuation"] == "inf"
        assert rec["pass"] is True
        assert rec["prime"] is None
        assert rec["t"] == "n=1,r=1"

    def test_prime_parameterized_case(self):
        chk = lookup("eq12.eq13")
        res = run_identity(chk, {"p": 5})
        rec = res.record()
        assert rec["prime"] == 5 and rec["t"] == "p=5"
        assert rec["lhs"] == "(-1, -1, 1, 31/4)" == rec["rhs"]

    def test_failing_synthetic_identity(self):
        bad = IdentityCheck(
            id="synthetic.neq",
            description="never equal",
            statement="n = n + 1",
            cases=((("n", 3),),),
            evaluator=lambda params: (Fraction(params["n"]), Fraction(params["n"] + 1)),
        )
        res = run_identity(bad, {"n": 3})
        assert not res.passed
        rec = res.record()
        assert rec["target"] == "inf"  # identities demand exact equality
        assert rec["valuation"] == 0  # the nonzero difference has valuation zero
        assert rec["pass"] is False
        assert rec["lhs"] == "3" and rec["rhs"] == "4"


class TestRunSuite:
    def test_small_sweep_all_pass(self):
        rep = run_suite(prime_lo=7, prime_hi=30, jobs=1)
        passed, failed, errored = rep.counts()
        assert failed == errored == 0
        assert passed == len(rep.results) > 0
        assert rep.status == "pass" and rep.exit_code == 0

    def test_results_sorted(self):
        rep = run_suite(prime_lo=7, prime_hi=30, jobs=1)
        keys = [r.sort_key() for r in rep.results]
        assert keys == sorted(keys)

    def test_pattern_and_kind_filtering(self):
        rep = run_suite(prime_lo=7, prime_hi=50, patterns=("v.h12",), jobs=1)
        assert {r.check_id for r in rep.results} == {"v.h12"}
        rep_i = run_suite(patterns=("all",), kinds=("identity",), jobs=1)
        assert all(r.target == math.inf for r in rep_i.results)
        assert len(rep_i.results) == 609

    def test_min_prime_and_exclusions_respected(self):
        rep = run_suite(prime_lo=3, prime_hi=30, patterns=("T43.F", "C23.a"), jobs=1)
        t43 = sorted(r.prime for r in rep.results if r.check_id == "T43.F")
        c23 = sorted(r.prime for r in rep.results if r.check_id == "C23.a")
        assert t43 == [3, 7, 11, 13, 17, 19, 23, 29]  # p = 5 excluded
        assert c23 == [7, 11, 13, 17, 19, 23, 29]  # min prime 7

    def test_prime_cap(self):
        capped = run_suite(prime_lo=590, prime_hi=620, patterns=("C42.a",), jobs=1)
        assert sorted({r.prime for r in capped.results}) == [593, 599]
        full = run_suite(prime_lo=590, prime_hi=620, patterns=("C42.a",), jobs=1, no_cap=True)
        assert sorted({r.prime for r in full.results}) == [593, 599, 601, 607, 613, 617, 619]

    def test_panel_skips_bad_t(self):
        # At p = 3 the panel entries with 3 in a numerator or denominator drop out.
        rep = run_suite(prime_lo=3, prime_hi=3, patterns=("T34.first",), jobs=1)
        ts = {r.t for r in rep.results}
        assert "3" not in ts and "5/3" not in ts and "3/16" not in ts
        assert "1/4" in ts
        assert all(r.passed for r in rep.results)

    def test_deterministic_across_runs(self):
        rep1 = run_suite(prime_lo=7, prime_hi=60, patterns=("T32", "C41"), jobs=1)
        rep2 = run_suite(prime_lo=7, prime_hi=60, patterns=("T32", "C41"), jobs=1)
        assert [r.record() for r in rep1.results] == [r.record() for r in rep2.results]

    def test_panel_values_sharing_a_factor_with_p_are_skipped(self):
        # t = 1/7 is dropped at p = 7 but kept (and passing) at every other prime.
        rep = run_suite(
            prime_lo=7, prime_hi=60, patterns=("T32.first",), jobs=1, t_panel=(Fraction(1, 7),)
        )
        primes = sorted(r.prime for r in rep.results)
        assert 7 not in primes and primes[0] == 11
        assert rep.status == "pass"

    def test_a_prime_that_skips_every_panel_value_keeps_its_other_checks(self, monkeypatch):
        # At p = 7 the one panel value 1/7 drops out: the unit keeps iv.h1
        # and no panel check, and T32.first alone schedules no unit at all.
        units, run_unit = [], catalog._run_unit
        monkeypatch.setattr(catalog, "_run_unit", lambda unit: units.append(unit) or run_unit(unit))
        panel = (Fraction(1, 7),)
        mixed = run_suite(prime_lo=7, prime_hi=7, patterns=("T32.first", "iv.h1"), t_panel=panel)
        assert [(r.check_id, r.prime, r.t) for r in mixed.results] == [("iv.h1", 7, None)]
        assert mixed.status == "pass" and units == [("c", 7, ("iv.h1",), [])]
        units.clear()
        assert run_suite(prime_lo=7, prime_hi=7, patterns=("T32.first",), t_panel=panel).results == ()
        assert units == []

    def test_a_prime_unit_runs_its_checks_in_order_each_over_its_panel(self):
        # The raw batch, before run_suite sorts it: check by check in the
        # unit's order, each panel check over the whole of ts before the next.
        ts = (Fraction(1, 4), Fraction(-1, 16), Fraction(5, 3))
        batch = catalog._run_unit(("c", 101, ("v.h12", "T32.first", "ii.r1s1", "T34.first"), ts))
        panel = [str(t) for t in ts]
        want = [("v.h12", None)] + [("T32.first", t) for t in panel] + [("ii.r1s1", None)]
        want += [("T34.first", t) for t in panel]
        assert [(r.check_id, r.t) for r in batch] == want
        assert all(r.prime == 101 and r.passed for r in batch)

    def test_an_identity_unit_runs_its_cases_in_case_order(self):
        check = lookup("A.exact")
        batch = catalog._run_unit(("i", "A.exact"))
        assert len(batch) == len(check.cases) and all(r.passed for r in batch)
        assert [r.t for r in batch] == [catalog._render_params(dict(case)) for case in check.cases]

    def test_a_repeated_panel_value_is_rejected(self):
        # 2/2 is 1: the rows at t = 1 would be run and reported twice.
        with pytest.raises(PreconditionViolated, match="repeats the value 1$"):
            run_suite(11, 11, patterns=("L31.A2",), t_panel=(1, Fraction(2, 2), Fraction(1, 4)))

    def test_fail_fast_stops_early(self, monkeypatch):
        import congrlab.catalog as catalog

        bad = CongruenceCheck(
            id="synthetic.bad",
            description="always off",
            statement="0 = 1 mod p",
            target_exponent=1,
            evaluator=lambda ring, t: (ring.zero(), ring.one()),
        )
        monkeypatch.setattr(catalog, "builtin_checks", lambda: (bad,))
        catalog._registry.cache_clear()
        try:
            rep = catalog.run_suite(
                prime_lo=7, prime_hi=60, patterns=("all",), jobs=1, fail_fast=True
            )
            assert len(rep.results) == 1 and not rep.results[0].passed
            assert rep.status == "fail" and rep.exit_code == 1
            full = catalog.run_suite(prime_lo=7, prime_hi=60, patterns=("all",), jobs=1)
            assert len(full.results) == 14  # every prime in range, no early stop
        finally:
            catalog._registry.cache_clear()

    def test_fail_fast_cancels_queued_units_in_the_pool(self, monkeypatch, tmp_path):
        import congrlab.catalog as catalog

        def evaluator(ring, t):
            p = ring.p
            (tmp_path / str(p)).touch()  # marks the unit of prime p as started
            if p == 7:
                return ring.zero(), ring.one()
            time.sleep(0.2)
            return ring.zero(), ring.zero()

        bad = CongruenceCheck(
            id="synthetic.first",
            description="fails at the first prime only",
            statement="0 = 1 mod p at p = 7, 0 = 0 mod p above",
            target_exponent=1,
            evaluator=evaluator,
        )
        monkeypatch.setattr(catalog, "builtin_checks", lambda: (bad,))
        catalog._registry.cache_clear()
        try:
            rep = catalog.run_suite(prime_lo=7, prime_hi=60, jobs=2, fail_fast=True)
        finally:
            catalog._registry.cache_clear()
        assert [r.prime for r in rep.results] == [7] and rep.exit_code == 1
        started = {int(path.name) for path in tmp_path.iterdir()}
        # 14 primes are scheduled; only the few already handed to a worker run.
        assert 7 in started and len(started) <= 8
        assert not started & {47, 53, 59}

    def test_report_is_json_serializable(self):
        rep = run_suite(prime_lo=7, prime_hi=20, patterns=("v.h12", "L26.wz1"), jobs=1)
        blob = json.dumps(records(rep))
        assert json.loads(blob)[0]["check"]

    @pytest.mark.parametrize(
        "jobs,prime_hi,want",
        [(64, 7, []), (64, 13, [3]), (2, 13, [2]), (1, 13, [])],
    )
    def test_pool_size_is_capped_by_the_units(self, jobs, prime_hi, want, monkeypatch):
        # One unit per prime; a fake pool records its size and starts no process.
        monkeypatch.setattr("os.cpu_count", lambda: 256)
        assert self._pool_sizes(monkeypatch, jobs, prime_hi) == want

    @pytest.mark.parametrize("cpus,want", [(2, [2]), (1, []), (None, [])])
    def test_pool_size_is_capped_by_the_cpu_count(self, cpus, want, monkeypatch):
        # 64 jobs and three units, but the CPU count bounds the pool; an
        # unknown count runs the sweep in this process.
        monkeypatch.setattr("os.cpu_count", lambda: cpus)
        assert self._pool_sizes(monkeypatch, 64, 13) == want

    @staticmethod
    def _pool_sizes(monkeypatch, jobs, prime_hi) -> list:
        sizes = []

        class FakePool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            map = staticmethod(map)

            def shutdown(self, cancel_futures=False):
                pass

        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", FakePool)
        rep = run_suite(prime_lo=7, prime_hi=prime_hi, patterns=("v.h12",), jobs=jobs)
        assert [r.prime for r in rep.results] == [p for p in (7, 11, 13) if p <= prime_hi]
        return sizes

    def test_serial_run_never_loads_the_pool(self, child_env):
        # A child interpreter, since pytest itself may have loaded these.  The
        # check records are named tuples, so no package module, the CLI's
        # included, loads dataclasses (and with it inspect).
        modules = ("multiprocessing", "concurrent.futures.process", "dataclasses", "inspect")
        code = (
            "import sys, congrlab, congrlab.cli; "
            "assert congrlab.run_suite(prime_lo=7, prime_hi=7, jobs=1).status == 'pass'; "
            f"print([m for m in {modules!r} if m in sys.modules])"
        )
        proc = subprocess.run([sys.executable, "-c", code], env=child_env, capture_output=True,
                              text=True, timeout=60, check=True)
        assert proc.stdout.strip() == "[]"

    def test_rows_survive_pickling(self):
        # At --jobs N every row comes back from a worker through pickle.
        rows = list(run_suite(prime_lo=7, prime_hi=13, patterns=("v.h12", "T32.first", "eq15.exact"),
                              jobs=1).results)
        rows.append(CheckResult("x.err", 7, None, 3, 0, False, "ERROR: ValueError: x", "", "ValueError: x"))
        back = pickle.loads(pickle.dumps(rows))
        assert back == rows and all(type(row) is CheckResult for row in back)


#: The memo of each kernel whose tables live one unit, by the name its test
#: ids show, and how many tables one cold ``--checks '*'`` unit at p = 101
#: fills: as many as when each was an lru_cache with a bound.
UNIT_CACHES = {
    "inverse_table": (modring.inverse_table, 6),
    "central_binomials": (sequences.central_binomials, 6),
    "_powers": (harmonic._powers, 26),
    "binomial_column": (binomsums._column, 26),
    "weighted_sums": (binomsums._weighted_sums, 14),
    "_hbar_weights": (binomsums._hbar_weights, 2),
    "_u_sums": (binomsums._u_sums, 13),
    "_fermat_powers": (specialnum._fermat_powers, 1),
    "_mhs_mod": (harmonic._mhs_mod, 106),
    "_odd_mhs_mod": (harmonic._odd_mhs_mod, 14),
    "_group_sums": (harmonic._group_sums, 13),
    "bernoulli_powersum": (specialnum.bernoulli_powersum, 3),
    "_unit_plan": (harmonic._unit_plan, 1),
    "bernoulli_table": (specialnum.bernoulli_table, 0),
    "euler_numbers": (specialnum.euler_numbers, 0),
}


def _tables() -> dict:
    """The ``cache_info()`` of each unit table, by name."""
    return {name: memo.cache_info() for name, (memo, _) in UNIT_CACHES.items()}


@contextmanager
def _unit_ends():
    """The ``cache_info()`` of every unit table at the end of each unit opened
    meanwhile, by `_run_unit` or by a kernel called outside a unit, taken
    just before the unit empties it."""
    ends = []

    @contextmanager
    def recording():
        with unit_scope():
            yield
            ends.append(_tables())

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(modring, "unit_scope", recording)
        yield ends


@pytest.fixture(scope="module")
def one_prime_census():
    """The tables at the end of a cold ``--checks '*'`` unit at p = 101.  The
    identity units run first, and the census keeps the last unit's."""
    with _unit_ends() as ends:
        assert run_suite(prime_lo=101, prime_hi=101, patterns=("*",), jobs=1).status == "pass"
    return ends[-1]


@pytest.mark.parametrize("name", list(UNIT_CACHES))
def test_kernel_cache_bound_fits_one_prime(one_prime_census, name):
    # A sweep runs its primes in ascending order and never goes back to one,
    # so each table is bounded by its unit: it keeps every fill of the unit,
    # as many as pinned, and evicts none.
    info = one_prime_census[name]
    assert info.misses == UNIT_CACHES[name][1] and info.currsize == info.misses, info


def test_a_wide_panel_reuses_its_per_t_tables_within_a_unit():
    # With 40 panel values the per-t tables of one prime outnumber any small
    # bound; kept for the whole unit, the checks after the first read them.
    panel = [Fraction(a, 7) for a in range(1, 41)]
    with _unit_ends() as ends:
        report = run_suite(prime_lo=101, prime_hi=107, patterns=("L31.*", "T32.*", "T34.*"), t_panel=panel)
    assert report.status == "pass" and len({r.t for r in report.results}) == 40
    assert len(ends) == 3
    for end in ends:
        assert end["_u_sums"].hits and end["weighted_sums"].hits, end


def test_a_congruence_unit_hashes_no_fraction(monkeypatch):
    # Per-unit caches take t's residue, never a Fraction: a Fraction key pays
    # the pure-Python Fraction.__hash__ at every lookup, and two keys for one
    # value (a Fraction and its residue) build one table twice.
    calls = []
    fraction_hash = Fraction.__hash__

    def counting(self):
        calls.append(self)
        return fraction_hash(self)

    monkeypatch.setattr(Fraction, "__hash__", counting)
    report = run_suite(prime_lo=101, prime_hi=101, patterns=("*",), kinds=("congruence",))
    assert report.status == "pass" and calls == [], (
        f"{len(calls)} Fraction hashes in one congruence unit: per-unit caches take t's residue"
    )


def test_the_unit_caches_are_the_kernel_and_value_caches():
    assert set(modring._UNIT_TABLES) == {memo.cache_info.__self__ for memo, _ in UNIT_CACHES.values()}


def test_unit_caches_are_empty_after_a_sweep():
    report = run_suite(prime_lo=7, prime_hi=11, patterns=("*",), jobs=1, kinds=("congruence",))
    assert {r.prime for r in report.results} == {7, 11} and report.status == "pass"
    assert not any(info.currsize for info in _tables().values())
    # A library loop over primes, no unit open, keeps no table either.
    for p in primes_in_range(7, 60):
        ring = prime_power(p, 3)
        binomsums.s1(Fraction(1, 4), 1, ring)
        harmonic.mhs(p - 1, (1, 2), ring)
        specialnum.bernoulli_powersum(p - 3, p)
    specialnum.bernoulli_powersum(2, 10007)
    assert not any(info.currsize for info in _tables().values())


def test_a_kernel_called_outside_a_unit_runs_in_one_of_its_own(monkeypatch):
    # The kernels it calls share one inverse table and one power table per
    # exponent, and the unit empties every table when the call returns.  With
    # no unit plan the sum walks its one composition.
    ring = prime_power(101, 3)
    walks = _walk_spy(monkeypatch)
    with _unit_ends() as ends:
        got = harmonic.mhs(100, (1, 2, 3), ring)
    assert walks == [{(1, 2, 3)}]
    assert got == ring.from_fraction(harmonic.mhs(100, (1, 2, 3)))
    (end,) = ends
    assert end["inverse_table"].misses == 1 and end["_powers"].misses == 3, end
    assert not any(info.currsize for info in _tables().values())


def test_a_nested_scope_keeps_the_outer_units_tables():
    # A scope opened inside a unit joins it: closing it empties no table.
    ring = prime_power(101, 2)
    with unit_scope():
        harmonic.mhs(100, (1, 2), ring)
        with unit_scope():
            pass
        assert harmonic._powers.cache_info().currsize == 2
    assert not any(info.currsize for info in _tables().values())


def test_a_nested_scope_keeps_the_walk_plan():
    # The plan made inside the unit stays in force across a nested scope, so
    # the second sum of the group reads the first one's walk; it ends with
    # the unit, like every other unit table.
    ring = prime_power(101, 1)
    with unit_scope():
        harmonic._plan_walks(101, catalog._walk_groups(("ii.r1s1", "ii.r1s2")))
        harmonic.mhs(100, (1, 1), ring)
        with unit_scope():
            pass
        harmonic.mhs(100, (1, 2), ring)
        info = harmonic._group_sums.cache_info()
        assert (info.misses, info.hits) == (1, 1), info
    assert not any(info.currsize for info in _tables().values())
    assert harmonic._unit_plan(101) == {}


def _walk_spy(monkeypatch) -> list:
    """The composition sets of every `harmonic._walk` from now on."""
    walks, walk = [], harmonic._walk

    def recording(column, comps):
        walks.append(set(comps))
        return walk(column, comps)

    monkeypatch.setattr(harmonic, "_walk", recording)
    return walks


class TestWalkPlan:
    """A prime unit walks the harmonic sums of the checks it runs, and no
    other: the plan comes from the selected checks' forms, not the registry."""

    def test_one_check_walks_one_composition(self, monkeypatch):
        walks = _walk_spy(monkeypatch)
        assert run_suite(prime_lo=101, prime_hi=101, patterns=("ii.r1s1",), jobs=1).status == "pass"
        assert walks == [{(1, 1)}]

    def test_every_check_walks_each_group_once(self, monkeypatch):
        # The 37 full-range sums mod p are one walk; the unit's 120 modular
        # sums (UNIT_CACHES: 106 + 14) are each walked once.  One size-1 walk
        # is a sum that no form states, specialnum's H_(p/3)(2).
        walks = _walk_spy(monkeypatch)
        report = run_suite(prime_lo=101, prime_hi=101, patterns=("*",), jobs=1, kinds=("congruence",))
        assert report.status == "pass"
        assert sorted(map(len, walks)) == [1, 1, 3, 3, 4, 5, 5, 5, 6, 9, 14, 27, 37]
        assert sum(map(len, walks)) == 106 + 14
        assert {(1, 2, 4), (5, 1, 1), (1, 1)} <= max(walks, key=len)

    def test_the_plan_holds_compositions_and_ring_exponents_only(self):
        groups = catalog._walk_groups(tuple(c.id for c in builtin_checks() if c.kind == "congruence"))
        assert len(groups) == 12 and len(groups[1, False, False]) == 37
        for (k, half, odd), comps in groups.items():
            assert type(k) is int and type(half) is bool and type(odd) is bool
            assert type(comps) is frozenset
            assert all(type(a) is int for comp in comps for a in comp)


#: The ``lru_cache`` functions that outlive a unit: the ring constructor (one
#: small object per (p, k)), the check registry, and the walk groups of each
#: distinct set of checks, which hold no value of any prime.  Every table
#: keyed by a prime, the unit's walk plan and the O(p^2) oracles' included,
#: is a unit table.
LONG_LIVED_CACHES = {
    "congrlab.modring.prime_power",
    "congrlab.catalog.builtin_checks",
    "congrlab.catalog._registry",
    "congrlab.catalog._walk_groups",
}


def test_every_lru_cache_is_unit_scoped_or_long_lived():
    # A new lru_cache keyed by a prime would keep its tables across units; a
    # kernel memoized with modring.unit_cached keeps them for one unit.
    lru_caches, unit_memos = set(), set()
    for info in pkgutil.iter_modules(congrlab.__path__, "congrlab."):
        for value in vars(importlib.import_module(info.name)).values():
            if hasattr(value, "cache_clear"):
                lru_caches.add(f"{value.__module__}.{value.__qualname__}")
            elif hasattr(value, "cache_info"):
                unit_memos.add(value.cache_info.__self__)
    assert lru_caches == LONG_LIVED_CACHES
    assert unit_memos == set(modring._UNIT_TABLES)


def test_a_rebound_cache_name_is_still_cleared(monkeypatch):
    # A profiler rebinds kernel names to plain wrappers; the unit still
    # empties the table behind the wrapper.
    memo = harmonic._mhs_mod
    sizes = []

    def wrapper(*args):
        value = memo(*args)
        sizes.append(memo.cache_info().currsize)
        return value

    monkeypatch.setattr(harmonic, "_mhs_mod", wrapper)
    report = run_suite(prime_lo=11, prime_hi=11, patterns=("i.*",), jobs=1)
    assert report.status == "pass" and max(sizes) > 0
    assert memo.cache_info().currsize == 0
