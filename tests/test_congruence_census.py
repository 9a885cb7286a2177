"""What the registered congruences actually show.

A congruence whose lhs and rhs both vanish mod p^target shows only lhs = 0;
the census pins which checks do so at every prime, so that a new one is
added on purpose.  The mutation test shows that every check can fail: an
rhs moved by p^(target-1) must grade FAIL, which guards both the grading
path and the ring each evaluator works in.  The precision test shows that
the ring sets only the precision of a check, never a power of p in its
statement.  The property test runs the per-panel checks at parameters t
beyond the default panel.  The term census reads every closed form as data,
and the liveness census drops each of its terms in turn: a term whose
removal fails nothing is one the sweep cannot verify.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from congrlab.catalog import (
    DEFAULT_T_PANEL,
    ClosedForm,
    Harmonic,
    ModP,
    OverP,
    PerT,
    QuotientPoly,
    builtin_checks,
    lookup,
    run_congruence,
)
from congrlab.modring import prime_power, primes_in_range, unit_scope

#: Checks whose lhs and rhs are both 0 mod p^target at every prime 7..200.
#: The ``iii`` rhs has a zero coefficient when r = t, and the ``ii`` rhs
#: reads a Bernoulli number of odd index when r + s is even.
ZERO_VS_ZERO = frozenset({
    "ii.r1s1", "ii.r3s1", "ii.r2s2", "ii.r1s3",
    "iii.r1s1t1", "iii.r1s3t1", "iii.r2s1t2", "iii.r1s5t1", "iii.r2s3t2", "iii.r3s1t3",
    "L21.C1.r1a1", "L21.C1.r3a1",
    "T22.zero",
})

CONGRUENCES = [c for c in builtin_checks() if c.kind == "congruence"]


def test_zero_vs_zero_census(congruence_sweep):
    # The rows of primes 7..200 of the shared 7..1000 sweep.
    rows = [row for row in congruence_sweep.results if row.prime <= 200]
    assert rows and all(row.passed and row.error is None for row in rows)
    both_zero = defaultdict(list)
    for row in rows:
        both_zero[row.check_id].append(row.lhs == "0" and row.rhs == "0")
    assert len(both_zero) == len(CONGRUENCES)
    assert {cid for cid, zeros in both_zero.items() if all(zeros)} == ZERO_VS_ZERO


@pytest.mark.parametrize("check", CONGRUENCES, ids=lambda c: c.id)
def test_shifted_rhs_fails(check):
    target = check.target_exponent
    for p in (11, 101, 199):
        if p < check.min_prime or p in check.excluded_primes:
            continue
        if check.prime_cap is not None and p > check.prime_cap:
            continue

        def shifted(*args, p=p):
            lhs, rhs = check.evaluator(*args)
            return lhs, rhs + p ** (target - 1)

        mutant = check._replace(evaluator=PerT(lambda t: shifted) if check.uses_t_panel else shifted)
        for t in DEFAULT_T_PANEL[:2] if check.uses_t_panel else (None,):
            row = run_congruence(mutant, p, t)
            assert row.error is None, row
            assert not row.passed and row.valuation == target - 1, row


#: S5.conbin grades the first index k where its sides differ, and it compares
#: them at the ring's own precision: in Z/p^(target+1) it can stop at another
#: k, so its sides depend on more than the ring's precision.
PRECISION_EXEMPT = frozenset({"S5.conbin"})


@pytest.mark.parametrize(
    "check", [c for c in CONGRUENCES if c.id not in PRECISION_EXEMPT], ids=lambda c: c.id
)
def test_the_ring_sets_only_precision(check):
    # Every power of p in a statement is its own, not read from the ring, so
    # the sides in Z/p^(target+1), reduced mod p^target, are the sides in
    # Z/p^target.
    target = check.target_exponent
    for p in (11, 101, 199):
        if p < check.min_prime or p in check.excluded_primes:
            continue
        if check.prime_cap is not None and p > check.prime_cap:
            continue
        ring = prime_power(p, target)
        for t in DEFAULT_T_PANEL[:2] if check.uses_t_panel else (None,):
            above = check.evaluator(prime_power(p, target + 1), t)
            assert [ring.from_int(side.value) for side in above] == list(
                check.evaluator(ring, t)
            ), (p, t)


#: L31.A2, L31.A3, T32.first, T32.second, T34.first and T34.second.
PANEL_CHECKS = [c for c in CONGRUENCES if c.uses_t_panel]


@given(
    st.integers(min_value=-12, max_value=12).filter(bool),
    st.integers(min_value=1, max_value=12),
    st.sampled_from(primes_in_range(5, 43)),
)
@settings(max_examples=300, deadline=None)
def test_panel_checks_hold_beyond_the_panel(a, b, p):
    assume(a * b % p != 0)
    t = Fraction(a, b)
    for check in PANEL_CHECKS:
        row = run_congruence(check, p, t)
        assert row.error is None and row.passed, row


@pytest.mark.parametrize("check", PANEL_CHECKS, ids=lambda c: c.id)
def test_panel_sides_depend_on_t_only_through_its_residue(check):
    # L31 works mod p; T32 and T34 divide a term by p or p^2, so they read t
    # at most mod p^(target+2).  So t and t + p^j give the same sides: the
    # premise of running every t mod p.
    j = 1 if check.id.startswith("L31.") else check.target_exponent + 2
    for p in (7, 11, 13):
        for t in (Fraction(1, 4), Fraction(-1, 16), Fraction(5, 3), Fraction(2)):
            row, shifted = run_congruence(check, p, t), run_congruence(check, p, t + p**j)
            assert row.passed and (shifted.lhs, shifted.rhs) == (row.lhs, row.rhs), (p, t)


def form_of(check) -> ClosedForm:
    """The closed form of a congruence; a panel check's at t = 1/4 (its terms
    are the same at every t)."""
    ev = check.evaluator
    return ev.build(Fraction(1, 4)) if isinstance(ev, PerT) else ev


#: Every congruence but S5.conbin, the one hand-written evaluator, by id.
FORMS = {c.id: form_of(c) for c in CONGRUENCES if c.id != "S5.conbin"}


def describe(term) -> tuple:
    """(kind, coefficient, power of p) of a term, read from its fields;
    ``OverP(j, x)`` is x's with the power lowered by j."""
    if isinstance(term, OverP):
        kind, c, e = describe(term.term)
        return kind, c, e - term.j
    if isinstance(term, (Harmonic, ModP)):
        return type(term).__name__, term.c, term.e
    if isinstance(term, QuotientPoly):
        return "QuotientPoly", term.coeffs, 0
    return "callable", 1, 0


def test_every_term_of_every_form_is_listed():
    listing = {
        (cid, side, i): describe(term)
        for cid, form in FORMS.items()
        for side in ("lhs", "terms")
        for i, term in enumerate(getattr(form, side))
    }
    rhs_kinds = Counter(kind for (_, side, _), (kind, _, _) in listing.items() if side == "terms")
    assert len(FORMS) == 112
    assert rhs_kinds == {"Harmonic": 106, "ModP": 82, "QuotientPoly": 14, "callable": 8}
    assert {cid for cid, form in FORMS.items() if len(form.lhs) > 1} == {"T22.zero", "C23.d"}
    assert listing["C23.d", "lhs", 1] == ("Harmonic", 1, 1)
    assert listing["C23.d", "terms", 0] == ("Harmonic", Fraction(-9, 2), -2)
    assert listing["T32.first", "terms", 0] == ("callable", 1, -1)
    assert listing["T34.first", "terms", 0] == ("callable", 1, -2)
    assert listing["C41.f", "terms", 0] == ("QuotientPoly", (1, 0, Fraction(-1, 30)), 0)
    # A value known only mod p holds only under p^(target-1): one such term
    # in each of 82 checks, each at exactly that power.
    mod_p = {cid: e for (cid, _, _), (kind, _, e) in listing.items() if kind == "ModP"}
    assert len(mod_p) == 82
    assert {cid: lookup(cid).target_exponent - 1 for cid in mod_p} == mod_p


#: The terms whose removal fails no instance at the primes 7..200 (a panel
#: check at each default panel value), by (check id, side, index).  Each is
#: 0 mod p^target at every such prime, so the sweep cannot verify its
#: coefficient.  The statements keep them: they are the paper's formulas.
DEAD_TERMS = {
    ("ii.r1s1", "terms", 0): "B(p-2) has odd index, so it is 0",
    ("ii.r3s1", "terms", 0): "B(p-4) has odd index, so it is 0",
    ("ii.r2s2", "terms", 0): "B(p-4) has odd index, so it is 0",
    ("ii.r1s3", "terms", 0): "B(p-4) has odd index, so it is 0",
    ("iii.r1s1t1", "terms", 0): "the coefficient of B(p-3) is 0 when r = t",
    ("iii.r1s3t1", "terms", 0): "the coefficient of B(p-5) is 0 when r = t",
    ("iii.r2s1t2", "terms", 0): "the coefficient of B(p-5) is 0 when r = t",
    ("iii.r1s5t1", "terms", 0): "the coefficient of B(p-7) is 0 when r = t",
    ("iii.r2s3t2", "terms", 0): "the coefficient of B(p-7) is 0 when r = t",
    ("iii.r3s1t3", "terms", 0): "the coefficient of B(p-7) is 0 when r = t",
    ("L21.C1.r1a1", "terms", 2): "-p*H_n(2) at target 2, and p divides H_n(2)",
    ("L21.C1.r3a1", "terms", 2): "-3p*H_n(4) at target 2, and p divides H_n(4)",
    ("L21.C1.r2a2", "terms", 3): "3p^2*H_n(4) at target 3, and p divides H_n(4)",
    ("L21.C1.r1a3", "terms", 4): "-p^3*H_n(4) at target 4, and p divides H_n(4)",
    ("L25.r1s1", "terms", 4): "p^2/16*H_n(2,2) at target 3, and p divides H_n(2,2)",
    ("L25.r3s3", "terms", 4): "9p^2/256*H_n(4,4) at target 3, and p divides H_n(4,4)",
}


def _without(check, side: str, i: int):
    """``check`` with term i of its form's ``side`` ("lhs" or "terms") dropped."""

    def cut(form):
        terms = getattr(form, side)
        return form._replace(**{side: terms[:i] + terms[i + 1 :]})

    ev = check.evaluator
    if isinstance(ev, PerT):
        return check._replace(evaluator=PerT(lambda t: cut(ev.build(t))))
    return check._replace(evaluator=cut(ev))


def dead_terms(checks, primes) -> set:
    """The (check id, side, index) of each rhs term, and each term of a
    multi-term lhs, whose removal fails no instance of its check at
    ``primes`` and the default panel.  Each check with one term dropped runs
    prime by prime until an instance fails; the kernel tables are freed after
    each prime, as in a sweep."""
    undetected = {
        (check.id, side, i): _without(check, side, i)
        for check in checks
        for side in ("lhs", "terms")
        if side == "terms" or len(form_of(check).lhs) > 1
        for i in range(len(getattr(form_of(check), side)))
    }
    for p in primes:
        with unit_scope():
            for key, mutant in list(undetected.items()):
                if p < mutant.min_prime or p in mutant.excluded_primes:
                    continue
                panel = [t for t in DEFAULT_T_PANEL if t.numerator % p and t.denominator % p]
                for t in panel if mutant.uses_t_panel else (None,):
                    row = run_congruence(mutant, p, t)
                    assert row.error is None, row
                    if not row.passed:
                        del undetected[key]
                        break
    return set(undetected)


def test_every_term_but_the_pinned_dead_ones_is_load_bearing():
    checks = [c for c in CONGRUENCES if c.id in FORMS]
    assert dead_terms(checks, primes_in_range(7, 200)) == set(DEAD_TERMS)


def test_the_liveness_census_reports_a_planted_zero_term():
    zero = Harmonic(0, 0, (2,))
    plain, panel = lookup("C41.a"), lookup("T34.second")
    build = panel.evaluator.build
    planted = [
        plain._replace(evaluator=plain.evaluator._replace(terms=plain.evaluator.terms + (zero,))),
        panel._replace(evaluator=PerT(lambda t: build(t)._replace(terms=build(t).terms + (zero,)))),
    ]
    assert dead_terms(planted, primes_in_range(7, 50)) == {("C41.a", "terms", 2), ("T34.second", "terms", 2)}
