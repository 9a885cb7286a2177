"""What the registered congruences actually show.

A congruence whose lhs and rhs both vanish mod p^target shows only lhs = 0;
the census pins which checks do so at every prime, so that a new one is
added on purpose.  The mutation test shows that every check can fail: an
rhs moved by p^(target-1) must grade FAIL, which guards both the grading
path and the ring each evaluator works in.  The precision test shows that
the ring sets only the precision of a check, never a power of p in its
statement.  The property test runs the per-panel checks at parameters t
beyond the default panel.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from congrlab.catalog import DEFAULT_T_PANEL, builtin_checks, run_congruence
from congrlab.modring import prime_power, primes_in_range

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

        mutant = check._replace(evaluator=shifted)
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
