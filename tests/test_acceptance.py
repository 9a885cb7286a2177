"""Acceptance suite: the seven build-gating criteria, one test per criterion.

Each test prints a single pass/fail line and then asserts, so a bare test run
shows the per-criterion verdicts while pytest enforces them.
"""

from __future__ import annotations

import hashlib
import json
import random
import subprocess
import sys
from fractions import Fraction
from itertools import combinations, product
from math import comb, inf
from pathlib import Path

import pytest

from congrlab.catalog import builtin_checks, lookup, run_congruence, run_suite
from congrlab.harmonic import mhs, odd_mhs
from congrlab.modring import primes_in_range
from congrlab.specialnum import bernoulli_powersum, bernoulli_table
from oracles import p_adic_valuation, s1_exact

EXACT_B = {
    2: Fraction(1, 6),
    4: Fraction(-1, 30),
    6: Fraction(1, 42),
    8: Fraction(-1, 30),
    10: Fraction(5, 66),
}


def _verdict(n: int, name: str, ok: bool) -> None:
    print(f"[criterion {n}] {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {n} ({name}) failed"


def test_criterion_1_full_congruence_sweep():
    report = run_suite(prime_lo=7, prime_hi=1000, patterns=("all",), jobs=8,
                       kinds=("congruence",))
    passed, failed, errored = report.counts()
    all_ids = {c.id for c in builtin_checks() if c.kind == "congruence"}
    seen_ids = {r.check_id for r in report.results}
    c42_primes = [r.prime for r in report.results if r.check_id.startswith("C42.")]
    ok = (
        failed == 0
        and errored == 0
        and passed == len(report.results) >= 30000
        and seen_ids == all_ids
        and max(c42_primes) == 599  # default cap at p <= 600
        and report.wall_seconds <= 300.0
    )
    _verdict(1, f"full congruence sweep ({passed} instances, "
                f"{report.wall_seconds:.1f}s)", ok)


def test_criterion_2_pinned_worked_values():
    checks = []

    # First weighted-sum congruence at p = 7: exact sides and difference.
    mc1_lhs = s1_exact(7, Fraction(1, 16), 0)
    mc1_rhs = -(Fraction(49, 240) + Fraction(2401, 320))
    mc1_diff = mc1_lhs - mc1_rhs
    checks.append(mc1_lhs == Fraction(2009, 1920))
    checks.append(mc1_rhs == Fraction(-7399, 960))
    checks.append(mc1_diff == Fraction(7**5, 1920))
    checks.append(p_adic_valuation(mc1_diff, 7) == 5)

    # Sixth-order central binomial ratio at p = 7: difference is 7^6/3072 up
    # to sign, rebuilt from the exact series (B_2 = 1/6 enters at order p^5).
    morley_lhs = Fraction((-1) ** 3 * comb(6, 3), 4**6)
    morley_rhs = 1 - Fraction(7, 4) * mhs(6, (1,)) - Fraction(7**5, 80) * Fraction(1, 6)
    morley_diff = morley_lhs - morley_rhs
    checks.append(abs(morley_diff) == Fraction(7**6, 3072))
    checks.append(p_adic_valuation(morley_diff, 7) == 6)

    # Residue pins for three more worked instances.
    r = run_congruence(lookup("C41.a"), 5)
    checks.append(r.passed and r.lhs == r.rhs == "22" and r.target == 3)  # mod 125
    r = run_congruence(lookup("T34.second"), 5, Fraction(1))
    checks.append(r.passed and r.lhs == r.rhs == "10" and r.target == 2)  # mod 25
    r = run_congruence(lookup("T43.F"), 7)
    checks.append(r.passed and r.lhs == r.rhs == "2" and r.target == 2)  # mod 49

    _verdict(2, "pinned worked values", all(checks))


def test_criterion_3_exact_identity_suite():
    report = run_suite(patterns=("all",), jobs=1, kinds=("identity",))
    passed, failed, errored = report.counts()

    # The registered case grids cover the stated ranges.
    grid = {c.id: c.cases for c in builtin_checks() if c.kind == "identity"}
    ranges_ok = (
        max(dict(c)["n"] for c in grid["L25.exact"]) == 40
        and max(dict(c)["r"] for c in grid["L25.exact"]) == 5
        and max(dict(c)["n"] for c in grid["L26.wz1"]) == 20
        and max(dict(c)["n"] for c in grid["L26.wz2"]) == 20
        and max(dict(c)["n"] for c in grid["CCC.forms"]) == 12
        and max(dict(c)["n"] for c in grid["A.exact"]) == 12
        and max(dict(c)["n"] for c in grid["eq15.exact"]) == 12
        and max(dict(c)["n"] for c in grid["P33.intu"]) == 15
        and max(dict(c)["n"] for c in grid["P33.intu1"]) == 15
        and max(dict(c)["n"] for c in grid["eq08b.exact"]) == 30
        and max(dict(c)["n"] for c in grid["S5.idodd"]) == 12
        and max(dict(c)["r"] for c in grid["S5.ideven"]) == 6
        and max(dict(c)["p"] for c in grid["T43.w1w2"]) == 97
        and max(dict(c)["p"] for c in grid["eq12.eq13"]) == 499
    )
    ok = (
        failed == 0
        and errored == 0
        and passed == len(report.results) == 609
        and all(r.target == inf for r in report.results)
        and ranges_ok
        and report.wall_seconds <= 30.0
    )
    _verdict(3, f"exact identity suite ({passed} cases, "
                f"{report.wall_seconds:.1f}s)", ok)


def test_criterion_4_bernoulli_cross_oracle():
    ok = True
    for p in primes_in_range(5, 200):
        table = bernoulli_table(p)
        for m in range(2, p - 2, 2):
            if bernoulli_powersum(m, p) != table[m]:
                ok = False
    for p in primes_in_range(5, 23):
        table = bernoulli_table(p)
        for m, b in EXACT_B.items():
            if not 2 <= m <= p - 3:
                continue
            want = b.numerator * pow(b.denominator, -1, p) % p
            if int(bernoulli_powersum(m, p)) != want or int(table[m]) != want:
                ok = False
    _verdict(4, "Bernoulli cross-oracle", ok)


def _brute_mhs(n: int, comp: tuple[int, ...], odd: bool) -> Fraction:
    """Nested-enumeration reference, independent of the DP implementation."""
    base = range(n) if odd else range(1, n + 1)
    total = Fraction(0)
    for idx in combinations(base, len(comp)):
        term = Fraction(1)
        for i, a in zip(idx, comp):
            term /= Fraction(2 * i + 1 if odd else i) ** a
        total += term
    return total


def test_criterion_5_harmonic_oracle_equivalence():
    ok = True

    comps = [c for d in (1, 2, 3) for c in product(range(1, 5), repeat=d)]
    for n in range(0, 13):
        for comp in comps:
            if mhs(n, comp) != _brute_mhs(n, comp, odd=False):
                ok = False
            if odd_mhs(n, comp) != _brute_mhs(n, comp, odd=True):
                ok = False

    rng = random.Random(20260814)
    for _ in range(1000):
        n = rng.randrange(0, 41)
        a = rng.randrange(1, 6)
        b = rng.randrange(1, 6)
        if mhs(n, (a,)) * mhs(n, (b,)) != mhs(n, (a, b)) + mhs(n, (b, a)) + mhs(n, (a + b,)):
            ok = False
        if odd_mhs(n, (a,)) * odd_mhs(n, (b,)) != odd_mhs(n, (a, b)) + odd_mhs(
            n, (b, a)
        ) + odd_mhs(n, (a + b,)):
            ok = False

    _verdict(5, "harmonic-sum oracle equivalence", ok)


def test_criterion_6_determinism_across_job_counts(tmp_path, child_env):
    paths = []
    for jobs in ("1", "8"):
        path = tmp_path / f"report-jobs{jobs}.json"
        proc = subprocess.run(
            [
                sys.executable, "-m", "congrlab",
                "--checks", "all", "--jobs", jobs,
                "--format", "json", "--output", str(path),
            ],
            capture_output=True,
            text=True,
            timeout=580,
            env=child_env,
        )
        assert proc.returncode == 0, proc.stderr
        paths.append(path)
    blobs = [p.read_bytes() for p in paths]
    # The benchmark pins the digest of the default report (panel 0).
    digests = Path(__file__).resolve().parents[1] / "perfbench" / "digests.json"
    pinned = json.loads(digests.read_text())["sweep"]["0"]
    ok = (
        blobs[0] == blobs[1]
        and len(json.loads(blobs[0])) > 30000
        and hashlib.sha256(blobs[0]).hexdigest() == pinned
    )
    _verdict(6, "byte-identical reports for --jobs 1 and --jobs 8, at the pinned digest", ok)


def test_criterion_7_sharpness_guards():
    # The two exact differences sit at their target valuations and no higher,
    # and the sides themselves are nonzero: a degenerate evaluator returning
    # matching zeros (infinite valuation) would fail these guards.
    mc1_lhs = s1_exact(7, Fraction(1, 16), 0)
    mc1_diff = mc1_lhs + Fraction(49, 240) + Fraction(2401, 320)
    morley_lhs = Fraction((-1) ** 3 * comb(6, 3), 4**6)
    morley_rhs = 1 - Fraction(7, 4) * mhs(6, (1,)) - Fraction(7**5, 80) * Fraction(1, 6)
    morley_diff = morley_lhs - morley_rhs
    ok = (
        mc1_lhs != 0
        and mc1_diff != 0
        and p_adic_valuation(mc1_diff, 7) == 5  # not 6 or more
        and morley_lhs != 0
        and morley_rhs != 0
        and morley_diff != 0
        and p_adic_valuation(morley_diff, 7) == 6  # not 7 or more
    )
    _verdict(7, "sharpness guards", ok)


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-s", "-q"]))
