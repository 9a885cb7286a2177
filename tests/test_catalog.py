"""Tests for the check catalog, runners, and report plumbing."""

from __future__ import annotations

import json
import math
import time
from fractions import Fraction

import pytest

import congrlab.catalog as catalog
from congrlab import binomsums, harmonic, modring, sequences
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
from congrlab.modring import Residue, prime_power


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
            evaluator=lambda p: (prime_power(p, 3).one(), prime_power(p, 3).from_int(2)),
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

    def test_non_library_exception_becomes_error_record(self):
        # t = 0 makes this evaluator divide by zero outside the error taxonomy.
        res = run_congruence(lookup("L31.A2"), 7, Fraction(0))
        assert not res.passed and res.valuation == 0
        assert res.error is not None and res.error.startswith("ZeroDivisionError")
        assert res.lhs == f"ERROR: {res.error}" and res.rhs == ""
        assert Report(results=(res,)).exit_code == 2

    def test_lhs_rhs_reduced_to_target(self):
        # Sides are reported mod p^target even when computed at higher exponent.
        res = run_congruence(lookup("C41.a"), 5)
        assert int(res.lhs) == 22 and int(res.rhs) == 22  # mod 5^3


def _shifted(original, shift):
    """``original`` with ``shift`` added to the representative it returns."""

    def supply(*args):
        value = original(*args)
        return Residue(value.value + shift, value.ring)

    return supply


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
        [("C42.a", "bernoulli_third"), ("C42.b", "bernoulli_third"), ("C45.b", "euler_number")],
    )
    @pytest.mark.parametrize("p", [7, 11, 13, 101])
    def test_lift_of_the_special_value_keeps_the_result(self, check_id, helper, p, monkeypatch):
        check = lookup(check_id)
        want = run_congruence(check, p)
        assert want.passed
        original = getattr(catalog, helper)
        for r in (1, 2, p + 3, -1):
            monkeypatch.setattr(catalog, helper, _shifted(original, p * r))
            assert run_congruence(check, p) == want, r
        # A shift that is not a multiple of p changes the verdict, so the
        # patched helper is the one the check reads.
        monkeypatch.setattr(catalog, helper, _shifted(original, 1))
        assert not run_congruence(check, p).passed

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

    def test_fail_fast_stops_early(self, monkeypatch):
        import congrlab.catalog as catalog

        bad = CongruenceCheck(
            id="synthetic.bad",
            description="always off",
            statement="0 = 1 mod p",
            target_exponent=1,
            evaluator=lambda p: (prime_power(p, 1).zero(), prime_power(p, 1).one()),
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

        def evaluator(p):
            (tmp_path / str(p)).touch()  # marks the unit of prime p as started
            ring = prime_power(p, 1)
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
        blob = json.dumps(rep.records())
        assert json.loads(blob)[0]["check"]

    @pytest.mark.parametrize(
        "jobs,prime_hi,want",
        [(64, 7, []), (64, 13, [3]), (2, 13, [2]), (1, 13, [])],
    )
    def test_pool_size_is_capped_by_the_units(self, jobs, prime_hi, want, monkeypatch):
        # One unit per prime; a fake pool records its size and starts no process.
        sizes = []

        class FakePool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            map = staticmethod(map)

            def shutdown(self, cancel_futures=False):
                pass

        monkeypatch.setattr(catalog, "ProcessPoolExecutor", FakePool)
        rep = run_suite(prime_lo=7, prime_hi=prime_hi, patterns=("v.h12",), jobs=jobs)
        assert sizes == want
        assert [r.prime for r in rep.results] == [p for p in (7, 11, 13) if p <= prime_hi]


#: The caches whose entries hold O(p) integers (or sums over such a column).
KERNEL_CACHES = {
    "inverse_table": modring.inverse_table,
    "central_binomials": sequences.central_binomials,
    "_powers": harmonic._powers,
    "binomial_column": binomsums.binomial_column,
    "weighted_sums": binomsums.weighted_sums,
    "_u_sums": binomsums._u_sums,
}


@pytest.fixture(scope="module")
def one_prime_census():
    """cache_info() of each kernel cache after a cold ``--checks '*'`` run at p = 101."""
    # Also clear the caches in front of these (the harmonic DP), which
    # earlier tests may have filled at the same prime.
    for module in (binomsums, harmonic, modring, sequences):
        for fn in vars(module).values():
            if hasattr(fn, "cache_clear"):
                fn.cache_clear()
    assert run_suite(prime_lo=101, prime_hi=101, patterns=("*",), jobs=1).status == "pass"
    return {name: cache.cache_info() for name, cache in KERNEL_CACHES.items()}


@pytest.mark.parametrize("name", KERNEL_CACHES)
def test_kernel_cache_bound_fits_one_prime(one_prime_census, name):
    # A sweep runs its primes in ascending order and never goes back to one,
    # so each O(p) kernel cache needs only the keys of about one prime.  A
    # bound far above that keeps the tables of many large primes at once.
    info = one_prime_census[name]
    assert 0 < info.currsize <= info.maxsize <= 3 * info.currsize, info
