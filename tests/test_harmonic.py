"""Tests for multiple harmonic sums and their odd-denominator variants."""

from __future__ import annotations

import math
from contextlib import nullcontext
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from congrlab.errors import NonUnitDenominator, PreconditionViolated
from congrlab import catalog, harmonic
from congrlab.exactalg import QQ, Poly
from congrlab.harmonic import alternating_half_sum, mhs, odd_mhs
from congrlab.modring import _unit_plan, prime_power, primes_in_range, unit_scope
from oracles import harmonic_mod_p, harmonic_over_q


def brute_alternating(n: int) -> Fraction:
    """Reference signed sum with an explicit (-1)**k on each term."""
    return sum((Fraction((-1) ** k, 2 * k + 1) for k in range(n)), Fraction(0))


def exact_inverses(start: int, stop: int, step: int = 1) -> list:
    """[1/i for i in range(start, stop, step)] as Fractions."""
    return [Fraction(1, i) for i in range(start, stop, step)]


def dp_prefixes(inverses, comp: tuple[int, ...]) -> list:
    """The depth-wise DP over Q, one Fraction operation per step: entry n
    is the sum over the first n inverses, for n = 0 .. len(inverses)."""
    r = len(comp)
    acc = [Fraction(1)] + [Fraction(0)] * r
    out = [acc[r]]
    for x in inverses:
        for d in range(r, 0, -1):
            acc[d] = acc[d] + acc[d - 1] * x ** comp[d - 1]
        out.append(acc[r])
    return out


ORACLE_N = 40
#: Every composition of depth 0..4 with parts 1..5.
ORACLE_COMPS = [c for r in range(5) for c in product(range(1, 6), repeat=r)]


@pytest.mark.parametrize("depth", range(5))
def test_exact_kernel_against_generic_dp(depth):
    inverses = exact_inverses(1, ORACLE_N + 1)
    odd_inverses = exact_inverses(1, 2 * ORACLE_N, 2)
    for comp in ORACLE_COMPS:
        if len(comp) != depth:
            continue
        want, want_odd = dp_prefixes(inverses, comp), dp_prefixes(odd_inverses, comp)
        for n in range(ORACLE_N + 1):
            got, got_odd = mhs(n, comp), odd_mhs(n, comp)
            # Reports render these values with str(), which depends on the type.
            assert type(got) is Fraction and type(got_odd) is Fraction, (n, comp)
            assert got == want[n], (n, comp)
            assert got_odd == want_odd[n], (n, comp)


@pytest.mark.parametrize("ring", [Poly([1]), object()], ids=["Poly", "object"])
def test_exact_path_accepts_only_qq(ring):
    with pytest.raises(PreconditionViolated):
        mhs(3, (1,), ring)
    with pytest.raises(PreconditionViolated):
        odd_mhs(3, (1, 2), ring)


class TestFrozenValues:
    def test_depth_order_convention(self):
        # First exponent sits on the smallest index: H_3(1, 2) = 5/12.
        assert mhs(3, (1, 2)) == Fraction(5, 12)
        assert mhs(3, (2, 1)) == Fraction(11, 12)

    def test_classical_harmonic_numbers(self):
        assert mhs(4, (1,)) == Fraction(25, 12)
        assert mhs(6, (2,)) == Fraction(5369, 3600)
        assert mhs(1, (3,)) == 1
        assert mhs(0, (1,)) == 0

    def test_odd_variant(self):
        # Denominators 1, 3, 5: 1 + 1/9 + 1/25.
        assert odd_mhs(3, (2,)) == Fraction(259, 225)
        assert odd_mhs(2, (1, 1)) == Fraction(1, 3)

    def test_alternating_sums(self):
        ring = prime_power(7, 3)
        assert alternating_half_sum(3, ring) == ring.from_fraction(Fraction(13, 15))  # 1 - 1/3 + 1/5
        assert alternating_half_sum(0, ring) == ring.zero()

    def test_empty_composition(self):
        assert mhs(5, ()) == 1
        assert odd_mhs(5, ()) == 1
        # Mod p the full range folds the empty composition into no halves at
        # all, planned or not.
        for k in (1, 2):
            assert mhs(100, (), prime_power(101, k)) == 1 == odd_mhs(50, (), prime_power(101, k))
        with unit_scope():
            _unit_plan(101).update(catalog._walk_groups(("ii.r1s1",)))
            assert mhs(100, (), prime_power(101, 1)) == 1


class TestPreconditions:
    def test_nonpositive_parts_rejected(self):
        with pytest.raises(PreconditionViolated):
            mhs(4, (1, 0))
        with pytest.raises(PreconditionViolated):
            odd_mhs(4, (-1,))

    def test_modular_range_guard(self):
        ring = prime_power(7, 2)
        with pytest.raises(NonUnitDenominator):
            mhs(7, (1,), ring)  # denominator 7 is not a unit
        with pytest.raises(NonUnitDenominator):
            odd_mhs(4, (1,), ring)  # denominator 2*3+1 = 7
        with pytest.raises(NonUnitDenominator):
            alternating_half_sum(4, ring)

    # Unguarded, a negative slice wraps around the power table (mhs(-3, (1,))
    # mod 11^2 reads 106, odd_mhs(-2, (1,)) 58) and the exact sum is empty (0).
    @pytest.mark.parametrize("ring", [QQ, prime_power(11, 2)], ids=["exact", "mod"])
    def test_negative_index_rejected(self, ring):
        for n in (-1, -3):
            with pytest.raises(PreconditionViolated):
                mhs(n, (1,), ring)
            with pytest.raises(PreconditionViolated):
                odd_mhs(n, (1,), ring)

    def test_negative_alternating_index_rejected(self):
        for n in (-1, -2):
            with pytest.raises(PreconditionViolated):
                alternating_half_sum(n, prime_power(11, 2))


@pytest.mark.parametrize(
    "n,comp",
    [(n, c) for n in range(0, 9) for c in [(1,), (2,), (1, 1), (1, 2), (2, 1), (3, 1, 2)]],
)
def test_against_brute_force(n, comp):
    assert mhs(n, comp) == harmonic_over_q(n, comp)
    assert odd_mhs(n, comp) == harmonic_over_q(n, comp, odd=True)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_alternating_against_brute_force(k):
    ring = prime_power(17, k)
    for n in range(0, 9):  # 2n - 1 <= 15 keeps every denominator a unit mod 17
        assert alternating_half_sum(n, ring) == ring.from_fraction(brute_alternating(n))


@pytest.mark.parametrize("p,k", [(11, 1), (11, 3), (13, 2)])
def test_modular_fast_path_matches_exact(p, k):
    ring = prime_power(p, k)
    for n in (0, 3, p - 1):
        for comp in [(1,), (2,), (1, 2), (2, 1, 1)]:
            assert mhs(n, comp, ring) == ring.from_fraction(mhs(n, comp))
            half = (p - 1) // 2
            m = min(n, half)
            assert odd_mhs(m, comp, ring) == ring.from_fraction(odd_mhs(m, comp))
    for n in (1, (p - 1) // 2):
        assert alternating_half_sum(n, ring) == ring.from_fraction(brute_alternating(n)), n


def test_large_part_mod():
    # Power tables for large exponents are built by squaring, not one
    # exponent at a time.
    ring = prime_power(11, 3)
    for comp in [(2000,), (1, 999), (1025, 2)]:
        assert mhs(7, comp, ring) == ring.from_fraction(mhs(7, comp)), comp
        assert odd_mhs(4, comp, ring) == ring.from_fraction(odd_mhs(4, comp)), comp


@pytest.mark.parametrize("outside_a_unit", [False, True])
def test_power_tables_follow_the_ring(outside_a_unit):
    # Rings of one prime at different exponents share every cache key but
    # the ring; alternating them shows no power table is read for the wrong
    # modulus, whether the tables stay memoized in one unit or live one call,
    # as they do outside a unit, where each call opens a unit of its own.
    p = 13
    with nullcontext() if outside_a_unit else unit_scope():
        for comp in [(1,), (3, 1), (2, 1, 2), (1, 1, 1, 1)]:
            for k in (1, 4, 2, 5, 1, 3):
                ring = prime_power(p, k)
                for n in (p - 1, 5):
                    assert mhs(n, comp, ring) == ring.from_fraction(mhs(n, comp)), (comp, k, n)
                    assert odd_mhs(n // 2, comp, ring) == ring.from_fraction(odd_mhs(n // 2, comp))
                assert alternating_half_sum(6, ring) == ring.from_fraction(brute_alternating(6))
        assert bool(harmonic._powers.cache_info().currsize) != outside_a_unit


@st.composite
def prefix_sharing_sets(draw) -> frozenset:
    """A set of compositions of depth <= 4 and parts <= 6, grown from a few
    shared stems, so the walk has prefixes with several children, prefixes
    that are compositions of the set and prefixes that are not."""
    six = st.integers(min_value=1, max_value=6)
    comps = set()
    for stem in draw(st.lists(st.lists(six, max_size=3).map(tuple), min_size=1, max_size=3)):
        tails = st.lists(six, max_size=4 - len(stem)).map(tuple)
        comps.update(stem + tail for tail in draw(st.lists(tails, min_size=1, max_size=3)))
    return frozenset(comps)


@given(
    prefix_sharing_sets(),
    st.sampled_from([3, 5, 7, 11, 13, 31, 61]),
    st.integers(min_value=1, max_value=4),
    st.booleans(),
    st.data(),
)
@settings(max_examples=60, deadline=None)
def test_one_walk_gives_every_sum_of_its_set(comps, p, k, odd, data):
    # Each value of one walk of the prefix tree against the sum over Q, one
    # term per increasing tuple of denominators.
    top = (p - 1) // 2 if odd else p - 1
    n = data.draw(st.integers(min_value=0, max_value=min(top, 7)), label="n")
    ring = prime_power(p, k)
    sums = harmonic._walk_sums(n, dict.fromkeys(comps, k), p, odd)
    assert sums == {comp: ring.value_of(harmonic_over_q(n, comp, odd)) for comp in comps}


def _full_range_group_mod_p() -> frozenset:
    """The compositions whose H_(p-1) mod p the sweep reads: the ii and iii checks."""
    return frozenset(
        h.comp
        for c in catalog.builtin_checks()
        if isinstance(c.evaluator, catalog.ClosedForm)
        for h in c.evaluator.lhs + c.evaluator.terms
        if isinstance(h, catalog.Harmonic) and not h.half and c.target_exponent - h.e <= 1
    )


def _folded_sums(p: int, comps, planned: bool) -> dict:
    """comp -> mhs(p-1, comp) mod p for each comp: in one unit planned with
    comps as its full-range group mod p, or each call outside any unit.  In
    the planned unit Z/p is walked once."""
    ring = prime_power(p, 1)
    if not planned:
        return {comp: mhs(p - 1, comp, ring) for comp in comps}
    with unit_scope():
        walks, tops = harmonic._merge_walks({(1, False, False): frozenset(comps)})
        _unit_plan(p).update(tops, walks=walks)
        sums = {comp: mhs(p - 1, comp, ring) for comp in comps}
        assert harmonic._group_sums.cache_info().misses == 1
    return sums


@pytest.mark.parametrize("planned", [False, True], ids=["outside-a-unit", "planned-unit"])
def test_folded_full_range_sums_mod_p(planned):
    # Mod p, H_(p-1)(comp) is read off the half range; every composition of
    # the sweep's group at every prime 5..61.  harmonic_over_q sums C(p-1, r)
    # terms, so it checks the recursion oracle up to p = 13.
    comps = _full_range_group_mod_p()
    assert len(comps) == 37
    for p in primes_in_range(5, 61):
        for comp, got in _folded_sums(p, comps, planned).items():
            want = harmonic_mod_p(p - 1, comp, p)
            if p <= 13:
                assert want == prime_power(p, 1).value_of(harmonic_over_q(p - 1, comp))
            assert got == want, (p, comp)


@given(
    st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=4).map(tuple),
    st.booleans(),
    st.data(),
)
@settings(max_examples=40, deadline=None)
def test_a_folded_sum_against_the_sum_over_q(comp, planned, data):
    # Any composition of depth <= 4, at a prime 5..61 where the oracle's
    # C(p-1, r) terms stay few.
    p = data.draw(st.sampled_from([q for q in primes_in_range(5, 61) if math.comb(q - 1, len(comp)) <= 600]), label="p")
    got = _folded_sums(p, [comp], planned)[comp]
    assert got == prime_power(p, 1).value_of(harmonic_over_q(p - 1, comp))


part = st.integers(min_value=1, max_value=4)


@given(st.integers(min_value=0, max_value=20), part, part)
@settings(max_examples=60, deadline=None)
def test_stuffle_depth_one(n, a, b):
    """H(a)*H(b) = H(a,b) + H(b,a) + H(a+b), and likewise for the odd variant."""
    assert mhs(n, (a,)) * mhs(n, (b,)) == mhs(n, (a, b)) + mhs(n, (b, a)) + mhs(n, (a + b,))
    assert odd_mhs(n, (a,)) * odd_mhs(n, (b,)) == odd_mhs(n, (a, b)) + odd_mhs(
        n, (b, a)
    ) + odd_mhs(n, (a + b,))


@given(st.integers(min_value=0, max_value=14), part, part, part)
@settings(max_examples=40, deadline=None)
def test_stuffle_depth_two_by_one(n, a1, a2, b):
    """H(a1,a2)*H(b) expands over the five interleavings of the index sets."""
    lhs = mhs(n, (a1, a2)) * mhs(n, (b,))
    rhs = (
        mhs(n, (b, a1, a2))
        + mhs(n, (a1, b, a2))
        + mhs(n, (a1, a2, b))
        + mhs(n, (a1 + b, a2))
        + mhs(n, (a1, a2 + b))
    )
    assert lhs == rhs


@given(st.integers(min_value=1, max_value=30), st.integers(min_value=1, max_value=3))
@settings(max_examples=40, deadline=None)
def test_recurrence_in_n(n, a):
    assert mhs(n, (a,)) - mhs(n - 1, (a,)) == Fraction(1, n**a)
    assert odd_mhs(n, (a,)) - odd_mhs(n - 1, (a,)) == Fraction(1, (2 * n - 1) ** a)
