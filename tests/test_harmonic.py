"""Tests for multiple harmonic sums and their odd-denominator variants."""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from congrlab.errors import NonUnitDenominator, PreconditionViolated
from congrlab import harmonic
from congrlab.exactalg import QQ, Poly
from congrlab.harmonic import alternating_half_sum, mhs, odd_mhs, repeated
from congrlab.modring import prime_power


def brute_mhs(n: int, comp: tuple[int, ...]) -> Fraction:
    """Reference value by direct enumeration of increasing index tuples."""
    total = Fraction(0)
    for idx in combinations(range(1, n + 1), len(comp)):
        term = Fraction(1)
        for i, a in zip(idx, comp):
            term /= Fraction(i) ** a
        total += term
    return total


def brute_odd_mhs(n: int, comp: tuple[int, ...]) -> Fraction:
    total = Fraction(0)
    for idx in combinations(range(n), len(comp)):
        term = Fraction(1)
        for i, a in zip(idx, comp):
            term /= Fraction(2 * i + 1) ** a
        total += term
    return total


def brute_alternating(n: int, d: int, odd_denominators: bool) -> Fraction:
    """Reference signed sum with an explicit (-1)**k on each term."""
    if odd_denominators:
        return sum((Fraction((-1) ** k, (2 * k + 1) ** d) for k in range(n)), Fraction(0))
    return sum((Fraction((-1) ** k, k**d) for k in range(1, n + 1)), Fraction(0))


def exact_inverses(ring, start: int, stop: int, step: int = 1) -> list:
    """[1/i for i in range(start, stop, step)], each divided in ``ring``."""
    one = ring.one()
    return [ring.div(one, ring.from_int(i)) for i in range(start, stop, step)]


def dp_prefixes(inverses, comp: tuple[int, ...], ring=QQ) -> list:
    """The ring-generic depth-wise DP, one ring operation per step: entry n
    is the sum over the first n inverses, for n = 0 .. len(inverses)."""
    r = len(comp)
    acc = [ring.one()] + [ring.zero()] * r
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
    inverses = exact_inverses(QQ, 1, ORACLE_N + 1)
    odd_inverses = exact_inverses(QQ, 1, 2 * ORACLE_N, 2)
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


@pytest.mark.parametrize("odd_denominators", [True, False])
def test_exact_alternating_against_generic_dp(odd_denominators):
    for d in range(1, 6):
        for n in range(ORACLE_N + 1):
            if odd_denominators:
                plus, minus = exact_inverses(QQ, 1, 2 * n, 4), exact_inverses(QQ, 3, 2 * n, 4)
            else:
                plus, minus = exact_inverses(QQ, 2, n + 1, 2), exact_inverses(QQ, 1, n + 1, 2)
            want = dp_prefixes(plus, (d,))[-1] - dp_prefixes(minus, (d,))[-1]
            got = alternating_half_sum(n, d, odd_denominators)
            assert type(got) is Fraction and got == want, (n, d)


@pytest.mark.parametrize("ring", [Poly([1]), object()], ids=["Poly", "object"])
def test_exact_path_accepts_only_qq(ring):
    with pytest.raises(PreconditionViolated):
        mhs(3, (1,), ring)
    with pytest.raises(PreconditionViolated):
        odd_mhs(3, (1, 2), ring)
    with pytest.raises(PreconditionViolated):
        alternating_half_sum(3, 1, True, ring)


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
        assert alternating_half_sum(3, 1, True) == Fraction(13, 15)  # 1 - 1/3 + 1/5
        assert alternating_half_sum(2, 1, False) == Fraction(-1, 2)  # -1 + 1/2
        assert alternating_half_sum(0, 2, True) == 0

    def test_empty_composition(self):
        assert mhs(5, ()) == 1
        assert odd_mhs(5, ()) == 1

    def test_repeated(self):
        assert repeated(2, 3) == (2, 2, 2)
        assert repeated(1, 0) == ()


class TestPreconditions:
    def test_nonpositive_parts_rejected(self):
        with pytest.raises(PreconditionViolated):
            mhs(4, (1, 0))
        with pytest.raises(PreconditionViolated):
            odd_mhs(4, (-1,))
        with pytest.raises(PreconditionViolated):
            alternating_half_sum(4, 0, True)

    def test_modular_range_guard(self):
        ring = prime_power(7, 2)
        with pytest.raises(NonUnitDenominator):
            mhs(7, (1,), ring)  # denominator 7 is not a unit
        with pytest.raises(NonUnitDenominator):
            odd_mhs(4, (1,), ring)  # denominator 2*3+1 = 7
        with pytest.raises(NonUnitDenominator):
            alternating_half_sum(4, 1, True, ring)


@pytest.mark.parametrize(
    "n,comp",
    [(n, c) for n in range(0, 9) for c in [(1,), (2,), (1, 1), (1, 2), (2, 1), (3, 1, 2)]],
)
def test_against_brute_force(n, comp):
    assert mhs(n, comp) == brute_mhs(n, comp)
    assert odd_mhs(n, comp) == brute_odd_mhs(n, comp)


@pytest.mark.parametrize("odd_denominators", [True, False])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_alternating_against_brute_force(d, odd_denominators):
    ring = prime_power(17, 3)
    for n in range(0, 9):  # 2n - 1 <= 15 keeps every denominator a unit mod 17
        want = brute_alternating(n, d, odd_denominators)
        assert alternating_half_sum(n, d, odd_denominators) == want
        assert alternating_half_sum(n, d, odd_denominators, ring) == ring.from_fraction(want)


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
        for d in (1, 2, 3):
            assert alternating_half_sum(n, d, True, ring) == ring.from_fraction(
                alternating_half_sum(n, d, True)
            )
            got = alternating_half_sum(p - 1, d, False, ring)
            assert got == ring.from_fraction(alternating_half_sum(p - 1, d, False))


def test_large_part_mod():
    # Power tables for large exponents are built by squaring, not one
    # exponent at a time.
    ring = prime_power(11, 3)
    for comp in [(2000,), (1, 999), (1025, 2)]:
        assert mhs(7, comp, ring) == ring.from_fraction(mhs(7, comp)), comp
        assert odd_mhs(4, comp, ring) == ring.from_fraction(odd_mhs(4, comp)), comp


@pytest.mark.parametrize("clear_between_calls", [False, True])
def test_power_tables_follow_the_ring(clear_between_calls):
    # Rings of one prime at different exponents share every cache key but
    # the ring; alternating them shows no power table is read for the wrong
    # modulus, whether the tables stay cached or are rebuilt on each call.
    p = 13
    harmonic._mhs_mod.cache_clear()
    harmonic._odd_mhs_mod.cache_clear()
    for comp in [(1,), (3, 1), (2, 1, 2), (1, 1, 1, 1)]:
        for k in (1, 4, 2, 5, 1, 3):
            if clear_between_calls:
                harmonic._powers.cache_clear()
            ring = prime_power(p, k)
            for n in (p - 1, 5):
                assert mhs(n, comp, ring) == ring.from_fraction(mhs(n, comp)), (comp, k, n)
                assert odd_mhs(n // 2, comp, ring) == ring.from_fraction(odd_mhs(n // 2, comp))
            want = alternating_half_sum(6, comp[0], True)
            assert alternating_half_sum(6, comp[0], True, ring) == ring.from_fraction(want)


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
