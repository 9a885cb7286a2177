"""Tests for prime-power rings and residue arithmetic."""

from __future__ import annotations

import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from congrlab.errors import (
    CompositeModulus,
    DenominatorDivisibleByP,
    ExponentOutOfRange,
    MixedModuli,
    NotAUnit,
    NotDivisibleByP,
)
from congrlab.modring import (
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

PRIMES = (3, 5, 7, 11, 13, 101, 997)


class TestPrimality:
    def test_small_values(self):
        assert [n for n in range(2, 30) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]

    def test_carmichael_numbers_rejected(self):
        for n in (561, 1105, 1729, 2465, 41041, 6601):
            assert not is_prime(n)

    def test_large_primes(self):
        assert is_prime(2**31 - 1)
        assert is_prime(4294967291)  # largest prime below 2^32
        assert not is_prime(2**31 + 1)

    def test_edge_values(self):
        assert not is_prime(0)
        assert not is_prime(1)
        assert not is_prime(-7)

    def test_primes_in_range_inclusive(self):
        assert primes_in_range(7, 23) == [7, 11, 13, 17, 19, 23]
        assert primes_in_range(24, 28) == []
        assert primes_in_range(2, 2) == [2]

    @pytest.mark.parametrize(
        "lo,hi",
        [(-5, 30), (0, 0), (0, 1), (1, 2), (2, 3), (3, 3), (4, 4), (24, 28), (50, 10),
         (7, 1000), (961, 1024), (10**6, 10**6 + 500), (10**8, 10**8 + 1000)],
    )
    def test_segmented_sieve_matches_primality(self, lo, hi):
        assert primes_in_range(lo, hi) == [p for p in range(lo, hi + 1) if is_prime(p)]

    def test_sieve_memory_follows_the_range(self):
        # A sieve of hi + 1 bytes would take 100 MB here; the segmented one
        # holds a 1001-byte segment and the 1,229 primes below 10^4.
        tracemalloc.start()
        try:
            primes = primes_in_range(10**8, 10**8 + 1000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(primes) == 54
        assert peak < 1 << 20


class TestPrimePower:
    def test_modulus(self):
        ring = PrimePower(7, 3)
        assert ring.p == 7 and ring.k == 3 and ring.modulus == 343

    def test_rejects_composite_and_two(self):
        with pytest.raises(CompositeModulus):
            PrimePower(15, 2)
        with pytest.raises(CompositeModulus):
            PrimePower(2, 3)
        with pytest.raises(CompositeModulus):
            PrimePower(2**32 + 15, 1)  # beyond the supported base range

    def test_rejects_bad_exponent(self):
        with pytest.raises(ExponentOutOfRange):
            PrimePower(7, 0)
        with pytest.raises(ExponentOutOfRange):
            PrimePower(7, MAX_EXPONENT + 1)

    def test_cached_constructor_identity(self):
        assert prime_power(11, 2) is prime_power(11, 2)
        assert prime_power(11, 2) == PrimePower(11, 2)

    def test_ring_protocol(self):
        ring = prime_power(7, 2)
        assert int(ring.zero()) == 0
        assert int(ring.one()) == 1
        assert int(ring.from_int(-1)) == 48
        assert int(ring.from_fraction(Fraction(1, 2))) == 25  # 2*25 = 50 = 1 mod 49
        assert int(ring.from_int(3) / ring.from_int(2)) == int(
            ring.from_fraction(Fraction(3, 2))
        )


class TestResidueArithmetic:
    def test_canonical_representatives(self):
        ring = prime_power(7, 3)
        assert ring.residue(350).value == 7
        assert ring.from_int(-1).value == 342
        assert ring.residue(-1).value == 342

    def test_mixed_int_and_fraction_operands(self):
        ring = prime_power(7, 3)
        x = ring.from_int(10)
        assert int(x + 5) == 15
        assert int(5 + x) == 15
        assert int(x - 12) == 341
        assert int(12 - x) == 2
        assert int(x * Fraction(1, 2)) == 5
        assert int(Fraction(1, 2) * x) == 5
        assert int(x / 5) == 2
        assert int(20 / x) == 2

    def test_inverse_of_half_mod_343(self):
        ring = prime_power(7, 3)
        assert int(ring.from_fraction(Fraction(1, 2))) == 172

    def test_pow_including_negative(self):
        ring = prime_power(13, 2)
        x = ring.from_int(5)
        assert int(x**0) == 1
        assert int(x**3) == 125 % 169
        assert int(x**-1 * x) == 1
        assert int(x**-2) == int((x * x).inv())

    def test_non_unit_rejected(self):
        ring = prime_power(7, 3)
        with pytest.raises(NotAUnit):
            ring.from_int(14).inv()
        with pytest.raises(NotAUnit):
            _ = ring.one() / ring.from_int(7)

    def test_fraction_with_p_in_denominator_rejected(self):
        ring = prime_power(7, 3)
        with pytest.raises(NotAUnit):
            ring.from_fraction(Fraction(1, 14))
        with pytest.raises(DenominatorDivisibleByP):
            rational_residue(1, 21, ring)

    def test_mixed_moduli_rejected(self):
        with pytest.raises(MixedModuli):
            _ = prime_power(7, 2).one() + prime_power(7, 3).one()
        with pytest.raises(MixedModuli):
            _ = prime_power(7, 2).one() + prime_power(11, 2).one()

    def test_equality_and_hash(self):
        ring = prime_power(7, 2)
        assert ring.from_int(50) == ring.from_int(1)
        assert ring.from_int(50) == 1
        assert hash(ring.from_int(50)) == hash(ring.one())
        assert ring.one() != prime_power(11, 2).one()

    def test_valuation(self):
        ring = prime_power(7, 4)
        assert ring.from_int(3).valuation() == 0
        assert ring.from_int(7 * 5).valuation() == 1
        assert ring.from_int(343).valuation() == 3
        assert ring.zero().valuation() == 4  # capped at the exponent


class TestRingMaps:
    def test_divide_by_p(self):
        ring = prime_power(7, 4)
        x = ring.from_int(7 * 7 * 3)
        y = divide_by_p(x)
        assert y.ring == prime_power(7, 3)
        assert int(y) == 21

    def test_divide_by_p_rejects_units(self):
        with pytest.raises(NotDivisibleByP):
            divide_by_p(prime_power(7, 4).from_int(3))
        with pytest.raises(ExponentOutOfRange):
            divide_by_p(prime_power(7, 1).from_int(7))

    def test_reduce_residue(self):
        x = prime_power(7, 4).from_int(1000)
        assert int(reduce_residue(x, 2)) == 1000 % 49
        with pytest.raises(ExponentOutOfRange):
            reduce_residue(x, 5)

    def test_exact_division_roundtrip(self):
        # (p^2 * u) / p / p == u after two exponent drops
        ring = prime_power(11, 5)
        raw = 987654
        x = ring.from_int(raw) * (11 * 11)
        y = divide_by_p(divide_by_p(x))
        assert int(y) == raw % 11**3


class TestLegendre:
    def test_known_values(self):
        assert legendre(2, 7) == 1
        assert legendre(3, 7) == -1
        assert legendre(-1, 5) == 1
        assert legendre(-1, 7) == -1
        assert legendre(14, 7) == 0
        assert legendre(5, 3) == -1

    @given(st.sampled_from(PRIMES), st.integers(min_value=1, max_value=10**6))
    @settings(max_examples=80, deadline=None)
    def test_multiplicativity(self, p, a):
        assert legendre(a * a, p) in (0, 1)
        assert legendre(a, p) * legendre(a, p) == legendre(a * a, p)

    def test_counts_quadratic_residues(self):
        p = 23
        assert sum(1 for a in range(1, p) if legendre(a, p) == 1) == (p - 1) // 2


class TestInverseTable:
    @pytest.mark.parametrize("p,k", [(7, 1), (7, 3), (101, 2)])
    def test_matches_modular_inverse(self, p, k):
        ring = prime_power(p, k)
        table = inverse_table(ring)
        assert len(table) == p
        assert table[0] == 0
        for i in range(1, p):
            assert i * table[i] % ring.modulus == 1


@given(
    st.sampled_from(PRIMES),
    st.integers(min_value=1, max_value=4),
    st.integers(),
    st.integers(),
)
@settings(max_examples=120, deadline=None)
def test_residue_ring_laws(p, k, a, b):
    ring = prime_power(p, k)
    x, y = ring.from_int(a), ring.from_int(b)
    assert int(x + y) == (a + b) % ring.modulus
    assert int(x * y) == (a * b) % ring.modulus
    assert x + y == y + x
    assert x * (y + ring.one()) == x * y + x
    assert int(-x + x) == 0


@given(st.sampled_from(PRIMES), st.integers(min_value=1, max_value=4), st.integers())
@settings(max_examples=120, deadline=None)
def test_units_invert(p, k, a):
    ring = prime_power(p, k)
    x = ring.from_int(a)
    if a % p == 0:
        with pytest.raises(NotAUnit):
            x.inv()
    else:
        assert int(x * x.inv()) == 1


@given(
    st.sampled_from(PRIMES),
    st.fractions(max_denominator=10**6),
    st.fractions(max_denominator=10**6),
)
@settings(max_examples=120, deadline=None)
def test_from_fraction_is_a_homomorphism(p, q1, q2):
    ring = prime_power(p, 3)
    if q1.denominator % p == 0 or q2.denominator % p == 0:
        return
    assert ring.from_fraction(q1) + ring.from_fraction(q2) == ring.from_fraction(q1 + q2)
    assert ring.from_fraction(q1) * ring.from_fraction(q2) == ring.from_fraction(q1 * q2)
