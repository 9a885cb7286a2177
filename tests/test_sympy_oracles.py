"""The special values and exact sums against sympy, at small primes.

sympy shares no code with the package, so it is an independent oracle for
the values every congruence reads: B_m, E_m and B_{p-2}(1/3) mod p, the
Fibonacci and Lucas numbers, and the exact harmonic numbers.  The module is
skipped where sympy is not installed.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

from congrlab.harmonic import mhs
from congrlab.modring import prime_power, primes_in_range
from congrlab.sequences import lucas_pair_mod, lucas_u_upto, lucas_v_upto
from congrlab.specialnum import bernoulli_number, bernoulli_third, euler_number

sympy = pytest.importorskip("sympy")

PRIMES = primes_in_range(5, 80)


def _mod_p(q, p: int):
    """A sympy rational reduced into Z/p."""
    return prime_power(p, 1).from_fraction(Fraction(int(q.p), int(q.q)))


@pytest.mark.parametrize("p", PRIMES)
def test_bernoulli_numbers(p):
    # B_m(0) is B_m with B_1 = -1/2, the package's convention; sympy >= 1.12
    # gives bernoulli(1) = +1/2.
    for m in range(p - 1):
        assert bernoulli_number(m, p) == _mod_p(sympy.bernoulli(m, 0), p), m


@pytest.mark.parametrize("p", PRIMES)
def test_euler_numbers(p):
    for m in range(p - 2):
        assert euler_number(m, p) == _mod_p(sympy.euler(m), p), m


@pytest.mark.parametrize("p", PRIMES)
def test_bernoulli_third(p):
    assert bernoulli_third(p) == _mod_p(sympy.bernoulli(p - 2, sympy.Rational(1, 3)), p)


@pytest.mark.parametrize("p", PRIMES)
def test_fibonacci_and_lucas_numbers(p):
    ring = prime_power(p, 3)
    for n in (0, 1, 2, p - 1, p, p + 1, 2 * p + 3, p * p):
        u, v = lucas_pair_mod(n, 1, -1, ring)
        assert u == ring.from_int(int(sympy.fibonacci(n))), n
        assert v == ring.from_int(int(sympy.lucas(n))), n
    assert lucas_u_upto(p, 1, -1) == [int(sympy.fibonacci(n)) for n in range(p + 1)]
    assert lucas_v_upto(p, 1, -1) == [int(sympy.lucas(n)) for n in range(p + 1)]


@pytest.mark.parametrize("a", range(1, 7))
def test_exact_harmonic_numbers(a):
    for n in (0, 1, 2, 10, 40, 78):
        h = sympy.harmonic(n, a)
        assert mhs(n, (a,)) == Fraction(int(h.p), int(h.q)), n
