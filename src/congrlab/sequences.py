"""Lucas-type sequences, Fermat/Lucas quotients and central binomial tables.

The recurrences here are generic over the coefficient ring: any element type
with ``+``, ``-``, ``*`` and ``** 0`` works (modular residues, exact
rationals, polynomials, quadratic-field elements), and the u/v functions
take the coefficients x and y as two arguments.  Mod p^k there is also fast
doubling for single far-out terms such as F_p, L_p and w_n, and
``recurrence_column``, every term up to n of a one-parameter (y = 1)
recurrence as raw integers for the sums.

Sequence conventions:

* ``u`` and ``v`` solve s_n = x*s_{n-1} - y*s_{n-2} with seeds
  u_0 = 0, u_1 = 1 and v_0 = 2, v_1 = x.  The one-parameter forms
  u_n(x) = u_n(x, 1), v_n(x) = v_n(x, 1).
* Fibonacci and Lucas numbers are F_n = u_n(1, -1), L_n = v_n(1, -1).
* ``w`` solves w_{n+1} = 2x*w_n - w_{n-1} with w_0 = 1, w_1 = 1 + 2x, so
  w_n(x) = u_{n+1}(2x) + u_n(2x).
"""

from __future__ import annotations

from .errors import BaseDivisibleByP, PreconditionViolated
from .modring import PrimePower, Residue, divide_by_p, inverse_table, legendre, prime_power, unit_cached

__all__ = [
    "lucas_u_upto",
    "lucas_v_upto",
    "lucas_pair_mod",
    "recurrence_column",
    "w_value",
    "w_value_mod",
    "fermat_quotient",
    "lucas_quotient",
    "central_binomials",
]


def _check_index(n: int) -> None:
    if n < 0:
        raise PreconditionViolated(f"index n must be non-negative, got {n}")


def _lucas_upto(n: int, x, y, s0, s1) -> list:
    """[s_0, s_1, ..., s_n] of s_j = x*s_{j-1} - y*s_{j-2} from the seeds."""
    _check_index(n)
    out = [s0, s1][: n + 1]
    for _ in range(n - 1):
        out.append(x * out[-1] - y * out[-2])
    return out


def lucas_u_upto(n: int, x, y) -> list:
    """[u_0, u_1, ..., u_n] of u(x, y)."""
    return _lucas_upto(n, x, y, x * 0, x**0)


def lucas_v_upto(n: int, x, y) -> list:
    """[v_0, v_1, ..., v_n] of v(x, y)."""
    one = x**0
    return _lucas_upto(n, x, y, one + one, x)


def recurrence_column(n: int, s0: int, s1: int, x: int, m: int) -> list[int]:
    """[s_0, ..., s_{n-1}] mod m for s_j = x*s_{j-1} - s_{j-2}, as raw integers.

    The seeds (s0, s1) pick the sequence: (0, 1) gives u_n(x), (2, x) gives
    v_n(x).  Every other term of u or v at y = 1 or -1 (Fibonacci, Lucas) is
    the same recurrence at x = v_2, since y^2 = 1, and negating x gives
    (-1)^j * s_j.
    """
    a, b = s0 % m, s1 % m
    out = [a, b][:n]
    for _ in range(n - 2):
        a, b = b, (x * b - a) % m
        out.append(b)
    return out


def lucas_pair_mod(n: int, x, y, ring: PrimePower) -> tuple[Residue, Residue]:
    """(u_n, v_n) in Z/p^k by fast doubling on the pair (u_k, u_{k+1}).

    Doubling identities (valid for arbitrary y):
    u_{2k} = u_k * (2*u_{k+1} - x*u_k), u_{2k+1} = u_{k+1}^2 - y*u_k^2,
    and v_n = 2*u_{n+1} - x*u_n.  x and y are read by ``ring.value_of``.
    """
    _check_index(n)
    m = ring.modulus
    xi, yi = ring.value_of(x), ring.value_of(y)
    a, b = 0, 1
    for bit in map(int, bin(n)[2:]) if n else ():
        c = a * (2 * b - xi * a) % m
        d = (b * b - yi * a * a) % m
        if bit:
            a, b = d, (xi * d - yi * c) % m
        else:
            a, b = c, d
    return ring.from_int(a), ring.from_int(2 * b - xi * a)


def w_value(n: int, x):
    """w_n(x), generic over the coefficient ring."""
    _check_index(n)
    one = x**0
    if n == 0:
        return one
    prev, cur = one, one + x + x
    for _ in range(n - 1):
        prev, cur = cur, (x + x) * cur - prev
    return cur


def w_value_mod(n: int, x, ring: PrimePower) -> Residue:
    """w_n(x) in Z/p^k in O(log n), x an int, a rational or a residue of the ring.

    w_n(x) = u_{n+1} + u_n at Lucas parameters (2x, 1), and
    u_{n+1} = v_n/2 + x*u_n, so one ``lucas_pair_mod`` call gives it.
    """
    u, v = lucas_pair_mod(n, x * 2, 1, ring)
    return u * (x + 1) + v * ((ring.modulus + 1) // 2)  # (m+1)/2 = 1/2 mod m


def fermat_quotient(a: int, p: int, k: int = 1) -> Residue:
    """Fermat quotient q_p(a) = (a^(p-1) - 1)/p as a residue mod p^k.

    Computed exactly: a^(p-1) mod p^(k+1), minus one, divided by p once.
    """
    if a % p == 0:
        raise BaseDivisibleByP(f"p={p} divides the base a={a}")
    work = prime_power(p, k + 1)
    return divide_by_p(work.from_int(pow(a, p - 1, work.modulus) - 1))


def lucas_quotient(p: int, k: int = 1) -> Residue:
    """Lucas quotient q_L = (L_p - 1)/p as a residue mod p^k."""
    return divide_by_p(lucas_pair_mod(p, 1, -1, prime_power(p, k + 1))[1] - 1)


def _fibonacci_quotient(p: int, k: int = 1) -> Residue:
    """Fibonacci quotient (F_p - (p|5))/p as a residue mod p^k, p != 5."""
    return divide_by_p(lucas_pair_mod(p, 1, -1, prime_power(p, k + 1))[0] - legendre(p, 5))


@unit_cached
def central_binomials(ring: PrimePower) -> tuple[int, ...]:
    """C(2k, k) mod p^k for 0 <= k <= (p-1)/2, as raw integers, via the ratio
    k*C(2k,k) = 2(2k-1)*C(2k-2,k-1).

    All divisors k <= (p-1)/2 are units mod p, so the table is exact in the
    ring; built in O(p) with the cached inverse table.
    """
    p, m = ring.p, ring.modulus
    inv = inverse_table(ring)
    half = (p - 1) // 2
    raw = [1] * (half + 1)
    c = 1
    for k in range(1, half + 1):
        c = c * (2 * (2 * k - 1)) % m * inv[k] % m
        raw[k] = c
    return tuple(raw)
