"""Multiplicative structure of 2^n - 1: divisor enumeration, cyclotomic
parts, primitive prime divisors, and quotient residues.

The key identity is 2^n - 1 = prod over d | n of Phi_d(2), which lets the
factor engine attack each part with congruence conditions specific to d.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .arith import _odd_prime, mersenne
from .factoring import Factorization, factor_natural

__all__ = [
    "CyclotomicPart",
    "PrimitiveReport",
    "divisor_list",
    "cyclotomic_split",
    "primitive_prime_divisors",
    "mersenne_quotient_residue",
]


class CyclotomicPart(NamedTuple):
    """One factor Phi_d(2) of 2^n - 1, for a divisor d of n.

    intrinsic is gcd(Phi_d(2), d): the only prime that can divide the
    part without being a primitive divisor of 2^d - 1.  It is 1 or the
    largest prime factor of d.
    """

    d: int
    value: int
    intrinsic: int


class PrimitiveReport(NamedTuple):
    """Primitive prime divisors of 2^n - 1 (order of 2 equals n) and
    their product with multiplicity."""

    n: int
    primitive_primes: tuple[int, ...]
    primitive_part: int


def divisor_list(n: int) -> list[int]:
    """All divisors of n, ascending."""
    if n < 1:
        raise ValueError("n must be >= 1")
    divisors = [1]
    for p, e in factor_natural(n).factors:
        divisors = [d * p**i for d in divisors for i in range(e + 1)]
    return sorted(divisors)


def cyclotomic_split(n: int) -> list[CyclotomicPart]:
    """Parts Phi_d(2) for every divisor d of n with d >= 2, ascending in d.

    One pass over the divisors in ascending order: Phi_d(2) is 2^d - 1
    divided by the Phi_e(2) already found for the proper divisors e of d.
    Together with Phi_1(2) = 1 their product is 2^n - 1.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    values: dict[int, int] = {}
    for d in divisor_list(n):
        values[d] = mersenne(d) // math.prod(v for e, v in values.items() if d % e == 0)
    return [CyclotomicPart(d, v, math.gcd(v, d)) for d, v in values.items() if d >= 2]


def primitive_prime_divisors(n: int, f: Factorization) -> PrimitiveReport:
    """Filter the primes of a complete factorization of 2^n - 1 down to
    those whose multiplicative order of 2 is exactly n: with n factored
    once, q | 2^n - 1 is primitive when 2^(n/r) != 1 (mod q) for every
    prime r | n.  Refuses a partial factorization (a missing factor makes
    primitivity undecidable) and one whose listed primes are not odd
    primes or do not rebuild 2^n - 1.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if not f.complete:
        raise ValueError("complete factorization required")
    if f.target != mersenne(n):
        raise ValueError(f"factorization target is not 2^{n} - 1")
    if not all(map(_odd_prime, f.primes())):
        raise ValueError("q must be an odd prime")
    if not f.reconstructs():
        raise ValueError(f"factorization does not rebuild 2^{n} - 1")
    n_primes = factor_natural(n).primes()
    primes = tuple(q for q in f.primes() if all(pow(2, n // r, q) != 1 for r in n_primes))
    return PrimitiveReport(n, primes, math.prod(q**e for q, e in f.factors if q in primes))


def mersenne_quotient_residue(p: int, m: int) -> int:
    """Residue of (2^(p*m) - 1)/(2^p - 1) modulo 2^p - 1.

    The quotient is the m-term sum of 2^(k*p), each term congruent to 1,
    so the residue is simply m mod (2^p - 1).  It vanishes exactly when
    2^p - 1 divides m.
    """
    if p < 2:
        raise ValueError("p must be >= 2")
    if m < 1:
        raise ValueError("m must be >= 1")
    return m % mersenne(p)
