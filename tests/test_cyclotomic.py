import math
import time

import pytest

from mersenne_omega import (
    Budget,
    cyclotomic_split,
    divisor_list,
    factor_mersenne,
    mersenne,
    mersenne_quotient_residue,
    primitive_prime_divisors,
)
from mersenne_omega.factoring import Factorization


def test_divisor_list():
    assert divisor_list(1) == [1]
    assert divisor_list(12) == [1, 2, 3, 4, 6, 12]
    assert divisor_list(49) == [1, 7, 49]
    assert divisor_list(97) == [1, 97]
    with pytest.raises(ValueError):
        divisor_list(0)


def phi(d: int) -> int:
    """Phi_d(2), the last part of cyclotomic_split(d); Phi_1(2) = 1."""
    return cyclotomic_split(d)[-1].value if d > 1 else 1


def test_cyclotomic_value_examples():
    assert cyclotomic_split(1) == []
    assert phi(2) == 3
    assert phi(6) == 3
    assert phi(12) == 13  # 4095 * 3 / (63 * 15)
    assert phi(21) == 2359  # 7 * 337


def test_cyclotomic_product_identity():
    for n in range(1, 201):
        product = 1
        for d in divisor_list(n):
            product *= phi(d)
        assert product == mersenne(n), n
        assert all(part.value == phi(part.d) for part in cyclotomic_split(n)), n


def test_cyclotomic_value_matches_sympy():
    # The split divides 2^d - 1 by the earlier parts, so the product
    # identity above holds by construction; sympy evaluates Phi_d
    # independently.
    sympy = pytest.importorskip("sympy")
    for d in range(1, 401):
        assert phi(d) == int(sympy.cyclotomic_poly(d, 2)), d


def test_cyclotomic_split_examples():
    parts = {p.d: p for p in cyclotomic_split(6)}
    assert {d: p.value for d, p in parts.items()} == {2: 3, 3: 7, 6: 3}
    assert parts[6].intrinsic == 3
    assert {p.d: p.value for p in cyclotomic_split(4)} == {2: 3, 4: 5}
    parts21 = {p.d: p for p in cyclotomic_split(21)}
    assert {d: p.value for d, p in parts21.items()} == {3: 7, 7: 127, 21: 2359}
    assert parts21[21].intrinsic == 7


def test_cyclotomic_intrinsic_is_one_or_largest_prime_to_first_power():
    for n in range(2, 201):
        value = phi(n)
        g = math.gcd(value, n)
        if g == 1:
            continue
        largest = max(p for p in range(2, n + 1) if n % p == 0 and all(p % r for r in range(2, p)))
        assert g == largest, n
        assert (value // g) % g != 0, n  # first power only


def test_primitive_prime_divisors_examples():
    report6 = primitive_prime_divisors(6, factor_mersenne(6))
    assert report6.primitive_primes == () and report6.primitive_part == 1
    report9 = primitive_prime_divisors(9, factor_mersenne(9))
    assert report9.primitive_primes == (73,) and report9.primitive_part == 73
    report21 = primitive_prime_divisors(21, factor_mersenne(21))
    assert report21.primitive_primes == (337,) and report21.primitive_part == 337


def test_primitive_part_divides_target_with_multiplicity():
    # M18 = 3^3 * 7 * 19 * 73; only 19 has order exactly 18
    report = primitive_prime_divisors(18, factor_mersenne(18))
    assert report.primitive_primes == (19,)
    assert mersenne(18) % report.primitive_part == 0


def test_primitive_prime_divisors_rejects_partial_or_mismatched():
    partial = Factorization(mersenne(11), ((23, 1),), 89)
    with pytest.raises(ValueError):
        primitive_prime_divisors(11, partial)
    with pytest.raises(ValueError):
        primitive_prime_divisors(10, factor_mersenne(11))


def test_primitive_prime_divisors_refuses_listed_non_primes():
    # 63 = 7 * 9 rebuilds 2^6 - 1, but 9 is not prime; 2 is not odd.
    with pytest.raises(ValueError, match="q must be an odd prime"):
        primitive_prime_divisors(6, Factorization(63, ((7, 1), (9, 1))))
    with pytest.raises(ValueError, match="q must be an odd prime"):
        primitive_prime_divisors(6, Factorization(63, ((2, 1), (3, 2), (7, 1))))


def test_primitive_prime_divisors_refuses_primes_that_do_not_rebuild_the_target():
    wrong = [
        ((23, 2), (89, 1)),  # wrong exponent
        ((7, 1), (23, 1), (89, 1)),  # 7 does not divide 2^11 - 1
        # A large q that does not divide 2^11 - 1: the order of 2 modulo q
        # must not be looked for by factoring q - 1.
        ((23, 1), (89, 1), (mersenne(521), 1)),
    ]
    for factors in wrong:
        with pytest.raises(ValueError, match="does not rebuild"):
            primitive_prime_divisors(11, Factorization(mersenne(11), factors))


def test_primitive_prime_divisors_refuses_a_forged_exponent_at_once():
    # Multiplying out 31^(10^12) would exhaust memory; dividing 31 by 31
    # twice finds a remainder on the second division.
    forged = Factorization(31, ((31, 10**12),))
    start = time.perf_counter()
    with pytest.raises(ValueError, match="does not rebuild"):
        primitive_prime_divisors(5, forged)
    assert time.perf_counter() - start < 1.0


def test_primitive_prime_divisors_factor_n_once(natural_calls):
    for n in (1, 2, 12, 60, 64, 90, 97):
        f = factor_mersenne(n)
        natural_calls.clear()
        primitive_prime_divisors(n, f)
        assert len(natural_calls) <= 1, (n, natural_calls)


def test_primitive_prime_divisors_match_sympy_order():
    sympy = pytest.importorskip("sympy")
    budget = Budget(rho_iterations_max=1 << 14)
    complete = 0
    for n in range(1, 201):
        f = factor_mersenne(n, budget)
        if not f.complete:
            continue
        complete += 1
        report = primitive_prime_divisors(n, f)
        expected = tuple(q for q in f.primes() if sympy.n_order(2, q) == n)
        assert report.primitive_primes == expected, n
        assert report.primitive_part == math.prod(q ** f.exponent_of(q) for q in expected), n
    assert complete > 150


def test_primitive_divisor_law_up_to_64():
    for n in range(3, 65):
        part = primitive_prime_divisors(n, factor_mersenne(n)).primitive_part
        if n == 6:
            assert part == 1
        else:
            assert part > 1, n
    assert primitive_prime_divisors(1, factor_mersenne(1)).primitive_part == 1
    assert primitive_prime_divisors(2, factor_mersenne(2)).primitive_part == 3


def test_quotient_residue_examples():
    assert mersenne_quotient_residue(3, 5) == 5
    assert mersenne_quotient_residue(2, 3) == 0
    assert mersenne_quotient_residue(3, 9) == 2
    with pytest.raises(ValueError):
        mersenne_quotient_residue(1, 5)
    with pytest.raises(ValueError):
        mersenne_quotient_residue(3, 0)


def test_quotient_residue_matches_division_oracle():
    for p in (2, 3, 5, 7):
        mp = mersenne(p)
        for m in range(1, 13):
            direct = (mersenne(p * m) // mp) % mp
            assert mersenne_quotient_residue(p, m) == direct, (p, m)


def test_gcd_identity():
    for a in range(1, 41):
        for b in range(1, 41):
            assert math.gcd(mersenne(a), mersenne(b)) == mersenne(math.gcd(a, b))
