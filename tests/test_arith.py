import itertools
import math
import random

import pytest

from mersenne_omega import (
    Verdict,
    integer_root,
    is_perfect_power,
    is_probable_prime,
    lucas_lehmer,
    mersenne,
    mod_mersenne,
)
from mersenne_omega import arith, factoring, splitting
from mersenne_omega.arith import _is_strong_probable_prime, _prime_like, _primes_up_to, _ring, _ring_pow
from mersenne_omega.cyclotomic import cyclotomic_split, primitive_prime_divisors
from mersenne_omega.factoring import Budget, factor_mersenne, trial_divide_congruence


def test_mersenne_values():
    assert mersenne(0) == 0
    assert mersenne(1) == 1
    assert mersenne(4) == 15
    assert mersenne(11) == 2047
    with pytest.raises(ValueError):
        mersenne(-1)


def test_mod_mersenne_examples():
    assert mod_mersenne(21, 2) == 0  # 21 = 7 * 3
    for n in (2, 5, 31, 64, 127):
        assert mod_mersenne(1 << n, n) == 1
    # n = 1 degenerates: everything is 0 modulo 2^1 - 1
    assert mod_mersenne(2, 1) == 0
    assert mod_mersenne(4681, 3) == 5  # 4681 = 668 * 7 + 5


def test_mod_mersenne_rejects_bad_input():
    with pytest.raises(ValueError):
        mod_mersenne(5, 0)
    with pytest.raises(ValueError):
        mod_mersenne(-1, 3)


def test_mod_mersenne_matches_generic_remainder():
    rng = random.Random(0x5EED)
    for _ in range(5000):
        n = rng.randrange(1, 129)
        x = rng.getrandbits(rng.randrange(1, 257))
        assert mod_mersenne(x, n) == x % ((1 << n) - 1)


def test_mod_mersenne_range():
    # result always lands in [0, 2^n - 2]
    for x in range(200):
        for n in (1, 2, 3, 5):
            r = mod_mersenne(x, n)
            assert 0 <= r <= (1 << n) - 2


def test_primality_edge_cases():
    assert is_probable_prime(0) is Verdict.COMPOSITE
    assert is_probable_prime(1) is Verdict.COMPOSITE
    assert is_probable_prime(2) is Verdict.PRIME


def test_primality_known_values():
    assert is_probable_prime(178481) is Verdict.PRIME
    assert is_probable_prime(4432676798593) is Verdict.PRIME
    assert is_probable_prime(2047) is Verdict.COMPOSITE  # 23 * 89
    assert is_probable_prime(8191) is Verdict.PRIME


def test_primality_agrees_with_trial_division_below_10k():
    def slow(n):
        if n < 2:
            return False
        return all(n % d for d in range(2, math.isqrt(n) + 1))

    for n in range(10000):
        got = is_probable_prime(n) is not Verdict.COMPOSITE
        assert got == slow(n), n


def test_small_values_are_settled_by_trial_division(monkeypatch):
    strong_tests = []
    strong = arith._is_strong_probable_prime
    monkeypatch.setattr(
        arith, "_is_strong_probable_prime", lambda x, base: strong_tests.append(x) or strong(x, base)
    )
    primes = set(_primes_up_to(50_000))
    for x in range(50_000):
        assert (is_probable_prime(x) is Verdict.PRIME) == (x in primes), x
    # 199^2 = 39601: below it a composite has a prime factor up to 199.
    assert strong_tests and min(strong_tests) > 199**2


# Where is_probable_prime changes method: 199^2, the bounds of the
# strong-base ranges, and 2^64.
_RANGE_BOUNDS = (199**2, 1_373_653, 25_326_001, 4_759_123_141, 1 << 64)
# The nearest prime below each bound and the nearest at or above it.
_NEAREST_PRIMES = {
    199**2: (39_581, 39_607),
    1_373_653: (1_373_639, 1_373_677),
    25_326_001: (25_325_981, 25_326_023),
    4_759_123_141: (4_759_123_129, 4_759_123_151),
    1 << 64: ((1 << 64) - 59, (1 << 64) + 13),
}
# Base-2 strong pseudoprimes: each is the least that passes some set of
# strong bases (2047 for base 2 alone, 1,373,653 for bases 2 and 3, ...,
# 3,825,123,056,546,413,051 for the primes up to 23), and F5 = 2^32 + 1.
_BASE_TWO_PSEUDOPRIMES = (
    2047,
    1_373_653,
    25_326_001,
    3_215_031_751,
    4_759_123_141,
    2_152_302_898_747,
    3_474_749_660_383,
    341_550_071_728_321,
    3_825_123_056_546_413_051,
    4_294_967_297,
)
# Strong pseudoprimes with no prime factor up to 199 that pass every base
# of their range's set but one, keyed by the bases they pass.
_ONE_BASE_SHORT = {
    (3,): 221_761,
    (2,): 104_653,
    (3, 5): 3_543_121,
    (2, 5): 14_709_241,
    (2, 3): 1_530_787,
    (7, 61): 588_942_847,
    (2, 61): 189_714_193,
    (2, 7): 60_581_401,
}
_SINCLAIR_BASES = (2, 325, 9375, 28178, 450775, 9780504, 1795265022)


def _seven_base_verdict(x):
    """The reference below 2^64: trial division by the primes up to 199,
    then strong tests to Sinclair's seven bases, proven exhaustive there."""
    if x < 2:
        return Verdict.COMPOSITE
    for p in _primes_up_to(199):
        if x == p:
            return Verdict.PRIME
        if x % p == 0:
            return Verdict.COMPOSITE
    if x < 199**2 or all(_is_strong_probable_prime(x, b) for b in _SINCLAIR_BASES):
        return Verdict.PRIME
    return Verdict.COMPOSITE


def _next_prime(x):
    while _seven_base_verdict(x) is not Verdict.PRIME:
        x += 1
    return x


def _products_straddling(bound):
    """p * q for primes p of 8 bits up to half of bound's, with q the
    primes around bound / p, so some products fall below bound and some
    above; and p * (2p - 1) near the bound, the usual shape of a strong
    pseudoprime."""
    for bits in range(8, bound.bit_length() // 2 + 1, 3):
        p = _next_prime(1 << bits)
        q = _next_prime(bound // p - 40)
        for _ in range(6):
            yield p * q
            q = _next_prime(q + 1)
    p = math.isqrt(bound // 2) - 2000
    for _ in range(40):
        p = _next_prime(p + 1)
        if _seven_base_verdict(2 * p - 1) is Verdict.PRIME:
            yield p * (2 * p - 1)


def test_base_two_strong_pseudoprimes_are_composite():
    for x in _BASE_TWO_PSEUDOPRIMES:
        assert _is_strong_probable_prime(x, 2), x
        assert is_probable_prime(x) is Verdict.COMPOSITE, x


def test_each_base_of_a_range_is_needed():
    for bases, x in _ONE_BASE_SHORT.items():
        assert math.gcd(x, math.prod(_primes_up_to(199))) == 1
        assert all(_is_strong_probable_prime(x, b) for b in bases), x
        assert is_probable_prime(x) is Verdict.COMPOSITE, x
    # Base-2 strong pseudoprimes past 4,759,123,141 that only the strong
    # Lucas test rejects.
    for x in (4_840_446_043, 6_209_592_313, 3_825_123_056_546_413_051):
        assert _is_strong_probable_prime(x, 2) and math.gcd(x, math.prod(_primes_up_to(199))) == 1
        assert is_probable_prime(x) is Verdict.COMPOSITE, x


def test_nearest_primes_around_each_range_bound():
    for bound in _RANGE_BOUNDS:
        below, above = _NEAREST_PRIMES[bound]
        assert below < bound <= above
        for x in range(below, above + 1):
            prime = x in (below, above)
            expected = Verdict.COMPOSITE if not prime else Verdict.PRIME if x < 1 << 64 else Verdict.PROBABLE_PRIME
            assert is_probable_prime(x) is expected, x


def test_range_table_agrees_with_seven_bases_below_2_64():
    rng = random.Random(0x7B5E)
    for lo, hi in zip(_RANGE_BOUNDS, _RANGE_BOUNDS[1:]):
        sample = [rng.randrange(lo, hi) | 1 for _ in range(10_000)]
        assert sum(_seven_base_verdict(x) is Verdict.PRIME for x in sample) > 200
        for x in sample:
            assert is_probable_prime(x) is _seven_base_verdict(x), x
    for bound in _RANGE_BOUNDS[1:-1]:
        products = list(_products_straddling(bound))
        assert min(products) < bound < max(products)
        for x in products:
            assert is_probable_prime(x) is _seven_base_verdict(x) is Verdict.COMPOSITE, x


def _count_tests(monkeypatch):
    """A dict of the strong and strong Lucas tests run since the last reset."""
    calls = {"strong": 0, "lucas": 0}
    strong, lucas = arith._is_strong_probable_prime, arith._is_strong_lucas_probable_prime

    def counted(name, test):
        def run(*args):
            calls[name] += 1
            return test(*args)

        return run

    monkeypatch.setattr(arith, "_is_strong_probable_prime", counted("strong", strong))
    monkeypatch.setattr(arith, "_is_strong_lucas_probable_prime", counted("lucas", lucas))
    return calls


def test_range_table_runs_the_fewest_tests(monkeypatch):
    calls = _count_tests(monkeypatch)
    rng = random.Random(0xC0DE)
    values = [*_BASE_TWO_PSEUDOPRIMES, *(p for pair in _NEAREST_PRIMES.values() for p in pair)]
    for lo, hi in zip(_RANGE_BOUNDS, _RANGE_BOUNDS[1:]):
        values += (_next_prime(rng.randrange(lo, hi)) for _ in range(50))
    for x in (x for x in values if x < 1 << 64):
        calls.update(strong=0, lucas=0)
        is_probable_prime(x)
        if x < 4_759_123_141:
            assert calls["strong"] <= 3 and calls["lucas"] == 0, x
        else:
            # Strong bases 3 and 2, then the strong Lucas test.
            assert calls["strong"] <= 2 and calls["lucas"] <= 1, x


def test_composite_cyclotomic_pieces_run_no_lucas_test(monkeypatch):
    # A composite piece of Phi_d(2) with odd d passes the strong base-2
    # test; base 3, which runs first, rejects each of these on its own.
    small = math.prod(_primes_up_to(199))
    pieces = [
        v
        for d, v in _cyclotomic_cofactors(160)
        if d % 2
        and 4_759_123_141 <= v < 1 << 64
        and math.gcd(v, small) == 1
        and _seven_base_verdict(v) is Verdict.COMPOSITE
    ]
    assert len(pieces) >= 20
    calls = _count_tests(monkeypatch)
    for v in pieces:
        assert _is_strong_probable_prime(v, 2), v
        calls.update(strong=0, lucas=0)
        assert is_probable_prime(v) is Verdict.COMPOSITE, v
        assert calls["strong"] == 1 and calls["lucas"] == 0, v


def test_sieve_segments_agree_with_the_whole_table():
    table = _primes_up_to(300_000)
    assert len(table) == 25997  # pi(3 * 10^5)
    edges = (1, 2, 3, 4, 48, 49, 50, 65536, 65537, 299_999, 300_000)
    for lo in edges:
        for hi in edges:
            assert arith._sieve(lo, hi) == [p for p in table if lo < p <= hi], (lo, hi)
    segments = [arith._sieve(lo, min(lo + (1 << 16), 300_000)) for lo in range(1, 300_000, 1 << 16)]
    assert [p for segment in segments for p in segment] == list(table)
    window = range(65_000, 66_000)
    assert arith._sieve(64_999, 65_999) == [x for x in window if is_probable_prime(x) is Verdict.PRIME]


def test_primality_verdicts_split_at_2_64():
    # below 2^64 never PROBABLE_PRIME; at or above never PRIME
    assert is_probable_prime((1 << 61) - 1) is Verdict.PRIME
    assert is_probable_prime(mersenne(89)) is Verdict.PROBABLE_PRIME
    assert is_probable_prime(mersenne(107)) is Verdict.PROBABLE_PRIME
    assert is_probable_prime(mersenne(67)) is Verdict.COMPOSITE
    assert is_probable_prime(mersenne(101)) is Verdict.COMPOSITE


def test_primality_is_reproducible_above_2_64():
    x = mersenne(127)
    assert is_probable_prime(x) is is_probable_prime(x) is Verdict.PROBABLE_PRIME


def _lucas_lehmer_squarings(p):
    """Lucas-Lehmer by its squarings alone, each reduced by %."""
    m = mersenne(p)
    s = 4
    for _ in range(p - 2):
        s = (s * s - 2) % m
    return s == 0


def test_lucas_lehmer_examples():
    for p in (3, 5, 7, 13, 17, 19, 31):
        assert lucas_lehmer(p) is True, p
    assert lucas_lehmer(11) is False
    assert is_probable_prime(8191) is Verdict.PRIME  # cross-check M13


def test_lucas_lehmer_rejects_bad_exponent():
    for p in (2, 4, 9, 15, 1):
        with pytest.raises(ValueError):
            lucas_lehmer(p)


def test_lucas_lehmer_agrees_with_probable_prime():
    for p in range(3, 1301, 2):
        if is_probable_prime(p) is Verdict.COMPOSITE:
            continue
        expected = is_probable_prime(mersenne(p)) is not Verdict.COMPOSITE
        assert lucas_lehmer(p) == expected, p


def test_lucas_lehmer_agrees_with_its_squarings_alone():
    for p in _primes_up_to(1500)[1:]:
        assert lucas_lehmer(p) is _lucas_lehmer_squarings(p), p


@pytest.mark.parametrize("p, factor", [(11, 23), (23, 47), (2351, 4703), (151, None)])
def test_lucas_lehmer_trial_factors_before_squaring(monkeypatch, p, factor):
    # Only the squarings reach mod_mersenne.  23, 47 and 4703 are 2p + 1;
    # the least factor of 2^151 - 1 is 18121 = 2 * 60 * 151 + 1, and
    # 60 > 151 / 4, so the squarings decide it.
    squarings = []
    reduce = arith.mod_mersenne
    monkeypatch.setattr(arith, "mod_mersenne", lambda x, n: squarings.append(n) or reduce(x, n))
    assert lucas_lehmer(p) is False
    if factor is None:
        assert squarings == [p]
        assert mersenne(p) % 18121 == 0 and 18121 == 2 * 60 * p + 1
    else:
        assert squarings == []
        assert factor == 2 * p + 1 and mersenne(p) % factor == 0


def _strong_lucas_u_v(x):
    """The strong Lucas test by a binary ladder on U_k and V_k together,
    with Selfridge's parameters; the reference for arith's V-only ladder."""
    r = math.isqrt(x)
    if r * r == x:
        return False
    d = 5
    while True:
        j = arith._jacobi(d, x)
        if j == 0:
            return abs(d) == x
        if j == -1:
            break
        d = -(d + 2) if d > 0 else -(d - 2)
    q = (1 - d) // 4
    k = x + 1
    s = (k & -k).bit_length() - 1
    k >>= s
    u, v, qk = 1, 1, q % x
    for bit in bin(k)[3:]:
        u = u * v % x
        v = (v * v - 2 * qk) % x
        qk = qk * qk % x
        if bit == "1":
            u, v = u + v, d * u + v
            if u & 1:
                u += x
            if v & 1:
                v += x
            u = (u >> 1) % x
            v = (v >> 1) % x
            qk = qk * q % x
    if u == 0 or v == 0:
        return True
    for _ in range(s - 1):
        v = (v * v - 2 * qk) % x
        if v == 0:
            return True
        qk = qk * qk % x
    return False


# The 16 smallest strong Lucas pseudoprimes with Selfridge's parameters
# (OEIS A217255).
_STRONG_LUCAS_PSEUDOPRIMES = (
    5459, 5777, 10877, 16109, 18971, 22499, 24569, 25199,
    40309, 58519, 75077, 97439, 100127, 113573, 115639, 130139,
)  # fmt: skip


def test_strong_lucas_ladder_agrees_with_the_u_v_ladder():
    lucas = arith._is_strong_lucas_probable_prime
    rng = random.Random(0x1A5)
    for lo, hi in ((4_759_123_141, 1 << 64), (1 << 64, 1 << 128)):
        sample = [rng.randrange(lo, hi) | 1 for _ in range(10_000)]
        passed = 0
        for x in sample:
            got = lucas(x)
            assert got is _strong_lucas_u_v(x), x
            passed += got
        assert passed > 100
    for x in range(3, 20_001, 2):
        assert lucas(x) is _strong_lucas_u_v(x), x
    for x in _STRONG_LUCAS_PSEUDOPRIMES:
        assert x % 2 and _seven_base_verdict(x) is Verdict.COMPOSITE, x
        assert lucas(x) and _strong_lucas_u_v(x), x


def test_strong_lucas_refuses_squares_and_a_shared_factor_with_d():
    lucas = arith._is_strong_lucas_probable_prime
    for r in (3, 5, 1001, 65537, (1 << 40) + 15):
        assert not lucas(r * r) and not _strong_lucas_u_v(r * r), r
    # D = 5 for the first two; (5|x) = 1 moves the last two on to D = -7.
    for x, d in ((35, 5), (5 * 65537, 5), (21, -7), (91, -7)):
        assert arith._jacobi(d, x) == 0, x
        assert not lucas(x) and not _strong_lucas_u_v(x), x


@pytest.mark.parametrize("p", [67, 101, 103, 109])
def test_base_two_is_blind_to_composite_mersenne_numbers(p):
    # 2^p = 1 (mod M_p) and p | 2^(p-1) - 1 = (M_p - 1)/2, so the strong
    # base-2 test passes every M_p; base 3 is what rejects a composite one.
    assert _is_strong_probable_prime(mersenne(p), 2)
    assert not _is_strong_probable_prime(mersenne(p), 3)
    assert is_probable_prime(mersenne(p)) is Verdict.COMPOSITE


def _cyclotomic_cofactors(max_d, min_d=2):
    """(d, v) for v = Phi_d(2) without its intrinsic prime, then for what
    is left after each prime the congruence scan finds below 10^5, for
    min_d <= d <= max_d."""
    for d in range(min_d, max_d + 1):
        part = cyclotomic_split(d)[-1]
        v = part.value
        while part.intrinsic > 1 and v % part.intrinsic == 0:
            v //= part.intrinsic
        yield d, v
        for q in trial_divide_congruence(v, d, 10**5):
            while v % q == 0:
                v //= q
            yield d, v


def _ring_pow_cases(rng):
    for p in (3, 5, 61, 256, 257, 521, 1279):
        m = mersenne(p)
        for b in (0, 1, 3, m - 1, m, m + 5, rng.getrandbits(2 * p)):
            for e in (0, 1, 2, m - 1, rng.getrandbits(p)):
                yield b, e, p


def test_ring_power_equals_pow_modulo_the_mersenne_number():
    for b, e, p in _ring_pow_cases(random.Random(0x51)):
        assert _ring_pow(b, e, p) == pow(b, e, mersenne(p)), (b, e, p)


def test_ring_is_chosen_from_size_alone():
    assert _ring(mersenne(255), 255) is None
    assert _ring(mersenne(256), 256) == 256
    # At least three quarters of d's bits: 192 of 256.
    assert _ring(1 << 190, 256) is None
    assert _ring(1 << 191, 256) == 256
    assert _ring(mersenne(300), None) is None


def test_ring_strong_test_agrees_with_the_plain_one_on_cyclotomic_cofactors():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(0x5C0F)
    checked = passed = squared = 0
    for d, v in _cyclotomic_cofactors(1300, min_d=256):
        if _ring(v, d) is None:
            continue
        strong = _is_strong_probable_prime(v, 3, d)
        assert strong == _is_strong_probable_prime(v, 3), (d, v)
        checked += 1
        if not strong:
            assert not _prime_like(v, d), (d, v)
            continue
        # Seeded bases on a value that passes base 3.  Where 4 | v - 1,
        # most of them leave b^k other than +-1, so the squarings run.
        for base in (2, *(rng.randrange(3, v - 1) for _ in range(4))):
            assert _is_strong_probable_prime(v, base, d) == _is_strong_probable_prime(v, base), (d, v, base)
        assert arith._is_strong_lucas_probable_prime(v, d) == arith._is_strong_lucas_probable_prime(v), (d, v)
        assert _prime_like(v, d) == sympy.isprime(v), (d, v)
        passed += 1
        squared += v % 4 == 1
    assert checked > 400 and passed >= 10 and squared >= 4


# The 45 indices one perfbench bigprime pass factors (perfbench/workloads.py:
# BIGPRIME_FIXED, the primes whose M_p completes, and 37 spaced ones).
_BIGPRIME_INDICES = (
    *(1021, 1050, 1069, 1123, 1193, 1249, 1279, 1303, 1373, 1439, 1459, 1489, 1553, 1607, 1663),
    *(1721, 1783, 1861, 1907, 1987, 2029, 2089, 2141, 2203, 2237, 2281, 2293, 2310, 2351, 2399),
    *(2467, 2543, 2617, 2677, 2713, 2777, 2837, 2897, 2963, 3000, 3037, 3109, 3187, 3217, 3257),
)


def test_ring_verdicts_agree_with_is_probable_prime_on_the_bigprime_pieces(monkeypatch):
    tested = []

    def recording(x, d=None):
        verdict = _prime_like(x, d)
        if _ring(x, d) is not None:
            tested.append((x, verdict))
        return verdict

    monkeypatch.setattr(factoring, "_prime_like", recording)
    monkeypatch.setattr(splitting, "_prime_like", recording)
    for n in _BIGPRIME_INDICES:
        factor_mersenne(n, Budget(rho_iterations_max=1000))
    # M_1459's 1429-bit cofactor is the one probable prime among them.
    assert len(tested) >= 20 and any(verdict for _, verdict in tested)
    for x, verdict in tested:
        assert verdict == (is_probable_prime(x) is not Verdict.COMPOSITE), x


def _ring_divisors(rng, count, lo, hi):
    """count distinct (d, x), lo <= d <= hi, with x a divisor of 2^d - 1
    that _ring admits: 2^d - 1 less a seeded choice of its intrinsic
    primes, the primes below 10^6 the scan finds in its parts, and what is
    left of each part.  The primes below 200 are dropped more often, so
    that more x get past is_probable_prime's gcd."""
    factors = {}
    for d in range(lo, hi + 1):
        factors[d] = []
        for part in cyclotomic_split(d):
            v = part.value
            while part.intrinsic > 1 and v % part.intrinsic == 0:
                v //= part.intrinsic
                factors[d].append(part.intrinsic)
            for q in trial_divide_congruence(v, part.d, 10**6):
                while v % q == 0:
                    v //= q
                    factors[d].append(q)
            if v > 1:
                factors[d].append(v)
    found = set()
    while len(found) < count:
        d = rng.randrange(lo, hi + 1)
        x = mersenne(d)
        for q in factors[d]:
            if rng.random() < (0.9 if q < 200 else 0.5) and 4 * (x // q).bit_length() >= 3 * d:
                x //= q
        found.add((d, x))
    return sorted(found)


def test_ring_verdicts_agree_with_is_probable_prime_on_seeded_divisors():
    rng = random.Random(0xD1F)
    divisors = _ring_divisors(rng, 10_000, 256, 400)
    small = math.prod(_primes_up_to(199))
    assert sum(math.gcd(x, small) == 1 for _, x in divisors) > 2000
    blind = 0
    for i, (d, x) in enumerate(divisors):
        assert _ring(x, d) == d
        verdict = _prime_like(x, d)
        assert verdict == (is_probable_prime(x) is not Verdict.COMPOSITE), (d, x)
        if i % 10 == 0:
            base = rng.randrange(2, x - 1)
            assert _is_strong_probable_prime(x, base, d) == _is_strong_probable_prime(x, base), (d, x, base)
        if i % 50 == 0:
            assert arith._is_strong_lucas_probable_prime(x, d) == arith._is_strong_lucas_probable_prime(x), (d, x)
        if not verdict and is_probable_prime(d) is Verdict.PRIME:
            # Every prime q of 2^d - 1 is 1 (mod 2d), so x - 1 = 2^s k
            # with d | k and 2^k = 1 (mod x): base 2 passes both ways.
            assert _is_strong_probable_prime(x, 2, d) and _is_strong_probable_prime(x, 2), (d, x)
            blind += 1
    assert blind >= 50


def _products_of_two_primes(sympy, rng, count):
    """p * q for primes p, q above 2^32, half of them with q = 2p - 1."""
    for i in range(count):
        p = sympy.nextprime(rng.randrange(1 << 32, 1 << 48))
        if i % 2:
            while not sympy.isprime(2 * p - 1):
                p = sympy.nextprime(p)
            yield p * (2 * p - 1)
        else:
            yield p * sympy.nextprime(rng.randrange(1 << 32, 1 << 64))


def _random_odd_values(sympy, rng):
    """Odd values of 65..1024 bits, and the next prime above some of them."""
    for bits in range(65, 1025, 9):
        x = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
        yield x
        if bits <= 512:
            yield sympy.nextprime(x)


def test_primality_agrees_with_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(0x3B5E)
    values = [
        *(v for _, v in _cyclotomic_cofactors(300)),
        *_products_of_two_primes(sympy, rng, 40),
        *_random_odd_values(sympy, rng),
    ]
    for x in values:
        assert (is_probable_prime(x) is not Verdict.COMPOSITE) == sympy.isprime(x), x
    big = [x for x in values if x >= 1 << 64]
    assert len(big) > 300 and sum(map(sympy.isprime, big)) > 50


def test_primitive_prime_divisors_examples():
    # 2^3 = 8 = 1 (mod 7): 7 first divides 2^3 - 1, 73 first 2^9 - 1.
    for q, n in ((7, 3), (73, 9), (337, 21)):
        assert q in primitive_prime_divisors(n, factor_mersenne(n)).primitive_primes


def test_primitive_prime_divisors_properties():
    # q is primitive for exactly one n: the order of 2 modulo q, the least
    # e with 2^e = 1 (mod q), which divides q - 1.
    for q in (3, 5, 7, 11, 13, 17, 23, 31, 73, 89, 127, 151, 178481, 262657):
        e = next(n for n in itertools.count(1) if pow(2, n, q) == 1)
        assert (q - 1) % e == 0
        reports = [primitive_prime_divisors(n, factor_mersenne(n)) for n in range(1, e + 1)]
        assert [r.n for r in reports if q in r.primitive_primes] == [e]


def test_integer_root():
    assert integer_root(0, 3) == 0
    assert integer_root(1, 5) == 1
    assert integer_root(26, 3) == 2
    assert integer_root(27, 3) == 3
    assert integer_root(28, 3) == 3
    rng = random.Random(7)
    for _ in range(2000):
        k = rng.randrange(2, 12)
        b = rng.randrange(2, 1000)
        x = b**k + rng.randrange(-1, 2)
        r = integer_root(x, k)
        assert r**k <= x < (r + 1) ** k


def test_perfect_power_canonical_form():
    assert is_perfect_power(16) == (2, 4)
    assert is_perfect_power(64) == (2, 6)
    assert is_perfect_power(36) == (6, 2)
    assert is_perfect_power(216) == (6, 3)
    assert is_perfect_power(512) == (2, 9)
    assert is_perfect_power(15) is None
    assert is_perfect_power(8388607) is None
    with pytest.raises(ValueError):
        is_perfect_power(1)


def test_perfect_power_sieves_its_exponent_table_once(monkeypatch):
    sieves = []
    monkeypatch.setattr(arith, "_primes_up_to", lambda limit: sieves.append(limit) or _primes_up_to(limit))
    arith._exponent_table.cache_clear()
    rng = random.Random(0x3000)
    for i in range(50):
        if i % 5:
            x = rng.getrandbits(3000) | 1 << 2999
            assert is_perfect_power(x) is None
        else:
            # A cube: the 1000-bit root is checked from the same table.
            b = rng.getrandbits(1000) | 1 << 999 | 1
            assert is_perfect_power(b**3) == (b, 3)
    assert len(sieves) <= 1
    arith._exponent_table.cache_clear()


def test_no_mersenne_number_is_a_perfect_power():
    for n in range(2, 201):
        assert is_perfect_power(mersenne(n)) is None, n


def test_perfect_power_agrees_with_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(0x9F)
    for bits in (64, 700, 4000):
        for k in _primes_up_to(bits):
            b = rng.getrandbits(max(2, bits // k)) | 2
            for x in (b**k - 1, b**k, b**k + 1):
                expected = sympy.perfect_power(x)
                assert is_perfect_power(x) == (tuple(expected) if expected else None), (x, k)
