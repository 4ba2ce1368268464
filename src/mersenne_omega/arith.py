"""Arbitrary-precision arithmetic primitives for numbers of the form 2^n - 1.

Everything here is pure and deterministic: values are plain Python ints,
there is no shared mutable state, and the probabilistic-looking pieces
(extra witness rounds above 2^64) draw from a fixed, documented seed.
"""

from __future__ import annotations

import bisect
import enum
import functools
import itertools
import math
import random

__all__ = [
    "Verdict",
    "mersenne",
    "mod_mersenne",
    "is_probable_prime",
    "lucas_lehmer",
    "integer_root",
    "is_perfect_power",
]


class Verdict(enum.Enum):
    """Outcome of a primality check.

    PRIME and COMPOSITE are proven (only issued below 2^64, where the
    tests run for each range are proven exact, or when an explicit factor
    exists).
    PROBABLE_PRIME is the strongest claim made at or above 2^64.
    """

    PRIME = "prime"
    PROBABLE_PRIME = "probable_prime"
    COMPOSITE = "composite"


def mersenne(n: int) -> int:
    """Return 2^n - 1.  mersenne(0) == 0 is allowed at this layer."""
    if n < 0:
        raise ValueError("exponent must be non-negative")
    return (1 << n) - 1


def mod_mersenne(x: int, n: int) -> int:
    """Reduce x modulo 2^n - 1 by n-bit block folding.

    The high part is repeatedly shifted down and added to the low n bits
    (2^n is congruent to 1), then one conditional subtract lands the
    result in [0, 2^n - 2].  Requires n >= 1 so the modulus is nonzero.
    """
    if n < 1:
        raise ValueError("modulus 2^n - 1 requires n >= 1")
    if x < 0:
        raise ValueError("x must be non-negative")
    m = (1 << n) - 1
    while x.bit_length() > n:
        x = (x & m) + (x >> n)
    return 0 if x == m else x


# Strong-test bases per range, each proven to leave no strong pseudoprime
# below its bound: (2, 3) and (2, 3, 5) by Pomerance, Selfridge and
# Wagstaff (1980), (2, 7, 61) by Jaeschke (1993).  From the last bound to
# 2^64 one strong base-2 test and one strong Lucas test (BPSW) decide:
# no base-2 strong pseudoprime below 2^64 (Feitsma's list, checked by
# Gilchrist in 2009) passes the strong Lucas test.  A strong base-3 test
# runs ahead of them there, as it does above 2^64.
_STRONG_BASES = (
    (1_373_653, (2, 3)),
    (25_326_001, (2, 3, 5)),
    (4_759_123_141, (2, 7, 61)),
)
_TWO_64 = 1 << 64

# Seed and round count for the extra witness rounds above 2^64.  Fixed so
# that verdicts are reproducible run to run.
_EXTRA_ROUNDS = 16
_EXTRA_ROUNDS_SEED = 0xC0FFEE


def _is_strong_probable_prime(x: int, base: int, ring: int | None = None) -> bool:
    # x odd, x >= 3; with ring = d (x divides 2^d - 1; see _ring) the power
    # is taken in Z/(2^d - 1) and reduced modulo x once.
    d = x - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    base %= x
    if base == 0:
        return True
    t = pow(base, d, x) if ring is None else _ring_pow(base, d, ring) % x
    if t == 1 or t == x - 1:
        return True
    for _ in range(s - 1):
        t = t * t % x
        if t == x - 1:
            return True
        if t == 1:
            return False
    return False


def _jacobi(a: int, n: int) -> int:
    # n odd positive
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def _is_strong_lucas_probable_prime(x: int, ring: int | None = None) -> bool:
    """Strong Lucas test of odd x >= 3 with Selfridge's parameters: the
    first D in 5, -7, 9, -11, ... with (D|x) = -1, then P = 1 and
    Q = (1 - D)/4.  With x + 1 = k * 2^s, k odd, x passes when U_k = 0 or
    V_(k * 2^r) = 0 (mod x) for some 0 <= r < s.  A perfect square, which
    has no such D, and an x sharing a factor with D fail (unless x = |D|).

    The ladder walks (V_m, V_(m+1), Q^m) alone.  D is a unit modulo x,
    since (D|x) = -1, so D U_k = 2 V_(k+1) - V_k vanishes exactly when U_k
    does.  With ring = d (x divides 2^d - 1; see _ring) the ladder's
    products are folded modulo 2^d - 1 as in _ring_pow, and the three
    terms are reduced modulo x once, after it.
    """
    r = math.isqrt(x)
    if r * r == x:
        return False
    d = 5
    while True:
        j = _jacobi(d, x)
        if j == 0:
            return abs(d) == x
        if j == -1:
            break
        d = -(d + 2) if d > 0 else -(d - 2)
    q = (1 - d) // 4

    k = x + 1
    s = (k & -k).bit_length() - 1
    k >>= s

    # From m = 1: V_1 = P = 1, V_2 = P^2 - 2Q.  Each bit of k doubles m,
    # by V_2m = V_m^2 - 2Q^m and V_(2m+1) = V_m V_(m+1) - Q^m.
    v, w, qm = 1, (1 - 2 * q) % x, q % x
    if ring is None:
        for bit in bin(k)[3:]:
            if bit == "1":
                v, w = (v * w - qm) % x, (w * w - 2 * q * qm) % x
                qm = qm * qm * q % x
            else:
                v, w = (v * v - 2 * qm) % x, (v * w - qm) % x
                qm = qm * qm % x
    else:
        # A difference may go negative; & and >> still keep it congruent,
        # and two folds bring it back into [0, 2^(d+1)) since |q| is small.
        m = (1 << ring) - 1
        for bit in bin(k)[3:]:
            if bit == "1":
                v, w, qm = v * w - qm, w * w - 2 * q * qm, qm * qm * q
            else:
                v, w, qm = v * v - 2 * qm, v * w - qm, qm * qm
            v = (v & m) + (v >> ring)
            w = (w & m) + (w >> ring)
            qm = (qm & m) + (qm >> ring)
            v = (v & m) + (v >> ring)
            w = (w & m) + (w >> ring)
            qm = (qm & m) + (qm >> ring)
        v, w, qm = v % x, w % x, qm % x
    if v == 0 or (2 * w - v) % x == 0:
        return True
    for _ in range(s - 1):
        v = (v * v - 2 * qm) % x
        if v == 0:
            return True
        qm = qm * qm % x
    return False


def is_probable_prime(x: int) -> Verdict:
    """Classify x as PRIME, COMPOSITE, or PROBABLE_PRIME.

    Below 2^64 the verdict is deterministic.  One gcd with the product of
    the primes up to 199 settles every x below 199^2, since a composite
    there has a prime factor up to 199.  Above that, strong tests to the
    fewest bases proven enough for x's range settle the rest (see
    _STRONG_BASES): (2, 3) below 1,373,653, (2, 3, 5) below 25,326,001,
    (2, 7, 61) below 4,759,123,141.  From there on every x runs a strong
    base-3 test, a strong base-2 test and a strong Lucas test with
    Selfridge's parameters, in that order; below 2^64 the last two are
    BPSW, which is exact there, so base 3 only rejects some composites
    sooner.  At or above 2^64 _EXTRA_ROUNDS further strong tests with
    bases drawn from a fixed seed follow, and the verdict is COMPOSITE or
    PROBABLE_PRIME.  Base 3 runs first because base 2 is blind on this
    package's values: every composite 2^p - 1 with p prime passes the
    strong base-2 test, and so does every composite piece of Phi_d(2)
    with odd d; at 64 bits a strong Lucas test costs two to three strong
    tests.
    """
    if x <= _SMALL_PRIMES[-1]:
        return Verdict.PRIME if x in _SMALL_PRIME_SET else Verdict.COMPOSITE
    if math.gcd(x, _SMALL_PRIMORIAL) != 1:
        return Verdict.COMPOSITE
    return _strong_verdict(x, None)


def _strong_verdict(x: int, ring: int | None) -> Verdict:
    """is_probable_prime's verdict on x > 199 that no prime up to 199
    divides: every step after its gcd.  With ring = d (x divides 2^d - 1;
    see _ring) each strong test and the Lucas ladder run in Z/(2^d - 1).
    The seeded bases are the same either way, so is the verdict."""
    if x < _SMALL_PRIMES_SQUARED:
        return Verdict.PRIME
    for bound, bases in _STRONG_BASES:
        if x < bound:
            proven = all(_is_strong_probable_prime(x, base) for base in bases)
            return Verdict.PRIME if proven else Verdict.COMPOSITE
    for base in (3, 2):
        if not _is_strong_probable_prime(x, base, ring):
            return Verdict.COMPOSITE
    if not _is_strong_lucas_probable_prime(x, ring):
        return Verdict.COMPOSITE
    if x < _TWO_64:
        return Verdict.PRIME
    rng = random.Random(_EXTRA_ROUNDS_SEED)
    for _ in range(_EXTRA_ROUNDS):
        if not _is_strong_probable_prime(x, rng.randrange(3, x - 1), ring):
            return Verdict.COMPOSITE
    return Verdict.PROBABLE_PRIME


# Products modulo a divisor x of 2^d - 1 are cheaper folded modulo 2^d - 1
# (a shift, a mask and an add) than divided by x once d reaches this many
# bits and x holds at least three quarters of them.  Rho on CPython 3.11
# (2-core Xeon) took 0.45-0.7x the time of % from d = 768 up with x at
# 75-100% of d's bits; at d = 160 (0.8-1.5x) and d = 256 (0.9-1.45x with
# a 192-bit x) the fold bought little or nothing.  The strong tests' power
# (_ring_pow(b, e, d) % x against pow(b, e, x), same machine) took
# 0.9-1.26x at d = 256-320, 0.7-0.95x at 384 and 0.4-0.9x from 512 up,
# the dearer end with x at three quarters of d's bits.
_RING_MIN_BITS = 256


def _ring(x: int, d: int | None) -> int | None:
    """d when arithmetic modulo x (a divisor of 2^d - 1) should be done in
    the ring Z/(2^d - 1), else None.  Chosen from x and d alone."""
    if d is None or d < _RING_MIN_BITS or 4 * x.bit_length() < 3 * d:
        return None
    return d


def _ring_pow(b: int, e: int, d: int) -> int:
    """b^e modulo 2^d - 1, fully reduced, for d >= 1.

    Each product is folded twice, t <- (t & m) + (t >> d).  That keeps it
    congruent modulo 2^d - 1, hence modulo every divisor of it, and for
    d >= 3 brings it back below 2^(d+1).
    """
    m = (1 << d) - 1
    b = mod_mersenne(b, d)
    t = 1
    for bit in bin(e)[2:]:
        t = t * t
        t = (t & m) + (t >> d)
        t = (t & m) + (t >> d)
        if bit == "1":
            t = t * b
            t = (t & m) + (t >> d)
            t = (t & m) + (t >> d)
    return mod_mersenne(t, d)


def _prime_like(x: int, d: int | None = None) -> bool:
    """True unless x is proven composite (a probable prime counts).

    When x divides 2^d - 1 and _ring(x, d) admits it, every step of
    is_probable_prime after its gcd runs in the ring Z/(2^d - 1) (see
    _strong_verdict), with the same verdict; such an x, at least 192 bits,
    never reaches the traced is_probable_prime.
    """
    ring = _ring(x, d)
    if ring is None:
        return is_probable_prime(x) is not Verdict.COMPOSITE
    return math.gcd(x, _SMALL_PRIMORIAL) == 1 and _strong_verdict(x, ring) is not Verdict.COMPOSITE


def _odd_prime(x: int) -> bool:
    return x % 2 == 1 and x > 2 and _prime_like(x)


def _mersenne_candidates(p: int) -> tuple[int, tuple[int, int]]:
    """Step and first terms of the q = 2kp + 1, k >= 1, that can divide
    2^p - 1 for odd prime p.  Such q is +-1 (mod 8), since 2 is a square
    modulo each of its primes: k = 0 or 3p (mod 4), two progressions of
    step 8p."""
    return 8 * p, (8 * p + 1, 2 * p * (3 * p % 4) + 1)


def lucas_lehmer(p: int) -> bool:
    """Decide whether 2^p - 1 is prime, for odd prime p.

    Trial factoring comes first, as GIMPS runs it before any Lucas-Lehmer
    test.  A prime divisor q of 2^p - 1 is 2kp + 1 and is +-1 (mod 8),
    since 2 is a square modulo q; any q with 2^p = 1 (mod q), prime or
    not, proves 2^p - 1 composite.  Such q with k <= p/4 are walked.
    When none is found, which costs about 10% of the squarings at
    p = 521 and 5% at 1279, s <- s^2 - 2 is iterated from s = 4 in the
    ring Z/(2^p - 1), each square brought back below 2^(p+1) by two folds
    (see _ring_pow); 2^p - 1 is prime iff the (p-2)-th term vanishes
    modulo it.
    """
    if not _odd_prime(p):
        raise ValueError("p must be an odd prime")
    # No candidate reaches 2^p - 1: k <= p/4 keeps q <= p^2/2 + 1, and
    # p = 3 has no k.
    step, starts = _mersenne_candidates(p)
    stop = 2 * p * (p // 4) + 2
    if any(pow(2, p, q) == 1 for first in starts for q in range(first, stop, step)):
        return False
    m = mersenne(p)
    s = 4
    for _ in range(p - 2):
        s = s * s - 2
        s = (s & m) + (s >> p)
        s = (s & m) + (s >> p)
    return mod_mersenne(s, p) == 0


def _sieve(lo: int, hi: int) -> list[int]:
    """All primes p with lo < p <= hi, ascending, for lo >= 1.  Only
    (lo, hi] is sieved, by the primes up to isqrt(hi) that this sieve
    finds first, so a long range can be walked one segment at a time."""
    if hi <= lo:
        return []
    flags = bytearray([1]) * (hi - lo)  # flags[i] stands for lo + 1 + i
    for p in _sieve(1, math.isqrt(hi)):
        start = max(p * p, (lo // p + 1) * p)
        flags[start - lo - 1 :: p] = bytes(len(range(start, hi + 1, p)))
    return list(itertools.compress(range(lo + 1, hi + 1), flags))


def _primes_up_to(limit: int) -> tuple[int, ...]:
    """All primes p <= limit, ascending: _sieve in one segment."""
    return tuple(_sieve(1, limit))


# The primes up to 199, which is_probable_prime rules out by one gcd with
# their product before any strong test; an x below 199^2 that none
# divides is prime.
_SMALL_PRIMES = _primes_up_to(199)
_SMALL_PRIME_SET = frozenset(_SMALL_PRIMES)
_SMALL_PRIMORIAL = math.prod(_SMALL_PRIMES)
_SMALL_PRIMES_SQUARED = _SMALL_PRIMES[-1] ** 2


def integer_root(x: int, k: int) -> int:
    """Floor of the k-th root of x, by Newton iteration from above."""
    if x < 0 or k < 1:
        raise ValueError("x >= 0 and k >= 1 required")
    if k == 1 or x < 2:
        return x
    if k >= x.bit_length():
        return 1
    r = 1 << -(-x.bit_length() // k)
    while True:
        nr = ((k - 1) * r + x // r ** (k - 1)) // k
        if nr >= r:
            return r
        r = nr


@functools.lru_cache(maxsize=None)
def _exponent_table(limit: int) -> tuple[int, ...]:
    """The primes up to limit, a power of two, for is_perfect_power.  One
    table per power of two, so a run of inputs of similar size sieves once."""
    return _primes_up_to(limit)


# Witness primes per exponent k for is_perfect_power's residue sieve.
_POWER_WITNESSES = 4


@functools.lru_cache(maxsize=None)
def _power_witnesses(k: int) -> tuple[int, ...]:
    """The _POWER_WITNESSES smallest primes q = 1 (mod k), for prime k.

    Built on first use per k by trial division of each candidate q, so
    no prime table is needed.  The memo keeps one small tuple per prime k
    asked for, so it never outgrows the primes up to the largest input's
    bit length.
    """
    step = k if k == 2 else 2 * k
    found: list[int] = []
    q = 1
    while len(found) < _POWER_WITNESSES:
        q += step
        if all(q % p for p in range(3, math.isqrt(q) + 1, 2)):
            found.append(q)
    return tuple(found)


def _not_a_power(x: int, k: int) -> bool:
    """True when some witness prime q = 1 (mod k) shows x is no k-th power:
    x is a nonzero residue with x^((q-1)/k) != 1 (mod q)."""
    for q in _power_witnesses(k):
        r = x % q
        if r and pow(r, (q - 1) // k, q) != 1:
            return True
    return False


def is_perfect_power(x: int) -> tuple[int, int] | None:
    """Return (b, k) with x = b^k and k maximal (so k >= 2), or None.

    The canonical form has the smallest possible base; candidate
    exponents are the primes up to log2 x, applied repeatedly.  A prime k
    is skipped without taking a root when a few witness primes
    q = 1 (mod k) show x is not a k-th power residue; otherwise the root
    decides, so the answer is exact either way.
    """
    if x < 2:
        raise ValueError("x must be >= 2")
    # The base only shrinks, so one table sized for x serves every pass.
    table = _exponent_table(1 << (x.bit_length() - 1).bit_length())
    base, exp = x, 1
    reduced = True
    while reduced:
        reduced = False
        for k in table[: bisect.bisect_right(table, base.bit_length())]:
            if _not_a_power(base, k):
                continue
            r = integer_root(base, k)
            if r**k == base:
                base, exp = r, exp * k
                reduced = True
                break
    return (base, exp) if exp >= 2 else None
