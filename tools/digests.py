"""Digests of what factor_mersenne finds and counts, to compare two commits.

Run as ``python tools/digests.py`` from a checkout.  It factors three
fixed sets of indices, each n with no cache and a fresh FactorStats, and
prints two digests for each set, the SHA-256 of the lines

    results:  repr((n, factors, cofactor))
    counters: repr((n, rho_iterations, rho_calls, trial_candidates, cache_hits))

in ascending n, joined by newlines.  Two checkouts that print the same
results digest for a set gave byte-identical factors and cofactors on
every index in it, whatever work they counted on the way; equal counters
digests say the work was the same too.  The sets:

- sweep: n = 2..160 at a rho budget of 2^22, the sweep workload's inputs;
- small: n = 2..400 at 2^14, where no piece reaches p-1 or ECM;
- bigprime: the 45 bigprime workload indices at 1000, taken from
  perfbench/workloads.py (imported, never changed).

A fourth line is the verdicts digest, the SHA-256 of the lines
repr((x, is_probable_prime(x).value)) for every x below 2 * 10^5, the
200 values around each bound where is_probable_prime changes method,
the base-2 strong pseudoprimes in PSEUDOPRIMES, and SAMPLE seeded odd
values in each range between those bounds (and from 2^64 to 2^128).

A fifth line is the naturals digest, the SHA-256 of the lines
repr((x, factor_natural(x).factors)) for every x from 1 to 2 * 10^5 and
for edges(): the values around the squares of the powers of 4 from 2^10
to 2^20, the squares and products of the primes on either side of each
such power and of 2 * 10^6, and factor_natural's cap 4 * 10^12.

A sixth line is the lucas_lehmer digest, the SHA-256 of the lines
repr((p, lucas_lehmer(p))) for every odd prime p below 2000.

A seventh line is the ring digest, the SHA-256 of the lines
repr((d, x, _prime_like(x, d))) for RING_SAMPLE seeded divisors x of
2^d - 1, 256 <= d <= 1024, that arith._ring admits (see ring_divisors):
the values whose primality test runs in the ring Z/(2^d - 1).
"""

from __future__ import annotations

import hashlib
import random
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

from mersenne_omega.arith import Verdict, _prime_like, is_probable_prime, lucas_lehmer, mersenne  # noqa: E402
from mersenne_omega.cyclotomic import cyclotomic_split  # noqa: E402
from mersenne_omega.factoring import (  # noqa: E402
    Budget,
    FactorStats,
    factor_mersenne,
    factor_natural,
    trial_divide_congruence,
)

# 199^2, the bounds of the strong-base ranges, and 2^64.
BOUNDS = (199**2, 1_373_653, 25_326_001, 4_759_123_141, 1 << 64)
# Base-2 strong pseudoprimes: each is the least that passes some set of
# strong bases, or the Fermat number F5 = 2^32 + 1.
PSEUDOPRIMES = (
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
# The powers of 4 from 2^10 to 2^20, then 2 * 10^6, whose square is
# factor_natural's cap; and the largest prime below each and the smallest
# above it.
RUNGS = (1 << 10, 1 << 12, 1 << 14, 1 << 16, 1 << 18, 1 << 20, 2_000_000)
RUNG_PRIMES = (
    (1021, 1031),
    (4093, 4099),
    (16381, 16411),
    (65521, 65537),
    (262139, 262147),
    (1048573, 1048583),
    (1999993, 2000003),
)
# factor_natural's cap, written out so the script also runs on a checkout
# that has none.
NATURAL_MAX = 4 * 10**12
SAMPLE = 10_000
SAMPLE_SEED = 0x5EED_64
RING_SAMPLE = 2000
RING_SEED = 0x5EED_D1


def bigprime_indices() -> list[int]:
    """The indices one bigprime pass runs, ascending."""
    import workloads
    from oracle import Oracle

    always, pool = workloads.bigprime_inputs(Oracle.load())
    return sorted(always + workloads.spaced(pool, workloads.BIGPRIME_STRATA))


def sha256(lines: list[str]) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def digests(indices, rho: int) -> tuple[str, str]:
    """(results digest, counters digest) of one set."""
    budget, results, counters = Budget(rho_iterations_max=rho), [], []
    for n in sorted(indices):
        stats = FactorStats()
        f = factor_mersenne(n, budget, stats=stats)
        results.append(repr((n, f.factors, f.cofactor)))
        counters.append(repr((n, *(getattr(stats, name) for name in FactorStats.__slots__))))
    return sha256(results), sha256(counters)


def verdicts_digest() -> str:
    values = [*range(200_000), *PSEUDOPRIMES]
    for b in BOUNDS:
        values += range(b - 100, b + 100)
    rng = random.Random(SAMPLE_SEED)
    for lo, hi in zip(BOUNDS, (*BOUNDS[1:], 1 << 128)):
        values += (rng.randrange(lo, hi) | 1 for _ in range(SAMPLE))
    return sha256([repr((x, is_probable_prime(x).value)) for x in values])


def edges() -> list[int]:
    """The values of the naturals digest past 2 * 10^5, all <= NATURAL_MAX."""
    values = [NATURAL_MAX]
    for below, above in RUNG_PRIMES:
        values += (below * below, below * above, above * above)
    for rung in RUNGS[:-1]:
        for root in (rung - 1, rung, rung + 1):
            values += (root * root - 1, root * root, root * root + 1, root * root + 2 * root)
    return [x for x in values if x <= NATURAL_MAX]


def naturals_digest() -> str:
    values = [*range(1, 200_001), *edges()]
    return sha256([repr((x, factor_natural(x).factors)) for x in values])


def lucas_lehmer_digest() -> str:
    exponents = [p for p in range(3, 2000, 2) if is_probable_prime(p) is Verdict.PRIME]
    return sha256([repr((p, lucas_lehmer(p))) for p in exponents])


def ring_divisors() -> list[tuple[int, int]]:
    """RING_SAMPLE distinct (d, x), ascending, with 256 <= d <= 1024 and x
    a divisor of 2^d - 1 that _ring admits.  Each x is 2^d - 1 less a
    seeded choice of its known factors: the intrinsic prime of each part
    Phi_k(2), k | d, the primes below 10^5 that the congruence scan finds
    in it, and what is left of it.  The primes below 200 are dropped more
    often, so that more x get past is_probable_prime's gcd."""
    factors: dict[int, list[int]] = {}
    rng = random.Random(RING_SEED)
    found: set[tuple[int, int]] = set()
    while len(found) < RING_SAMPLE:
        d = rng.randrange(256, 1025)
        if d not in factors:
            factors[d] = []
            for part in cyclotomic_split(d):
                v = part.value
                while part.intrinsic > 1 and v % part.intrinsic == 0:
                    v //= part.intrinsic
                    factors[d].append(part.intrinsic)
                for q in trial_divide_congruence(v, part.d, 10**5):
                    while v % q == 0:
                        v //= q
                        factors[d].append(q)
                if v > 1:
                    factors[d].append(v)
        x = mersenne(d)
        for q in factors[d]:
            if rng.random() < (0.9 if q < 200 else 0.5) and 4 * (x // q).bit_length() >= 3 * d:
                x //= q
        found.add((d, x))
    return sorted(found)


def ring_digest() -> str:
    return sha256([repr((d, x, _prime_like(x, d))) for d, x in ring_divisors()])


def main() -> None:
    sets = (
        ("sweep", range(2, 161), 1 << 22),
        ("small", range(2, 401), 1 << 14),
        ("bigprime", bigprime_indices(), 1000),
    )
    for name, indices, rho in sets:
        start = time.perf_counter()
        results, counters = digests(indices, rho)
        elapsed = time.perf_counter() - start
        print(f"{name:8} {len(indices):3} indices at rho {rho}: results {results} counters {counters}  ({elapsed:.1f} s)")
    start = time.perf_counter()
    verdicts = verdicts_digest()
    print(f"verdicts {verdicts}  ({time.perf_counter() - start:.1f} s)")
    start = time.perf_counter()
    naturals = naturals_digest()
    print(f"naturals {naturals}  ({time.perf_counter() - start:.1f} s)")
    start = time.perf_counter()
    lucas = lucas_lehmer_digest()
    print(f"lucas_lehmer {lucas}  ({time.perf_counter() - start:.1f} s)")
    start = time.perf_counter()
    ring = ring_digest()
    print(f"ring     {ring}  ({time.perf_counter() - start:.1f} s)")


if __name__ == "__main__":
    main()
