"""Budgeted factorization of 2^n - 1: the records (Budget, Factorization,
FactorStats), trial division of indices, the 2*d*l + 1 congruence scan,
and the pipeline that pre-splits 2^n - 1 along the divisors of n.

What survives the scan goes to rho, Pollard p-1 and ECM in the splitting
module, which factor_mersenne imports only then: a process that never
splits a number never compiles or loads it.  Every routine is
deterministic.
"""

from __future__ import annotations

import functools
import math
from collections import Counter
from typing import TYPE_CHECKING, NamedTuple

from .arith import _mersenne_candidates, _odd_prime, _prime_like, _primes_up_to, lucas_lehmer, mersenne

if TYPE_CHECKING:
    from .storage import FactorCache

__all__ = [
    "Budget",
    "DEFAULT_BUDGET",
    "Factorization",
    "FactorStats",
    "factor_natural",
    "trial_divide_congruence",
    "factor_mersenne",
]


# The records are NamedTuples, not dataclasses: importing dataclasses
# (and with it inspect) costs each CLI process about 10 ms, and every
# decorated class about 1 ms more.  A record that checks its arguments
# is a NamedTuple of its fields (NamedTuple allows no __new__ in its own
# body) plus a subclass whose __new__ does the checks.
class _BudgetFields(NamedTuple):
    rho_iterations_max: int = 1 << 26
    trial_division_bound: int = 2_000_000


class Budget(_BudgetFields):
    """Work limits for one top-level factorization call.

    rho_iterations_max bounds the total number of iteration-function
    evaluations across all rho invocations triggered by the call plus its
    p-1 and ECM work units (see splitting._pm1_cost and _ecm_cost).
    trial_division_bound is the limit of factor_mersenne's congruence scan
    and the B2 of p-1 and of ECM.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.rho_iterations_max <= 0:
            raise ValueError("rho_iterations_max must be positive")
        if self.trial_division_bound <= 0:
            raise ValueError("trial_division_bound must be positive")
        return self


DEFAULT_BUDGET = Budget()


class _FactorizationFields(NamedTuple):
    target: int
    factors: tuple[tuple[int, int], ...]
    cofactor: int = 1


class Factorization(_FactorizationFields):
    """Prime factorization of target, possibly partial.

    factors holds (prime, exponent) pairs with strictly ascending primes;
    the product of prime^exponent times cofactor equals target.  The
    factorization is complete exactly when cofactor == 1; a partial
    result carries its unfactored composite part in cofactor.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.target < 1 or self.cofactor < 1:
            raise ValueError("target and cofactor must be >= 1")
        previous = 1
        for prime, exponent in self.factors:
            if prime <= previous:
                raise ValueError("primes must be strictly ascending")
            if exponent < 1:
                raise ValueError("exponents must be positive")
            previous = prime
        return self

    @property
    def complete(self) -> bool:
        return self.cofactor == 1

    @property
    def status(self) -> str:
        return "complete" if self.complete else "partial"

    @property
    def omega(self) -> int:
        """Number of distinct known prime factors."""
        return len(self.factors)

    @property
    def bigomega(self) -> int:
        """Number of known prime factors counted with multiplicity."""
        return sum(e for _, e in self.factors)

    def primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.factors)

    def exponent_of(self, prime: int) -> int:
        for p, e in self.factors:
            if p == prime:
                return e
        return 0

    def product(self) -> int:
        result = self.cofactor
        for p, e in self.factors:
            result *= p**e
        return result

    def reconstructs(self) -> bool:
        """Whether dividing target by each p^e leaves cofactor.  Dividing
        rather than multiplying out refuses a forged exponent after at most
        log2(target) + 1 divisions instead of building p^e."""
        rest = self.target
        for p, e in self.factors:
            for _ in range(e):
                rest, remainder = divmod(rest, p)
                if remainder:
                    return False
        return rest == self.cofactor


class FactorStats:
    """Work counters, accumulated across calls when reused.

    rho_iterations counts rho iterations plus p-1 and ECM work units, and
    is the rho ledger: each top-level call caps it at its value on entry
    plus the budget's rho_iterations_max, so one object must not serve two
    concurrent calls.  __slots__ lists the counters in their fixed order.
    """

    __slots__ = ("rho_iterations", "rho_calls", "trial_candidates", "cache_hits")

    def __init__(
        self,
        rho_iterations: int = 0,
        rho_calls: int = 0,
        trial_candidates: int = 0,
        cache_hits: int = 0,
    ) -> None:
        self.rho_iterations = rho_iterations
        self.rho_calls = rho_calls
        self.trial_candidates = trial_candidates
        self.cache_hits = cache_hits

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FactorStats):
            return NotImplemented
        return all(getattr(self, name) == getattr(other, name) for name in self.__slots__)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)}" for name in self.__slots__)
        return f"FactorStats({fields})"


# Unused here; kept only because perfbench/spans.py traces it (ROADMAP item 1b).
_sieve_primes = functools.lru_cache(maxsize=8)(_primes_up_to)


# The largest x factor_natural takes, DEFAULT_BUDGET.trial_division_bound^2:
# no 2^x - 1 past it can be built, and up to it trial division takes at
# most 10^6 steps.
_NATURAL_MAX = 4 * 10**12


def factor_natural(x: int) -> Factorization:
    """Factor an index, 1 <= x <= _NATURAL_MAX: divide by 2, then by the
    odd numbers q while q * q <= what is left, which is then 1 or prime."""
    if not 1 <= x <= _NATURAL_MAX:
        raise ValueError(f"index {x} is outside 1..{_NATURAL_MAX}")
    factors = []
    rest, q = x, 2
    while q * q <= rest:
        if rest % q == 0:
            e = 0
            while rest % q == 0:
                rest //= q
                e += 1
            factors.append((q, e))
        q += 1 if q == 2 else 2
    if rest > 1:
        factors.append((rest, 1))
    return Factorization(x, tuple(factors))


def trial_divide_congruence(
    target: int, d: int, limit: int, stats: FactorStats | None = None
) -> list[int]:
    """List primes q = 2*d*l + 1 <= limit dividing target, ascending.

    For odd prime d the candidates are arith._mersenne_candidates(d), the
    two progressions of step 8d with q = +-1 (mod 8); else one of step 2d.
    A comprehension tests 256 steps at a time up to min(limit, rest), rest
    being what is left of target, divides out the smallest prime hit and
    resumes after it, skipping composite hits.  Once no candidate up to
    isqrt(rest) divides a rest below 2^64, the rest is tested: a prime ends
    the scan, listed when it is itself a candidate <= limit; a composite
    (its primes are no candidates, as 7 * 19 for d = 6) is scanned on.
    trial_candidates counts each candidate up to where the scan stops.
    """
    if d < 2:
        raise ValueError("d must be >= 2")
    if target % 2 == 0:
        raise ValueError("target must be odd")
    stats = stats or FactorStats()
    if _odd_prime(d):
        step, starts = _mersenne_candidates(d)
    else:
        step, starts = 2 * d, (2 * d + 1,)
    found: list[int] = []
    remaining = target
    done = 1  # every candidate <= done has been tested
    root = math.isqrt(remaining) if remaining < 1 << 64 else limit
    while (bound := min(limit, remaining)) > done:
        if root <= done:
            if _prime_like(remaining):
                if remaining <= limit and any((remaining - s) % step == 0 for s in starts):
                    found.append(remaining)
                break
            root = limit
        end = min(bound, root, done + 256 * step)
        firsts = [s + ((done - s) // step + 1) * step for s in starts]
        hits = sorted(q for s in firsts for q in range(s, end + 1, step) if not remaining % q)
        q = next((q for q in hits if _prime_like(q)), 0)
        if q:
            end = q
            found.append(q)
            while remaining % q == 0:
                remaining //= q
            root = math.isqrt(remaining) if remaining < 1 << 64 else limit
        stats.trial_candidates += sum(len(range(s, end + 1, step)) for s in firsts)
        done = end
    return found


# Below this n, factor_mersenne runs lucas_lehmer on a whole 2^n - 1
# before the scan.  Up to n = 127 it costs 10-60 us, against 0.3-0.6 ms
# for the scan to the trial bound that a prime 2^n - 1 needs.  Past 127
# no 2^n - 1 is prime below n = 521, so there it would only add to the
# cost of every composite one the scan splits.  Over prime n <= 521 at a
# rho budget of 2^14, 128 gave the lowest summed factor_mersenne time of
# the crossovers in [127, 521] (CPython 3.11, 2-core Xeon).
_LUCAS_LEHMER_FIRST = 128


def factor_mersenne(
    n: int,
    budget: Budget | None = None,
    cache: "FactorCache | None" = None,
    stats: FactorStats | None = None,
) -> Factorization:
    """Factor 2^n - 1 using its multiplicative structure.

    Pipeline: (1) return a complete cached entry if present; (2) split
    2^n - 1 into the cyclotomic parts belonging to each divisor d of n
    with d >= 2 (their product is the whole number); (3) strip each
    part's intrinsic prime and any primes already known from a partial
    cache entry, then run the 2*d*l + 1 congruence scan, which ends at
    the square root of what is left of the part; (4) hand what
    survives to rho, Pollard p-1 and ECM (splitting._factor_with_rho,
    imported only then), which also settle the primes they leave.
    Results are merged across parts, sorted, and written back to the
    cache.  On budget exhaustion the composite remainder is reported in
    cofactor and status is partial.

    Each part is scanned once.  For prime n > 2 the only part is 2^n - 1
    itself; when nothing has been stripped from it, lucas_lehmer(n)
    decides primality, a proof where is_probable_prime only says
    "probable".  Below n = _LUCAS_LEHMER_FIRST it runs before the scan,
    and only a composite 2^n - 1 is scanned.  From there on it runs only
    when the scan finds no factor, so a 2^n - 1 with a factor within the
    scan never pays for Lucas-Lehmer.
    Every other value is tested where it is made: a part before the
    scan, and again only if the scan shrank it; a part the scan leaves as
    it was is composite by that test or by lucas_lehmer.  The scan's stop
    may test a rest below 2^64 once more; a larger value is tested once.
    The cache is told the leftover is composite.  Values of a part with
    d >= 256 are tested and split in the ring Z/(2^d - 1) (see
    arith._ring).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    budget = budget or DEFAULT_BUDGET
    stats = stats or FactorStats()
    if cache is not None:
        hit = cache.get(n)
        if hit is not None and hit.complete:
            stats.cache_hits += 1
            return hit
        known = hit.primes() if hit is not None else ()
    else:
        known = ()

    from .cyclotomic import cyclotomic_split

    counts: Counter = Counter()
    leftover = 1
    ceiling = stats.rho_iterations + budget.rho_iterations_max
    bound = budget.trial_division_bound
    parts = cyclotomic_split(n)
    # One part exactly when n is prime (the parts are the divisors d >= 2).
    mersenne_exponent = n > 2 and len(parts) == 1
    for part in parts:
        v = part.value
        if part.intrinsic > 1:
            while v % part.intrinsic == 0:
                v //= part.intrinsic
                counts[part.intrinsic] += 1
        for p in known:
            while v % p == 0:
                v //= p
                counts[p] += 1
        if v == 1:
            continue
        whole = mersenne_exponent and v == part.value
        if not whole:
            if _prime_like(v, part.d):
                counts[v] += 1
                continue
        elif n < _LUCAS_LEHMER_FIRST:
            if lucas_lehmer(n):
                counts[v] += 1
                continue
            whole = False  # proven composite: no second run after the scan
        found = trial_divide_congruence(v, part.d, min(bound, v), stats)
        if whole and not found and lucas_lehmer(n):
            counts[v] += 1
            continue
        for q in found:
            while v % q == 0:
                v //= q
                counts[q] += 1
        if v > 1 and found and _prime_like(v, part.d):
            counts[v] += 1
        elif v > 1:
            from .splitting import _factor_with_rho

            leftover *= _factor_with_rho(v, stats, ceiling, counts, part.d, bound)
    result = Factorization(mersenne(n), tuple(sorted(counts.items())), leftover)
    if cache is not None:
        result = cache.add_primes(n, result.primes(), leftover)
    return result


