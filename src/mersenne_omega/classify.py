"""Classification of indices n by the number of distinct prime factors
of 2^n - 1, provable lower bounds on that count, divisor-form checks for
prime-index factors, and batch identity verification.

omega(2^n - 1) can equal 1 only for prime n; it can equal 2 only for
n in {4, 6}, n an odd prime, or n an odd prime squared; it can equal 3
only for n = 8, an odd prime, twice an odd prime, a product of two
distinct odd primes, an odd prime squared, or an odd prime cubed.  The
clause labels T1, T2_i, ..., T3_v used in reports identify the matching
case together with the expected shape of the factorization itself.
"""

from __future__ import annotations

import enum
import math
from typing import NamedTuple

from .arith import _prime_like, integer_root, is_perfect_power, mersenne
from .factoring import Budget, Factorization, FactorStats, factor_mersenne, factor_natural

__all__ = [
    "Shape",
    "Clause",
    "OMEGA_MORE",
    "CandidateForm",
    "DivisorFormCheck",
    "ClassificationReport",
    "SuiteResult",
    "IdentityReport",
    "index_functions",
    "lower_bound_omega",
    "lower_bound_divisors",
    "classify_index",
    "verify_structure",
    "verify_identities",
    "verify_structures_in_range",
]

# Marker for "omega may exceed 3" in eligibility sets.
OMEGA_MORE = "more"


class Shape(enum.Enum):
    """Structural shape of an index n, a function of n's factorization."""

    ONE = "one"
    TWO = "two"
    SPECIAL4 = "special4"
    SPECIAL6 = "special6"
    SPECIAL8 = "special8"
    PRIME = "prime"
    PRIME_SQUARED = "prime_squared"
    PRIME_CUBED = "prime_cubed"
    TWO_TIMES_PRIME = "two_times_prime"
    TWO_DISTINCT_PRIMES = "two_distinct_primes"
    OTHER = "other"


class Clause(enum.Enum):
    T1 = "T1"
    T2_I = "T2_i"
    T2_II = "T2_ii"
    T2_SPECIAL = "T2_special"
    T3_I = "T3_i"
    T3_II = "T3_ii"
    T3_III = "T3_iii"
    T3_IV = "T3_iv"
    T3_V = "T3_v"
    T3_SPECIAL = "T3_special"
    NONE = "none"


class CandidateForm(NamedTuple):
    """Shape of n, the provable floor, and the values the classification
    permits for the number of distinct prime factors of 2^n - 1."""

    n: int
    shape: Shape
    min_omega: int
    eligible_omega: tuple  # ascending, then OMEGA_MORE: the same repr in every process

    def allows(self, omega: int) -> bool:
        if omega <= 3:
            return omega in self.eligible_omega
        return OMEGA_MORE in self.eligible_omega


class DivisorFormCheck(NamedTuple):
    """Decomposition q = 2*l*p + 1 of a prime divisor q of 2^p - 1.

    passes records whether l mod 4 lies in {0, (-p) mod 4}, equivalently
    whether q = +-1 (mod 8).
    """

    q: int
    p: int
    l: int
    l_class: int
    passes: bool


class ClassificationReport(NamedTuple):
    n: int
    omega: int
    matched_clause: Clause
    decomposition: str
    consistent: bool
    divisor_form_checks: tuple[DivisorFormCheck, ...]


def _divisor_form(q: int, p: int) -> DivisorFormCheck:
    """Check the 2*l*p + 1 form of a prime q dividing 2^p - 1, p an odd
    prime.  A non-integral l means the divisibility premise was violated
    and is reported as an error rather than a failed check.
    """
    if (q - 1) % (2 * p):
        raise ValueError(f"{q} is not of the form 2*l*{p} + 1")
    l = (q - 1) // (2 * p)
    l_class = l % 4
    return DivisorFormCheck(q, p, l, l_class, l_class in (0, (-p) % 4))


def index_functions(n: int) -> tuple[int, int, int]:
    """(number of divisors, distinct prime factors, prime factors with
    multiplicity) of n: the one factorization of n that the floors and
    the shape of n are read from."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return _functions_of(factor_natural(n))


def _functions_of(f: Factorization) -> tuple[int, int, int]:
    """index_functions of the number that f factors completely."""
    return math.prod(e + 1 for _, e in f.factors), f.omega, f.bigomega


def _floors(n: int, d: int, omega: int, bigomega: int) -> tuple[int, int]:
    """The two floors on omega(2^n - 1), from d(n), omega(n) and Omega(n).

    The chain/coprime-split floor is Omega(n), plus one when n has at
    least two distinct prime factors, except at n = 6.  The divisor floor
    counts one primitive prime for every divisor of n outside {1, 2, 6};
    the divisor 2 gives back the prime 3, so it is d(n) - 1 - [6 | n].
    """
    return bigomega + (omega >= 2 and n != 6), d - 1 - (n % 6 == 0)


def lower_bound_omega(n: int) -> int:
    """Provable floor for omega(2^n - 1) from the chain/coprime-split
    argument: Omega(n) when n is 1 or a prime power, Omega(n) + 1 when n
    has at least two distinct prime factors, except 2 at n = 6."""
    return _floors(n, *index_functions(n))[0]


def lower_bound_divisors(n: int) -> int:
    """Divisor-counting floor for omega(2^n - 1): every divisor h of n
    outside {1, 2, 6} contributes a distinct primitive prime, and h = 2
    contributes the prime 3.  Always at least d(n) - 3."""
    return _floors(n, *index_functions(n))[1]


# Indices whose Mersenne number the classification names outright.
_FIXED_SHAPES = {1: Shape.ONE, 2: Shape.TWO, 4: Shape.SPECIAL4, 6: Shape.SPECIAL6, 8: Shape.SPECIAL8}

# Odd prime powers p^k by k; the powers of 2 up to 8 are fixed shapes.
_PRIME_POWER_SHAPES = {1: Shape.PRIME, 2: Shape.PRIME_SQUARED, 3: Shape.PRIME_CUBED}


def _shape_of(n: int, omega: int, bigomega: int) -> Shape:
    if n in _FIXED_SHAPES:
        return _FIXED_SHAPES[n]
    if omega == 1:
        return _PRIME_POWER_SHAPES.get(bigomega, Shape.OTHER)
    if omega == 2 and bigomega == 2:
        return Shape.TWO_TIMES_PRIME if n % 2 == 0 else Shape.TWO_DISTINCT_PRIMES
    return Shape.OTHER


# The classification: (omega, shape of n) -> the clause whose decomposition
# a factorization of 2^n - 1 with exactly omega distinct primes must
# satisfy.  A shape with no entry at k <= 3 cannot have k primes; every
# shape outside the fixed ones may have more than 3.
_CLAUSES = {
    (0, Shape.ONE): Clause.NONE,
    (1, Shape.TWO): Clause.T1,
    (1, Shape.PRIME): Clause.T1,
    (2, Shape.SPECIAL4): Clause.T2_SPECIAL,
    (2, Shape.SPECIAL6): Clause.T2_SPECIAL,
    (2, Shape.PRIME): Clause.T2_II,
    (2, Shape.PRIME_SQUARED): Clause.T2_I,
    (3, Shape.SPECIAL8): Clause.T3_SPECIAL,
    (3, Shape.PRIME): Clause.T3_V,
    (3, Shape.TWO_TIMES_PRIME): Clause.T3_I,
    (3, Shape.TWO_DISTINCT_PRIMES): Clause.T3_II,
    (3, Shape.PRIME_SQUARED): Clause.T3_III,
    (3, Shape.PRIME_CUBED): Clause.T3_IV,
}

_SPECIAL_FACTORS = {4: ((3, 1), (5, 1)), 6: ((3, 2), (7, 1)), 8: ((3, 1), (5, 1), (17, 1))}


def classify_index(n: int) -> CandidateForm:
    """Shape of n, the provable floor on omega(2^n - 1), and the set of
    values in {1, 2, 3, more} that the classification results permit."""
    return _form(n, *index_functions(n))


def _form(n: int, d: int, omega: int, bigomega: int) -> CandidateForm:
    shape = _shape_of(n, omega, bigomega)
    min_omega = max(_floors(n, d, omega, bigomega))
    eligible = sorted(k for k, s in _CLAUSES if s is shape and min_omega <= k)
    if n not in _FIXED_SHAPES:
        eligible.append(OMEGA_MORE)
    return CandidateForm(n, shape, min_omega, tuple(eligible))


def _mersenne_index_of(prime: int) -> int | None:
    k = (prime + 1).bit_length() - 1
    if k >= 2 and mersenne(k) == prime:
        return k
    return None


def _decomposition(n: int, f: Factorization) -> str:
    pieces = []
    for prime, exponent in f.factors:
        k = _mersenne_index_of(prime)
        if k is not None and n % k == 0:
            key, label = (0, k), f"M{k}"
        else:
            key, label = (1, prime), str(prime)
        if exponent > 1:
            label += f"^{exponent}"
        pieces.append((key, label))
    if not f.complete:
        pieces.append(((2, f.cofactor), f"[{f.cofactor}]"))
    return "·".join(label for _, label in sorted(pieces)) or "1"


def _exponent_gcd(f: Factorization) -> int:
    return math.gcd(*(e for _, e in f.factors)) if f.factors else 0


def _clause_holds(clause: Clause, n: int, f: Factorization, n_primes: tuple) -> bool:
    """Check the clause-level decomposition of a factorization of 2^n - 1."""
    if clause is Clause.NONE:
        return True
    if clause is Clause.T1:
        return f.factors == ((mersenne(n), 1),)
    if clause is Clause.T2_SPECIAL or clause is Clause.T3_SPECIAL:
        return f.factors == _SPECIAL_FACTORS[n]
    if clause is Clause.T2_II or clause is Clause.T3_V:
        return _exponent_gcd(f) == 1
    if clause is Clause.T2_I:
        return f.exponent_of(mersenne(math.isqrt(n))) == 1
    if clause is Clause.T3_I:
        return f.exponent_of(3) == 1 and f.exponent_of(mersenne(n // 2)) == 1
    if clause is Clause.T3_II:
        p1, p2 = n_primes
        s = f.exponent_of(mersenne(p1))
        t = f.exponent_of(mersenne(p2))
        ok = s >= 1 and t >= 1 and _exponent_gcd(f) == 1
        if p2 != mersenne(p1):
            # 2^p1 - 1 does not divide p2, so both inner exponents
            # must collapse to 1.
            ok = ok and s == 1 and t == 1
        return ok
    if clause is Clause.T3_III:
        # M_p | M_n, so f holds every prime of M_p.
        mp = mersenne(math.isqrt(n))
        inner = tuple((q, e) for q, e in f.factors if mp % q == 0)
        # M_p must be a prime or q^s * r^t with gcd(s, t) = 1, each prime
        # carrying the same exponent in f as in M_p.
        return (
            len(inner) in (1, 2)
            and Factorization(mp, inner).reconstructs()
            and math.gcd(*(e for _, e in inner)) == 1
        )
    # T3_IV
    mp = mersenne(integer_root(n, 3))
    outer = [e for p, e in f.factors if p != mp]
    return f.exponent_of(mp) == 1 and math.gcd(*outer) == 1


def _match_clause(n: int, f: Factorization, shape: Shape, n_primes: tuple) -> tuple[Clause, bool]:
    """Pick the clause (omega, shape) falls under and check it.  Returns
    (clause, holds); the classification says nothing about omega > 3."""
    clause = _CLAUSES.get((f.omega, shape))
    if clause is None:
        return Clause.NONE, f.omega > 3
    holds = _clause_holds(clause, n, f, n_primes)
    if clause is Clause.T1 and not holds:
        return Clause.NONE, False
    return clause, holds


def verify_structure(n: int, f: Factorization) -> ClassificationReport:
    """Check a complete factorization of 2^n - 1 against the classification:
    when it has at most 3 distinct primes, n's shape must be on the
    corresponding solution list and the clause-level decomposition must
    hold; prime-index factors must additionally carry the 2*l*n + 1 form.

    The checks are necessity-only; nothing here claims that an eligible
    shape forces a particular omega.
    """
    if not f.complete:
        raise ValueError("complete factorization required")
    if f.target != mersenne(n):
        raise ValueError(f"factorization target is not 2^{n} - 1")
    n_factors = factor_natural(n)
    form = _form(n, *_functions_of(n_factors))
    checks: tuple[DivisorFormCheck, ...] = ()
    if form.shape is Shape.PRIME:
        checks = tuple(_divisor_form(q, n) for q in f.primes())
    clause, holds = _match_clause(n, f, form.shape, n_factors.primes())
    consistent = (
        holds
        and form.allows(f.omega)
        and f.omega >= form.min_omega
        and all(c.passes for c in checks)
    )
    return ClassificationReport(n, f.omega, clause, _decomposition(n, f), consistent, checks)


class SuiteResult(NamedTuple):
    name: str
    passed: int
    failed: int
    inconclusive: int = 0
    first_failure: str | None = None

    @property
    def ok(self) -> bool:
        return self.failed == 0


class IdentityReport(NamedTuple):
    max_n: int
    suites: tuple[SuiteResult, ...]


class _Tally:
    def __init__(self, name: str):
        self.name = name
        self.passed = 0
        self.failed = 0
        self.inconclusive = 0
        self.first_failure: str | None = None

    def check(self, ok: bool, template: str, *args) -> None:
        """Count one check.  The first failure keeps template.format(*args),
        so a passing check formats nothing."""
        if ok:
            self.passed += 1
        else:
            self.failed += 1
            if self.first_failure is None:
                self.first_failure = template.format(*args)

    def skip(self) -> None:
        self.inconclusive += 1

    def result(self) -> SuiteResult:
        return SuiteResult(
            self.name, self.passed, self.failed, self.inconclusive, self.first_failure
        )


# The perfect-power sweep always covers at least this much, regardless of
# the requested range: the absence statement is cheap to check and the
# larger window is part of the standard verification contract.
_PERFECT_POWER_FLOOR = 200


def verify_identities(
    max_n: int,
    budget: Budget | None = None,
    cache=None,
    stats: FactorStats | None = None,
) -> IdentityReport:
    """Run the four identity sub-suites over indices up to max_n.

    - gcd identity: gcd(2^a - 1, 2^b - 1) = 2^gcd(a, b) - 1 for all pairs;
    - omega superadditivity: for coprime 1 < m < k with m*k <= max_n and
      m*k != 6, omega(M(m*k)) > omega(M(m)) + omega(M(k));
    - perfect-power absence for 2 <= n <= max(max_n, 200);
    - quotient residue: the closed form m mod (2^p - 1) against explicit
      big-integer division, for prime p and p*m <= max_n.

    Cases that would need a factorization the budget cannot complete are
    counted as inconclusive, never as passes.
    """
    if max_n < 2:
        raise ValueError("max_n must be >= 2")
    from .cyclotomic import mersenne_quotient_residue

    memo: dict[int, Factorization] = {}

    def factored(n: int) -> Factorization:
        if n not in memo:
            memo[n] = factor_mersenne(n, budget, cache, stats)
        return memo[n]

    top = max(max_n, _PERFECT_POWER_FLOOR)
    ms = [mersenne(k) for k in range(top + 1)]  # ms[k] = 2^k - 1, built once

    gcd_suite = _Tally("gcd_identity")
    for a in range(1, max_n + 1):
        for b in range(a, max_n + 1):
            g = math.gcd(a, b)
            gcd_suite.check(math.gcd(ms[a], ms[b]) == ms[g], "gcd(M{}, M{}) != M{}", a, b, g)

    super_suite = _Tally("omega_superadditivity")
    for m in range(2, max_n + 1):
        for k in range(m + 1, max_n // m + 1):
            if math.gcd(m, k) != 1 or m * k == 6:
                continue
            fm, fk, fmk = factored(m), factored(k), factored(m * k)
            if not (fm.complete and fk.complete and fmk.complete):
                super_suite.skip()
                continue
            ok = fmk.omega > fm.omega + fk.omega
            super_suite.check(ok, "omega(M{}) <= omega(M{}) + omega(M{})", m * k, m, k)

    power_suite = _Tally("perfect_power_absence")
    for n in range(2, top + 1):
        power_suite.check(is_perfect_power(ms[n]) is None, "M{} is a perfect power", n)

    residue_suite = _Tally("quotient_residue")
    for p in range(2, max_n + 1):
        if not _prime_like(p):
            continue
        for m in range(1, max_n // p + 1):
            direct = (ms[p * m] // ms[p]) % ms[p]
            ok = mersenne_quotient_residue(p, m) == direct
            residue_suite.check(ok, "quotient residue mismatch at p={}, m={}", p, m)

    return IdentityReport(
        max_n,
        (
            gcd_suite.result(),
            super_suite.result(),
            power_suite.result(),
            residue_suite.result(),
        ),
    )


def verify_structures_in_range(
    max_n: int,
    budget: Budget | None = None,
    cache=None,
    stats: FactorStats | None = None,
) -> SuiteResult:
    """Factor 2^n - 1 for every n in [2, max_n] and verify each complete
    factorization is consistent with the classification; budget-limited
    cases count as inconclusive."""
    if max_n < 2:
        raise ValueError("max_n must be >= 2")
    tally = _Tally("structure_consistency")
    for n in range(2, max_n + 1):
        f = factor_mersenne(n, budget, cache, stats)
        if not f.complete:
            tally.skip()
            continue
        report = verify_structure(n, f)
        tally.check(report.consistent, "n={}: inconsistent ({})", n, report.decomposition)
    return tally.result()
