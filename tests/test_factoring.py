import math
import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from mersenne_omega import (
    DEFAULT_BUDGET,
    Budget,
    FactorCache,
    FactorStats,
    Factorization,
    factor_mersenne,
    factor_natural,
    mersenne,
    trial_divide_congruence,
)
from mersenne_omega import arith, cyclotomic, factoring


def test_factorization_invariants():
    f = Factorization(60, ((2, 2), (3, 1), (5, 1)))
    assert f.complete and f.status == "complete"
    assert f.omega == 3 and f.bigomega == 4
    assert f.reconstructs()
    partial = Factorization(536870911, ((233, 1),), 2304167)
    assert partial.status == "partial" and partial.reconstructs()
    assert not Factorization(60, ((2, 2), (3, 1), (5, 2))).reconstructs()
    assert not Factorization(60, ((2, 1), (3, 1), (5, 1))).reconstructs()  # 2 left over
    assert not Factorization(536870911, ((233, 1),), 2304169).reconstructs()
    assert not Factorization(31, ((31, 10**12),)).reconstructs()  # refused by division
    with pytest.raises(ValueError):
        Factorization(12, ((3, 1), (2, 2)))  # not ascending
    with pytest.raises(ValueError):
        Factorization(12, ((2, 0),))


def test_budget_validation():
    with pytest.raises(ValueError):
        Budget(rho_iterations_max=0)
    with pytest.raises(ValueError):
        Budget(trial_division_bound=0)


def test_factor_natural_examples():
    assert factor_natural(1).factors == ()
    assert factor_natural(1).complete
    assert factor_natural(4095).factors == ((3, 2), (5, 1), (7, 1), (13, 1))
    assert factor_natural(536870911).factors == ((233, 1), (1103, 1), (2089, 1))
    assert factor_natural(1024).factors == ((2, 10),)
    with pytest.raises(ValueError):
        factor_natural(0)


def test_factor_natural_reconstructs_random_inputs():
    # 300 draws over the whole domain [1, 4 * 10^12], log-uniform: a bit
    # length from 1 to 42, then a value below 2^bits within the cap.
    rng = random.Random(0xFAC7)
    for _ in range(300):
        x = rng.randrange(1, min(1 << rng.randint(1, 42), factoring._NATURAL_MAX) + 1)
        f = factor_natural(x)
        assert f.complete, x
        assert f.reconstructs() and f.target == x
        assert all(p == 2 or arith._odd_prime(p) for p in f.primes()), x


def test_factor_natural_takes_indices_up_to_its_cap():
    assert factoring._NATURAL_MAX == DEFAULT_BUDGET.trial_division_bound**2 == 4 * 10**12
    for x in (0, -1, 4 * 10**12 + 1):
        with pytest.raises(ValueError):
            factor_natural(x)
    assert factor_natural(4 * 10**12).factors == ((2, 14), (5, 12))
    # The slowest value within the cap: a product of the primes on either
    # side of its square root.
    assert factor_natural(1_999_993 * 2_000_003).factors == ((1_999_993, 1), (2_000_003, 1))


# Powers of 4 from 2^10 to 2^20, and 2M, whose square is factor_natural's cap.
RUNGS = (1 << 10, 1 << 12, 1 << 14, 1 << 16, 1 << 18, 1 << 20, 2_000_000)
# Largest prime below each rung and smallest above it.
RUNG_PRIMES = (
    (1021, 1031),
    (4093, 4099),
    (16381, 16411),
    (65521, 65537),
    (262139, 262147),
    (1048573, 1048583),
    (1999993, 2000003),
)


def _rung_edge_values():
    for below, above in RUNG_PRIMES:
        yield from (below * below, below * above, above * above)
    for rung in RUNGS[:-1]:
        for root in (rung - 1, rung, rung + 1):
            yield from (root * root - 1, root * root, root * root + 1)
            yield root * root + 2 * root  # largest x with isqrt(x) == root


@pytest.mark.parametrize("multiplier", [3, 100, DEFAULT_BUDGET.trial_division_bound])
def test_factor_natural_matches_sympy_at_rung_edges(multiplier):
    # Each edge value alone, and behind a smooth multiplier (a prime, 2^2*5^2,
    # 2^7*5^6) that is divided out first, so the loop reaches the edge value
    # as what is left; 2M pushes most products past the cap.
    sympy = pytest.importorskip("sympy")
    assert RUNG_PRIMES == tuple((sympy.prevprime(r), sympy.nextprime(r)) for r in RUNGS)
    for edge in _rung_edge_values():
        for x in (edge, multiplier * edge):
            if x > factoring._NATURAL_MAX:
                with pytest.raises(ValueError):
                    factor_natural(x)
                continue
            f = factor_natural(x)
            assert f.complete and f.reconstructs(), x
            assert dict(f.factors) == sympy.factorint(x), x


def test_trial_divide_congruence_examples():
    assert trial_divide_congruence(2047, 11, 100) == [23, 89]
    assert trial_divide_congruence(8388607, 23, 50) == [47]
    assert trial_divide_congruence(7, 4, 100) == []


def _reference_scan(
    target: int, d: int, limit: int, stats: FactorStats, stop_at_root: bool = True
) -> list[int]:
    """The congruence scan as one bytecode loop over every 2*d*l + 1: the
    reference trial_divide_congruence must match hit for hit and count
    for count.  Once a step passes isqrt of a rest below 2^64, the rest is
    tested: a prime ends the scan, listed if it is a candidate <= limit.
    With stop_at_root False it is the scan bounded by min(limit, rest)
    alone, which lists the same primes and counts more candidates."""
    filter_mod_8 = d % 2 == 1 and arith._prime_like(d)

    def stop(rest: int) -> int:
        return math.isqrt(rest) if stop_at_root and rest < 1 << 64 else limit

    found: list[int] = []
    remaining = target
    root = stop(remaining)
    step = 2 * d
    q = 1
    while True:
        q += step
        if q > limit or q > remaining:
            break
        if q > root:
            if arith._prime_like(remaining):
                if remaining <= limit and (remaining - 1) % step == 0:
                    if not filter_mod_8 or remaining & 7 in (1, 7):
                        found.append(remaining)
                break
            root = limit
        if filter_mod_8 and q & 7 not in (1, 7):
            continue
        stats.trial_candidates += 1
        if remaining % q:
            continue
        if not arith._prime_like(q):
            continue
        found.append(q)
        while remaining % q == 0:
            remaining //= q
        root = stop(remaining)
    return found


def _assert_scan_matches_reference(target: int, d: int, limits) -> None:
    for limit in limits:
        expected_stats, stats, old_stats = FactorStats(), FactorStats(), FactorStats()
        expected = _reference_scan(target, d, limit, expected_stats)
        assert trial_divide_congruence(target, d, limit, stats) == expected, (target, d, limit)
        assert stats == expected_stats, (target, d, limit)
        # The stop at the root changes the count, never the list.
        assert _reference_scan(target, d, limit, old_stats, stop_at_root=False) == expected
        assert old_stats.trial_candidates >= stats.trial_candidates, (target, d, limit)


def _stripped_cyclotomic_part(d: int) -> int:
    v = cyclotomic.cyclotomic_split(d)[-1].value
    g = math.gcd(v, d)
    while g > 1 and v % g == 0:
        v //= g
    return v


def test_trial_divide_congruence_matches_the_candidate_loop():
    # Every d up to 400, on the part Phi_d(2) the scan sees in
    # factor_mersenne and on what is left of it after each hit.
    for d in range(2, 401):
        limits = (1, 2 * d, 2 * d + 1, 10**3, 10**5, 2 * 10**6)
        target = _stripped_cyclotomic_part(d)
        for q in [1] + _reference_scan(target, d, limits[-1], FactorStats()):
            while target % q == 0 and q > 1:
                target //= q
            _assert_scan_matches_reference(target, d, limits)


def test_trial_divide_congruence_matches_the_candidate_loop_on_built_targets():
    limits = (1, 100, 6000, 12289, 12290, 10**5, 2 * 10**6)
    # A hit that leaves the target below the next candidate: 2047 = 23 * 89
    # and 69 = 23 * 3 for d = 11, whose candidates run 23, 89, 111, ...
    _assert_scan_matches_reference(2047, 11, limits)
    _assert_scan_matches_reference(69, 11, limits)
    # For d = 6 the primes 7 and 19 are d + 1 (mod 2d), so the scan does
    # not try them, but 133 = 7 * 19 is a candidate: a composite hit,
    # skipped on the way to the prime 157.
    assert trial_divide_congruence(133 * 157, 6, 10**3) == [157]
    _assert_scan_matches_reference(133 * 157, 6, limits)
    _assert_scan_matches_reference(133 * 157 * 12289, 6, limits)
    # Hits exactly on the end of the first block of 256 steps: 12289 =
    # 1 + 256 * 48 for d = 24, and 59393 = 1 + 256 * 8 * 29 for d = 29.
    for d, edge in ((24, 12289), (29, 59393)):
        step = 2 * d if d % 2 == 0 else 8 * d
        assert edge == 1 + 256 * step
        target = edge * next(q for q in range(edge + step, 10**6, step) if arith._prime_like(q))
        assert trial_divide_congruence(target, d, 10**6)[0] == edge
        # The limits end before, on and after the edge, and mid-block.
        _assert_scan_matches_reference(target, d, limits + (edge - 1, edge, edge + 1, edge + step))
        _assert_scan_matches_reference(target * 3 * 5, d, limits)


def test_trial_divide_congruence_stops_at_the_root_of_what_is_left():
    # 2^47 - 1 = 2351 * 4513 * 13264529: once 4513 is out, the rest is a
    # prime above the limit and past its root, so the scan stops there
    # instead of testing every candidate up to 2*10^6 (10,638 of them).
    stats = FactorStats()
    assert trial_divide_congruence(mersenne(47), 47, 2 * 10**6, stats) == [2351, 4513]
    assert 0 < stats.trial_candidates <= 30
    # A composite rest whose primes are no candidates (133 = 7 * 19 for
    # d = 6) does not stop the scan: 12289 is still found past its root.
    assert trial_divide_congruence(133 * 157 * 12289, 6, 2 * 10**6) == [157, 12289]
    # A prime rest that is itself a candidate <= limit is listed.
    assert trial_divide_congruence(23 * 89, 11, 100) == [23, 89]
    assert trial_divide_congruence(23 * 89, 11, 88) == [23]


def test_trial_divide_congruence_lists_what_the_unstopped_scan_lists():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @hypothesis.given(
        st.integers(0, 5 * 10**12 - 1).map(lambda k: 2 * k + 1),
        st.integers(2, 400),
        st.sampled_from((1, None, 10**3, 10**5, 2 * 10**6)),
    )
    def check(target, d, limit):
        limit = limit or 2 * d
        stats, old_stats = FactorStats(), FactorStats()
        expected = _reference_scan(target, d, limit, old_stats, stop_at_root=False)
        assert trial_divide_congruence(target, d, limit, stats) == expected
        assert stats.trial_candidates <= old_stats.trial_candidates

    check()


def test_trial_divide_congruence_rejects_bad_input():
    with pytest.raises(ValueError):
        trial_divide_congruence(15, 1, 100)
    with pytest.raises(ValueError):
        trial_divide_congruence(14, 3, 100)


def _rho(x, seed, ceiling=DEFAULT_BUDGET.rho_iterations_max, stats=None):
    """One _rho_brent attempt with its own ledger, as a top-level call makes."""
    return factoring._rho_brent(x, seed, stats or FactorStats(), ceiling)


def test_pollard_rho_brent_examples():
    assert _rho(8051, 1) in (83, 97)
    assert _rho(15, 1) in (3, 5)
    assert _rho(2047, 1) in (23, 89)


def test_pollard_rho_brent_is_deterministic():
    a = _rho(600851475143, 1)
    b = _rho(600851475143, 1)
    assert a == b


def test_pollard_rho_brent_stops_at_the_budget():
    # 8051 = 83 * 97 splits after exactly 6 iterations with seed 1; the
    # next step needs 2 more, so a budget of 5 stops at 4.
    s = FactorStats()
    assert _rho(8051, 1, 6, s) == 97
    assert s.rho_iterations == 6
    s = FactorStats()
    assert _rho(8051, 1, 5, s) is None
    assert s.rho_iterations == 4


def _two_prime_divisors_of_mersenne_numbers(sympy):
    """(p, q1 * q2) for primes 256 <= p < 700 and primes q1 < q2 < 2M that
    divide 2^p - 1."""
    for p in sympy.primerange(256, 700):
        qs = [q for q in range(2 * p + 1, 2_000_000, 2 * p) if pow(2, p, q) == 1 and sympy.isprime(q)]
        for i, q1 in enumerate(qs):
            for q2 in qs[i + 1 :]:
                yield p, q1 * q2


def _split(x, ceiling, ring=None):
    """Run _rho_brent over the seed schedule as _factor_with_rho does."""
    s = FactorStats()
    divisor, seed = None, 1
    while divisor is None and s.rho_iterations < ceiling:
        divisor = factoring._rho_brent(x, seed, s, ceiling, ring)
        seed += 1
    return divisor, s.rho_iterations, s.rho_calls


def test_rho_in_the_ring_matches_rho_modulo_x():
    sympy = pytest.importorskip("sympy")
    cases = list(_two_prime_divisors_of_mersenne_numbers(sympy))
    assert len(cases) >= 10
    for p, x in cases:
        assert mersenne(p) % x == 0
        for ceiling in (1 << 16, 300):
            assert _split(x, ceiling, p) == _split(x, ceiling), (p, x, ceiling)


def test_reused_stats_give_each_call_its_own_budget():
    s = FactorStats()
    budget = Budget(rho_iterations_max=1000)
    first = factor_mersenne(101, budget, stats=s)
    assert s.rho_iterations == 1000
    assert factor_mersenne(101, budget, stats=s) == first
    assert s.rho_iterations == 2000


SWEEP_BUDGET = Budget(rho_iterations_max=1 << 22)

# Published factorizations of 2^n - 1 whose pieces rho leaves partial, or
# splits only late, at a 2^22 budget.  p-1 finds a prime q with
# (q - 1)/2n smooth: 44029 * 278557 (times 3) for 7432339208719 | M_101,
# 3^2 * 13 * 37 * 53 * 193 * 457 for 5625767248687 | M_139.  ECM finds the
# 20-digit primes of M_137 and M_149, which neither rho nor p-1 reaches.
PUBLISHED = {
    101: ((7432339208719, 1), (341117531003194129, 1)),
    125: ((31, 1), (601, 1), (1801, 1), (269089806001, 1), (4710883168879506001, 1)),
    137: ((32032215596496435569, 1), (5439042183600204290159, 1)),
    139: ((5625767248687, 1), (123876132205208335762278423601, 1)),
    149: ((86656268566282183151, 1), (8235109336690846723986161, 1)),
    157: ((852133201, 1), (60726444167, 1), (1654058017289, 1), (2134387368610417, 1)),
}


@pytest.fixture(scope="module")
def published_runs():
    """Two runs of factor_mersenne(n, SWEEP_BUDGET) per published n, with
    their stats; made once per module, as M_137 and M_149 take seconds."""
    runs = {}
    for n in PUBLISHED:
        runs[n] = []
        for _ in range(2):
            stats = FactorStats()
            runs[n].append((factor_mersenne(n, SWEEP_BUDGET, stats=stats), stats))
    return runs


def test_pm1_stage_one_splits_m139():
    # bound = _ECM_B1 leaves stage 2 empty.
    assert factoring._pm1(mersenne(139), 139, factoring._ECM_B1) == 5625767248687


def test_pm1_stage_two_must_reach_278557_for_m101():
    m = mersenne(101)
    assert factoring._pm1(m, 101, factoring._PM1_B1) is None
    assert factoring._pm1(m, 101, 278556) is None
    assert factoring._pm1(m, 101, 278557) == 7432339208719


def test_pm1_raises_base_three(monkeypatch):
    bases = Counter()

    def counting(*args):
        bases[args[0]] += 1
        return pow(*args)

    monkeypatch.setattr(factoring, "pow", counting, raising=False)
    assert factoring._pm1(mersenne(139), 139, factoring._PM1_B1) == 5625767248687
    assert bases == {3: 1}


@pytest.mark.parametrize("n", sorted(PUBLISHED))
def test_pm1_completes_published_factorizations(published_runs, n):
    runs = published_runs[n]
    assert runs[0] == runs[1]
    f, stats = runs[0]
    assert f.complete and f.factors == PUBLISHED[n] and f.reconstructs()
    assert stats.rho_iterations <= SWEEP_BUDGET.rho_iterations_max


def test_ecm_charges_each_curve_up_to_the_one_that_splits(published_runs):
    # Rho seed 1 and p-1 take 473,638 units, then ECM finds the smaller
    # prime on curve sigma = 23 of M_137 and sigma = 25 of M_149.
    cost = factoring._ecm_cost(SWEEP_BUDGET.trial_division_bound)
    assert cost == 15876 + 121349
    assert published_runs[137][0][1] == FactorStats(473638 + 18 * cost, 1, 3649, 0)
    assert published_runs[149][0][1] == FactorStats(473638 + 20 * cost, 1, 3355, 0)


@pytest.mark.parametrize("n", [137, 149])
def test_ecm_leaves_m137_and_m149_partial_at_half_the_sweep_budget(n):
    budget = Budget(rho_iterations_max=1 << 21)
    stats = FactorStats()
    f = factor_mersenne(n, budget, stats=stats)
    assert not f.complete and f.cofactor == mersenne(n)
    assert stats.rho_iterations <= budget.rho_iterations_max


def test_piece_that_rho_splits_within_the_pm1_cost_keeps_its_counts():
    stats = FactorStats()
    f = factor_mersenne(119, SWEEP_BUDGET, stats=stats)
    assert f.complete and f.primes()[-2:] == (62983048367, 131105292137)
    assert stats == FactorStats(126206, 1, 8403, 0)
    assert stats.rho_iterations < factoring._pm1_cost(SWEEP_BUDGET.trial_division_bound)


@pytest.mark.parametrize("bound", [factoring._PM1_B1 // 2, factoring._PM1_B1, 278557, 2 * 10**6, 5 * 10**6])
def test_pm1_cost_counts_the_primes_stage_two_walks(bound):
    # C counts the primes in (_PM1_B1, B2], though stage 2 walks _ecm_plan.
    bits = factoring._exponent(factoring._PM1_B1).bit_length()
    primes = sum(map(len, factoring._segments(factoring._PM1_B1, bound)))
    assert factoring._pm1_cost(bound) == bits + primes


def test_prime_count_matches_the_sieve():
    for x in range(-1, 3000):
        assert factoring._prime_count(x) == len(arith._sieve(1, x)), x
    assert factoring._pm1_cost(DEFAULT_BUDGET.trial_division_bound) == 94449 + 142391


def test_pm1_never_runs_below_twice_its_cost(monkeypatch):
    # Nor does ECM, which runs only after p-1.
    calls = []
    monkeypatch.setattr(factoring, "_pm1", lambda *args: calls.append(args))
    monkeypatch.setattr(factoring, "_ecm", lambda *args: calls.append(args))
    for n in range(2, 401):
        factor_mersenne(n, Budget(rho_iterations_max=1 << 14))
    for n in (1050, 1061, 1459, 2310, 3000):
        factor_mersenne(n, Budget(rho_iterations_max=1000))
    assert calls == []


@pytest.mark.parametrize("bound", [factoring._ECM_B1, 50_000, DEFAULT_BUDGET.trial_division_bound])
def test_ecm_plan_covers_every_stage_two_prime(bound):
    d = factoring._ECM_D
    lo, rows = factoring._ecm_plan(bound)
    primes = set(arith._sieve(factoring._ECM_B1, bound))
    covered = set()
    for m, row in enumerate(rows, lo):
        for i in row:
            j = factoring._ECM_BABIES[i]
            pair = {m * d - j, m * d + j} & primes
            assert pair, (m, j)  # every term pays for at least one prime
            covered |= pair
    assert covered == {q for q in primes if d % q}
    stage_one = factoring._exponent(factoring._ECM_B1).bit_length()
    assert factoring._ecm_cost(bound) == stage_one + sum(map(len, rows))


def test_ecm_curve_returns_a_proper_divisor_or_none():
    # Modulo 7 and 13 every curve's group order is smooth, so stage 1
    # finds both primes at once: a gcd of v, which is no divisor.
    outcomes = set()
    for v in (7 * 13, 1000003 * 1000033, (1 << 64) + 1):
        for sigma in range(6, 10):
            g = factoring._ecm(v, sigma, factoring._ecm_plan(20_000))
            assert g is None or (1 < g < v and v % g == 0), (v, sigma, g)
            outcomes.add(g is None)
    assert outcomes == {True, False}
    m, plan = mersenne(137), factoring._ecm_plan(DEFAULT_BUDGET.trial_division_bound)
    assert factoring._ecm(m, 22, plan) is None
    assert factoring._ecm(m, 23, plan) == 32032215596496435569


@pytest.mark.parametrize("b1", [1, 2, 16, factoring._ECM_B1, factoring._PM1_B1])
def test_exponent_is_the_product_of_the_prime_powers(b1):
    assert factoring._exponent(b1) == math.prod(factoring._prime_powers(b1))


def _pm1_by_primes(v, d, bound):
    """Pollard p-1 with a stage 2 that raises a to each prime r in
    (_PM1_B1, bound] in turn, stepping by the gaps between them, with one
    gcd per sieve segment and a segment's gcd of v retraced one prime at a
    time: the stage 2 _pm1 had before it walked _ecm_plan, kept as the
    reference that walk must agree with."""
    b1 = factoring._PM1_B1
    a = pow(3, 2 * d * factoring._exponent(b1), v)
    g = math.gcd(a - 1, v)
    if g == v:
        b = pow(3, 2 * d, v)
        g = next(h for q in factoring._prime_powers(b1) if (h := math.gcd((b := pow(b, q, v)) - 1, v)) > 1)
    if g > 1:
        return g if g < v else None
    last = arith._sieve(b1 - 100, b1)[-1]
    x, steps = pow(a, last, v), {}  # x = a^last; steps[s] = a^s
    for primes in factoring._segments(b1, bound):
        acc = 1
        for r in primes:
            x = x * (steps.get(r - last) or steps.setdefault(r - last, pow(a, r - last, v))) % v
            acc = acc * (x - 1) % v
            last = r
        g = math.gcd(acc, v)
        if g == v:
            g = next((h for r in primes if (h := math.gcd(pow(a, r, v) - 1, v)) > 1), v)
        if g > 1:
            return g if g < v else None
    return None


def test_pm1_agrees_with_a_prime_by_prime_stage_two():
    # The pieces of Phi_d(2) that the congruence scan to 2M leaves
    # composite, for d < 150 and d = 247: stage 1 splits most, stage 2
    # splits those of d = 101 and d = 247, and three stay whole after both.
    found = {}
    for d in [*range(3, 150), 247]:
        part = next(p for p in cyclotomic.cyclotomic_split(d) if p.d == d)
        v = part.value
        while part.intrinsic > 1 and v % part.intrinsic == 0:
            v //= part.intrinsic
        for q in trial_divide_congruence(v, d, DEFAULT_BUDGET.trial_division_bound):
            while v % q == 0:
                v //= q
        if v > 1 and not arith._prime_like(v):
            found[d] = factoring._pm1(v, d, 278557), v
            assert found[d][0] == _pm1_by_primes(v, d, 278557), d
    assert [d for d, (g, _) in found.items() if g is None] == [137, 143, 149]
    for d in (101, 247):
        g, v = found[d]
        assert g and factoring._pm1(v, d, factoring._ECM_B1) is None


def test_pm1_walks_the_plan_without_sieving(monkeypatch):
    m = mersenne(101)
    factoring._exponent(factoring._PM1_B1)
    factoring._ecm_plan(278557)

    def no_sieve(*args):
        raise AssertionError("sieved again")

    monkeypatch.setattr(factoring, "_segments", no_sieve)
    monkeypatch.setattr(factoring, "_sieve", no_sieve)
    assert factoring._pm1(m, 101, 278557) == 7432339208719


def test_stage_two_retraces_a_row_one_term_at_a_time():
    # Row terms x - baby: 101 * 5, 103 and v itself, for v = 101 * 103.
    v, width = 101 * 103, len(factoring._ECM_BABIES)
    babies = [v - 505, v - 103, 0] + [v - 1] * (width - 3)
    points = babies + [v, v]  # two giant steps, each v
    assert factoring._pairs(v, points, [b"", bytes([0, 1])]) == 101
    assert factoring._pairs(v, points, [b"", bytes([1, 0])]) == 103
    assert factoring._pairs(v, points, [bytes([2, 0]), bytes([1])]) is None
    assert factoring._pairs(v, points, [bytes([3]), bytes([3, 4])]) is None  # every term is 1


@pytest.fixture
def helpers(monkeypatch):
    """Every helper process the ECM runner starts, in order."""
    started = []

    class Recorded(subprocess.Popen):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            started.append(self)

    monkeypatch.setattr(subprocess, "Popen", Recorded)
    return started


def _force_cores(monkeypatch, cores):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)), raising=False)


def _reaped(procs) -> bool:
    return all(p.returncode is not None and p.stdout.closed and p.stdin.closed for p in procs)


def _parent_curves(monkeypatch) -> list:
    """The sigmas of the curves this process runs itself."""
    sigmas = []
    ecm = factoring._ecm

    def recording(v, sigma, plan):
        sigmas.append(sigma)
        return ecm(v, sigma, plan)

    monkeypatch.setattr(factoring, "_ecm", recording)
    return sigmas


@pytest.mark.parametrize("cores", [1, 3])
@pytest.mark.parametrize("n", [137, 149])
def test_ecm_results_and_charges_do_not_depend_on_the_cores(monkeypatch, helpers, published_runs, n, cores):
    _force_cores(monkeypatch, cores)
    stats = FactorStats()
    assert (factor_mersenne(n, SWEEP_BUDGET, stats=stats), stats) == published_runs[n][0]
    assert len(helpers) == cores - 1 and _reaped(helpers)


# 10003891, 10008511 and 10016309: at B2 = 20000, curve 6 finds nothing,
# curve 7 finds 10003891 and curve 8 finds 10016309.
THREE_PRIMES = 10003891 * 10008511 * 10016309


def test_ecm_takes_the_earlier_of_two_curves_that_split(monkeypatch, helpers):
    _force_cores(monkeypatch, 3)
    parent = _parent_curves(monkeypatch)
    assert factoring._ecm_curves(THREE_PRIMES, 20_000, 6) == (10003891, 2)
    assert parent == [6] and len(helpers) == 2 and _reaped(helpers)


def test_ecm_takes_its_own_curve_before_a_helper_answer(monkeypatch, helpers):
    # Curve 6 finds 10012841 and curve 7 a product of the other two.
    _force_cores(monkeypatch, 2)
    parent = _parent_curves(monkeypatch)
    v = 10000967 * 10012841 * 10014307
    assert factoring._ecm_curves(v, 20_000, 6) == (10012841, 1)
    assert parent == [6] and len(helpers) == 1 and _reaped(helpers)


def test_a_helper_that_cannot_start_leaves_the_waves_narrower(monkeypatch, helpers):
    # Three cores, but the second helper fails to start: waves of two.
    _force_cores(monkeypatch, 3)
    parent = _parent_curves(monkeypatch)
    recorded = subprocess.Popen

    def second_fails(*args, **kwargs):
        if helpers:
            raise OSError("no more processes")
        return recorded(*args, **kwargs)

    monkeypatch.setattr(subprocess, "Popen", second_fails)
    assert factoring._ecm_curves(THREE_PRIMES, 20_000, 6) == (10003891, 2)
    assert parent == [6] and len(helpers) == 1 and _reaped(helpers)


@pytest.mark.parametrize("fault", ["dies", "garbles"])
def test_a_helper_fault_mid_stage_leaves_the_result(monkeypatch, helpers, published_runs, fault):
    # The helper answers curve 7, then garbles its answer to 9, or dies
    # before this process reads it; this process then runs the helper's
    # curves itself, up to 23, which splits M_137.  Answers a dying helper
    # wrote before it died are still read.
    _force_cores(monkeypatch, 2)
    parent = _parent_curves(monkeypatch)
    answer = factoring._helper_answer

    def faulty(procs, slot, sigma, v):
        if sigma == 9 and procs[slot] is not None:
            if fault == "dies":
                procs[slot].kill()
                procs[slot].wait()
            else:
                procs[slot].stdout.readline()
                monkeypatch.setattr(procs[slot].stdout, "readline", lambda: b"9 zz\n")
        return answer(procs, slot, sigma, v)

    monkeypatch.setattr(factoring, "_helper_answer", faulty)
    stats = FactorStats()
    assert (factor_mersenne(137, SWEEP_BUDGET, stats=stats), stats) == published_runs[137][0]
    if fault == "garbles":
        assert parent == [6, 8, *range(9, 24)]
    assert parent[:2] == [6, 8] and parent[-2:] == [22, 23]
    assert len(helpers) == 1 and _reaped(helpers)


def test_helpers_are_reaped_when_the_curves_run_out(monkeypatch, helpers):
    _force_cores(monkeypatch, 3)
    assert factoring._ecm_curves(mersenne(137), 20_000, 3) == (None, 3)
    assert len(helpers) == 2 and _reaped(helpers)


@pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
def test_helpers_are_reaped_when_a_curve_raises(monkeypatch, helpers, error):
    _force_cores(monkeypatch, 3)

    def failing(*args):
        raise error

    monkeypatch.setattr(factoring, "_ecm", failing)
    with pytest.raises(error):
        factoring._ecm_curves(THREE_PRIMES, 20_000, 6)
    assert len(helpers) == 2 and _reaped(helpers)


def test_runner_leaves_no_resource_warning():
    # -X dev and -W error turn an unclosed pipe or an unreaped helper into
    # a warning printed on stderr.
    script = (
        "import os; os.sched_getaffinity = lambda pid: {0, 1, 2}\n"
        "from mersenne_omega import factoring\n"
        f"assert factoring._ecm_curves({THREE_PRIMES}, 20_000, 6) == (10003891, 2)\n"
        "assert factoring._ecm_curves(factoring.mersenne(137), 20_000, 3) == (None, 3)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(factoring.__file__).resolve().parent.parent)}
    run = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error::ResourceWarning", "-c", script],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert (run.returncode, run.stderr) == (0, "")


# Prime n such as 101 send no value >= 2^64 to is_probable_prime at all;
# test_composite_mersenne_number_goes_on_after_lucas_lehmer covers them.
@pytest.mark.parametrize("n", [1050])
def test_factor_mersenne_tests_no_big_value_three_times(monkeypatch, n):
    tested = Counter()
    original = arith.is_probable_prime

    def counting(x):
        tested[x] += 1
        return original(x)

    monkeypatch.setattr(arith, "is_probable_prime", counting)
    factor_mersenne(n, Budget(rho_iterations_max=1000))
    big = {x: k for x, k in tested.items() if x >= 1 << 64}
    assert big and max(big.values()) <= 2


def _count_calls(monkeypatch, module, name) -> Counter:
    """Replace module.name with a wrapper that counts its first arguments."""
    seen = Counter()
    original = getattr(module, name)

    def counting(x, *rest):
        seen[x] += 1
        return original(x, *rest)

    monkeypatch.setattr(module, name, counting)
    return seen


@pytest.mark.parametrize("p", [89, 107, 127, 521, 607])
def test_mersenne_prime_is_decided_by_lucas_lehmer(monkeypatch, p):
    lucas_lehmer = _count_calls(monkeypatch, factoring, "lucas_lehmer")
    tested = _count_calls(monkeypatch, arith, "is_probable_prime")
    f = factor_mersenne(p)
    assert f.factors == ((mersenne(p), 1),) and f.complete
    assert lucas_lehmer == {p: 1}
    assert mersenne(p) not in tested


@pytest.mark.parametrize(
    "p, factors, cofactor",
    [
        (67, ((193707721, 1), (761838257287, 1)), 1),
        # Both are products of two primes too large for this rho budget.
        (101, (), mersenne(101)),
        (1061, (), mersenne(1061)),
    ],
    ids=["67", "101", "1061"],
)
def test_composite_mersenne_number_goes_on_after_lucas_lehmer(monkeypatch, p, factors, cofactor):
    lucas_lehmer = _count_calls(monkeypatch, factoring, "lucas_lehmer")
    tested = _count_calls(monkeypatch, arith, "is_probable_prime")
    f = factor_mersenne(p, Budget(rho_iterations_max=1 << 14))
    assert (f.factors, f.cofactor) == (factors, cofactor)
    assert lucas_lehmer == {p: 1}
    # 2^p - 1 goes to rho untested: lucas_lehmer already found it composite.
    assert mersenne(p) not in tested


@pytest.mark.parametrize("p", [11, 23, 41, 59, 71, 1013, 1019, 1031])
def test_scan_factor_spares_lucas_lehmer(monkeypatch, p):
    # Each of these 2^p - 1 has a prime factor below the scan bound.  From
    # _LUCAS_LEHMER_FIRST on, that factor spares Lucas-Lehmer.  Below it,
    # Lucas-Lehmer runs first, once, and finds 2^p - 1 composite; the scan
    # then finds the factor, and Lucas-Lehmer does not run again.
    lucas_lehmer = _count_calls(monkeypatch, factoring, "lucas_lehmer")
    f = factor_mersenne(p, Budget(rho_iterations_max=1000))
    assert f.factors and f.factors[0][0] < DEFAULT_BUDGET.trial_division_bound
    assert f.reconstructs()
    assert lucas_lehmer == ({p: 1} if p < factoring._LUCAS_LEHMER_FIRST else {})


@pytest.mark.parametrize("p", [31, 61, 127, 521])
def test_prime_mersenne_number_pays_for_a_short_scan_only(monkeypatch, p):
    # Below _LUCAS_LEHMER_FIRST, one Lucas-Lehmer run and no scan.  From
    # there on, one scan to the 2 * 10^6 bound, then one Lucas-Lehmer run.
    scans = _count_calls(monkeypatch, factoring, "trial_divide_congruence")
    lucas_lehmer = _count_calls(monkeypatch, factoring, "lucas_lehmer")
    stats = FactorStats()
    assert factor_mersenne(p, stats=stats).factors == ((mersenne(p), 1),)
    assert scans == ({} if p < factoring._LUCAS_LEHMER_FIRST else {mersenne(p): 1})
    assert lucas_lehmer == {p: 1}
    assert stats.trial_candidates == {31: 0, 61: 0, 127: 0, 521: 959}[p]


def test_factor_mersenne_scans_each_part_at_most_once(monkeypatch):
    original, scanned = factoring.trial_divide_congruence, Counter()

    def counting(target, d, limit, stats=None):
        scanned[d] += 1
        return original(target, d, limit, stats)

    monkeypatch.setattr(factoring, "trial_divide_congruence", counting)
    for n in range(2, 401):
        scanned.clear()
        factor_mersenne(n, Budget(rho_iterations_max=1 << 14))
        assert all(k == 1 for k in scanned.values()), n


def test_scan_goes_on_past_2p_squared_after_a_factor():
    # The scan goes on past its first factor, 18121 | 2^151 - 1, to 55871
    # and 165799, which a one-iteration rho budget cannot find.  (The 2p^2
    # of the name, 45602 here, is where an earlier scan's first stretch
    # ended.)
    f = factor_mersenne(151, Budget(rho_iterations_max=1))
    assert f.primes() == (18121, 55871, 165799) and not f.complete


@pytest.mark.parametrize("n", [101, 1050, 1279, 2310])
def test_factor_mersenne_tests_each_big_value_once(monkeypatch, n):
    tested = _count_calls(monkeypatch, arith, "is_probable_prime")
    factor_mersenne(n, Budget(rho_iterations_max=1000))
    assert all(k == 1 for x, k in tested.items() if x >= 1 << 64)


@pytest.mark.parametrize("q, d", [(1093, 364), (3511, 1755), (2_000_003, 1_000_001)])
def test_a_prime_square_piece_splits_by_rho(q, d):
    # A piece the scan leaves is a power only through q^2 | Phi_d(2), q a
    # Wieferich prime past the scan bound: 1093 and 3511 are the known
    # ones, and 2000003^2 stands in for one past the default bound.  The
    # budget is below 2 * _PM1_B1, so rho alone must split it.
    if q in (1093, 3511):
        assert cyclotomic.cyclotomic_split(d)[-1].value % (q * q) == 0
    counts = Counter()
    assert factoring._factor_with_rho(q * q, FactorStats(), 1 << 16, counts, d, 3000) == 1
    assert counts == {q: 2}


@pytest.mark.parametrize("n", [1050, 2003])
def test_cache_does_not_retest_what_the_call_tested(monkeypatch, n):
    tested = _count_calls(monkeypatch, arith, "is_probable_prime")
    budget = Budget(rho_iterations_max=1000)
    factor_mersenne(n, budget)
    alone = {x: k for x, k in tested.items() if x >= 1 << 64}
    tested.clear()
    factor_mersenne(n, budget, FactorCache())
    assert {x: k for x, k in tested.items() if x >= 1 << 64} == alone


def test_factor_mersenne_examples():
    assert factor_mersenne(6).factors == ((3, 2), (7, 1))
    assert factor_mersenne(21).factors == ((7, 2), (127, 1), (337, 1))
    assert factor_mersenne(25).factors == ((31, 1), (601, 1), (1801, 1))
    with pytest.raises(ValueError):
        factor_mersenne(0)


def test_factor_mersenne_complete_through_64():
    for n in range(1, 65):
        f = factor_mersenne(n)
        assert f.complete, n
        assert f.target == mersenne(n)
        assert f.reconstructs(), n


def test_factor_mersenne_order_congruences():
    # every reported prime q has ord | n, q = 1 (mod ord), and for odd
    # orders also q = 1 (mod 2 * ord)
    sympy = pytest.importorskip("sympy")
    for n in range(2, 65):
        for q, _ in factor_mersenne(n).factors:
            e = sympy.n_order(2, q)
            assert n % e == 0, (n, q)
            assert (q - 1) % e == 0, (n, q)
            if e % 2:
                assert (q - 1) % (2 * e) == 0, (n, q)


def test_factor_mersenne_prime_index_divisors_mod_8():
    for p in (3, 5, 7, 11, 13, 23, 29, 37, 41, 43, 47, 53, 59, 61):
        for q, _ in factor_mersenne(p).factors:
            assert q % 8 in (1, 7), (p, q)
            l = (q - 1) // (2 * p)
            assert l % 4 in (0, (-p) % 4), (p, q)


def test_factor_mersenne_is_deterministic():
    budget = Budget(rho_iterations_max=1 << 20, trial_division_bound=10_000)
    assert factor_mersenne(57, budget) == factor_mersenne(57, budget)


def test_factor_mersenne_partial_on_tiny_budget():
    tiny = Budget(rho_iterations_max=4, trial_division_bound=100)
    f = factor_mersenne(101, budget=tiny)
    assert not f.complete
    assert f.status == "partial"
    assert f.reconstructs()
    assert f.cofactor > 1


def test_factor_mersenne_uses_cache():
    cache = FactorCache()
    first = FactorStats()
    f1 = factor_mersenne(36, cache=cache, stats=first)
    assert f1.complete and first.rho_iterations > 0
    second = FactorStats()
    f2 = factor_mersenne(36, cache=cache, stats=second)
    assert f2 == f1
    assert second.rho_iterations == 0
    assert second.cache_hits == 1


def test_factor_mersenne_completes_partial_cache_entry():
    cache = FactorCache()
    tiny = Budget(rho_iterations_max=4, trial_division_bound=100)
    partial = factor_mersenne(101, budget=tiny, cache=cache)
    assert not partial.complete
    cache.add_primes(101, (7432339208719,))
    f = factor_mersenne(101, cache=cache)
    assert f.complete
    assert f.factors == ((7432339208719, 1), (341117531003194129, 1))
