"""Acceptance suite.

Each test covers one numbered criterion and prints a single PASS/FAIL
line (run with `pytest tests/test_acceptance.py -v -s` to see them).
All tolerances are exact integer equality unless a wall-clock limit is
stated.
"""

import contextlib
import math
import time

import pytest

from mersenne_omega import (
    ASYMPTOTIC_NOTE,
    CensusConfig,
    FactorCache,
    FactorStats,
    cyclotomic_split,
    divisor_list,
    factor_mersenne,
    import_known_factors,
    index_functions,
    load_cache,
    lower_bound_omega,
    lucas_lehmer,
    mersenne,
    primitive_prime_divisors,
    run_census,
    save_cache,
)
from mersenne_omega.cli import main as cli_main


@contextlib.contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"criterion {number} ({name}): FAIL")
        raise
    print(f"criterion {number} ({name}): PASS")


# Exact factorizations of 2^n - 1 for the fixture indices, keyed by the
# expected count of distinct prime factors.
OMEGA_1_INDICES = (2, 3, 5, 7)
OMEGA_2_FIXTURES = {
    11: ((23, 1), (89, 1)),
    23: ((47, 1), (178481, 1)),
    6: ((3, 2), (7, 1)),
    4: ((3, 1), (5, 1)),
    9: ((7, 1), (73, 1)),
}
OMEGA_3_FIXTURES = {
    29: ((233, 1), (1103, 1), (2089, 1)),
    43: ((431, 1), (9719, 1), (2099863, 1)),
    10: ((3, 1), (11, 1), (31, 1)),
    14: ((3, 1), (43, 1), (127, 1)),
    8: ((3, 1), (5, 1), (17, 1)),
    27: ((7, 1), (73, 1), (262657, 1)),
    15: ((7, 1), (31, 1), (151, 1)),
    21: ((7, 2), (127, 1), (337, 1)),
    25: ((31, 1), (601, 1), (1801, 1)),
}

MERSENNE_PRIME_EXPONENTS_TO_64 = {2, 3, 5, 7, 13, 17, 19, 31, 61}


@pytest.fixture(scope="module")
def factored():
    cache = FactorCache()
    return {n: factor_mersenne(n, cache=cache) for n in range(1, 65)}


def test_criterion_1_fixture_suite():
    with criterion(1, "fixture suite"):
        start = time.perf_counter()
        for n in OMEGA_1_INDICES:
            f = factor_mersenne(n)
            assert f.factors == ((mersenne(n), 1),), n
            assert f.omega == 1
        for n, expected in OMEGA_2_FIXTURES.items():
            f = factor_mersenne(n)
            assert f.factors == expected, n
            assert f.omega == 2
        for n, expected in OMEGA_3_FIXTURES.items():
            f = factor_mersenne(n)
            assert f.factors == expected, n
            assert f.omega == 3
        # the n = 49 entry: the numeric factors hold, and 2^27 - 1 does
        # not divide 2^49 - 1 (the indices 27 and 49 are coprime)
        assert 127 * 4432676798593 == mersenne(49)
        assert factor_mersenne(49).factors == ((127, 1), (4432676798593, 1))
        assert math.gcd(mersenne(27), mersenne(49)) == 1
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"fixture suite took {elapsed:.2f}s"


def test_criterion_2_range_verification(capsys):
    with criterion(2, "verify --max 64 under 60s"):
        start = time.perf_counter()
        code = cli_main(["verify", "--max", "64"])
        elapsed = time.perf_counter() - start
        out = capsys.readouterr().out
        assert code == 0, out
        assert elapsed < 60.0, f"verify took {elapsed:.2f}s"
        for name in (
            "gcd_identity",
            "omega_superadditivity",
            "perfect_power_absence",
            "quotient_residue",
            "structure_consistency",
        ):
            assert f"{name}: pass" in out, name


def test_criterion_3_mersenne_prime_roster(factored):
    with criterion(3, "Mersenne prime roster"):
        by_lucas_lehmer = {2}  # M2 = 3 handled directly
        for p in range(3, 65, 2):
            if any(p % r == 0 for r in range(2, p)):
                continue
            if lucas_lehmer(p):
                by_lucas_lehmer.add(p)
        by_factorization = {n for n in range(2, 65) if factored[n].omega == 1}
        assert by_lucas_lehmer == MERSENNE_PRIME_EXPONENTS_TO_64
        assert by_factorization == MERSENNE_PRIME_EXPONENTS_TO_64


def test_criterion_4_bounds_never_violated(factored):
    with criterion(4, "lower bounds hold"):
        violations = []
        for n in range(2, 65):
            omega = factored[n].omega
            d_n = len(divisor_list(n))
            if omega < d_n - 3 or omega < lower_bound_omega(n):
                violations.append(n)
        assert violations == []


def test_criterion_5_uncorrected_bound_witnesses():
    with criterion(5, "uncorrected-bound witnesses"):
        _, summary = run_census(CensusConfig(2, 64))
        witnesses = set(summary.uncorrected_bound_witnesses)
        assert witnesses, "witness set must be nonempty"
        assert {8, 9} <= witnesses
        # independently recompute: prime powers (excluding 2 and 6) where
        # the uncorrected floor Omega(n) + 1 exceeds the observed count
        expected = set()
        for n in range(2, 65):
            _, omega_n, bigomega_n = index_functions(n)
            if n in (2, 6) or omega_n != 1:
                continue
            if bigomega_n + 1 > factor_mersenne(n).omega:
                expected.add(n)
        assert witnesses == expected
        assert witnesses == {3, 4, 5, 7, 8, 9, 13, 16, 17, 19, 27, 31, 32, 49, 61}


def test_criterion_6_cyclotomic_identity():
    with criterion(6, "cyclotomic product identity"):
        for n in range(1, 201):
            product = 1
            for d in divisor_list(n):
                product *= cyclotomic_split(d)[-1].value if d > 1 else 1
            assert product == mersenne(n), n


def test_criterion_7_primitive_divisor_law(factored):
    with criterion(7, "primitive divisor law"):
        assert primitive_prime_divisors(1, factored[1]).primitive_part == 1
        assert primitive_prime_divisors(6, factored[6]).primitive_part == 1
        for n in range(3, 65):
            if n == 6:
                continue
            part = primitive_prime_divisors(n, factored[n]).primitive_part
            assert part > 1, n


def test_criterion_8_asymptotic_not_reproduced_but_reported(factored):
    with criterion(8, "asymptotic reported, not asserted"):
        config = CensusConfig(2, 64, epsilon=0.5)
        records, summary = run_census(config)
        # the report carries both band sides and the final inequality
        assert summary.lemma6_fraction is not None
        assert summary.lemma6_upper_fraction is not None
        assert summary.final_fraction == 1.0
        for r in records:
            if r.n >= 3:
                assert r.hw_value is not None
                assert r.lemma6_holds is not None
                assert r.final_inequality_holds is not None
        # at this scale the final inequality is numerically trivial
        # (hw - 3 < 0), so the checkable content is the deterministic
        # bounds, which must show zero violations
        assert all(r.hw_value - 3.0 < 0 for r in records if r.n >= 3)
        assert summary.deterministic_violations == ()
        # and the report labels the density claim as untested
        assert "untested" in summary.asymptotic_note
        assert summary.asymptotic_note == ASYMPTOTIC_NOTE


def test_criterion_9_persistence_round_trip(tmp_path):
    with criterion(9, "persistence round trip"):
        cache = FactorCache()
        for n in (6, 11, 29, 36):
            factor_mersenne(n, cache=cache)
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_cache(cache, p1)
        save_cache(load_cache(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

        table = tmp_path / "known.txt"
        table.write_text("11 23\n49 4432676798593\n")
        import_known_factors(table, cache)
        save_cache(cache, p1)
        import_known_factors(table, cache)
        save_cache(cache, p2)
        assert p1.read_bytes() == p2.read_bytes()

        stats = FactorStats()
        f = factor_mersenne(36, cache=cache, stats=stats)
        assert f.complete
        assert stats.rho_iterations == 0
        assert stats.cache_hits == 1
