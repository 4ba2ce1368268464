import math

import pytest

from mersenne_omega import (
    ASYMPTOTIC_NOTE,
    CensusConfig,
    FactorCache,
    census_csv,
    hw_bounds,
    index_functions,
    run_census,
)
from mersenne_omega.factoring import Budget


def test_index_functions():
    assert index_functions(1) == (1, 0, 0)
    assert index_functions(12) == (6, 2, 3)
    assert index_functions(49) == (3, 1, 2)
    assert index_functions(64) == (7, 1, 6)
    with pytest.raises(ValueError):
        index_functions(0)


def test_index_functions_monotone_relations():
    for n in range(2, 301):
        d, omega, bigomega = index_functions(n)
        assert d >= omega + 1
        assert bigomega >= omega


def test_hw_bound_values():
    assert hw_bounds(16, 1.0)[0] == 1.0
    assert abs(hw_bounds(100, 0.5)[0] - 1.6977097313872687) < 1e-9
    assert abs(hw_bounds(3, 0.5)[0] - 1.0331315125119924) < 1e-9
    # direct formula oracle
    for n, eps in ((10, 0.25), (64, 0.5), (1000, 0.75)):
        assert hw_bounds(n, eps)[0] == 2.0 ** ((1.0 - eps) * math.log(math.log(n)))


def test_hw_bounds_two_sided():
    low, high = hw_bounds(100, 0.5)
    assert low == 2.0 ** (0.5 * math.log(math.log(100)))
    assert high == 2.0 ** (1.5 * math.log(math.log(100)))
    assert low < high


def test_hw_bound_domain():
    with pytest.raises(ValueError):
        hw_bounds(2, 0.5)


def test_census_config_validation():
    with pytest.raises(ValueError):
        CensusConfig(1, 10)
    with pytest.raises(ValueError):
        CensusConfig(5, 4)
    with pytest.raises(ValueError):
        CensusConfig(2, 10, epsilon=0.0)
    with pytest.raises(ValueError):
        CensusConfig(2, 10, epsilon=1.0)


def test_census_full_range():
    records, summary = run_census(CensusConfig(2, 64, epsilon=0.5))
    assert len(records) == 63
    assert summary.records_total == 63
    assert summary.complete_count == 63 and summary.incomplete_count == 0
    assert summary.deterministic_violations == ()
    assert summary.final_fraction == 1.0
    assert summary.asymptotic_note == ASYMPTOTIC_NOTE
    for r in records:
        if r.complete:
            assert r.omega_M >= r.bound_prop2
            assert r.omega_M >= r.bound_divisors


def test_census_uncorrected_bound_witnesses():
    _, summary = run_census(CensusConfig(8, 9))
    assert summary.uncorrected_bound_witnesses == (8, 9)
    _, full = run_census(CensusConfig(2, 64))
    witnesses = set(full.uncorrected_bound_witnesses)
    assert {8, 9} <= witnesses
    expected = {3, 4, 5, 7, 8, 9, 13, 16, 17, 19, 27, 31, 32, 49, 61}
    assert witnesses == expected
    # every witness is a prime power
    for n in witnesses:
        _, omega_n, _ = index_functions(n)
        assert omega_n == 1, n


def test_census_boundary_record_has_no_band_fields():
    records, summary = run_census(CensusConfig(2, 2, epsilon=0.5))
    (record,) = records
    assert record.n == 2
    assert record.hw_value is None
    assert record.lemma6_holds is None
    assert record.final_inequality_holds is None
    assert record.complete
    assert summary.lemma6_fraction is None


def test_census_marks_incomplete_records():
    starved = Budget(rho_iterations_max=1, trial_division_bound=3)
    records, summary = run_census(CensusConfig(2, 40, budget=starved), FactorCache())
    assert summary.incomplete_count > 0
    incomplete = [r for r in records if not r.complete]
    for r in incomplete:
        assert r.omega_M is None
        assert r.final_inequality_holds is None


def test_census_reproducible_byte_identical():
    a_records, _ = run_census(CensusConfig(2, 40))
    b_records, _ = run_census(CensusConfig(2, 40), FactorCache())
    a = census_csv(a_records)
    b = census_csv(b_records)
    assert a == b
