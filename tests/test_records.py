"""The result records: constructors, defaults, checks, immutability,
hashing and equality, whatever class implements them."""

import types

import pytest

from mersenne_omega.census import ASYMPTOTIC_NOTE, CensusConfig, CensusRecord, CensusSummary, census_csv
from mersenne_omega.classify import (
    CandidateForm,
    ClassificationReport,
    Clause,
    DivisorFormCheck,
    IdentityReport,
    Shape,
    SuiteResult,
)
from mersenne_omega.cyclotomic import CyclotomicPart, PrimitiveReport
from mersenne_omega.factoring import Budget, Factorization, FactorStats
from mersenne_omega.storage import ImportSummary

CHECK = DivisorFormCheck(q=23, p=11, l=1, l_class=1, passes=True)
SUITE = SuiteResult(name="identity", passed=3, failed=0)

# One keyword set per frozen record, every field given, in field order.
RECORDS = [
    (Budget, dict(rho_iterations_max=1000, trial_division_bound=5000)),
    (Factorization, dict(target=2047, factors=((23, 1),), cofactor=89)),
    (CyclotomicPart, dict(d=6, value=3, intrinsic=3)),
    (PrimitiveReport, dict(n=11, primitive_primes=(23, 89), primitive_part=2047)),
    (CandidateForm, dict(n=9, shape=Shape.PRIME_SQUARED, min_omega=2, eligible_omega=(2, 3))),
    (DivisorFormCheck, dict(q=23, p=11, l=1, l_class=1, passes=True)),
    (
        ClassificationReport,
        dict(
            n=11,
            omega=2,
            matched_clause=Clause.T2_I,
            decomposition="23 · 89",
            consistent=True,
            divisor_form_checks=(CHECK,),
        ),
    ),
    (SuiteResult, dict(name="identity", passed=3, failed=1, inconclusive=2, first_failure="n=4")),
    (IdentityReport, dict(max_n=12, suites=(SUITE,))),
    (CensusConfig, dict(n_min=2, n_max=40, epsilon=0.25, budget=Budget(1000))),
    (
        CensusRecord,
        dict(
            n=12,
            d_n=6,
            omega_n=2,
            bigomega_n=3,
            omega_M=4,
            bound_prop2=4,
            bound_divisors=3,
            hw_value=1.5,
            lemma6_holds=True,
            final_inequality_holds=True,
            complete=True,
        ),
    ),
    (
        CensusSummary,
        dict(
            n_min=2,
            n_max=12,
            epsilon=0.5,
            records_total=11,
            complete_count=11,
            incomplete_count=0,
            lemma6_fraction=1.0,
            lemma6_upper_fraction=0.9,
            final_fraction=1.0,
            deterministic_violations=(),
            uncorrected_bound_witnesses=(4, 8, 9),
            asymptotic_note="note",
        ),
    ),
    (ImportSummary, dict(lines_total=3, accepted=2, rejected=((3, "10 is composite"),))),
]
IDS = [cls.__name__ for cls, _ in RECORDS]


@pytest.mark.parametrize("cls, fields", RECORDS, ids=IDS)
def test_record_takes_its_fields_by_position_or_keyword(cls, fields):
    by_name = cls(**fields)
    assert cls(*fields.values()) == by_name
    for name, value in fields.items():
        assert getattr(by_name, name) == value


@pytest.mark.parametrize("cls, fields", RECORDS, ids=IDS)
def test_record_is_frozen_hashable_and_equal_field_by_field(cls, fields):
    record = cls(**fields)
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(record, name, 0)
    with pytest.raises(AttributeError):
        record.not_a_field = 0
    twin = cls(**fields)
    assert twin == record and not twin != record
    assert hash(twin) == hash(record)
    assert len({record, twin}) == 1


def test_records_differing_in_one_field_are_unequal():
    assert Budget(1) != Budget(2)
    assert Factorization(7, ((7, 1),)) != Factorization(7, (), 7)
    assert SuiteResult("a", 1, 0) != SuiteResult("b", 1, 0)
    assert CyclotomicPart(2, 3, 1) != CyclotomicPart(2, 3, 3)


def test_record_defaults():
    assert Budget() == Budget(1 << 26, 2_000_000)
    assert Budget(rho_iterations_max=7).trial_division_bound == 2_000_000
    assert Factorization(7, ((7, 1),)).cofactor == 1
    assert SuiteResult("s", 1, 0) == SuiteResult("s", 1, 0, 0, None)
    config = CensusConfig(2, 9)
    assert (config.epsilon, config.budget) == (0.5, None)
    fields = dict(RECORDS[IDS.index("CensusSummary")][1])
    del fields["asymptotic_note"]
    assert CensusSummary(**fields).asymptotic_note == ASYMPTOTIC_NOTE


def test_record_properties_and_methods():
    f = Factorization(2047, ((23, 1),), 89)
    assert (f.complete, f.status, f.omega, f.bigomega) == (False, "partial", 1, 1)
    assert (f.primes(), f.exponent_of(23), f.exponent_of(89)) == ((23,), 1, 0)
    assert f.product() == 2047 and f.reconstructs()
    form = CandidateForm(9, Shape.PRIME_SQUARED, 2, (2, 3, "more"))
    assert form.allows(3) and form.allows(5) and not form.allows(1)
    assert list(form.eligible_omega) == [2, 3, "more"]
    assert SUITE.ok and not SuiteResult("s", 1, 1).ok
    report = IdentityReport(12, (SUITE, SuiteResult("t", 0, 0, inconclusive=4)))
    assert all(s.ok for s in report.suites) and sum(s.inconclusive for s in report.suites) == 4
    assert ImportSummary(3, 1, ((1, "a"), (2, "b"))).rejected_count == 2


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Budget(0), "rho_iterations_max must be positive"),
        (lambda: Budget(trial_division_bound=-1), "trial_division_bound must be positive"),
        (lambda: Factorization(0, ()), "target and cofactor must be >= 1"),
        (lambda: Factorization(12, ((2, 1),), 0), "target and cofactor must be >= 1"),
        (lambda: Factorization(2047, ((89, 1), (23, 1))), "primes must be strictly ascending"),
        (lambda: Factorization(2047, ((23, 1), (23, 1))), "primes must be strictly ascending"),
        (lambda: Factorization(9, ((3, 0),)), "exponents must be positive"),
        (lambda: CensusConfig(1, 10), "need 2 <= n_min <= n_max"),
        (lambda: CensusConfig(n_min=10, n_max=9), "need 2 <= n_min <= n_max"),
        (lambda: CensusConfig(2, 10, epsilon=1.0), r"epsilon must lie in \(0, 1\)"),
    ],
)
def test_checked_records_refuse_bad_arguments(build, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        build()


def test_stats_counters_start_at_zero_and_count():
    stats = FactorStats()
    names = ("rho_iterations", "rho_calls", "trial_candidates", "cache_hits")
    for k, name in enumerate(names, start=1):
        assert getattr(stats, name) == 0
        setattr(stats, name, getattr(stats, name) + k)
    assert stats == FactorStats(1, 2, 3, 4) == FactorStats(**dict(zip(names, (1, 2, 3, 4))))
    assert stats != FactorStats(1, 2, 3, 5)
    assert repr(stats) == "FactorStats(rho_iterations=1, rho_calls=2, trial_candidates=3, cache_hits=4)"
    with pytest.raises(AttributeError):
        stats.not_a_counter = 1
    with pytest.raises(TypeError):
        hash(stats)


def test_census_csv_reads_records_by_name():
    fields = RECORDS[IDS.index("CensusRecord")][1]
    plain = types.SimpleNamespace(**fields)
    assert census_csv([plain]) == census_csv([CensusRecord(**fields)])
