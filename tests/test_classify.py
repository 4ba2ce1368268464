import math
from collections import Counter

import pytest

from mersenne_omega import (
    CensusConfig,
    Clause,
    FactorCache,
    Shape,
    classify_index,
    factor_mersenne,
    lower_bound_divisors,
    lower_bound_omega,
    mersenne,
    run_census,
    verify_identities,
    verify_structure,
    verify_structures_in_range,
)
from mersenne_omega import arith, census, classify, cyclotomic, factoring
from mersenne_omega.factoring import Budget, Factorization, factor_natural


def divisor_form_checks(p: int) -> dict:
    """The 2*l*p + 1 checks verify_structure makes on the primes of 2^p - 1."""
    return {c.q: c for c in verify_structure(p, factor_mersenne(p)).divisor_form_checks}


def test_validate_divisor_form_examples():
    c = divisor_form_checks(11)[23]
    assert (c.l, c.l_class, c.passes) == (1, 1, True)  # (-11) % 4 == 1
    c = divisor_form_checks(11)[89]
    assert (c.l, c.l_class, c.passes) == (4, 0, True)
    c = divisor_form_checks(29)[1103]
    assert (c.l, c.l_class, c.passes) == (19, 3, True)  # (-29) % 4 == 3


def test_validate_divisor_form_errors():
    with pytest.raises(ValueError):
        classify._divisor_form(7, 11)  # 6 not divisible by 22
    with pytest.raises(ValueError):
        classify._divisor_form(23, 4)  # 22 not divisible by 8
    with pytest.raises(ValueError):
        classify._divisor_form(23, 9)  # 22 not divisible by 18


@pytest.mark.parametrize(
    "n,expected",
    [(1, 0), (2, 1), (6, 2), (8, 3), (9, 2), (30, 4), (4, 2), (27, 3), (12, 4)],
)
def test_lower_bound_omega(n, expected):
    assert lower_bound_omega(n) == expected


@pytest.mark.parametrize(
    "n,expected",
    [(1, 0), (2, 1), (6, 2), (7, 1), (12, 4), (64, 6), (30, 6), (49, 2)],
)
def test_lower_bound_divisors(n, expected):
    assert lower_bound_divisors(n) == expected


def test_lower_bound_divisors_dominates_simple_count():
    for n in range(1, 201):
        d = len([h for h in range(1, n + 1) if n % h == 0])
        assert lower_bound_divisors(n) >= d - 3


def _reference_lower_bound_omega(n: int) -> int:
    """The chain/coprime-split floor case by case, from a factorization of
    n: the reference the closed form must match."""
    if n == 1:
        return 0
    if n == 2:
        return 1
    if n == 6:
        return 2
    f = factor_natural(n)
    if f.omega == 1:
        return f.bigomega
    return f.bigomega + 1


def _reference_lower_bound_divisors(n: int) -> int:
    """The divisor floor by listing the divisors of n."""
    divisors = [h for h in range(1, n + 1) if n % h == 0]
    excluded = len({1, 2, 6} & set(divisors))
    return len(divisors) - excluded + (1 if n % 2 == 0 else 0)


def _reference_shape(n: int) -> Shape:
    """The shape of n read from its prime factors rather than its counts."""
    fixed = {1: Shape.ONE, 2: Shape.TWO, 4: Shape.SPECIAL4, 6: Shape.SPECIAL6, 8: Shape.SPECIAL8}
    if n in fixed:
        return fixed[n]
    f = factor_natural(n)
    if f.omega == 1:
        exponent = f.factors[0][1]
        return {1: Shape.PRIME, 2: Shape.PRIME_SQUARED, 3: Shape.PRIME_CUBED}.get(exponent, Shape.OTHER)
    if f.omega == 2 and f.bigomega == 2:
        return Shape.TWO_TIMES_PRIME if f.factors[0][0] == 2 else Shape.TWO_DISTINCT_PRIMES
    return Shape.OTHER


def test_floors_and_shape_match_the_references():
    for n in range(1, 5001):
        assert lower_bound_omega(n) == _reference_lower_bound_omega(n), n
        assert lower_bound_divisors(n) == _reference_lower_bound_divisors(n), n
        form = classify_index(n)
        assert form.shape is _reference_shape(n), n
        assert form.min_omega == max(_reference_lower_bound_omega(n), _reference_lower_bound_divisors(n)), n


@pytest.fixture
def index_factorizations(monkeypatch):
    """Record every value any package module passes to factor_natural."""
    calls = []
    for module in (factoring, cyclotomic, classify, census):
        if not hasattr(module, "factor_natural"):
            continue

        def recording(x, *args, _original=module.factor_natural, **kwargs):
            calls.append(x)
            return _original(x, *args, **kwargs)

        monkeypatch.setattr(module, "factor_natural", recording)
    return calls


def test_classify_index_factors_its_index_once(index_factorizations):
    for n in (3, 9, 10, 12, 15, 27, 30, 97, 360):
        index_factorizations.clear()
        classify_index(n)
        assert index_factorizations == [n]


@pytest.mark.parametrize("n", [21, 33, 35, 39, 55])
def test_verify_structure_factors_its_index_once(index_factorizations, n):
    # n = p1 * p2: clause T3_ii reads p1 and p2 from that one factorization.
    f = factor_mersenne(n)
    index_factorizations.clear()
    verify_structure(n, f)
    assert index_factorizations == [n]


@pytest.mark.parametrize("n", [67, 59])
def test_verify_structure_tests_a_prime_index_once(monkeypatch, n):
    # The shape already says n is prime: the divisor-form checks do not
    # test it again for each listed prime, and factoring n by trial
    # division tests nothing.
    f = factor_mersenne(n)
    tested = Counter()
    original = arith.is_probable_prime

    def counting(x):
        tested[x] += 1
        return original(x)

    monkeypatch.setattr(arith, "is_probable_prime", counting)
    verify_structure(n, f)
    assert tested == {}


def test_census_factors_each_index_once_on_a_warm_cache(index_factorizations):
    cache = FactorCache()
    config = CensusConfig(2, 40)
    run_census(config, cache)
    index_factorizations.clear()
    records, _ = run_census(config, cache)
    assert all(r.complete for r in records)
    assert index_factorizations == list(range(2, 41))


def test_classify_index_shapes():
    cases = {
        1: Shape.ONE,
        2: Shape.TWO,
        4: Shape.SPECIAL4,
        6: Shape.SPECIAL6,
        8: Shape.SPECIAL8,
        5: Shape.PRIME,
        9: Shape.PRIME_SQUARED,
        27: Shape.PRIME_CUBED,
        10: Shape.TWO_TIMES_PRIME,
        15: Shape.TWO_DISTINCT_PRIMES,
        12: Shape.OTHER,
        16: Shape.OTHER,
        30: Shape.OTHER,
        45: Shape.OTHER,
    }
    for n, shape in cases.items():
        assert classify_index(n).shape is shape, n


def test_classify_index_eligibility():
    assert list(classify_index(15).eligible_omega) == [3, "more"]
    assert list(classify_index(30).eligible_omega) == ["more"]
    assert list(classify_index(4).eligible_omega) == [2]
    assert list(classify_index(8).eligible_omega) == [3]
    assert list(classify_index(2).eligible_omega) == [1]
    assert list(classify_index(7).eligible_omega) == [1, 2, 3, "more"]
    assert list(classify_index(49).eligible_omega) == [2, 3, "more"]
    form = classify_index(15)
    assert form.min_omega == 3
    assert form.allows(3) and form.allows(7) and not form.allows(2)


@pytest.mark.parametrize(
    "n, shape, min_omega, eligible",
    [
        (2, "two", 1, [1]),
        (3, "prime", 1, [1, 2, 3, "more"]),
        (4, "special4", 2, [2]),
        (6, "special6", 2, [2]),
        (8, "special8", 3, [3]),
        (9, "prime_squared", 2, [2, 3, "more"]),
        (10, "two_times_prime", 3, [3, "more"]),
        (12, "other", 4, ["more"]),
        (15, "two_distinct_primes", 3, [3, "more"]),
        (27, "prime_cubed", 3, [3, "more"]),
        (343, "prime_cubed", 3, [3, "more"]),
    ],
)
def test_classify_index_pins_each_shape(n, shape, min_omega, eligible):
    form = classify_index(n)
    assert (form.shape.value, form.min_omega, list(form.eligible_omega)) == (shape, min_omega, eligible)


def test_index_one_is_consistent_with_no_primes():
    assert list(classify_index(1).eligible_omega) == [0]
    report = verify_structure(1, factor_mersenne(1))
    assert (report.omega, report.matched_clause, report.consistent) == (0, Clause.NONE, True)


def test_classify_index_floor_never_below_eligible():
    for n in range(1, 129):
        form = classify_index(n)
        for v in (1, 2, 3):
            if v in form.eligible_omega:
                assert v >= form.min_omega, n


def test_verify_structure_examples():
    cases = {
        2: (Clause.T1, "M2"),
        3: (Clause.T1, "M3"),
        4: (Clause.T2_SPECIAL, "M2·5"),
        6: (Clause.T2_SPECIAL, "M2^2·M3"),
        9: (Clause.T2_I, "M3·73"),
        23: (Clause.T2_II, "47·178481"),
        8: (Clause.T3_SPECIAL, "M2·5·17"),
        10: (Clause.T3_I, "M2·M5·11"),
        21: (Clause.T3_II, "M3^2·M7·337"),
        25: (Clause.T3_III, "M5·601·1801"),
        27: (Clause.T3_IV, "M3·73·262657"),
        29: (Clause.T3_V, "233·1103·2089"),
    }
    for n, (clause, decomposition) in cases.items():
        report = verify_structure(n, factor_mersenne(n))
        assert report.matched_clause is clause, n
        assert report.decomposition == decomposition, n
        assert report.consistent, n


def _refuse(n):
    raise AssertionError(f"factored {n}")


M137_PRIMES = (32032215596496435569, 5439042183600204290159)


def test_t3_iii_reads_m_p_off_the_factorization(monkeypatch):
    # The clause check must read M_137's primes off the factorization of
    # M_(137^2), which holds both: factor_natural takes indices, and
    # 2^137 - 1 is past its cap.
    monkeypatch.setattr(classify, "factor_natural", _refuse)
    n = 137**2
    f = Factorization(mersenne(n), tuple((q, 1) for q in (*M137_PRIMES, mersenne(n) // mersenne(137))))
    assert classify._clause_holds(Clause.T3_III, n, f, (137,))


@pytest.mark.parametrize(
    "p, factors",
    [
        (5, ((31, 2), (601, 1), (1801, 1))),  # 31^2 is not 2^5 - 1
        # The second prime of 2^137 - 1 is hidden in a composite "prime".
        (137, ((M137_PRIMES[0], 1), (M137_PRIMES[1] * (mersenne(137**2) // mersenne(137)), 1))),
    ],
    ids=["exponent", "missing"],
)
def test_t3_iii_fails_when_the_primes_of_m_p_do_not_rebuild_it(monkeypatch, p, factors):
    monkeypatch.setattr(classify, "factor_natural", _refuse)
    f = Factorization(mersenne(p * p), factors)
    assert not classify._clause_holds(Clause.T3_III, p * p, f, (p,))


def test_verify_structure_factors_only_n(monkeypatch):
    seen = Counter()
    original = classify.factor_natural

    def counting(x):
        seen[x] += 1
        return original(x)

    monkeypatch.setattr(classify, "factor_natural", counting)
    report = verify_structure(25, factor_mersenne(25))
    assert (report.matched_clause, report.consistent) == (Clause.T3_III, True)
    assert seen == {25: 1}


def test_verify_structure_large_omega_has_no_clause():
    report = verify_structure(12, factor_mersenne(12))
    assert report.omega == 4
    assert report.matched_clause is Clause.NONE
    assert report.consistent


def test_verify_structure_rejects_partial():
    partial = Factorization(mersenne(11), ((23, 1),), 89)
    with pytest.raises(ValueError):
        verify_structure(11, partial)


def test_verify_structure_detects_wrong_shape():
    # forge an impossible "omega = 1" factorization for n = 12
    fake = Factorization(mersenne(12), ((4095, 1),))
    report = verify_structure(12, fake)
    assert not report.consistent
    assert report.matched_clause is Clause.NONE


def test_structure_consistent_through_64():
    suite = verify_structures_in_range(64)
    assert suite.failed == 0 and suite.inconclusive == 0
    assert suite.passed == 63


def test_bounds_hold_through_64():
    for n in range(2, 65):
        omega = factor_mersenne(n).omega
        assert omega >= lower_bound_omega(n), n
        assert omega >= lower_bound_divisors(n), n
        form = classify_index(n)
        assert form.allows(omega), n


def test_exponent_gcd_when_omega_at_most_3():
    for n in range(2, 65):
        f = factor_mersenne(n)
        exponents = [e for _, e in f.factors]
        if f.omega in (2, 3):
            assert math.gcd(*exponents) == 1, n


def test_divisor_form_on_all_prime_index_factors():
    for p in range(3, 62, 2):
        if any(p % r == 0 for r in range(2, p)):
            continue
        checks = divisor_form_checks(p)
        assert sorted(checks) == list(factor_mersenne(p).primes()), p
        for q, c in checks.items():
            assert c.passes, (p, q)


def test_verify_identities_all_pass_at_40():
    report = verify_identities(40)
    assert all(s.ok for s in report.suites)
    assert sum(s.inconclusive for s in report.suites) == 0
    names = [s.name for s in report.suites]
    assert names == [
        "gcd_identity",
        "omega_superadditivity",
        "perfect_power_absence",
        "quotient_residue",
    ]
    by_name = {s.name: s for s in report.suites}
    assert by_name["gcd_identity"].passed == 820  # pairs with 1 <= a <= b <= 40
    assert by_name["perfect_power_absence"].passed == 199  # floor of 200 applies


def test_verify_identities_skips_product_six():
    report = verify_identities(6)
    by_name = {s.name: s for s in report.suites}
    # the only coprime pair with product <= 6 is (2, 3), which is skipped
    assert by_name["omega_superadditivity"].passed == 0
    assert by_name["omega_superadditivity"].failed == 0


def test_verify_identities_minimum_range():
    report = verify_identities(2)
    assert all(s.ok for s in report.suites)
    with pytest.raises(ValueError):
        verify_identities(1)


def test_verify_identities_marks_budget_gaps_inconclusive():
    starved = Budget(rho_iterations_max=1, trial_division_bound=3)
    report = verify_identities(40, budget=starved, cache=FactorCache())
    by_name = {s.name: s for s in report.suites}
    assert by_name["omega_superadditivity"].failed == 0
    assert by_name["omega_superadditivity"].inconclusive > 0


def test_verify_identities_names_each_suite_first_failure(monkeypatch):
    # A forged 2^6 - 1 = 62 breaks the gcd and quotient-residue identities.
    # Each suite counts every failure and formats only its first.
    monkeypatch.setattr(classify, "mersenne", lambda k: 62 if k == 6 else (1 << k) - 1)
    by_name = {s.name: s for s in verify_identities(12).suites}
    assert by_name["gcd_identity"].failed == 8
    assert by_name["gcd_identity"].first_failure == "gcd(M2, M6) != M2"
    assert by_name["quotient_residue"].failed == 2
    assert by_name["quotient_residue"].first_failure == "quotient residue mismatch at p=2, m=3"
    assert by_name["perfect_power_absence"].ok and by_name["omega_superadditivity"].ok


def test_structure_check_names_its_first_inconsistency(monkeypatch):
    consistent = classify.verify_structure

    def forged(n, f):
        report = consistent(n, f)
        return report._replace(consistent=n % 5 != 0)

    monkeypatch.setattr(classify, "verify_structure", forged)
    result = verify_structures_in_range(12)
    assert result.failed == 2
    assert result.first_failure == f"n=5: inconsistent ({forged(5, factor_mersenne(5)).decomposition})"
